"""Flight recorder: capture the delivered message stream, replay it later.

A :class:`FlightRecorder` is called directly by the runtime it is
attached to — once per run marker, settled round and fault-plane
intervention — and serializes everything that *actually arrived* (post
fault-plane, post scheduler) into a versioned JSONL log.  Payloads go
over the same wire codec real deployments would use
(:mod:`repro.net.codec`), so a flight log is a faithful byte-level
record of the run, not a Python-pickle diary.  It also logs the two
guard facts deliveries cannot rebuild — a player parked on a guard, a
parked player woke — which is all :mod:`repro.obs.liveness` needs to
derive wait records and stalls.

Recording only reads what the runtime hands it, so a run without a
recorder attached executes byte-identically to one with — the same
``NULL_RECORDER`` discipline the span layer follows.

What a log buys you:

* :func:`replay` — re-drive the decode paths (codec round-trip, inbox
  reconstruction, Coin-Expose Berlekamp-Welch decoding) from the log
  alone, with no live network;
* :func:`diff` — compare two logs and report the first divergent
  ``(run, round, sender, receiver, tag)``, the tool for "these two runs
  should have been identical — where did they fork?";
* :mod:`repro.obs.forensics` — replay a faulty run and decide *which
  player* misbehaved, with event indices into the log as evidence.

Log format (one JSON object per line)::

    {"flight": 1, "n": 7, "t": 1, "field": "gf2k:32", "seed": 3}
    {"e": "run", "i": 0}
    {"e": "round", "i": 1, "run": 1, "r": 1, "d": [[2, 1, "28022..."], ...]}
    {"e": "fault", "i": 2, "run": 1, "r": 3, "k": "crash", "src": 4, "dst": 0}
    {"e": "armed", "i": 3, "run": 1, "r": 3, "pid": 2, "w": [[["rbc/echo"], 5]]}
    {"e": "fired", "i": 9, "run": 1, "r": 8, "pid": 2}

``i`` is the event index (0-based, in arrival order) — forensics cites
these as evidence.  Delivery triples are ``[dst, src, payload_hex]``;
payloads outside the codec vocabulary fall back to ``[dst, src,
{"repr": ...}]`` and replay as :class:`OpaquePayload`.  An ``armed``
line's ``w`` holds one ``[[tags...], quorum]`` branch per
:class:`~repro.net.guards.Wait` of the guard (several for an
``AnyWait``).  Only guarded programs write guard lines, and replay,
diff, forensics and the causal graph ignore them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Tuple

from repro.net import codec
from repro.net.metrics import payload_tag

#: current flight-log schema version; bumped on any incompatible change
FLIGHT_VERSION = 1


# -- field specs ------------------------------------------------------------

def field_spec(field) -> str:
    """A compact, reconstructible name for ``field`` (``"gf2k:32"``)."""
    kind = type(field).__name__
    if kind == "GF2k":
        return f"gf2k:{field.k}"
    if kind == "GFp":
        return f"gfp:{field.p}"
    return f"{kind.lower()}:{field.order}"


def field_from_spec(spec: str):
    """Rebuild the field a log was recorded under from its spec string."""
    kind, _, parameter = spec.partition(":")
    if kind == "gf2k":
        from repro.fields.gf2k import GF2k

        return GF2k(int(parameter))
    if kind == "gfp":
        from repro.fields.gfp import GFp

        return GFp(int(parameter))
    raise ValueError(f"unknown field spec {spec!r}")


# -- events -----------------------------------------------------------------

@dataclass(frozen=True)
class OpaquePayload:
    """Replay stand-in for a payload the wire codec could not encode."""

    text: str


def _encode_payload(payload: Any):
    return codec.wire_key(payload, opaque=lambda text: {"repr": text})


def _get(record, key: str, kind=int, optional: bool = False):
    """``record[key]``, checked — a log is input from outside the program."""
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {record!r}")
    value = record.get(key)
    if value is None and optional:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"key {key!r}: expected {kind.__name__}, got {value!r}"
        )
    return value


def _player(value, n: int, what: str) -> int:
    """``value``, checked to be one of the header's players ``1..n``."""
    if type(value) is not int or not 1 <= value <= n:
        raise ValueError(f"{what} {value!r} is not a player id in 1..{n}")
    return value


def _decode_delivery(item, n: int) -> Tuple[int, int, Any]:
    dst, src, wire = item
    _player(dst, n, "delivery dst")
    _player(src, n, "delivery src")
    if isinstance(wire, str):
        return dst, src, codec.decode(bytes.fromhex(wire))
    return dst, src, OpaquePayload(_get(wire, "repr", str))


def _decode_waits(value) -> Tuple[Tuple[Tuple[str, ...], int], ...]:
    """An ``armed`` line's ``w``: a non-empty list of ``[[tag, ...],
    quorum]`` branches, every tag a string and every quorum a count."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"guard {value!r}: expected a non-empty list")
    for branch in value:
        if not isinstance(branch, list) or len(branch) != 2:
            raise ValueError(f"guard branch {branch!r}: expected a pair")
        tags, quorum = branch
        if not (isinstance(tags, list) and tags
                and all(isinstance(tag, str) for tag in tags)):
            raise ValueError(f"guard tags {tags!r}: expected strings")
        if type(quorum) is not int or quorum < 0:
            raise ValueError(f"guard quorum {quorum!r}: expected a count")
    return tuple((tuple(tags), quorum) for tags, quorum in value)


@dataclass(frozen=True)
class RoundEvent:
    """One settled round: what every player actually received."""

    index: int  #: event index in the log (evidence handle)
    run: int    #: 1-based protocol-run number within the log
    round: int  #: 1-based round number within the run
    #: ``(dst, src, payload)`` in delivery order, payloads decoded
    deliveries: Tuple[Tuple[int, int, Any], ...]

    def inboxes(self) -> Dict[int, Dict[int, List[Any]]]:
        """Rebuild ``{dst: {src: [payloads]}}`` exactly as the runtime did."""
        out: Dict[int, Dict[int, List[Any]]] = {}
        for dst, src, payload in self.deliveries:
            out.setdefault(dst, {}).setdefault(src, []).append(payload)
        return out


@dataclass(frozen=True)
class FaultEvent:
    """One fault-plane intervention (edge rewrite or player suppression)."""

    index: int
    run: int
    round: int
    kind: str  #: drop / duplicate / delay / crash / silence
    src: int
    dst: int   #: 0 means "all destinations" (player-level fault)


@dataclass(frozen=True)
class GuardEvent:
    """A guarded player parked on a guard (``armed``) or woke from it."""

    index: int
    run: int
    round: int  #: the runtime's logical clock (round number on lockstep)
    pid: int
    #: ``((tags, quorum), ...)``, one per Wait of the guard; () when fired
    waits: Tuple[Tuple[Tuple[str, ...], int], ...] = ()


@dataclass
class FlightLog:
    """A parsed flight log: header plus the ordered event stream."""

    n: int
    t: int
    field: Optional[str] = None  #: field spec string, when known
    seed: Optional[int] = None
    version: int = FLIGHT_VERSION
    rounds: List[RoundEvent] = dataclass_field(default_factory=list)
    faults: List[FaultEvent] = dataclass_field(default_factory=list)
    #: total events recorded (run markers included), for index bookkeeping
    event_count: int = 0
    #: optional provenance stamp (a RunManifest dict); carried in the
    #: header, ignored by diff/replay (same version-1 wire format —
    #: readers without manifest support skip the unknown header key)
    manifest: Optional[Dict[str, Any]] = None
    #: the ``armed`` / ``fired`` lines, in log order
    guards: List[GuardEvent] = dataclass_field(default_factory=list)

    # -- (de)serialization --------------------------------------------------
    def dumps(self) -> str:
        header = {"flight": self.version, "n": self.n, "t": self.t}
        if self.field is not None:
            header["field"] = self.field
        if self.seed is not None:
            header["seed"] = self.seed
        if self.manifest:
            header["manifest"] = self.manifest
        lines = [json.dumps(header, sort_keys=True)]
        events: List[Tuple[int, dict]] = []
        for index in self._run_marker_indices():
            events.append((index, {"e": "run", "i": index}))
        for event in self.rounds:
            events.append((event.index, {
                "e": "round", "i": event.index, "run": event.run,
                "r": event.round,
                "d": [[dst, src, _encode_payload(payload)]
                      for dst, src, payload in event.deliveries],
            }))
        for event in self.faults:
            events.append((event.index, {
                "e": "fault", "i": event.index, "run": event.run,
                "r": event.round, "k": event.kind,
                "src": event.src, "dst": event.dst,
            }))
        for event in self.guards:
            record = {"e": "armed" if event.waits else "fired",
                      "i": event.index, "run": event.run,
                      "r": event.round, "pid": event.pid}
            if event.waits:
                record["w"] = [[list(tags), quorum]
                               for tags, quorum in event.waits]
            events.append((event.index, record))
        events.sort(key=lambda pair: pair[0])
        lines.extend(json.dumps(record, sort_keys=True)
                     for _, record in events)
        return "\n".join(lines) + "\n"

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "FlightLog":
        """Parse a log; any malformed input is a ``ValueError`` naming
        the line (never a ``KeyError`` or a codec error from inside)."""
        if not isinstance(text, str):
            raise ValueError(f"a flight log is text, got {type(text).__name__}")
        log = None
        run = 0
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if log is None:
                    log = cls._from_header(record)
                    continue
                kind, index = _get(record, "e", str), _get(record, "i")
                if kind == "run":
                    run += 1
                elif kind == "round":
                    log.rounds.append(RoundEvent(
                        index=index,
                        run=_get(record, "run", optional=True) or run or 1,
                        round=_get(record, "r"),
                        deliveries=tuple(
                            _decode_delivery(item, log.n)
                            for item in _get(record, "d", list)
                        ),
                    ))
                elif kind == "fault":
                    dst = _get(record, "dst")
                    if dst != 0:  # 0: every destination (a player's fault)
                        _player(dst, log.n, "fault dst")
                    log.faults.append(FaultEvent(
                        index=index,
                        run=_get(record, "run", optional=True) or run or 1,
                        round=_get(record, "r"), kind=_get(record, "k", str),
                        src=_player(_get(record, "src"), log.n, "fault src"),
                        dst=dst,
                    ))
                elif kind in ("armed", "fired"):
                    log.guards.append(GuardEvent(
                        index=index,
                        run=_get(record, "run", optional=True) or run or 1,
                        round=_get(record, "r"),
                        pid=_player(record.get("pid"), log.n, f"{kind} pid"),
                        waits=(_decode_waits(record.get("w"))
                               if kind == "armed" else ()),
                    ))
                else:
                    raise ValueError(f"unknown flight event kind {kind!r}")
                log.event_count = max(log.event_count, index + 1)
            except (ValueError, TypeError, codec.CodecError) as error:
                # TypeError: a delivery that is not a [dst, src, wire] list
                raise ValueError(f"line {number}: {error}") from None
        if log is None:
            raise ValueError("empty flight log")
        return log

    @classmethod
    def _from_header(cls, header) -> "FlightLog":
        version = _get(header, "flight")
        if version != FLIGHT_VERSION:
            raise ValueError(
                f"unsupported flight log version {version!r} "
                f"(this build reads version {FLIGHT_VERSION})"
            )
        return cls(n=_get(header, "n"), t=_get(header, "t"),
                   field=_get(header, "field", str, optional=True),
                   seed=_get(header, "seed", optional=True),
                   version=version,
                   manifest=_get(header, "manifest", dict, optional=True))

    @classmethod
    def load(cls, path: str) -> "FlightLog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    # -- views --------------------------------------------------------------
    def runs(self) -> List[int]:
        """The distinct run numbers appearing in the log, in order."""
        seen: List[int] = []
        for event in self.rounds:
            if not seen or event.run != seen[-1]:
                seen.append(event.run)
        return seen

    def rounds_by_run(self) -> Dict[int, List[RoundEvent]]:
        """``{run: [its round events, in order]}``."""
        out: Dict[int, List[RoundEvent]] = {}
        for event in self.rounds:
            out.setdefault(event.run, []).append(event)
        return out

    def events(self) -> list:
        """Round, fault and guard events merged back into log order."""
        return sorted([*self.rounds, *self.faults, *self.guards],
                      key=lambda event: event.index)

    def _run_marker_indices(self) -> List[int]:
        """Reconstruct where run-boundary markers sat in the event stream.

        Marker indices are exactly the indices no other event occupies;
        recomputing them keeps the event classes free of marker
        bookkeeping.
        """
        used = {event.index for event in self.events()}
        return [index for index in range(self.event_count)
                if index not in used]


class FlightRecorder:
    """Record a protocol session's delivered-message stream into a log.

    Attach to a context (every network it builds then records here) or
    to one runtime, *before* running::

        ctx = ProtocolContext.create(field, n=7, t=1, seed=3)
        recorder = FlightRecorder(n=7, t=1, field=field, seed=3).attach(ctx)
        run_coin_gen(ctx, M=8)
        recorder.log().dump("run.flightlog")

    Every ``run()`` opens with :meth:`on_run`, and that marker alone
    delimits protocol runs: each event belongs to the run last opened.
    """

    def __init__(self, n: int, t: int, field=None, seed: Optional[int] = None,
                 manifest: Optional[Dict[str, Any]] = None):
        self.n = n
        self.t = t
        self.field_spec = field_spec(field) if field is not None else None
        self.seed = seed
        self.manifest = manifest
        self._rounds: List[RoundEvent] = []
        self._faults: List[FaultEvent] = []
        self._guards: List[GuardEvent] = []
        self._index = 0
        #: 1-based number of the run in progress (0 before the first)
        self._run = 0

    def attach(self, holder) -> "FlightRecorder":
        """Record every run of ``holder`` — a
        :class:`~repro.protocols.context.ProtocolContext` or a runtime."""
        holder.flight = self
        return self

    # -- runtime calls ------------------------------------------------------
    def on_run(self) -> None:
        self._run += 1
        self._index += 1  # the marker occupies one event index

    def on_round(self, round_no: int, deliveries) -> None:
        self._rounds.append(RoundEvent(
            index=self._index, run=self._run, round=round_no,
            deliveries=tuple((dst, src, payload)
                             for dst, src, payload in deliveries),
        ))
        self._index += 1

    def on_fault(self, round_no: int, kind: str, src: int, dst: int) -> None:
        self._faults.append(FaultEvent(
            index=self._index, run=self._run, round=round_no,
            kind=kind, src=src, dst=dst,
        ))
        self._index += 1

    def on_guard(self, time: int, pid: int, guard=None) -> None:
        """``pid`` parked on ``guard`` (an ``armed`` line) or woke from
        it (a ``fired`` line, no guard)."""
        branches = () if guard is None else getattr(guard, "waits", (guard,))
        self._guards.append(GuardEvent(
            index=self._index, run=self._run, round=time, pid=pid,
            waits=tuple((tuple(w.tags), w.quorum) for w in branches),
        ))
        self._index += 1

    # -- output -------------------------------------------------------------
    def log(self) -> FlightLog:
        return FlightLog(
            n=self.n, t=self.t, field=self.field_spec, seed=self.seed,
            rounds=list(self._rounds), faults=list(self._faults),
            event_count=self._index, manifest=self.manifest,
            guards=list(self._guards),
        )

    def dump(self, path: str) -> None:
        self.log().dump(path)


# -- replay -----------------------------------------------------------------

@dataclass(frozen=True)
class ExposeDecode:
    """One receiver's Berlekamp-Welch decode of one exposed coin."""

    run: int
    coin_id: str
    receiver: int
    value: Optional[Any]  #: decoded F(0), or None when undecodable
    senders: Tuple[int, ...]  #: who contributed a share to this view


@dataclass
class ReplayResult:
    """Everything :func:`replay` re-derived from a log, no network needed."""

    log: FlightLog
    #: per-round reconstructed inboxes: (run, round) -> {dst: {src: [payload]}}
    inboxes: Dict[Tuple[int, int], Dict[int, Dict[int, List[Any]]]]
    #: per-round tag tally: (run, round) -> {tag: count}
    tags: Dict[Tuple[int, int], Dict[str, int]]
    #: Coin-Expose decodes re-driven through the real decoder
    expose_decodes: List[ExposeDecode]

    def decoded_values(self) -> Dict[Tuple[int, str], Dict[int, Any]]:
        """``{(run, coin_id): {receiver: value}}`` for quick unanimity checks."""
        out: Dict[Tuple[int, str], Dict[int, Any]] = {}
        for decode in self.expose_decodes:
            out.setdefault((decode.run, decode.coin_id), {})[
                decode.receiver
            ] = decode.value
        return out


def replay(log: FlightLog, field=None, t: Optional[int] = None) -> ReplayResult:
    """Re-drive a log's decode paths without a live network.

    Payloads were codec round-tripped at load time; here the per-round
    inboxes are rebuilt exactly as the runtime built them, and every
    exposure is pushed through the real
    :func:`~repro.protocols.coin_expose.decode_exposed` decoder — once
    per (run, coin, receiver), over every share that reached that
    receiver in the run
    (:func:`~repro.protocols.coin_expose.exposure_shares` states the
    rule and why it reproduces the live value on both runtimes), so
    equivocated shares produce the same (possibly divergent) values the
    live players saw.

    ``field`` defaults to the log's recorded field spec; expose decoding
    is skipped when neither is available.  ``t`` defaults to the log's.
    """
    from repro.protocols.coin_expose import (
        decode_exposed,
        expose_tag,
        exposure_shares,
        share_points,
    )

    if field is None and log.field is not None:
        field = field_from_spec(log.field)
    if t is None:
        t = log.t

    inboxes: Dict[Tuple[int, int], Dict[int, Dict[int, List[Any]]]] = {}
    tags: Dict[Tuple[int, int], Dict[str, int]] = {}
    for event in log.rounds:
        key = (event.run, event.round)
        inboxes[key] = event.inboxes()
        tally = tags.setdefault(key, {})
        for _dst, _src, payload in event.deliveries:
            tag = payload_tag(payload)
            tally[tag] = tally.get(tag, 0) + 1
    decodes: List[ExposeDecode] = []
    runs = log.rounds_by_run() if field is not None else {}
    players = range(1, log.n + 1)
    for run, events in runs.items():
        views = exposure_shares(
            delivery for event in events for delivery in event.deliveries
        )
        for receiver, coins in sorted(views.items()):
            for coin_id, inbox in sorted(coins.items()):
                xs, ys = share_points(
                    field, inbox, expose_tag(coin_id), players
                )
                decodes.append(ExposeDecode(
                    run=run, coin_id=coin_id, receiver=receiver,
                    value=decode_exposed(field, xs, ys, t),
                    senders=tuple(sorted(inbox)),
                ))
    return ReplayResult(log=log, inboxes=inboxes, tags=tags,
                        expose_decodes=decodes)


# -- diff -------------------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    """The first point where two flight logs disagree."""

    run: int
    round: int
    sender: int
    receiver: int
    tag: str
    reason: str

    def __str__(self) -> str:
        where = f"run {self.run} round {self.round}"
        if self.sender or self.receiver:
            where += f", {self.sender} -> {self.receiver}"
        if self.tag:
            where += f" [{self.tag}]"
        return f"{where}: {self.reason}"


def _delivery_key(delivery) -> Tuple[int, int, str]:
    dst, src, payload = delivery
    return (dst, src, codec.wire_key(payload))


def diff(log_a: FlightLog, log_b: FlightLog) -> Optional[Divergence]:
    """First divergent ``(run, round, sender, receiver, tag)`` — or None.

    Per-round delivery sets are compared order-insensitively (schedulers
    permute arrival order without changing what arrives); header
    mismatches and missing rounds report with sender/receiver 0.  Two
    logs that diverge *and* whose manifests name different schedulers —
    e.g. async recordings made under different seeded-pick contracts —
    report that as a header mismatch naming both, not as whichever
    delivery happened to differ first.
    """
    if (log_a.n, log_a.t, log_a.field) != (log_b.n, log_b.t, log_b.field):
        return Divergence(0, 0, 0, 0, "", reason=(
            f"header mismatch: n/t/field "
            f"({log_a.n},{log_a.t},{log_a.field}) vs "
            f"({log_b.n},{log_b.t},{log_b.field})"
        ))
    divergence = _first_divergent_delivery(log_a, log_b)
    if divergence is not None:
        named_a = (log_a.manifest or {}).get("scheduler")
        named_b = (log_b.manifest or {}).get("scheduler")
        if named_a is not None and named_b is not None and named_a != named_b:
            return Divergence(0, 0, 0, 0, "", reason=(
                f"header mismatch: scheduler {named_a} vs {named_b} "
                "(delivery orders of different schedules are not comparable)"
            ))
    return divergence


def _first_divergent_delivery(
    log_a: FlightLog, log_b: FlightLog
) -> Optional[Divergence]:
    rounds_a = {(event.run, event.round): event for event in log_a.rounds}
    rounds_b = {(event.run, event.round): event for event in log_b.rounds}
    for key in sorted(set(rounds_a) | set(rounds_b)):
        run, round_no = key
        event_a, event_b = rounds_a.get(key), rounds_b.get(key)
        if event_a is None or event_b is None:
            present = "B" if event_a is None else "A"
            return Divergence(run, round_no, 0, 0, "", reason=(
                f"round present only in log {present}"
            ))
        set_a = sorted(_delivery_key(d) for d in event_a.deliveries)
        set_b = sorted(_delivery_key(d) for d in event_b.deliveries)
        if set_a == set_b:
            continue
        # multiset difference: a delivery duplicated in one log but not
        # the other diverges even though plain membership agrees
        count_a, count_b = Counter(set_a), Counter(set_b)
        only_a = sorted((count_a - count_b).elements())
        only_b = sorted((count_b - count_a).elements())
        dst, src, wire = (only_a or only_b)[0]
        try:
            tag = payload_tag(codec.decode(bytes.fromhex(wire)))
        except (ValueError, codec.CodecError):
            tag = "?"
        side = "A" if only_a else "B"
        return Divergence(run, round_no, src, dst, tag, reason=(
            f"delivery present only in log {side}"
        ))
    return None
