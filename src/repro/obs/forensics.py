"""Byzantine forensics: decide *who* misbehaved from a flight log alone.

The paper's protocols tolerate ``t`` corrupt players without naming
them; operators of a long-lived beacon want names.  This module replays
a :class:`~repro.obs.flight.FlightLog` through a per-player behaviour
model and produces an :class:`AccusationReport` — the implicated
players, each accusation backed by event indices into the log, so every
accusation can be audited against the recorded bytes.

Soundness before completeness: every rule below is chosen so an honest
player following the protocol can *never* trip it, even under
adversarial message schedules.  The rules:

* **equivocation** — a sender multicasts a tag but different receivers
  get different payloads, in a phase whose messages are
  multicast-identical (everything except ``deal``, whose Shamir shares
  are legitimately per-receiver).  This is exactly the behaviour the
  paper's consistency graph exists to catch;
* **silence** — a quorum of at least ``n - t`` distinct senders sent a
  tag this round, and this player sent it to nobody.  Honest players
  are in lockstep, so a quorum round is an all-honest round; missing it
  means crashed, silenced, or withholding.  ``expose`` rounds are
  exempt (holders legitimately abstain when their shares failed
  verification), as are rounds without a quorum (e.g. the phase king's
  solo round);
* **off-protocol** — a tag no protocol registered (classified
  ``"other"``), sent by at most ``t`` distinct players.  When *more*
  than ``t`` players send an unregistered tag it is treated as an
  unregistered honest protocol and nobody is accused;
* **stale-phase** — the Fig. 5 pipeline only ever advances
  (deal -> clique -> gradecast -> ba) within one protocol run; sending
  a tag from an earlier stage after a quorum advanced past it (e.g.
  echoing round-1 ``/sh`` traffic during agreement) is off-protocol
  replay.  ``expose`` rounds interleave freely and carry no ordering;
* **bad-share** — a Coin-Expose share that Berlekamp-Welch excludes
  from the unique decoded polynomial, in a receiver view where decoding
  succeeded.  A view is every share that reached the receiver in the
  run (:func:`~repro.protocols.coin_expose.exposure_shares`, the rule
  ``replay`` decodes by), so a liar whose share was delayed past the
  round, or any liar on an async log, is caught like a punctual one.
  Honest holders send their true share, which always lies on the
  polynomial;
* **injected** — the fault plane's own player-level ``crash``/
  ``silence`` events name the player directly (ground truth recorded in
  the log).

Validated against every adversary program in
:mod:`repro.net.adversary` plus :class:`~repro.net.faults.FaultPlane`
scenarios: each corrupt player is flagged, no honest player ever is
(see ``tests/test_forensics.py``).

Off the coin path (docs/CENSUS.md, class ii); run by CI's `repro
forensics` and `examples/forensics_demo.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.codec import wire_key
from repro.net.metrics import payload_tag
from repro.obs.flight import FlightLog
from repro.obs.phases import (
    UNICAST_PHASES,
    classify_tag,
    phase_stage,
)

#: accusation kinds, in reporting order
KINDS = ("equivocation", "silence", "off-protocol", "stale-phase",
         "bad-share", "injected")


@dataclass(frozen=True)
class Accusation:
    """One piece of evidence against one player."""

    player: int
    kind: str       #: one of :data:`KINDS`
    run: int
    round: int
    tag: str
    detail: str
    #: index of the flight-log event carrying the evidence
    event_index: int


@dataclass
class AccusationReport:
    """Accusations with auditable evidence; the verdict is
    :meth:`corrupt_players`."""

    n: int
    t: int
    accusations: List[Accusation] = dataclass_field(default_factory=list)

    def corrupt_players(self) -> Set[int]:
        return {accusation.player for accusation in self.accusations}

    def against(self, player: int) -> List[Accusation]:
        return [a for a in self.accusations if a.player == player]

    def summary(self) -> str:
        corrupt = sorted(self.corrupt_players())
        lines = [
            f"forensics: {self.n} players, t={self.t}, "
            f"{len(self.accusations)} accusation(s), "
            f"{len(corrupt)} player(s) implicated"
        ]
        for pid in corrupt:
            for accusation in self.against(pid):
                lines.append(
                    f"  player {pid}: {accusation.kind} in run "
                    f"{accusation.run} round {accusation.round} "
                    f"[{accusation.tag}] — {accusation.detail} "
                    f"(event {accusation.event_index})"
                )
        if not corrupt:
            lines.append("  no player implicated")
        return "\n".join(lines)


def analyze_log(log: FlightLog, field=None,
                t: Optional[int] = None) -> AccusationReport:
    """Run every forensic rule over ``log``; returns the report.

    ``field`` (for share decoding) defaults to the log's recorded field
    spec; the bad-share rule is skipped when neither is available.
    ``t`` defaults to the log's.
    """
    from repro.obs.flight import field_from_spec

    if field is None and log.field is not None:
        field = field_from_spec(log.field)
    if t is None:
        t = log.t
    n = log.n
    report = AccusationReport(n=n, t=t)
    quorum = n - t

    # the highest pipeline stage a sender quorum has reached, per run
    run_stage: Dict[int, int] = {}

    for event in log.rounds:
        # sender -> tag -> {dst: [payload fingerprints]}
        by_sender: Dict[int, Dict[str, Dict[int, List[str]]]] = {}
        # tag -> set of senders (for quorum and off-protocol rules)
        senders_of: Dict[str, Set[int]] = {}
        for dst, src, payload in event.deliveries:
            tag = payload_tag(payload)
            by_sender.setdefault(src, {}).setdefault(tag, {}).setdefault(
                dst, []
            ).append(wire_key(payload))
            senders_of.setdefault(tag, set()).add(src)

        stage_before = run_stage.get(event.run, -1)

        for tag, senders in sorted(senders_of.items()):
            phase = classify_tag(tag)

            # -- equivocation ---------------------------------------------
            if phase not in UNICAST_PHASES and phase != "other":
                for src in sorted(senders):
                    views = by_sender[src][tag]
                    distinct = {fingerprints[0]
                                for fingerprints in views.values()}
                    if len(views) >= 2 and len(distinct) >= 2:
                        report.accusations.append(Accusation(
                            player=src, kind="equivocation",
                            run=event.run, round=event.round, tag=tag,
                            detail=(
                                f"sent {len(distinct)} distinct payloads "
                                f"to {len(views)} receivers"
                            ),
                            event_index=event.index,
                        ))

            # -- silence (quorum rule) ------------------------------------
            if (phase not in ("expose", "other")
                    and len(senders) >= quorum):
                for pid in range(1, n + 1):
                    if pid not in senders:
                        report.accusations.append(Accusation(
                            player=pid, kind="silence",
                            run=event.run, round=event.round, tag=tag,
                            detail=(
                                f"{len(senders)} players sent the tag "
                                f"(quorum {quorum}); this one did not"
                            ),
                            event_index=event.index,
                        ))

            # -- off-protocol tags ----------------------------------------
            if phase == "other" and len(senders) <= t:
                for src in sorted(senders):
                    report.accusations.append(Accusation(
                        player=src, kind="off-protocol",
                        run=event.run, round=event.round, tag=tag,
                        detail=(
                            f"unregistered tag sent by "
                            f"{len(senders)} <= t player(s)"
                        ),
                        event_index=event.index,
                    ))

            # -- stale-phase replay ---------------------------------------
            stage = phase_stage(phase)
            if stage is not None and stage < stage_before:
                for src in sorted(senders):
                    report.accusations.append(Accusation(
                        player=src, kind="stale-phase",
                        run=event.run, round=event.round, tag=tag,
                        detail=(
                            f"stage-{stage} tag after the run reached "
                            f"stage {stage_before}"
                        ),
                        event_index=event.index,
                    ))

        # advance the run's pipeline stage on a quorum of senders only —
        # a lone corrupt player must not be able to fake an advance and
        # smear honest players still in the real phase
        for tag, senders in senders_of.items():
            stage = phase_stage(classify_tag(tag))
            if stage is not None and len(senders) >= quorum:
                if stage > run_stage.get(event.run, -1):
                    run_stage[event.run] = stage

    # -- bad shares (Berlekamp-Welch exclusion) ---------------------------
    if field is not None:
        for run, events in log.rounds_by_run().items():
            _accuse_bad_shares(report, run, events, field, t)

    # -- injected player faults (recorded ground truth) -------------------
    for fault in log.faults:
        if fault.kind in ("crash", "silence") and fault.dst == 0:
            report.accusations.append(Accusation(
                player=fault.src, kind="injected",
                run=fault.run, round=fault.round, tag=fault.kind,
                detail="fault plane suppressed this player",
                event_index=fault.index,
            ))

    report.accusations.sort(
        key=lambda a: (a.event_index, a.player, KINDS.index(a.kind))
    )
    return report


def _accuse_bad_shares(report: AccusationReport, run: int, events, field,
                       t: int) -> None:
    """Flag senders whose exposed share lies off the decoded polynomial."""
    from repro.protocols.coin_expose import (
        decode_shares,
        expose_tag,
        exposure_shares,
        share_points,
    )

    views = exposure_shares(
        delivery for event in events for delivery in event.deliveries
    )
    accused: Set[Tuple[int, str]] = set()
    players = range(1, report.n + 1)
    for receiver, coins in sorted(views.items()):
        for coin_id, inbox in sorted(coins.items()):
            tag = expose_tag(coin_id)
            xs, ys = share_points(field, inbox, tag, players)
            accepted = decode_shares(field, xs, ys, t)
            if accepted is None:
                continue
            for position in accepted[1]:
                src = field.to_int(xs[position])  # the abscissa is the id
                if (src, coin_id) in accused:
                    continue
                accused.add((src, coin_id))
                # evidence: the event that carried the share to this view
                event = next(
                    event for event in events
                    if any(d == receiver and s == src
                           and payload_tag(payload) == tag
                           for d, s, payload in event.deliveries)
                )
                report.accusations.append(Accusation(
                    player=src, kind="bad-share",
                    run=run, round=event.round, tag=tag,
                    detail=(
                        f"share excluded by Berlekamp-Welch in "
                        f"receiver {receiver}'s view"
                    ),
                    event_index=event.index,
                ))
