"""Span recording: nested wall-clock + op-count measurements.

A span is one timed region of a protocol execution.  The hierarchy the
runtime produces is::

    protocol (coin_gen / batch_vss / bit_gen / expose / ...)
      phase (deal / clique / gradecast / ba / expose)   [synthesized]
        round 1, round 2, ...
          player 1 step, player 2 step, ...

Round and player spans are emitted live by the two runtimes
(:class:`~repro.net.runtime.RuntimeBase`); protocol spans by the
runners; *phase* spans are synthesized by :meth:`SpanRecorder.phase_spans`
from consecutive rounds sharing a phase label (see
:mod:`repro.obs.phases`).

Zero cost when disabled
-----------------------
The default recorder everywhere is :data:`NULL_RECORDER`, whose methods
are no-ops and whose ``enabled`` flag is False — the runtime guards all
snapshotting behind that flag, so tier-1 timings and Lemma op counts are
unchanged unless a :class:`SpanRecorder` is explicitly attached
(``ProtocolContext(recorder=...)`` or CLI ``--export``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional


@dataclass
class Span:
    """One timed region; times are ``time.perf_counter()`` seconds."""

    span_id: int
    parent_id: Optional[int]
    name: str
    #: "protocol" | "phase" | "round" | "player" | "root"
    kind: str
    t0: float
    t1: float = 0.0
    attrs: Dict[str, Any] = dataclass_field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)

    def set(self, **attrs: Any) -> None:
        """Attach attributes (op deltas, message tallies, parameters)."""
        self.attrs.update(attrs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
            "duration_s": self.duration,
            **{k: v for k, v in self.attrs.items()},
        }


class _NullSpan:
    """The do-nothing span handle returned by :class:`NullRecorder`."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """No-op recorder: every hook returns immediately.

    ``enabled`` is False so hot paths can skip even argument
    construction (``if recorder.enabled: ...``).
    """

    enabled = False

    def begin(self, name: str, kind: str, **attrs: Any):
        return _NULL_SPAN

    def end(self, span, **attrs: Any) -> None:
        pass

    def record(self, name: str, kind: str, t0: float, t1: float,
               **attrs: Any) -> None:
        pass

    def discard(self, span) -> None:
        pass

    def span(self, name: str, kind: str, **attrs: Any):
        """Context manager measuring a region (no-op here)."""
        return _NULL_SPAN

    def on_fault(self, round_number: int, kind: str, src: int, dst: int) -> None:
        pass


#: the process-wide default: observability off
NULL_RECORDER = NullRecorder()


class _LiveSpan:
    """Context-manager handle over an open :class:`Span`."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "SpanRecorder", span: Span):
        self._recorder = recorder
        self.span = span

    def set(self, **attrs: Any) -> None:
        self.span.set(**attrs)

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, *exc) -> None:
        self._recorder.end(self)


class SpanRecorder(NullRecorder):
    """Collects spans from one or more protocol executions.

    A single recorder may span many runs (a whole ``repro toss``
    session); parentage is tracked with an open-span stack, which is
    correct because the simulator is single-threaded and protocol runs
    never interleave.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.faults: List[Dict[str, Any]] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- core span lifecycle -------------------------------------------------
    def begin(self, name: str, kind: str, **attrs: Any) -> _LiveSpan:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._next_id, parent, name, kind, self.clock(),
                    attrs=dict(attrs))
        self._next_id += 1
        self._stack.append(span)
        return _LiveSpan(self, span)

    def end(self, handle: _LiveSpan, **attrs: Any) -> None:
        span = handle.span
        if attrs:
            span.set(**attrs)
        span.t1 = self.clock()
        # tolerate out-of-order ends from crashed runs: pop through
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.t1 = span.t1
            self.spans.append(top)
        self.spans.append(span)

    def record(self, name: str, kind: str, t0: float, t1: float,
               **attrs: Any) -> Span:
        """Append an already-measured span (used for per-player steps)."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._next_id, parent, name, kind, t0, t1, dict(attrs))
        self._next_id += 1
        self.spans.append(span)
        return span

    def discard(self, handle: _LiveSpan) -> None:
        """Abandon an open span without recording it.

        Lets a caller keep a span pre-opened across loop iterations (so
        no wall time falls between spans) and throw away the final,
        never-used one.  Only the innermost open span can be discarded.
        """
        if self._stack and self._stack[-1] is handle.span:
            self._stack.pop()

    def span(self, name: str, kind: str, **attrs: Any) -> _LiveSpan:
        """``with recorder.span("coin_gen", "protocol", n=7): ...``"""
        return self.begin(name, kind, **attrs)

    # -- runtime calls -------------------------------------------------------
    def on_fault(self, round_number: int, kind: str, src: int, dst: int) -> None:
        """One fault-plane intervention, from the runtime's ``_note_fault``."""
        self.faults.append(
            {"round": round_number, "kind": kind, "src": src, "dst": dst}
        )

    # -- derived views -------------------------------------------------------
    def by_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def phase_spans(self) -> List[Span]:
        """Synthesize phase spans from consecutive same-phase rounds.

        Each protocol span's rounds (ordered by start time) are grouped
        into runs of equal ``phase`` attribute; each run becomes one
        synthetic span parented to the protocol span.  Ids are negative
        so they can never collide with recorded spans.
        """
        phases: List[Span] = []
        next_id = -1
        for protocol in self.by_kind("protocol"):
            rounds = sorted(
                (s for s in self.spans
                 if s.parent_id == protocol.span_id and s.kind == "round"),
                key=lambda s: s.t0,
            )
            group: List[Span] = []
            for r in rounds + [None]:  # sentinel flushes the last group
                phase = r.attrs.get("phase") if r is not None else None
                if group and (r is None or phase != group[0].attrs.get("phase")):
                    merged = Span(
                        next_id,
                        protocol.span_id,
                        f"phase:{group[0].attrs.get('phase', 'other')}",
                        "phase",
                        group[0].t0,
                        group[-1].t1,
                        {
                            "phase": group[0].attrs.get("phase", "other"),
                            "rounds": len(group),
                            "messages": sum(
                                g.attrs.get("messages", 0) for g in group
                            ),
                            "bits": sum(g.attrs.get("bits", 0) for g in group),
                        },
                    )
                    next_id -= 1
                    phases.append(merged)
                    group = []
                if r is not None:
                    group.append(r)
        return phases

    def all_spans(self) -> List[Span]:
        """Recorded spans plus synthesized phase spans, start-ordered."""
        return sorted(self.spans + self.phase_spans(), key=lambda s: s.t0)

    def coverage(self) -> float:
        """Fraction of root/protocol wall time covered by child spans.

        For every ``root`` and ``protocol`` span that has children, sums
        the children's durations and divides by the parent's duration;
        returns the duration-weighted aggregate.  This is the "did we
        instrument everything" signal: time inside a root span but
        outside any protocol span (or inside a protocol span but outside
        any round) is un-attributed work.  Round -> player is excluded
        deliberately — a round's duration legitimately includes
        transport/scheduler bookkeeping that belongs to no player's
        compute.  Used by the acceptance test ("spans cover >= 95% of
        measured wall time").
        """
        covered = 0.0
        total = 0.0
        for parent in self.spans:
            if parent.kind not in ("root", "protocol"):
                continue
            kids = self.children(parent)
            if not kids or parent.duration <= 0:
                continue
            total += parent.duration
            covered += min(parent.duration, sum(k.duration for k in kids))
        return covered / total if total > 0 else 1.0
