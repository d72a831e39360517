"""Round-complexity model of every protocol.

The synchronous model's other cost axis: how many lock-step rounds each
protocol occupies.  These formulas are checked against live traces in
``tests/test_rounds.py`` — they are what makes the protocols' honest
code data-independent (see docs/MODEL.md "Determinism and termination").

Off the coin path (docs/CENSUS.md, class ii); run by claims row E7, CI's
`repro trace --audit`, and the causal-graph depth tests in
``tests/test_causality.py``.
"""

from __future__ import annotations

from typing import Optional


def coin_expose_rounds() -> int:
    """Fig. 6: a single share-announcement round."""
    return 1


def vss_rounds() -> int:
    """Fig. 2: companion dealing, challenge expose, nu broadcast."""
    return 1 + coin_expose_rounds() + 1


def batch_vss_rounds() -> int:
    """Fig. 3: challenge expose, nu broadcast."""
    return coin_expose_rounds() + 1


def bit_gen_rounds() -> int:
    """Fig. 4 ("There are 3 rounds of communication") plus the challenge
    expose the paper accounts separately."""
    return 1 + coin_expose_rounds() + 1


def gradecast_rounds() -> int:
    """Feldman-Micali: value, echo, re-echo."""
    return 3


def phase_king_rounds(t: int) -> int:
    """t+1 phases of (vote, king)."""
    return 2 * (t + 1)


def coin_gen_rounds(t: int, iterations: int = 1) -> int:
    """Fig. 5: dealing, challenge expose, nu exchange, grade-cast, then
    per iteration one leader expose plus one BA."""
    fixed = 1 + coin_expose_rounds() + 1 + gradecast_rounds()
    per_iteration = coin_expose_rounds() + phase_king_rounds(t)
    return fixed + iterations * per_iteration


def refresh_rounds(t: int, iterations: int = 1) -> int:
    """Same agreement core as Coin-Gen."""
    return coin_gen_rounds(t, iterations)


def recovery_rounds(t: int, iterations: int = 1) -> int:
    """Coin-Gen core plus the masked-share round."""
    return coin_gen_rounds(t, iterations) + 1


def predicted_rounds(
    protocol: str, t: int = 0, iterations: int = 1
) -> Optional[int]:
    """The round prediction for a protocol span name, or None.

    Maps the names runners stamp on protocol spans (``coin_gen``,
    ``expose``, ``batch_vss``, ``bit_gen``, ``vss``, ``refresh``,
    ``recovery``) to the formulas above.  This is what a fault-free
    happens-before DAG's depth — and the observed count of
    message-carrying rounds — must equal *exactly* (the runtime's
    trailing drain round carries no messages and is excluded on both
    sides).  Unknown protocols return None: "not auditable", never a
    spurious deviation.
    """
    formulas = {
        "coin_gen": lambda: coin_gen_rounds(t, iterations),
        "expose": coin_expose_rounds,
        "batch_vss": batch_vss_rounds,
        "bit_gen": bit_gen_rounds,
        "vss": vss_rounds,
        "refresh": lambda: refresh_rounds(t, iterations),
        "recovery": lambda: recovery_rounds(t, iterations),
    }
    formula = formulas.get(protocol)
    return formula() if formula is not None else None
