"""Coin-Gen clique agreement: reconcile local views (Fig. 5 steps 6-11).

Because there is no broadcast channel, two honest players may hold
different dealing views; this phase makes the outcome common.  Step
numbering follows Fig. 5:

6.  build the consistency graph and find a Gavril clique over it;
7.  grade-cast the proposal (clique + decoded polynomials);
9.  expose a seed coin to elect a random leader l;
10. run one deterministic Byzantine agreement on whether player l's
    grade-cast proposal is acceptable;
11. repeat 9-10 until a BA outputs 1.

A player's BA input is 1 iff (Fig. 5 step 10):

  i)   its confidence in P_l's grade-cast is 2;
  ii)  the proposed clique C_l has size >= n - 2t (>= 4t+1);
  iii) at least 3t+1 members j of C_l pass, in this player's own view,
       the full consistency check: for every k in C_l, the combination
       nu_j announced by j for dealer k satisfies F_k(j) = nu_j, where
       F_k is the polynomial l grade-cast.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.fields.base import Element, Field
from repro.poly.polynomial import Polynomial, evaluate_polys
from repro.protocols.ba import phase_king
from repro.protocols.clique import gavril_clique, mutual_graph
from repro.protocols.coin_expose import CoinShare, coin_expose, coin_to_index
from repro.protocols.common import valid_element
from repro.protocols.gradecast import parallel_gradecast
from repro.protocols.coin_gen.dealing import DealingState, verified_dealing


def validate_proposal(field: Field, n: int, t: int, value, vanish_at=None):
    """Check a grade-cast proposal's structure and degree bounds.

    Returns ``(clique, {dealer: Polynomial})`` or None.  Purely a function
    of the (common) grade-cast value, so all honest players agree on it.
    With ``vanish_at`` set, the batched polynomials must vanish at that
    point (share-refresh mode: the origin; share-recovery mode: the
    recovering player's point).
    """
    if (
        not isinstance(value, tuple)
        or len(value) != 3
        or value[0] != "prop"
        or not isinstance(value[1], tuple)
        or not isinstance(value[2], tuple)
    ):
        return None
    clique_raw, polys_raw = value[1], value[2]
    clique: List[int] = []
    for j in clique_raw:
        if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= n:
            return None
        clique.append(j)
    if len(set(clique)) != len(clique) or len(clique) < n - 2 * t:
        return None
    polys: Dict[int, Polynomial] = {}
    for item in polys_raw:
        if not (isinstance(item, tuple) and len(item) == 2):
            return None
        j, coeffs = item
        if j not in clique or j in polys:
            return None
        if not isinstance(coeffs, tuple) or len(coeffs) > t + 1:
            return None
        if not all(valid_element(field, c) for c in coeffs):
            return None
        poly = Polynomial(field, list(coeffs))
        if vanish_at is not None and poly(vanish_at) != field.zero:
            return None
        polys[j] = poly
    if set(polys) != set(clique):
        return None
    return sorted(clique), polys


@dataclass
class DealingAgreement:
    """Common outcome of the verified-parallel-dealing sub-protocol.

    Produced by :func:`dealing_agreement_program`: all honest players hold
    the same ``clique``, ``polys``, and ``iterations``; ``shares_from``
    and ``self_ok`` are local.
    """

    success: bool
    clique: Tuple[int, ...] = ()
    polys: Dict[int, Polynomial] = dataclass_field(default_factory=dict)
    shares_from: Dict[int, Tuple[Element, ...]] = dataclass_field(default_factory=dict)
    self_ok: bool = False
    iterations: int = 0
    seed_coins_used: int = 0
    challenge: Optional[Element] = None


def consistency_clique(field: Field, n: int, state: DealingState) -> List[int]:
    """Fig. 5 step 6: consistency graph and Gavril clique (local view).

    All decoded polynomials are evaluated at all announcer points in one
    width-n^2 sweep, then compared pair by pair with what was announced.
    """
    directed = []
    announcers = sorted(state.nu_recv)
    dealers = [j for j in range(1, n + 1) if state.decoded[j] is not None]
    rows = evaluate_polys(
        field,
        [state.decoded[j] for j in dealers],
        [state.points[k] for k in announcers],
    )
    for j, evals in zip(dealers, rows):
        for k, expected in zip(announcers, evals):
            value = state.nu_recv[k][j - 1]
            if valid_element(field, value) and expected == value:
                directed.append((j, k))
    adjacency = mutual_graph(n, directed)
    return [j for j in gavril_clique(adjacency) if state.decoded[j] is not None]


def proposal_support(
    field: Field, t: int, state: DealingState, clique: List[int],
    polys: Dict[int, Polynomial],
) -> int:
    """Count clique members passing the full step-10(iii) consistency check.

    Evaluates all proposed polynomials at all clique points in one
    width-``|clique|^2`` sweep, then checks every pair against the
    announced combinations in this player's own view.
    """
    rows = evaluate_polys(
        field, [polys[k] for k in clique], [state.points[j] for j in clique]
    )
    expected = dict(zip(clique, rows))
    passing = [
        j
        for idx, j in enumerate(clique)
        if j in state.nu_recv
        and all(
            valid_element(field, state.nu_recv[j][k - 1])
            and expected[k][idx] == state.nu_recv[j][k - 1]
            for k in clique
        )
    ]
    return len(passing)


def dealing_agreement_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    total: int,
    seed_coins: Sequence[CoinShare],
    rng,
    tag: str,
    shared_challenge: bool = True,
    vanish_at: Optional[Element] = None,
) -> Generator:
    """The heart of Fig. 5: n parallel verified dealings + clique agreement.

    Every player deals ``total`` degree-t polynomials; dealings are
    batch-verified with one exposed challenge, reconciled through the
    consistency graph, Gavril clique, grade-cast, leader election, and
    one BA per iteration.  Returns a :class:`DealingAgreement`.

    With ``vanish_at`` set, the dealt polynomials (and the acceptance
    checks) additionally vanish at that point — the origin for the
    proactive share-refresh protocol (the dealings must not change the
    refreshed secret), or a player's evaluation point for share recovery
    (the dealings must not leak that player's share).
    """
    if n < 6 * t + 1:
        raise ValueError(f"Coin-Gen requires n >= 6t+1 (n={n}, t={t})")
    num_challenges = 1 if shared_challenge else n
    if len(seed_coins) < num_challenges + 1:
        raise ValueError("not enough seed coins")

    # ---- Steps 1-5: verified parallel dealing + local decoding.
    state: DealingState = yield from verified_dealing(
        field, n, t, me, total, seed_coins, rng, tag,
        shared_challenge=shared_challenge, vanish_at=vanish_at,
    )
    if not state.ok:
        return DealingAgreement(False, seed_coins_used=state.seed_coins_used)

    # ---- Step 6: consistency graph and Gavril clique.
    my_clique = consistency_clique(field, n, state)

    # ---- Step 7: grade-cast the proposal (clique + decoded polynomials).
    proposal = (
        "prop",
        tuple(my_clique),
        tuple((j, state.decoded[j].coeffs) for j in my_clique),
    )
    graded = yield from parallel_gradecast(n, t, me, proposal, tag + "/gc")

    # ---- Steps 9-11: leader election + BA until acceptance.
    leader_coins = list(seed_coins[num_challenges:])
    for iteration, leader_coin in enumerate(leader_coins):
        elected = yield from coin_expose(field, me, leader_coin)
        used = num_challenges + iteration + 1
        if elected is None:
            return DealingAgreement(
                False, iterations=iteration + 1, seed_coins_used=used
            )
        leader = coin_to_index(field, elected, n)

        value, confidence = graded[leader]
        parsed = validate_proposal(field, n, t, value, vanish_at=vanish_at)
        my_input = 0
        if confidence == 2 and parsed is not None:
            clique, polys = parsed
            if proposal_support(field, t, state, clique, polys) >= 3 * t + 1:
                my_input = 1

        decision = yield from phase_king(
            n, t, me, my_input, f"{tag}/ba{iteration}"
        )
        if decision != 1:
            continue

        # BA accepted: some honest player verified, hence (grade-cast
        # guarantee) every honest player holds the same proposal value.
        if parsed is None:
            # Unreachable for honest players when BA's precondition held;
            # kept as a safe local failure.
            return DealingAgreement(
                False, iterations=iteration + 1, seed_coins_used=used
            )
        clique, polys = parsed

        # Self-verification: do my raw shares match the agreed polynomials?
        self_ok = me in clique and all(
            k in state.shares_from
            and valid_element(field, state.nu_mine[k - 1])
            and polys[k](state.points[me]) == state.nu_mine[k - 1]
            for k in clique
        )
        return DealingAgreement(
            True,
            clique=tuple(clique),
            polys=polys,
            shares_from=state.shares_from,
            self_ok=self_ok,
            iterations=iteration + 1,
            seed_coins_used=used,
            challenge=state.challenges[0],
        )

    return DealingAgreement(
        False,
        iterations=len(leader_coins),
        seed_coins_used=len(seed_coins),
    )
