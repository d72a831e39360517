"""A noise-free cost gate: Python-level calls per dark coin.

CI cannot hold a wall-clock number, but it can hold a count.  Every
Python function entered between ``toss_element()`` and its return —
``sys.setprofile`` ``call`` events: functions, generator resumptions,
comprehension frames; C builtins do not count — is a deterministic proxy
for the interpreter overhead of one exposure, which is most of what an
exposure costs at GF(2^32) (the arithmetic is 7 multiplications a
player).  PR 19 added ~20 harness calls per coin and cost +5 % on
``beacon_large_batch``; the next one fails here instead of in a
re-anchor.

Calls per dark coin, warm pool, GF(2^32), as the exposure became one
straight line of calls from inbox to ``F(0)`` and then one decode per
distinct view (the other receivers of a view replay its decode):

==========  ===============  =============  ==============
shape       before straight  straight line  views replayed
==========  ===============  =============  ==============
n=7,  t=1   853              423            277
n=13, t=2   2,414            1,150          489
==========  ===============  =============  ==============

The budget is about 10 % above the last column.  A change that needs
more should say what the calls buy, in EXPERIMENTS.md, and raise it.
"""

import sys

import pytest

from repro.core import BootstrapCoinSource
from repro.fields import GF2k

#: (n, t) -> calls per dark coin measured with decoded views replayed
CALLS = {(7, 1): 277, (13, 2): 489}
COINS = 20


def calls_per_coin(n, t):
    source = BootstrapCoinSource(GF2k(32), n, t, batch_size=32, seed=1)
    source.toss_element()  # the first stretch, and every cache, is paid
    assert source.sealed_coins_available >= COINS
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for _ in range(COINS):
            source.toss_element()
    finally:
        sys.setprofile(previous)
    assert source.epoch == 1  # no stretch ran inside the window
    return calls / COINS


@pytest.mark.parametrize("n,t", sorted(CALLS))
def test_a_dark_coin_stays_inside_its_call_budget(n, t):
    measured = calls_per_coin(n, t)
    assert measured == int(measured), "every dark coin costs the same"
    assert measured <= CALLS[n, t] * 1.1, (
        f"{measured:.0f} Python-level calls per dark coin at n={n}, t={t}; "
        f"the budget was set at {CALLS[n, t]}"
    )
