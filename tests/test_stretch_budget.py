"""A noise-free cost gate for the stretch: Python-level calls per Coin-Gen.

The regeneration stall a ``toss`` pays is one D-PRBG stretch.  Like
``tests/test_exposure_budget.py`` for an exposure, this counts every
Python function entered during one dark stretch — ``sys.setprofile``
``call`` events: functions, generator resumptions, comprehension frames;
C builtins do not count — a deterministic proxy for its interpreter
overhead.  The stretch is the second of ``BootstrapCoinSource(GF2k(32),
n, t, batch_size, seed=1)`` (the first pays every cache), at the three
beacon shapes of the coin ladder.  The count depends on the backend: a
bulk call numpy takes is one call, the pure loops it replaces are many.

Calls per dark stretch on python 3.11 (3.12 inlines comprehensions and
counts fewer): grade-cast echoing every value in full -> honest echoes
naming a value equal to the echoer's own proposal by sender id, built
by list comprehensions (one frame each) instead of generator
expressions (one resumption per entry):

==================  =============  ==================  ==================
shape               n, t, batch    numpy               python
==================  =============  ==================  ==================
beacon_small_batch  7, 1, 4        8,422 -> 8,401      10,394 -> 10,373
beacon_large_batch  7, 1, 256      11,115 -> 11,094    39,316 -> 39,295
beacon_wide         13, 2, 64      37,635 -> 37,518    87,655 -> 87,538
==================  =============  ==================  ==================

The budget is 10 % above the figure after each arrow.  A change that needs
more should say what the calls buy, in EXPERIMENTS.md, and raise it.
"""

import sys

import pytest

from repro.core import BootstrapCoinSource
from repro.fields import GF2k
from repro.fields.backends import available_backends

#: (shape, backend) -> calls in one dark stretch, measured when set
CALLS = {
    ("beacon_small_batch", "numpy"): 8_401,
    ("beacon_large_batch", "numpy"): 11_094,
    ("beacon_wide", "numpy"): 37_518,
    ("beacon_small_batch", "python"): 10_373,
    ("beacon_large_batch", "python"): 39_295,
    ("beacon_wide", "python"): 87_538,
}
SHAPES = {
    "beacon_small_batch": (7, 1, 4),
    "beacon_large_batch": (7, 1, 256),
    "beacon_wide": (13, 2, 64),
}


def calls_per_stretch(shape, backend):
    n, t, batch = SHAPES[shape]
    field = GF2k(32, backend=backend)
    source = BootstrapCoinSource(field, n, t, batch_size=batch, seed=1)
    source._refill()  # the first stretch, and every cache, is paid
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        source._refill()
    finally:
        sys.setprofile(previous)
    assert source.epoch == 2
    return field.backend_name, calls


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_dark_stretch_stays_inside_its_call_budget(shape, backend):
    name, measured = calls_per_stretch(shape, backend)
    assert measured <= CALLS[shape, name] * 1.1, (
        f"{measured} Python-level calls in one dark stretch at {shape} "
        f"({name} backend); the budget was set at {CALLS[shape, name]}"
    )
