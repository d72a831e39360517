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
counts fewer), before -> after grade-cast counted distinct objects and
the dealing draw, dealing sweep, challenge power basis and wide GF(2^32)
products became bulk calls:

==================  =============  ==================  ==================
shape               n, t, batch    numpy               python
==================  =============  ==================  ==================
beacon_small_batch  7, 1, 4        10,510 -> 8,729     12,344 -> 10,689
beacon_large_batch  7, 1, 256      23,803 -> 11,422    51,796 -> 39,611
beacon_wide         13, 2, 64      56,619 -> 39,012    105,889 -> 88,984
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
    ("beacon_small_batch", "numpy"): 8_729,
    ("beacon_large_batch", "numpy"): 11_422,
    ("beacon_wide", "numpy"): 39_012,
    ("beacon_small_batch", "python"): 10_689,
    ("beacon_large_batch", "python"): 39_611,
    ("beacon_wide", "python"): 88_984,
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
