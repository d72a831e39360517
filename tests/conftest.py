"""Shared fixtures and hypothesis configuration for the test suite."""

import random

import pytest
from hypothesis import HealthCheck, settings

from repro.fields import GF2k
from repro.fields.extension import build_special_field
from repro.fields.gfp import GFp

# Keep property-based tests fast and deterministic across the suite.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def gf16():
    """Tiny field (p=16) — small enough to exhibit soundness errors."""
    return GF2k(4)


@pytest.fixture(scope="session")
def gf256():
    return GF2k(8)


@pytest.fixture(scope="session")
def gf2_16():
    return GF2k(16)


@pytest.fixture(scope="session")
def gf2_32():
    return GF2k(32)


@pytest.fixture(scope="session")
def gfp31():
    return GFp(2**31 - 1)


@pytest.fixture(scope="session")
def special32():
    return build_special_field(32)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)
