"""Pluggable bulk-kernel backends for the concrete int-element fields.

The paper's pitch is raw speed; PR 1 gave the :class:`~repro.fields.base.
Field` interface *bulk* kernels (``mul_many`` / ``dot`` / ``axpy_many`` /
``horner_columns`` / ``dot_rows`` / ``batch_inv``) so the protocol hot
paths work on whole vectors, and this package makes the kernel
*implementation* swappable per field instance:

* :class:`~repro.fields.backends.pure.PurePythonBackend` — the
  zero-dependency loops (exactly the pre-backend behaviour);
* :class:`~repro.fields.backends.numpy_backend.NumpyBackend` — vectorized
  kernels on numpy arrays: GF(2^k) via log/antilog table gathers (k <= 16
  with tables) or table-free carry-less multiplication — sixteen integer
  multiplies on nibble-spaced operands, shifts along the modulus's taps
  (k <= 32) — and GF(p) via ``uint64`` modular arithmetic (p < 2^32).

Selection happens at field construction: ``GF2k(k, backend="numpy")``,
``GFp(p, backend="python")``, the ``REPRO_FIELD_BACKEND`` environment
variable, or the CLI's ``--backend`` flag.  The default ``"auto"`` picks
numpy when it imports cleanly and falls back to pure python otherwise, so
the package stays dependency-free (numpy is the optional ``fast`` extra).

Metering contract: backends are *unmetered* — every
:class:`~repro.fields.base.OpCounter` bump happens in the ``Field``
wrapper methods *before* the backend is consulted, so per-element op
totals are identical whichever backend computes the result (the lemma
conformance audits never see a difference).  Results are identical too:
the numpy kernels compute the same field elements — as exact ``int``s, and
refusing a non-integer operand with the ``TypeError`` the pure loops raise
— and configurations a vectorized kernel does not cover (vectors below
the floor of :meth:`~repro.fields.backends.numpy_backend.NumpyBackend.
_pure_wins`: 16 elements for a carry-less product of two wide operands,
32 when one fits a byte and for the table and prime styles; k > 32
carry-less fields, p >= 2^32 primes, Montgomery's inherently sequential
inversion chain) transparently reuse the pure loops.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.fields.backends.pure import PurePythonBackend

#: environment variable consulted when the constructor asks for "auto"
BACKEND_ENV_VAR = "REPRO_FIELD_BACKEND"

_BACKEND_NAMES = ("auto", "python", "numpy")


def numpy_available() -> bool:
    """Does numpy import cleanly in this interpreter?"""
    from repro.fields.backends import numpy_backend

    return numpy_backend.numpy_or_none() is not None


def available_backends() -> List[str]:
    """The backend names :func:`resolve_backend` can satisfy right now."""
    names = ["python"]
    if numpy_available():
        names.append("numpy")
    return names


def resolve_backend(field, name: Optional[str]):
    """The backend instance ``field`` should delegate its bulk kernels to.

    ``name`` is ``"python"``, ``"numpy"``, ``"auto"`` or ``None`` (same
    as auto).  Auto consults :data:`BACKEND_ENV_VAR` first, then prefers
    numpy when importable.  Asking for numpy explicitly when it is not
    installed raises — silent degradation is only for auto.
    """
    if name is None:
        name = "auto"
    if name not in _BACKEND_NAMES:
        raise ValueError(
            f"backend must be one of {_BACKEND_NAMES}, got {name!r}"
        )
    explicit = name
    if name == "auto":
        env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        if env and env != "auto":
            if env not in _BACKEND_NAMES:
                raise ValueError(
                    f"{BACKEND_ENV_VAR} must be one of {_BACKEND_NAMES}, "
                    f"got {env!r}"
                )
            explicit = env

    if explicit == "numpy" or explicit == "auto":
        from repro.fields.backends import numpy_backend

        if numpy_backend.numpy_or_none() is not None:
            return numpy_backend.NumpyBackend(field)
        if explicit == "numpy":
            raise RuntimeError(
                "backend='numpy' requested but numpy is not installed "
                "(pip install 'repro[fast]' or use backend='auto')"
            )
    return PurePythonBackend(field)


__all__ = [
    "BACKEND_ENV_VAR",
    "PurePythonBackend",
    "available_backends",
    "numpy_available",
    "resolve_backend",
]
