"""Run manifests: provenance stamps for exports and logs.

Every recording this repo emits — span exports (JSONL / Chrome),
flight logs — describes *one execution of one configuration*, yet
until now none of them recorded which configuration that was.  A
:class:`RunManifest` is that record: the protocol parameters (field, n, t, M, seeds), the execution knobs
(backend, scheduler, runtime, interpolation mode), and the environment
(python / numpy versions, git sha, package version) in one flat,
JSON-serializable object.

Two kinds of fields, one contract
---------------------------------
*Semantic* fields (:data:`SEMANTIC_FIELDS`) describe what was run:
change any of them and you are measuring a different thing.
*Environment* fields (:data:`ENVIRONMENT_FIELDS`) describe where it
ran: the same configuration benched on a newer interpreter or commit is
still the same configuration.  :meth:`RunManifest.fingerprint` hashes
only the semantic fields over a canonical (sorted-key) JSON encoding,
so it is

* **stable** under dict key ordering and environment drift, and
* **different** whenever any semantic field changes.

That makes the fingerprint the join key for cross-run analysis
(:mod:`repro.obs.diffing`): two recordings are comparable when their
fingerprints match, and a diff between different fingerprints is
labelled as a *configuration* change, not a regression.

Capture is cheap and dependency-free: the git sha comes from one
``git rev-parse`` (cached per process, ``None`` outside a checkout),
numpy's version from an import probe, and everything else from values
the caller already has.

Off the coin path (docs/CENSUS.md, class ii); run by CI's `--flight-log`
steps and the campaign-soak job.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, Optional

#: fields that define *what* was run; the fingerprint hashes exactly these
SEMANTIC_FIELDS = (
    "protocol", "field", "n", "t", "M", "seed", "sched_seed",
    "backend", "scheduler", "runtime", "interpolation",
    "adversary", "corrupt", "faults",
)

#: fields that describe *where* it ran; recorded but never fingerprinted
ENVIRONMENT_FIELDS = ("python", "numpy", "package", "git_sha")

_GIT_SHA_CACHE: Dict[str, Optional[str]] = {}


def git_sha(short: bool = True) -> Optional[str]:
    """The current checkout's commit sha (cached; ``None`` outside git)."""
    key = "short" if short else "full"
    if key not in _GIT_SHA_CACHE:
        command = ["git", "rev-parse"]
        if short:
            command.append("--short")
        command.append("HEAD")
        try:
            _GIT_SHA_CACHE[key] = subprocess.run(
                command, capture_output=True, text=True, timeout=5,
                check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA_CACHE[key] = None
    return _GIT_SHA_CACHE[key]


def numpy_version() -> Optional[str]:
    """numpy's version string, or ``None`` when it does not import."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one run: what was executed, and where.

    All fields are optional so partial manifests (a bench matrix has no
    single ``n``; a field microbench has no ``M``) stay honest: absent
    means "not applicable", and absent fields still fingerprint
    deterministically (as JSON ``null``).
    """

    # -- semantic: what was run ------------------------------------------
    protocol: Optional[str] = None
    field: Optional[str] = None  #: field spec string, e.g. ``"gf2k:32"``
    n: Optional[int] = None
    t: Optional[int] = None
    M: Optional[int] = None
    seed: Optional[int] = None
    sched_seed: Optional[int] = None
    backend: Optional[str] = None
    scheduler: Optional[str] = None
    runtime: Optional[str] = None
    interpolation: Optional[str] = None
    adversary: Optional[str] = None  #: adversary kind, e.g. ``"bad_share"``
    corrupt: Optional[str] = None  #: comma-joined corrupt player ids
    faults: Optional[str] = None  #: ``;``-joined fault-op chain spec
    # -- environment: where it ran ---------------------------------------
    python: Optional[str] = None
    numpy: Optional[str] = None
    package: Optional[str] = None
    git_sha: Optional[str] = None

    @classmethod
    def capture(cls, field=None, **values: Any) -> "RunManifest":
        """Build a manifest, filling the environment fields automatically.

        ``field`` accepts a live :class:`~repro.fields.base.Field` (its
        spec string and resolved backend name are read off it) or an
        already-formatted spec string.  Any explicit keyword wins over a
        captured value.  ``scheduler="random"`` — the CLI's and the
        campaign's name for the axis value — is recorded as
        :attr:`RandomOrderScheduler.contract
        <repro.net.scheduler.RandomOrderScheduler.contract>`, the name
        of the ``(seed, time) -> pick`` mapping that produced the run's
        delivery order, so recordings made under different mappings
        never fingerprint alike.
        """
        from repro.obs.flight import field_spec
        import repro

        captured: Dict[str, Any] = {
            "python": sys.version.split()[0],
            "numpy": numpy_version(),
            "package": repro.__version__,
            "git_sha": git_sha(),
        }
        if field is not None:
            if isinstance(field, str):
                captured["field"] = field
            else:
                captured["field"] = field_spec(field)
                backend = getattr(field, "backend_name", None)
                if backend is not None:
                    captured["backend"] = backend
        if "interpolation" not in values:
            from repro.poly.barycentric import cache_mode

            captured["interpolation"] = cache_mode()
        captured.update(values)
        if captured.get("scheduler") == "random":
            from repro.net.scheduler import RandomOrderScheduler

            captured["scheduler"] = RandomOrderScheduler.contract
        return cls(**captured)

    # -- (de)serialization -----------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """All non-``None`` fields as a plain dict (stable key order)."""
        out: Dict[str, Any] = {}
        for name in SEMANTIC_FIELDS + ENVIRONMENT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Rebuild from a dict, ignoring unknown keys (forward compat)."""
        known = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    # -- identity ---------------------------------------------------------
    def semantic_dict(self) -> Dict[str, Any]:
        """The semantic fields only (``None`` entries included)."""
        return {name: getattr(self, name) for name in SEMANTIC_FIELDS}

    def fingerprint(self) -> str:
        """12-hex-char content hash of the semantic fields.

        Canonical JSON (sorted keys, no whitespace variance) feeds a
        sha256, so the value is independent of dict ordering, of every
        environment field, and of the process that computes it.
        """
        canonical = json.dumps(self.semantic_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def summary(self) -> str:
        """One human line: semantic knobs, then environment, then id."""
        parts = []
        for name in SEMANTIC_FIELDS:
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        env = []
        for name in ENVIRONMENT_FIELDS:
            value = getattr(self, name)
            if value is not None:
                env.append(f"{name}={value}")
        line = " ".join(parts) or "(unparameterized)"
        if env:
            line += "  [" + " ".join(env) + "]"
        return f"{line}  #{self.fingerprint()}"

    def differences(self, other: "RunManifest") -> Dict[str, tuple]:
        """``{field: (mine, theirs)}`` over differing *semantic* fields.

        The diffing layer uses this to label a nonzero diff as a
        configuration change rather than a performance regression.
        """
        out: Dict[str, tuple] = {}
        for name in SEMANTIC_FIELDS:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                out[name] = (mine, theirs)
        return out
