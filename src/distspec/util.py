"""Shared RNG plumbing, vector sign convention, input checks and stage timer.

Every generator in the package is built here from an explicit integer
seed, masked to 64 bits, so identical seeds reproduce byte-identical
results across platforms and runs.  :func:`make_rng` keys a Philox4x64
counter-based generator: it serves the draws addressed by stream position
(the sampler's coin sweep jumps its stream) and the graph, solver and
label streams.  The branching simulations consume their variates only in
order, so they draw from the faster SFC64 (:func:`_sfc64_rng`).
Independent phases of a pipeline derive their own keys with
:func:`derive_seed` so each phase can be rerun in isolation.
"""

from __future__ import annotations

import hashlib
import numbers
import time

import numpy as np

_MASK64 = (1 << 64) - 1


def _key(seed: int) -> int:
    """The integer ``seed`` masked to 64 bits; a float or bool is a ``ValueError``."""
    if not is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=_key(seed)))


def _sfc64_rng(seed: int) -> np.random.Generator:
    """SFC64 generator seeded by a 64-bit seed, for streams drawn only in order."""
    return np.random.Generator(np.random.SFC64(_key(seed)))


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit seed for a named sub-phase.

    Hashes (label, seed) with SHA-256 and keeps the low 8 bytes, so
    distinct labels give independent streams and the mapping is stable
    across runs and platforms.
    """
    digest = hashlib.sha256(f"{label}:{_key(seed)}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def is_int(x) -> bool:
    """An integer of any integral type (NumPy's included), but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def require_keys(doc: dict, where: str, keys) -> None:
    """Raise ``ValueError`` naming the first of ``keys`` missing from ``doc``."""
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"missing {where} key {missing[0]!r}")


def canonical_sign(vec: np.ndarray) -> np.ndarray:
    """Flip sign so the first coordinate above 1e-12 of the largest is positive."""
    nz = np.flatnonzero(np.abs(vec) > 1e-12 * np.abs(vec).max(initial=0.0))
    if nz.size and vec[nz[0]] < 0:
        return -vec
    return vec


def timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and its wall time in ms."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1000.0
