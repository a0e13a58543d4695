"""Shared RNG plumbing, vector sign convention and integer check.

All randomness in the package flows through Philox4x64 counter-based
generators keyed by explicit 64-bit seeds, so identical seeds reproduce
byte-identical results across platforms and runs.  Independent phases of
a pipeline derive their own keys with :func:`derive_seed` so each phase
can be rerun in isolation.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

_MASK64 = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit seed for a named sub-phase.

    Hashes (label, seed) with SHA-256 and keeps the low 8 bytes, so
    distinct labels give independent streams and the mapping is stable
    across runs and platforms.
    """
    digest = hashlib.sha256(f"{label}:{int(seed) & _MASK64}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def is_int(x) -> bool:
    """An integer of any integral type (NumPy's included), but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def canonical_sign(vec: np.ndarray) -> np.ndarray:
    """Flip sign so the first coordinate above 1e-12 of the largest is positive."""
    nz = np.flatnonzero(np.abs(vec) > 1e-12 * np.abs(vec).max(initial=0.0))
    if nz.size and vec[nz[0]] < 0:
        return -vec
    return vec
