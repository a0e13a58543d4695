"""Two-way label recovery from the second eigenvector, and overlap scoring.

The labeling rule is a randomized rounding of the eigenvector of the
second-largest (by modulus) eigenvalue: after rescaling the vector to
squared norm n, vertex v goes to the positive class with probability
1/2 + xi(v) / (2K) whenever |xi(v)| <= K, and with probability 1/2
otherwise.  K has a closed form in the model constants, so no tuning is
involved.  Recovery quality is the permutation-maximized agreement with
the hidden types minus the trivial-guess baseline.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .graph import SparseGraph, SparseSymMatrix, _require_built, distance_matrix
from .model import SpectralProfile
from .spectral import EigenPair, _opposite_tie, top_eigenpairs
from .util import canonical_sign, derive_seed, make_rng, timed

FALLBACK_K = 10.0  # used below threshold, where the closed form is undefined


class AtOrBelowThreshold(ValueError):
    """The signal-to-noise ratio is not above 1, which the closed-form
    constant and the robustness frontiers need."""


class ZeroVector(ValueError):
    pass


class LabelOutOfRange(ValueError):
    pass


class BelowThreshold(UserWarning):
    """Detection attempted below the recovery threshold."""


@dataclass(frozen=True, eq=False)
class LabelAssignment:
    labels: np.ndarray
    source: int          # index of the eigenpair the split came from
    K_used: float
    seed: int


@dataclass(frozen=True, eq=False)
class DetectionRecord:
    """The pairs ``detect`` rounded, and each stage's wall ms (None: not run)."""
    pairs: list[EigenPair]
    ms_build: Optional[float]
    ms_solve: float
    ms_round: float


@dataclass(frozen=True, eq=False)
class OverlapScore:
    value: float
    best_permutation: tuple


def explicit_K(r: int, tau: float, d: int) -> float:
    """Closed-form rounding constant r * tau * sqrt(d * tau / (tau - 1))."""
    if r < 2 or d < 1:
        raise ValueError("need r >= 2 and d >= 1")
    if tau <= 1.0:
        raise AtOrBelowThreshold(f"signal-to-noise ratio {tau} is not above 1")
    return float(r * tau * np.sqrt(d * tau / (tau - 1.0)))


def normalize_for_algorithm(vector: np.ndarray, n: int) -> np.ndarray:
    """Rescale to squared norm exactly n, with canonical sign."""
    v = np.asarray(vector, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ZeroVector("cannot normalize the zero vector")
    return canonical_sign(v * (np.sqrt(n) / norm))


def label_two_way(xi: np.ndarray, K: float, seed: int) -> LabelAssignment:
    """Independent per-vertex coins: P(label 0) = 1/2 + xi(v)/(2K) if |xi(v)| <= K.

    Entries beyond K in modulus get probability exactly 1/2.  Coins come
    from a counter-based stream indexed by vertex, so the labeling is
    deterministic under the seed.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    xi = np.asarray(xi, dtype=np.float64)
    inside = np.abs(xi) <= K
    p_plus = 0.5 + np.where(inside, xi / (2.0 * K), 0.0)
    rng = make_rng(seed)
    coins = rng.random(len(xi))
    labels = np.where(coins < p_plus, 0, 1).astype(np.int64)
    return LabelAssignment(labels=labels, source=-1, K_used=float(K), seed=int(seed))


def overlap(sigma: np.ndarray, sigma_hat: np.ndarray, pi: Sequence[float]) -> OverlapScore:
    """Permutation-maximized agreement minus the trivial-guess baseline.

    Exact maximization over all r! label permutations via the confusion
    matrix; intended for r <= 8.
    """
    sigma = np.asarray(sigma, dtype=np.int64)
    sigma_hat = np.asarray(sigma_hat, dtype=np.int64)
    if sigma.shape != sigma_hat.shape:
        raise ValueError("label vectors must have equal length")
    pi = np.asarray(pi, dtype=np.float64)
    r = len(pi)
    if r > 8:
        raise ValueError("factorial search is limited to r <= 8")
    if sigma.min(initial=0) < 0 or sigma.max(initial=0) >= r:
        raise LabelOutOfRange("true labels outside [0, r)")
    if sigma_hat.min(initial=0) < 0 or sigma_hat.max(initial=0) >= r:
        raise LabelOutOfRange("estimated labels outside [0, r)")
    n = len(sigma)
    confusion = np.zeros((r, r), dtype=np.int64)
    np.add.at(confusion, (sigma, sigma_hat), 1)
    best_perm = None
    best_agree = -1
    for perm in itertools.permutations(range(r)):
        agree = sum(confusion[a, perm[a]] for a in range(r))
        if agree > best_agree:
            best_agree = agree
            best_perm = perm
    value = best_agree / n - float(pi.max())
    return OverlapScore(value=float(value), best_permutation=tuple(best_perm))


def _pick_second(pairs: Sequence[EigenPair], mu2_power: float) -> int:
    """Index of the signal eigenpair: second by modulus, or its opposite-sign
    partner where ``top_eigenpairs`` returned a +-lambda tie (its rule and
    tolerance), whichever lies nearer the predicted signed power."""
    if len(pairs) < 2:
        return len(pairs) - 1
    group = [1] + [i for i in range(2, len(pairs))
                   if _opposite_tie(pairs[i].value, pairs[1].value)]
    return min(group, key=lambda i: (abs(pairs[i].value - mu2_power), i))


def solve_pairs(mat: SparseSymMatrix, n: int, profile: SpectralProfile,
                seed: int) -> list[EigenPair]:
    """Solve stage: the pairs the rounding reads, ``profile.signal_pairs(n)``
    of them (the r0 informative pairs, at least two, at most n), plus the
    opposite-sign partner of the last when ``top_eigenpairs`` finds a
    +-lambda tie there.  The bulk below is not solved; warns when the
    profile sits at or below the recovery threshold."""
    if not profile.above_threshold:
        warnings.warn(BelowThreshold(
            f"r0 = {profile.r0}: no informative second eigenvalue is expected"))
    return top_eigenpairs(mat, n, k=profile.signal_pairs(n), seed=derive_seed(seed, "eig"))


def round_labels(pairs: Sequence[EigenPair], profile: SpectralProfile, ell: int,
                 seed: int) -> LabelAssignment:
    """Round stage: round the signal eigenvector to two labels with K =
    the closed form above threshold, else ``FALLBACK_K``."""
    n = len(pairs[0].vector)
    idx = _pick_second(pairs, float(profile.mu[1] ** ell))
    xi = normalize_for_algorithm(pairs[idx].vector, n)
    if profile.tau > 1.0:
        K = explicit_K(profile.params.r, profile.tau, profile.d)
    else:
        K = FALLBACK_K
    return replace(label_two_way(xi, K, derive_seed(seed, "label")), source=idx)


def detect(
    g: SparseGraph,
    profile: SpectralProfile,
    ell: int,
    seed: int,
    dl: Optional[SparseSymMatrix] = None,
) -> tuple[LabelAssignment, DetectionRecord]:
    """Full pipeline: build ``D^ell`` (unless ``dl``, built from ``g`` at
    depth ``ell``, is given), solve, round the second eigenvector.

    Deterministic given (graph, seed): solver and coin streams use seeds
    derived from labeled hashes.
    """
    ms_build = None
    if dl is None:
        dl, ms_build = timed(distance_matrix, g, ell)
    else:
        _require_built(dl, "dl", g, ell, "distance")
    pairs, ms_solve = timed(solve_pairs, dl, g.n, profile, seed)
    assignment, ms_round = timed(round_labels, pairs, profile, ell, seed)
    return assignment, DetectionRecord(pairs, ms_build, ms_solve, ms_round)
