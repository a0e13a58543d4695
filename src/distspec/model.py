"""Block-model parameters, derived spectral constants, and graph sampling.

The generative model: each of ``n`` vertices independently receives a
hidden type from the prior ``pi``; every unordered pair ``{u, v}`` is then
an edge independently with probability ``min(W[type(u), type(v)] / n, 1)``.
The edge coins sit where a row-major sweep over all n^2 pairs would draw
them; only the upper-triangle ones are generated (see :func:`sample_graph`).
The mean progeny matrix ``M = diag(pi) @ W`` governs the local branching
structure; its eigenvalues decide whether the types can be recovered from
the graph alone (signal-to-noise ratio ``tau = mu2^2 / mu1 > 1``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .graph import SparseGraph
from .util import canonical_sign, is_int, make_rng, require_keys

_TOL_PI = 1e-12
_TOL_REG = 1e-9
_TOL_MULT = 1e-9
_COIN_ENTRIES = 1 << 18  # edge coins one row group of the sampler holds (2 MB)
# Rows u below this are drawn whole, their u + 1 coins left of the diagonal
# included: a jump over a skip (``_skip``: ``advance`` and two partial draws)
# costs about 5 us, the price of drawing about 500 coins at 6 ns each.
_DRAW_THROUGH = 512


class NotPositiveRegular(ValueError):
    """No power of the mean progeny matrix up to r is entrywise positive."""


class InvalidKappa(ValueError):
    """Depth-scaling exponent must be positive and finite."""


def _check_depth(ell) -> None:
    """Raise ``ValueError`` unless the matrix depth ``ell`` is an integer
    (``util.is_int``) of at least 1."""
    if not is_int(ell) or ell < 1:
        raise ValueError(f"depth ell must be an integer >= 1, got {ell!r}")


def _check_kappa(kappa) -> None:
    """Raise :class:`InvalidKappa` unless ``kappa`` is a real number (not a
    bool), positive and finite."""
    if isinstance(kappa, bool) or not isinstance(kappa, numbers.Real) \
            or not 0 < kappa < math.inf:
        raise InvalidKappa(f"kappa must be a positive, finite real number, got {kappa!r}")


@dataclass(frozen=True, eq=False)
class SbmParams:
    """Block count r, connectivity matrix W (per-n scaling), prior pi, size n."""

    r: int
    W: np.ndarray
    pi: np.ndarray
    n: int

    def __post_init__(self):
        for name, value in (("r", self.r), ("n", self.n)):
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("W", "pi"):
            entries = np.asarray(getattr(self, name), dtype=object)
            bad = [x for x in entries.ravel()
                   if isinstance(x, bool) or not isinstance(x, numbers.Real)]
            if bad:
                raise ValueError(f"{name} must be real numbers, got {bad[0]!r}")
            values = entries.astype(float)
            bad = [x for x in values.ravel().tolist() if not math.isfinite(x)]
            if bad:
                raise ValueError(f"{name} must be finite, got {bad[0]!r}")
            object.__setattr__(self, name, values)
        if self.r < 2:
            raise ValueError("need at least two blocks")
        if self.n < self.r:
            raise ValueError("need n >= r")
        if self.W.shape != (self.r, self.r):
            raise ValueError(f"W must be {self.r}x{self.r}")
        if not np.allclose(self.W, self.W.T, atol=0, rtol=0):
            raise ValueError("W must be symmetric")
        if (self.W < 0).any():
            raise ValueError("W entries must be nonnegative")
        if self.pi.shape != (self.r,):
            raise ValueError(f"pi must have length {self.r}")
        if (self.pi < 0).any():
            raise ValueError("pi entries must be nonnegative")
        if abs(self.pi.sum() - 1.0) > _TOL_PI:
            raise ValueError("pi must sum to 1")

    @property
    def uniform_pi(self) -> bool:
        return bool(np.max(np.abs(self.pi - 1.0 / self.r)) <= _TOL_PI * self.r)


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Spectral constants derived from the mean progeny matrix.

    ``mu`` is sorted by absolute value (descending, ties broken by signed
    value); ``phi`` holds the matching normed left eigenvectors as rows.
    ``r0`` counts the informative eigenvalues (``mu_k^2 > mu_1``), ``d``
    the multiplicity of ``|mu_2|``, ``tau`` the signal-to-noise ratio.
    ``alpha`` is rho(M) = ``mu[0]``, the growth rate of balls; on a
    degree-regular model it is the mean column sum, which is exact there.
    """

    params: SbmParams
    M: np.ndarray
    alpha: float
    mu: np.ndarray
    phi: np.ndarray
    tau: float
    r0: int
    d: int
    degree_regular: bool
    column_sums: np.ndarray = field(repr=False, default=None)

    @property
    def above_threshold(self) -> bool:
        return self.r0 > 1

    def signal_pairs(self, n: int) -> int:
        """Eigenpairs a solve asks for to hold the r0 informative ones, and
        the second pair below threshold: ``min(max(r0, 2), n)``."""
        return min(max(self.r0, 2), n)


@dataclass(frozen=True, eq=False)
class TypedGraphSample:
    """A sampled graph together with its hidden type assignment."""

    graph: SparseGraph
    sigma: np.ndarray
    seed: int

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.int64)
        object.__setattr__(self, "sigma", sigma)
        if sigma.shape != (self.graph.n,):
            raise ValueError("sigma must have one label per vertex")


def derive_spectral_profile(params: SbmParams) -> SpectralProfile:
    """Compute eigenvalues/eigenvectors of M and the detection constants.

    The spectrum is taken from the symmetric conjugate
    ``S = diag(pi)^(1/2) W diag(pi)^(1/2)``, which shares eigenvalues with
    ``M = diag(pi) W`` and guarantees a real spectrum.  Raises
    :class:`NotPositiveRegular` when no power ``M^t`` with ``t <= r`` is
    entrywise positive.  Degree irregularity is recorded as a flag, not an
    error; a subcritical model (``mu[0] <= 1``) is not rejected here.
    """
    r = params.r
    M = np.diag(params.pi) @ params.W
    sqrt_pi = np.sqrt(params.pi)
    S = sqrt_pi[:, None] * params.W * sqrt_pi[None, :]

    evals, evecs = np.linalg.eigh(S)
    order = np.lexsort((-evals, -np.abs(evals)))
    mu = evals[order]
    U = evecs[:, order]

    # Left eigenvectors of M: phi = diag(pi)^(-1/2) u, then unit norm.
    if (sqrt_pi <= 0).any():
        raise ValueError("pi entries must be positive to derive eigenvectors")
    phi_cols = U / sqrt_pi[:, None]
    phi_cols = phi_cols / np.linalg.norm(phi_cols, axis=0, keepdims=True)
    phi = np.array([canonical_sign(phi_cols[:, k]) for k in range(r)])

    power = M.copy()
    for _ in range(r):
        if (power > 0).all():
            break
        power = power @ M
    else:
        raise NotPositiveRegular(
            f"no power of M up to {r} is entrywise positive"
        )

    column_sums = M.sum(axis=0)
    degree_regular = bool(np.max(np.abs(column_sums - column_sums.mean())) <= _TOL_REG)
    alpha = float(column_sums.mean() if degree_regular else mu[0])

    tau = float(mu[1] ** 2 / mu[0])
    r0 = int(np.sum(mu**2 > mu[0]))
    d = int(np.sum(np.abs(np.abs(mu) - abs(mu[1])) <= _TOL_MULT * max(1.0, abs(mu[1]))))

    return SpectralProfile(
        params=params,
        M=M,
        alpha=alpha,
        mu=mu,
        phi=phi,
        tau=tau,
        r0=r0,
        d=d,
        degree_regular=degree_regular,
        column_sums=column_sums,
    )


def _skip(bitgen: np.random.Philox, pos: int, k: int) -> None:
    """Move a Philox stream at output position ``pos`` past ``k`` outputs."""
    head = min(k, -pos % 4)  # outputs left in the current block of four
    bitgen.random_raw(head)
    if k > head:  # on a block boundary: advance jumps blocks without computing them
        bitgen.advance((k - head) // 4)
        bitgen.random_raw((k - head) % 4)


def sample_graph(params: SbmParams, seed: int) -> TypedGraphSample:
    """Draw one graph: i.i.d. types from pi, independent per-pair edge coins.

    Edge probability for ``{u, v}`` is ``min(W[sigma(u), sigma(v)] / n, 1)``;
    probabilities at or above 1 are handled by the clamp.  The same seed
    reproduces the same edge list and type vector bit for bit: after
    ``sigma`` the Philox stream sits at output position P0, and the coin of
    the pair u < v is the uniform double (one 64-bit output) at P0 + u*n + v,
    as in a row-major sweep over all n^2 ordered pairs.  The first
    ``_DRAW_THROUGH`` rows are one unbroken stretch of the stream, drawn in
    row groups, whose coins with u >= v are drawn and dropped; past them
    only the coins with u < v are generated and the stream is advanced over
    the others.  Every group goes through one buffer, the size of the
    largest group of ``_COIN_ENTRIES`` coins that the row loop holds.
    """
    rng = make_rng(seed)
    n, r = params.n, params.r
    sigma = rng.choice(r, size=n, p=params.pi)
    prob = np.minimum(params.W / n, 1.0)
    bitgen, state = rng.bit_generator, rng.bit_generator.state
    p0 = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
    # Coin (u, v) is at flat index ends[u] - n + v of the upper triangle.
    ends = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    block = max(1, _COIN_ENTRIES // n)
    buf = np.empty(max(n, int(ends[min(block, n - 1) - 1])))
    edges = [np.empty((0, 2), dtype=np.int64)]

    def keep(coins, flat, rows, cols):
        hit = coins[flat] < prob[sigma[rows], sigma[cols]]
        edges.append(np.stack([rows[hit], cols[hit]], axis=1))

    whole, group = min(_DRAW_THROUGH, n - 1), len(buf) // n
    for lo in range(0, whole, group):
        coins = buf[:(min(lo + group, whole) - lo) * n]
        rng.random(out=coins)
        flat = np.flatnonzero(coins < prob.max())  # every hit is below the max
        rows, cols = flat // n + lo, flat % n
        upper = cols > rows
        keep(coins, flat[upper], rows[upper], cols[upper])
    for lo in range(whole, n - 1, block):
        base, hi = ends[lo] - n + lo + 1, min(lo + block, n - 1)
        coins = buf[:ends[hi - 1] - base]
        for u in range(lo, hi):
            _skip(bitgen, p0 + u * n, u + 1)
            rng.random(out=coins[ends[u] - n + u + 1 - base:ends[u] - base])
        flat = np.flatnonzero(coins < prob.max())
        rows = np.searchsorted(ends, flat + base, side="right")
        keep(coins, flat, rows, flat + base - ends[rows] + n)
    graph = SparseGraph.from_edges(n, np.concatenate(edges))
    return TypedGraphSample(graph=graph, sigma=sigma, seed=int(seed))


class EllChoice(NamedTuple):
    """Chosen matrix depth plus flags about how it was obtained."""

    ell: int
    overridden: bool
    clamped: bool
    kappa_in_regime: bool


def choose_ell(
    profile: SpectralProfile,
    n: int,
    kappa: float = 1.0 / 13.0,
    override: Optional[int] = None,
) -> EllChoice:
    """Depth ell ~ kappa * log_alpha(n), alpha = rho(M), clamped to at least 1.

    ``override``, an integer >= 1, short-circuits the formula (recorded in
    the flags); ``kappa``, positive and finite, is checked either way, as
    ``kappa_in_regime`` records whether it sits strictly below 1/12, the
    regime where the eigenvalue-separation guarantees apply.
    """
    _check_kappa(kappa)
    if override is not None:
        _check_depth(override)
        return EllChoice(int(override), True, False, kappa < 1.0 / 12.0)
    if profile.alpha <= 1.0:
        raise ValueError("alpha must exceed 1 to choose a depth")
    # Small epsilon guards floor() against float dust at exact integer targets.
    raw = math.floor(kappa * math.log(n) / math.log(profile.alpha) + 1e-9)
    clamped = raw < 1
    return EllChoice(max(1, raw), False, clamped, kappa < 1.0 / 12.0)


def sample_to_json(sample: TypedGraphSample, r: int) -> dict:
    """Graph document of a sample from ``r`` blocks (``r`` is passed, as a block
    may draw no vertex): 0-based vertices, each edge listed once with u < v."""
    edges = sample.graph.edge_array()
    return {
        "n": int(sample.graph.n),
        "r": int(r),
        "seed": int(sample.seed),
        "types": [int(t) for t in sample.sigma],
        "edges": [[int(u), int(v)] for u, v in edges],
    }


def sample_from_json(doc: dict) -> TypedGraphSample:
    """The sample of a graph document (see :func:`sample_to_json`), checked:
    the keys ``n``, ``r``, ``types`` and ``edges`` are present (``seed``
    defaults to 0); ``r``, ``seed`` and every type are integers, and so are
    ``n`` and every endpoint, with the edges judged as ``SparseGraph.from_edges``
    judges them (range, no self-loops, no duplicates); there is one type per
    vertex, each in 0..r-1."""
    require_keys(doc, "graph", ("n", "r", "types", "edges"))
    for key in ("r", "seed", "types"):
        bad = [x for x in np.asarray(doc.get(key, 0), dtype=object).ravel() if not is_int(x)]
        if bad:
            raise ValueError(f"graph {key} must hold integers, got {bad[0]!r}")
    graph = SparseGraph.from_edges(doc["n"], doc["edges"])
    sigma = np.asarray(doc["types"], dtype=np.int64)
    if sigma.shape != (graph.n,):
        raise ValueError(f"types must hold {graph.n} entries, one per vertex")
    if ((sigma < 0) | (sigma >= doc["r"])).any():
        raise ValueError(f"types must lie in 0..{doc['r'] - 1}")
    return TypedGraphSample(graph=graph, sigma=sigma, seed=doc.get("seed", 0))
