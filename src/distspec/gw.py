"""Multitype branching-process simulator and its moment identities.

A particle of type j leaves an independent Poisson(M[i, j]) number of
type-i children, so the population vector evolves as
Z_{t+1} ~ Poisson(M @ Z_t) componentwise.  For an eigenvalue mu of M with
mu^2 > rho(M), the spectral radius of M, and a matching left eigenvector
phi, the rescaled projection mu^(-t) <phi, Z_t> is a martingale with an
L2 limit; its per-root-type moments satisfy exact linear relations that
are verified here both by closed-form solves and by Monte Carlo.
"""

from __future__ import annotations

import itertools
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .model import SpectralProfile
from .util import _sfc64_rng, derive_seed, is_int

DEFAULT_CAP = 10**7
# Rows of a generation drawn, and of a projection formed, at a time: their
# float64 rates and int64 counts stay near 64 KB (at r = 2) whatever the
# run count.
_CHUNK_ROWS = 1 << 12


class SingularSystem(ValueError):
    """The moment system needs mu^2 > rho(M) to be solvable."""


class PopulationCapHit(UserWarning):
    def __init__(self, count: int, runs: int):
        self.count = count
        super().__init__(f"{count}/{runs} runs hit the population cap and were frozen")


@dataclass(frozen=True, eq=False)
class GwConfig:
    M: np.ndarray
    root_law: Union[int, np.ndarray]  # point mass on a type, or a probability vector
    depth: int = 8
    runs: int = 10**5
    seed: int = 0
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("M must be square")
        if (M < 0).any():
            raise ValueError("M entries must be nonnegative")
        object.__setattr__(self, "M", M)
        for name in ("depth", "runs", "seed", "cap"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.depth < 0 or self.runs < 1:
            raise ValueError("need depth >= 0 and runs >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1: a smaller cap freezes every run")
        if is_int(self.root_law):
            if not 0 <= self.root_law < M.shape[0]:
                raise ValueError(f"root type must lie in 0..{M.shape[0] - 1}, "
                                 f"got {self.root_law}")
        else:  # a law; a bool lands here and fails as one
            law = np.asarray(self.root_law, dtype=float)
            if law.shape != (M.shape[0],) or (law < 0).any() or abs(law.sum() - 1) > 1e-12:
                raise ValueError("root law must be a probability vector over types")
            object.__setattr__(self, "root_law", law)

    @property
    def r(self) -> int:
        return self.M.shape[0]

    def root_vector(self) -> np.ndarray:
        """Mean of the root distribution as a type vector."""
        if isinstance(self.root_law, (int, np.integer)):
            nu = np.zeros(self.r)
            nu[int(self.root_law)] = 1.0
            return nu
        return np.asarray(self.root_law, dtype=float)


@dataclass(frozen=True, eq=False)
class PopulationSample:
    """Per-run population trajectories (runs, depth+1, r) plus cap flags."""

    Z: np.ndarray
    root_types: np.ndarray
    capped: np.ndarray
    cfg: GwConfig

    @property
    def ok(self) -> np.ndarray:
        return ~self.capped


@dataclass(frozen=True, eq=False)
class MartingaleSample:
    """Terminal rescaled projections X = mu^(-depth) <phi, Z_depth> per run."""

    X: np.ndarray
    mean: float
    variance: float
    stderr: float
    expected_mean: float
    per_type_var: np.ndarray
    capped_runs: int


def _chunks(rows: int) -> list[slice]:
    """Slices of about ``_CHUNK_ROWS`` rows covering ``range(rows)``.

    A lone last row joins the chunk before it: NumPy computes a one-row
    product as a dot product, not through the BLAS matrix kernels that
    give every other row its bits, so a one-row chunk of a longer array
    would move the last bit of that row's rates.
    """
    starts = range(0, max(rows - 1, 1), _CHUNK_ROWS)
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], rows])]


def _branching(cfg: GwConfig) -> tuple[np.ndarray, np.ndarray, Iterator[np.ndarray]]:
    """``(root types, cap flags, generations)`` of one simulation.

    ``generations`` yields Z_0, ..., Z_depth as one (runs, r) int64 array
    that each step advances in place, a chunk of rows at a time, so
    the draw's temporaries are chunk-sized and a caller copies what it
    keeps.  The draws are the root types, then one Poisson variate per
    entry of each generation in row-major order, from the SFC64 stream of
    the config's seed: the chunks split one generation's draw without
    moving a variate.  A run whose total passes the cap is frozen at its
    previous state (a rule that reads only the run's own row); the flags
    are final, and one :class:`PopulationCapHit` warned if any run froze,
    once the iterator is exhausted.
    """
    rng = _sfc64_rng(cfg.seed)
    r = cfg.r
    Z = np.zeros((cfg.runs, r), dtype=np.int64)
    if isinstance(cfg.root_law, (int, np.integer)):
        root_types = np.full(cfg.runs, int(cfg.root_law), dtype=np.int64)
        Z[:, int(cfg.root_law)] = 1
    else:
        root_types = rng.choice(r, size=cfg.runs, p=cfg.root_law)
        Z[np.arange(cfg.runs), root_types] = 1
    capped = np.zeros(cfg.runs, dtype=bool)

    def generations():  # holds no reference to the root types
        yield Z
        MT = cfg.M.T
        for _ in range(cfg.depth):
            for rows in _chunks(cfg.runs):
                z, was = Z[rows], capped[rows]
                nxt = rng.poisson(z @ MT)
                # No total can pass the cap while r times the largest entry does not.
                if was.any() or int(nxt.max()) * r > cfg.cap:
                    frozen = was | (nxt.sum(axis=1) > cfg.cap)
                    nxt[frozen] = z[frozen]
                    was[frozen] = True
                z[...] = nxt
            yield Z
        if capped.any():
            warnings.warn(PopulationCapHit(int(capped.sum()), cfg.runs))

    return root_types, capped, generations()


def simulate_population(cfg: GwConfig) -> PopulationSample:
    """Exact multitype branching with Poisson offspring, vectorized over runs.

    Runs whose total population exceeds the cap are frozen at that state
    and flagged; moment estimators should exclude them (the flags say how
    many there were).  The branching checks read the same generations
    without storing the history.
    """
    root_types, capped, generations = _branching(cfg)
    # Generation-major, so each generation fills one contiguous slab.
    Zt = np.empty((cfg.depth + 1, cfg.runs, cfg.r), dtype=np.int64)
    for t, Z in enumerate(generations):
        Zt[t] = Z
    return PopulationSample(Z=Zt.transpose(1, 0, 2), root_types=root_types, capped=capped,
                            cfg=cfg)


def _check_supercritical(M: np.ndarray, mu: float) -> None:
    """Raise :class:`SingularSystem` unless mu^2 > rho(M), the spectral radius of M
    (the profile's ``alpha``, up to rounding)."""
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    if mu**2 <= rho:
        raise SingularSystem(f"need mu^2 > rho(M), got mu^2 = {mu**2}, rho(M) = {rho}")


def _rescaled(Z_t: np.ndarray, phi: np.ndarray, mu: float, t: int) -> np.ndarray:
    """mu^(-t) <phi, Z_t> per run of one (runs, r) generation.

    Formed a chunk of rows at a time (:func:`_chunks`), so no float copy of
    Z_t is made.
    """
    phi = np.asarray(phi, dtype=float)
    X = np.empty(len(Z_t))
    for rows in _chunks(len(Z_t)):
        X[rows] = Z_t[rows] @ phi
    X /= float(mu) ** t
    return X


def martingale_values(sample: PopulationSample, phi: np.ndarray, mu: float,
                      depth: Optional[int] = None) -> np.ndarray:
    """X = mu^(-t) <phi, Z_t> for every run at the given depth."""
    t = sample.cfg.depth if depth is None else int(depth)
    if not 0 <= t <= sample.cfg.depth:
        raise ValueError(f"depth must be in 0..{sample.cfg.depth}, got {t}")
    return _rescaled(sample.Z[:, t, :], phi, mu, t)


def martingale_limit_check(cfg: GwConfig, phi: np.ndarray, mu: float) -> MartingaleSample:
    """Estimate the limit's mean and variance; the mean should match <phi, nu>.

    Requires mu^2 > rho(M) (the spectral radius of M) for the limit to
    carry finite variance.  Capped runs are excluded from the estimates,
    and at least 2 uncapped runs must remain.  Only the last generation
    is kept; X is what :func:`martingale_values` gives on
    :func:`simulate_population` of the same config.
    """
    _check_supercritical(cfg.M, mu)
    root_types, capped, generations = _branching(cfg)
    (last,) = deque(generations, maxlen=1)
    phi = np.asarray(phi, dtype=float)
    X_all = _rescaled(last, phi, mu, cfg.depth)
    del last
    ok = ~capped
    X = X_all[ok]
    if len(X) < 2:
        raise ValueError(f"need at least 2 uncapped runs for a variance, got {len(X)}")
    per_var = np.full(cfg.r, np.nan)
    for i in range(cfg.r):
        mask = ok & (root_types == i)
        if mask.sum() > 1:
            per_var[i] = X_all[mask].var(ddof=1)
    return MartingaleSample(
        X=X,
        mean=float(X.mean()),
        variance=float(X.var(ddof=1)),
        stderr=float(X.std(ddof=1) / np.sqrt(len(X))),
        expected_mean=float(np.dot(phi, cfg.root_vector())),
        per_type_var=per_var,
        capped_runs=int(capped.sum()),
    )


def moment_closed_forms(
    profile: SpectralProfile, phi: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Exact second moments of the martingale limits by linear solve.

    The second moments solve (I - M^T / mu^2) m2 = phi^2, the fixed point
    of :func:`finite_depth_second_moments`'s recursion.  Returns (c2, m2,
    var_sum, sqmean_sum) where c2 / m2 are the per-root-type variances /
    second moments, var_sum = sum(c2) and sqmean_sum = sum(m2).  Under a
    uniform prior with equal column sums these equal 1/(tau_mu - 1) and
    tau_mu/(tau_mu - 1) with tau_mu = mu^2/alpha, which is asserted to 1e-9.
    """
    M = profile.M
    _check_supercritical(M, mu)
    phi = np.asarray(phi, dtype=float)
    A = np.eye(len(phi)) - np.ascontiguousarray(M.T) / mu**2
    m2 = np.linalg.solve(A, phi**2)
    c2 = m2 - phi**2
    var_sum = float(c2.sum())
    sqmean_sum = float(m2.sum())
    if profile.params.uniform_pi and profile.degree_regular:
        tau_mu = mu**2 / profile.alpha
        expect_var = 1.0 / (tau_mu - 1.0)
        expect_sq = tau_mu / (tau_mu - 1.0)
        if abs(var_sum - expect_var) > 1e-9 or abs(sqmean_sum - expect_sq) > 1e-9:
            raise AssertionError(
                f"moment identities violated: {var_sum} vs {expect_var}, "
                f"{sqmean_sum} vs {expect_sq}"
            )
    return c2, m2, var_sum, sqmean_sum


def finite_depth_second_moments(
    profile: SpectralProfile, phi: np.ndarray, mu: float, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-root-type (variances, second moments) at a finite depth.

    One generation of branching gives m2_t = phi^2 + (M^T / mu^2) m2_{t-1}
    with m2_0 = phi^2 (the depth-0 value is deterministic), which is what
    a depth-t simulation estimates; it converges to the closed-form limit
    of :func:`moment_closed_forms` geometrically at rate rho(M)/mu^2.
    """
    _check_supercritical(profile.M, mu)
    phi = np.asarray(phi, dtype=float)
    m2 = phi**2
    MT = profile.M.T / mu**2
    for _ in range(depth):
        m2 = phi**2 + MT @ m2
    return m2 - phi**2, m2


def _cumulant(x: np.ndarray, order: int) -> float:
    """Unbiased k-statistic of the given order (orders 1..3)."""
    n = len(x)
    if order == 1:
        return float(x.mean())
    if order == 2:
        return float(x.var(ddof=1))
    if order == 3:
        m = x.mean()
        s3 = ((x - m) ** 3).sum()
        return float(n * s3 / ((n - 1) * (n - 2)))
    raise ValueError("cumulant order must be 1, 2, or 3")


def _raw_moment(x: np.ndarray, order: int) -> float:
    return float((x**order).mean())


@dataclass(frozen=True, eq=False)
class CumulantCheck:
    order: int
    cumulants: np.ndarray       # estimated j-th cumulant per root type, depth t
    predicted: np.ndarray       # (M^T / mu^j) @ raw moments at depth t-1
    residual: np.ndarray
    residual_inf: float
    stderr: np.ndarray
    max_z: float


def _matched_depths(profile: SpectralProfile, phi: np.ndarray, mu: float, runs: int,
                    seed: int, depth: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yields ``(X at depth, X at depth - 1)`` of the uncapped runs, one
    simulation per root type.

    Each simulation advances one generation in place: X at ``depth - 1`` is
    read off as soon as that generation is drawn, and the generation is
    dropped before the pair is yielded, so a caller that reduces each pair
    before asking for the next holds one root type's X values at a time.
    """
    for i in range(profile.M.shape[0]):
        cfg = GwConfig(M=profile.M, root_law=i, depth=depth, runs=runs,
                       seed=derive_seed(seed, f"gw-root-{i}"))
        capped, generations = _branching(cfg)[1:]
        for t, Z in enumerate(generations):
            if t == depth - 1:
                before = _rescaled(Z, phi, mu, t)
        deep = _rescaled(Z, phi, mu, depth)
        del Z
        ok = ~capped  # final only once the generations are exhausted
        deep, before = deep[ok], before[ok]
        yield deep, before
        del deep, before  # not alive through the next root type's simulation


def cumulant_relation_check(
    profile: SpectralProfile,
    phi: np.ndarray,
    mu: float,
    order: int = 2,
    runs: int = 10**5,
    seed: int = 0,
    depth: int = 8,
) -> CumulantCheck:
    """Monte Carlo check of the cumulant/moment recursion c_j = (M^T / mu^j) m_j.

    One generation of branching relates the order-j cumulants at depth t
    to the order-j raw moments at depth t-1 exactly, so the residual of
    the recursion estimated at matched depths is pure sampling noise.
    Its standard error is the infinitesimal-jackknife one, the limit of
    the run bootstrap as the resamples grow: each root type's runs are
    independent, and a type's cumulant and raw moment share its runs.
    Orders up to 3 are supported; a root type needs at least 3 uncapped
    runs.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    if depth < 1:
        raise ValueError("need depth >= 1")
    M = profile.M
    _check_supercritical(M, mu)
    phi = np.asarray(phi, dtype=float)

    def per_type(x, y):
        """One root type's estimates and its runs' influence sums: the k-statistic
        of X at depth (x), the raw moment at depth - 1 (y), then the products
        of their per-run influences fk and fm, and the run count."""
        if len(x) < 3:
            raise ValueError("every root type needs at least 3 uncapped runs")
        cum, raw = _cumulant(x, order), _raw_moment(y, order)
        xc = x - x.mean()
        fk = xc**order
        fk -= fk.mean()
        if order == 3:
            fk -= 3 * (xc**2).mean() * xc
        del xc
        fm = y**order
        fm -= fm.mean()
        return cum, raw, fk @ fk, fm @ fm, fk @ fm, len(x)

    # starmap keeps no root type's X once its statistics are returned.
    stats = itertools.starmap(per_type, _matched_depths(profile, phi, mu, runs, seed, depth))
    cum, raw, A, B, C, counts = map(np.array, zip(*stats))
    # A type-i particle has Poisson(M[k, i]) type-k children: type i reads column i of M.
    MjT = np.ascontiguousarray(M.T) / mu**order
    predicted = MjT @ raw
    residual = cum - predicted

    n2 = counts.astype(float) ** 2
    se = np.sqrt((A - 2 * np.diag(MjT) * C) / n2 + MjT**2 @ (B / n2))
    z = np.abs(residual) / np.where(se > 0, se, np.inf)
    return CumulantCheck(
        order=order,
        cumulants=cum,
        predicted=predicted,
        residual=residual,
        residual_inf=float(np.abs(residual).max()),
        stderr=se,
        max_z=float(z.max()),
    )
