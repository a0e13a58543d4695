"""Symmetric eigensolver and spectral-radius diagnostics.

``top_eigenpairs`` runs ARPACK's implicitly restarted Lanczos method
(``scipy.sparse.linalg.eigsh``; Lehoucq, Sorensen and Yang, *ARPACK
Users' Guide*, SIAM 1998) on a :class:`SparseSymMatrix`.  One Krylov run
sees one copy of each eigenvalue, so a repeated eigenvalue (the distance
matrix of a graph with isomorphic components, say) can push true top
pairs out of its answer; the solver therefore deflates the matrix by
every vector found and solves again until nothing left beats the k-th
pair, screening each such check with a loose run first.  Pairs are
ordered by absolute eigenvalue, matching how the informative eigenvalues
of the distance matrix are read off.  Each matrix object's last complete
solve is kept while the object lives, and a later call that asks it for
no more pairs is answered from it without a product.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import SparseGraph, SparseSymMatrix, _delta, _expand, _require_built, \
    fundamental_cycles, path_expansion_matrix
from .util import canonical_sign, is_int, make_rng


class DegenerateOperator(ValueError):
    """The operator acts on a zero-dimensional space."""


class NoConvergence(UserWarning):
    """The matvec budget ran out before k pairs converged or before the
    multiplicity check finished; the pairs found are returned."""

    def __init__(self, converged: int, requested: int, iterations: int):
        self.converged = converged
        self.requested = requested
        self.iterations = iterations
        super().__init__(
            f"{converged}/{requested} eigenpairs converged after {iterations} matvecs"
        )


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class SeparationReport:
    """Measured top eigenvalues against their predicted scales.

    ``ratios[k]`` compares the (k+1)-th eigenvalue by modulus with
    mu_{k+1}^ell for the informative range; ``bulk_ratio`` compares the
    first non-informative eigenvalue with alpha^(ell/2).  A check passes
    only on what it measured: ``informative_ok`` needs all r0 ratios, and
    ``bulk_ok`` a pair past r0 (without one, ``bulk_ratio`` is nan).
    """

    lam: np.ndarray
    ratios: np.ndarray
    bulk_ratio: float
    informative_ok: bool
    bulk_ok: bool


_DENSE_BELOW = 64  # matrices with fewer rows are solved densely
_TOL = 1e-8  # a returned pair's residual stays below _TOL * max(1, |lambda|)
_MAX_MATVECS = 5000  # matrix products one call may spend
_SCREEN_TOL = 1e-2  # ARPACK tolerance of the multiplicity check's screening run


class _BudgetSpent(Exception):
    """The matvec budget ran out inside a solve."""


# Each matrix's last complete solve, as (k, pairs), kept exactly as long as the matrix.
_solved = weakref.WeakKeyDictionary()


def _opposite_tie(value: float, kth_value: float) -> bool:
    """``value`` has the sign opposite to the k-th pair's and its modulus
    within ``_TOL * max(1, |lambda_k|)``."""
    return bool(value * kth_value < 0
                and abs(abs(value) - abs(kth_value)) <= _TOL * max(1.0, abs(kth_value)))


def top_eigenpairs(op: SparseSymMatrix, n: int, k: int, seed: int = 0) -> list[EigenPair]:
    """Top-k eigenpairs by absolute value of a symmetric matrix of ``n`` rows.

    ARPACK (``eigsh``, ``which="LM"``) from a starting vector drawn from
    ``make_rng(seed)``, then the multiplicity check: the matrix is
    deflated by every vector found, ``(I - V V^T) A (I - V V^T)``, and
    solved for its top pair; a pair beating the k-th by modulus by more
    than ``_TOL * max(1, |lambda_k|)`` is merged and the check repeats.
    One Krylov run returns an arbitrary member of a +-lambda tie, so a
    pair of the sign opposite to the k-th's, tied with it by modulus
    within that tolerance, is merged too, the check stops, and it is
    returned as pair k + 1 (a same-sign repeat is not merged).  Wherever
    the pairs found include such a partner of the k-th, dense ``eigh``
    included, k + 1 pairs are returned.

    Each check is screened first by a run at ``_SCREEN_TOL``: an
    eigenvalue lies within the true residual r of its Ritz value theta,
    so if that run converged with ``|theta| + r`` below the tie band
    (``|lambda_k|`` less the tolerance), the check stops; like the tight
    run's own stop, this trusts the run to have found the top of the
    deflated spectrum.  Otherwise the check runs again at ``_TOL / 10``
    from the same start vector.  The random stream is unchanged and every
    pair returned comes from a tight run, so wherever the screen stops a
    check the tight run would stop, the output is bit for bit that of the
    unscreened check.  The first run, with no vector found, applies the
    matrix bare (projecting out nothing subtracts zero, so no bit changes).

    A complete solve (one that warns nothing) is kept, its vectors made
    read-only, for as long as the matrix object lives.  A later call on
    that object with ``k`` at most the kept k returns the kept top k, plus
    pair k + 1 where it is the opposite-sign partner of the k-th, with no
    product and without reading ``seed``: the kept solve's check showed
    that nothing outside its pairs beats its k-th, so its top k by modulus
    answer any smaller k.  A larger ``k`` solves afresh and replaces what
    is kept.  So results are deterministic given the seed of the solve
    kept for the object, which is its first complete solve unless a later
    call asked for more pairs.

    Matrices under 64 rows, or with ``k >= n - 1``, go to dense ``eigh``
    of ``op.to_dense()``; a matrix without nonzeros returns e_0..e_{k-1}
    with value 0, as ``eigh`` does.  ``k`` must be a nonnegative integer.
    ``_MAX_MATVECS`` bounds the matvecs; when it runs out a
    :class:`NoConvergence` warning is issued and the pairs converged by
    then are returned.  Eigenvector signs are canonicalized (first nonzero
    coordinate positive).
    """
    if not isinstance(op, SparseSymMatrix):
        raise TypeError(f"top_eigenpairs takes a SparseSymMatrix, got {type(op).__name__}")
    if n != op.n:
        raise ValueError(f"n = {n} but the matrix has {op.n} rows")
    if n <= 0:
        raise DegenerateOperator("operator dimension must be positive")
    if not is_int(k) or k < 0:
        raise ValueError(f"k must be nonnegative and integral, got {k!r}")
    k = min(int(k), n)
    kept_k, kept = _solved.get(op, (-1, ()))
    if k <= kept_k:
        tied = 0 < k < len(kept) and _opposite_tie(kept[k].value, kept[k - 1].value)
        return list(kept[:k + tied])
    # Imported here: at module level it adds about 0.15 s to importing distspec.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
    rng = make_rng(seed)
    used = 0
    vals, vecs = np.empty(0), np.empty((n, 0))

    def deflated(x: np.ndarray) -> np.ndarray:
        """The matrix with the vectors found so far projected out."""
        nonlocal used
        if used >= _MAX_MATVECS:
            raise _BudgetSpent
        used += 1
        if not vecs.shape[1]:
            return op.matvec(x)
        y = op.matvec(x - vecs @ (vecs.T @ x))
        return y - vecs @ (vecs.T @ y)

    def solve(count: int, v0: np.ndarray, run_tol: float) -> tuple[np.ndarray, np.ndarray, bool]:
        ncv = min(n, max(2 * count + 1, 20))
        # ARPACK spends ncv + 1 matvecs on its first factorization and at
        # most ncv - count per restart; stop it before the budget does.
        restarts = max(1, (_MAX_MATVECS - used - ncv - 1) // (ncv - count))
        try:
            w, u = eigsh(LinearOperator((n, n), matvec=deflated, dtype=np.float64), k=count,
                         which="LM", v0=v0, ncv=ncv, tol=run_tol, maxiter=restarts)
            return w, u, True
        except ArpackNoConvergence as exc:
            return exc.eigenvalues, exc.eigenvectors, False

    complete = True
    try:
        if n < _DENSE_BELOW or k >= n - 1:
            vals, vecs = np.linalg.eigh(op.to_dense())
        elif not op.nnz:  # ARPACK cannot start on the zero matrix
            vals, vecs = np.zeros(k), np.eye(n, k)
        elif k > 0:
            # ARPACK's stopping test bounds a residual estimate by tol * |value|;
            # a tenth of the allowance keeps the true residual inside it.
            vals, vecs, complete = solve(k, rng.standard_normal(n), _TOL / 10)
            while complete and vecs.shape[1] < n - 1:
                kth_value = vals[np.argsort(np.abs(vals))[-k]]
                kth = abs(kth_value)
                slack = _TOL * max(1.0, kth)
                v0 = rng.standard_normal(n)
                w, u, screened = solve(1, v0, _SCREEN_TOL)
                bound = abs(w[0]) + np.linalg.norm(deflated(u[:, 0]) - w[0] * u[:, 0]) \
                    if screened else np.inf
                if bound < kth - slack:
                    break
                w, u, complete = solve(1, v0, _TOL / 10)
                if not len(w):
                    break
                tie = _opposite_tie(w[0], kth_value)
                if abs(w[0]) <= kth + slack and not tie:
                    break
                x = u[:, 0] - vecs @ (vecs.T @ u[:, 0])
                vals = np.append(vals, w[0])
                vecs = np.column_stack([vecs, x / np.linalg.norm(x)])
                if tie:
                    break  # nothing left beats the k-th pair
    except _BudgetSpent:
        complete = False

    order = sorted(range(len(vals)), key=lambda i: (-abs(vals[i]), -vals[i]))
    tied = 0 < k < len(order) and _opposite_tie(vals[order[k]], vals[order[k - 1]])
    order = order[:k + tied]
    pairs = []
    for i in order:
        x = canonical_sign(vecs[:, i])
        x.flags.writeable = False
        value = float(vals[i])
        pairs.append(EigenPair(value=value, vector=x,
                               residual=float(np.linalg.norm(op.matvec(x) - value * x))))
    if not complete or len(pairs) < k:
        warnings.warn(NoConvergence(len(pairs), k, used))
    else:
        _solved[op] = (k, tuple(pairs))
    return pairs


def separation_report(
    pairs: Sequence[EigenPair],
    profile,
    ell: int,
) -> SeparationReport:
    """Compare measured eigenvalues with the predicted powers.

    Informative eigenvalues should track mu_k^ell within a factor of 10;
    everything below the informative range should stay under
    log(n)^2 * alpha^(ell/2), alpha = rho(M), where n is the eigenvectors' length.
    """
    lam = np.array([p.value for p in pairs])
    n = len(pairs[0].vector) if pairs else 1
    r0 = profile.r0
    mu_powers = np.array([profile.mu[j] ** ell for j in range(min(r0, len(lam)))])
    ratios = np.array([
        lam[j] / mu_powers[j] if mu_powers[j] != 0 else np.inf
        for j in range(len(mu_powers))
    ])
    bulk_scale = float(profile.alpha ** (ell / 2.0))
    if len(lam) > r0:
        bulk_ratio = float(abs(lam[r0]) / bulk_scale)
    else:
        bulk_ratio = float("nan")
    informative_ok = bool(
        0 < len(ratios) == r0 and all(0.1 <= rr <= 10.0 for rr in np.abs(ratios))
    )
    bulk_ok = bool(bulk_ratio <= float(np.log(n) ** 2))
    return SeparationReport(
        lam=lam,
        ratios=ratios,
        bulk_ratio=bulk_ratio,
        informative_ok=informative_ok,
        bulk_ok=bulk_ok,
    )


def _qc_radii(shell_sizes: np.ndarray) -> np.ndarray:
    """Radius of the :func:`qc_bound` matrix of each row of layer sizes, in
    one batched ``eigvalsh`` (each matrix is solved on its own, so a row's
    radius does not depend on the rows beside it)."""
    root = np.sqrt(shell_sizes)
    t = np.arange(root.shape[-1])
    Q = root[:, :, None] * root[:, None, :] * (t[:, None] + t[None, :] < len(t))
    return np.abs(np.linalg.eigvalsh(Q)).max(axis=-1, initial=0.0)


def _qc_radius(shell_sizes: np.ndarray) -> float:
    """Largest radius of the :func:`qc_bound` matrices of the rows of layer sizes."""
    return float(_qc_radii(shell_sizes).max(initial=0.0))


def _cycle_shell_bounds(g: SparseGraph, cycles: Sequence[np.ndarray], ell: int) -> np.ndarray:
    """(C, ell+1) int64 upper bounds on the layer sizes S_t of each vertex set.

    S_0 = |C|, and for t >= 1 S_t(C) <= min(n, sum of c_{t-1}(x->y) over
    the edges x->y with x in C, y not in C), where c_s(e) counts the
    non-backtracking walks of s steps that continue the directed edge e:
    c_0 = 1 and c_{s+1}(x->y) = sum_{z in N(y)} c_s(y->z) - c_s(y->x).  A
    vertex at distance t from C ends a geodesic whose first edge leaves C,
    and a geodesic is a non-backtracking walk, so it is counted.  Each c_s
    is clamped at n (the walks from one edge end at no more than n
    vertices), which keeps it a bound and its integers small.  With the
    (n, 2m) incidence matrices of the edges out of and into each vertex,
    the edges leaving the sets take two products of the (C, n) membership,
    one with each, and each layer two more: the leaving edges with the walk
    counts, and the out-incidence with them for the next counts.  There is
    no traversal.  On a cycle with trees attached the bound is exact.
    """
    n, indptr, keys = g.n, g.indptr, g._keys()
    rev = np.searchsorted(keys, (keys % n) * n + keys // n)  # rev[e] is y->x for e = x->y
    ones = np.ones(len(keys), dtype=np.int8)
    out = sp.csr_matrix((ones, np.arange(len(keys)), indptr), shape=(n, len(keys)))
    into = sp.csr_matrix((ones, rev, indptr), shape=(n, len(keys)))
    sizes = [len(c) for c in cycles]
    sets = sp.csr_matrix((np.ones(sum(sizes), dtype=np.int8),
                          np.concatenate([np.empty(0, np.int64), *cycles]),
                          np.cumsum([0, *sizes])), shape=(len(cycles), n))
    member = sets @ out
    leaving = member - member.multiply(sets @ into)
    bounds = np.empty((len(cycles), ell + 1), dtype=np.int64)
    bounds[:, 0] = sizes
    walks = np.ones(len(keys), dtype=np.int64)
    for t in range(1, ell + 1):
        bounds[:, t] = np.minimum(n, leaving @ walks)
        walks = np.minimum(n, (out @ walks)[g.indices] - walks[rev])
    return bounds


def qc_bound(shell_sizes: Sequence[int]) -> tuple[float, float]:
    """Spectral-radius bound from layer sizes around a cycle or vertex set.

    Builds the (ell+1) x (ell+1) matrix with entries sqrt(S_t * S_u) where
    t + u <= ell (zero elsewhere) and returns ``(exact, bound)``: its exact
    spectral radius and the row-sum bound max_t sum_{u <= ell-t} sqrt(S_t S_u).
    The exact value never exceeds the bound.
    """
    S = np.asarray(shell_sizes, dtype=np.float64)
    if (S < 0).any():
        raise ValueError("shell sizes must be nonnegative")
    exact = _qc_radius(S[None])
    root, ell = np.sqrt(S), len(S) - 1
    bound = float(max(root[i] * root[: ell - i + 1].sum() for i in range(ell + 1)))
    return exact, bound


@dataclass(frozen=True, eq=False)
class DeltaRadiusReport:
    rho: float
    cycle_bound: float
    log_bound: float
    n_cycles: int


def delta_radius_check(
    g: SparseGraph,
    ell: int,
    alpha: float,
    seed: int = 0,
    bl: Optional[SparseSymMatrix] = None,
) -> DeltaRadiusReport:
    """Spectral radius of (path-counts minus distance-indicators) vs its bounds.

    The difference matrix is nonnegative, so its radius is the top
    eigenvalue by modulus; it is compared against the per-cycle bound
    (max over fundamental cycles of the exact small-matrix radius) and
    the log(n)-scaled growth bound.  Only feasible where the path
    matrix is (n up to a few thousand, small ell).  One vertex expansion
    gives ``D^ell``, kept as its bool rows (1 byte an entry against
    float64's 8) through the path enumeration and cast a row block at a
    time by the subtraction; a passed ``bl`` (say, one built with another
    ``cap``) must be this graph's path matrix at depth ``ell``.

    The cycle bound expands only the cycles that can reach it.  Every
    fundamental cycle's layer sizes are first bounded without a traversal
    by :func:`_cycle_shell_bounds` (a vertex at distance t from the cycle
    ends a geodesic that leaves it, and a geodesic is a non-backtracking
    walk).  The entries sqrt(S_t S_u) of the :func:`qc_bound` matrix grow
    with each S_t, so by Perron-Frobenius a cycle's radius from the
    bounds is at least its exact radius.  The cycle of the largest bound
    radius is expanded first; one more expansion takes every other cycle
    whose bound radius reaches that exact radius (less 1e-9 of it, for
    rounding).  The cycle bound is the largest exact radius among them,
    which is the largest over all cycles, each matrix solved as in one
    batch of all of them, so it is bit for bit the full expansion's.
    """
    if bl is not None:
        _require_built(bl, "bl", g, ell, "path")
    dl = _expand(g, ell, distance=True)[0]
    bl = path_expansion_matrix(g, ell) if bl is None else bl
    delta = _delta(bl, dl)
    del dl, bl  # the cycle-set expansion below runs without the matrices
    rho = 0.0
    if delta.nnz:
        pairs = top_eigenpairs(delta, g.n, k=1, seed=seed)
        rho = abs(pairs[0].value) if pairs else float("nan")
        del pairs
    del delta
    cycles = fundamental_cycles(g)
    cycle_bound = 0.0
    if cycles:
        radii = _qc_radii(_cycle_shell_bounds(g, cycles, ell))
        top = int(np.argmax(radii))
        sizes = [_expand(g, ell, [cycles[top]])[2]]
        rest = np.flatnonzero(radii >= _qc_radius(sizes[0]) * (1 - 1e-9))
        rest = rest[rest != top]
        if len(rest):
            sizes.append(_expand(g, ell, [cycles[i] for i in rest])[2])
        cycle_bound = _qc_radius(np.concatenate(sizes))
    log_bound = float(np.log(g.n) * alpha ** (ell / 2.0)) if g.n > 1 else 0.0
    return DeltaRadiusReport(rho, cycle_bound, log_bound, n_cycles=len(cycles))
