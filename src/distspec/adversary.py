"""Bounded-vertex adversarial edits and rogue-eigenvector certificates.

An adversary of strength gamma may add and remove arbitrary edges as long
as the set of touched vertices (endpoints of altered edges) has size at
most gamma.  Perturbations are plain data (edit lists), applied by
rebuilding the immutable graph, which keeps budget auditing trivial.

The rogue certificate is a sparse unit-mass test vector split between a
small vertex set and a shell at distance exactly ell from it; when every
set-to-shell pair sits at distance exactly ell, its quadratic form
against the distance matrix equals 2*sqrt(gamma * shell size), a large
value carried by a vector nearly orthogonal to the informative
eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graph import (
    SparseGraph,
    SparseSymMatrix,
    _require_built,
    _vertex_pairs,
    distance_matrix,
    set_shell_sizes,
)
from .model import SpectralProfile
from .reconstruct import AtOrBelowThreshold
from .spectral import EigenPair, qc_bound, top_eigenpairs
from .util import derive_seed, is_int, make_rng, require_keys

EPSILON = 0.2  # the candidate pool is the top n^(1 - EPSILON) vertices by shell size


class BudgetExceeded(ValueError):
    """The edit touches more vertices than the declared strength."""


class InconsistentEdit(ValueError):
    """Added edges must be absent, removed edges present, and the lists disjoint."""


class GreedyExhausted(RuntimeError):
    """No certificate of the requested size exists on this graph; ``message``
    says what was missing: a hub with gamma neighbours, a common shell of
    two or more vertices for a hub's neighbours, or (gamma = 1) any vertex
    at distance ell from the top pool vertex."""

    def __init__(self, requested: int, achieved: int, message: str):
        self.requested = requested
        self.achieved = achieved
        super().__init__(message)


def _normalize_edges(edges) -> tuple:
    """The (u, v) pairs of ``edges`` as sorted (min, max) int tuples."""
    arr = _vertex_pairs(edges, "edits must be (u, v) pairs")
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        raise InconsistentEdit("self-loop ({}, {})".format(*arr[np.argmax(loops)].tolist()))
    pairs = sorted(map(tuple, np.sort(arr, axis=1).tolist()))
    if len(set(pairs)) != len(pairs):
        raise InconsistentEdit("duplicate edge in edit list")
    return tuple(pairs)


def _check_strength(gamma) -> None:
    """Raise ``ValueError`` unless the adversary strength ``gamma`` is a nonnegative integer."""
    if not is_int(gamma) or gamma < 0:
        raise ValueError(f"gamma must be a nonnegative integer, got {gamma!r}")


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Edge edits plus the strength budget (a nonnegative integer) they must respect."""

    added_edges: tuple
    removed_edges: tuple
    gamma_budget: int
    affected: frozenset = field(init=False)

    def __post_init__(self):
        _check_strength(self.gamma_budget)
        added = _normalize_edges(self.added_edges)
        removed = _normalize_edges(self.removed_edges)
        if set(added) & set(removed):
            raise InconsistentEdit("an edge appears in both edit lists")
        object.__setattr__(self, "added_edges", added)
        object.__setattr__(self, "removed_edges", removed)
        touched = frozenset(v for e in added + removed for v in e)
        object.__setattr__(self, "affected", touched)
        if len(touched) > self.gamma_budget:
            raise BudgetExceeded(
                f"{len(touched)} vertices touched but budget is {self.gamma_budget}"
            )

    def to_json(self) -> dict:
        return {
            "gamma": int(self.gamma_budget),
            "add": [[int(u), int(v)] for u, v in self.added_edges],
            "remove": [[int(u), int(v)] for u, v in self.removed_edges],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Perturbation":
        require_keys(doc, "perturbation", ("gamma",))
        add, remove = doc.get("add", []), doc.get("remove", [])
        for key, edits in (("add", add), ("remove", remove)):
            if not isinstance(edits, list):
                raise ValueError(f"{key} must be a list of (u, v) pairs, got {edits!r}")
        return cls(added_edges=add, removed_edges=remove, gamma_budget=doc["gamma"])


def apply_perturbation(g: SparseGraph, p: Perturbation) -> SparseGraph:
    """Rebuild the graph with the edits applied; validates consistency.

    Edges are compared as sorted ``u*n + v`` keys.  Checks run in edit
    order: the first added edge that is present or out of range fails,
    then the first removed edge that is absent.
    """
    n, keys = g.n, g._keys()
    add = np.array(p.added_edges, dtype=np.int64).reshape(-1, 2)
    rem = np.array(p.removed_edges, dtype=np.int64).reshape(-1, 2)
    inside = (add[:, 0] >= 0) & (add[:, 1] < n)
    present = inside & _is_key(add @ (n, 1), keys)
    bad = np.flatnonzero(present | ~inside)
    if len(bad):
        e = p.added_edges[bad[0]]
        if present[bad[0]]:
            raise InconsistentEdit(f"edge {e} to add is already present")
        raise InconsistentEdit(f"edge {e} out of range")
    absent = (rem[:, 0] < 0) | (rem[:, 1] >= n) | ~_is_key(rem @ (n, 1), keys)
    if absent.any():
        raise InconsistentEdit(f"edge {p.removed_edges[np.argmax(absent)]} to remove is absent")
    keys = np.delete(keys, np.searchsorted(keys, np.concatenate([rem @ (n, 1), rem @ (1, n)])))
    return SparseGraph._from_keys(n, np.sort(np.concatenate([keys, add @ (n, 1), add @ (1, n)])))


def _is_key(x: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``x`` is in the sorted array ``keys``."""
    return np.searchsorted(keys, x, side="right") > np.searchsorted(keys, x)


def plant_clique(g: SparseGraph, gamma: int, seed: int) -> tuple[SparseGraph, Perturbation]:
    """Complete a uniformly chosen gamma-subset into a clique.

    Only missing pairs are added, so the affected set is exactly the
    endpoints of new edges (a one-vertex "clique" changes nothing).
    """
    _check_strength(gamma)
    if gamma > g.n:
        raise ValueError("clique size exceeds the graph")
    chosen = np.sort(make_rng(seed).choice(g.n, size=gamma, replace=False))
    pairs = chosen[np.stack(np.triu_indices(gamma, 1), axis=1)]
    p = Perturbation(added_edges=pairs[~_is_key(pairs @ (g.n, 1), g._keys())], removed_edges=(),
                     gamma_budget=int(gamma))
    return apply_perturbation(g, p), p


def robustness_budget(profile: SpectralProfile, ell: int, n: int) -> tuple[float, float]:
    """The two strength frontiers (tau^ell / ln n, tau^ell).

    Detection provably survives edits well below the first scale; at the
    second scale a rogue eigenvalue can be manufactured.
    """
    if profile.tau <= 1.0:
        raise AtOrBelowThreshold(f"signal-to-noise ratio {profile.tau} is not above 1")
    t_ell = float(profile.tau ** ell)
    return t_ell / float(np.log(n)), t_ell


def qk_bound(g: SparseGraph, k_set: Sequence[int], ell: int) -> float:
    """Upper bound on the spectral radius of any distance-matrix change
    caused by edits supported on ``k_set``, from that set's shell sizes."""
    return qc_bound(set_shell_sizes(g, k_set, ell))[0]


@dataclass(frozen=True, eq=False)
class RogueCertificate:
    """Sparse test vector witnessing a large eigenvalue off the signal space.

    ``rayleigh`` is the quadratic form of ``vector`` against the distance
    matrix of the measured graph, divided by its squared norm (= 2).
    ``closed_form`` is 2*sqrt(gamma * |shell|), attained exactly when every
    set-to-shell pair is at distance exactly ell.  ``cosines`` are the
    normalized inner products against the top informative eigenvectors.
    """

    k_set: np.ndarray
    shell: np.ndarray
    support: np.ndarray
    values: np.ndarray
    rayleigh: float
    closed_form: float
    cosines: np.ndarray
    gamma: int
    shell_size: int

    def vector(self, n: int) -> np.ndarray:
        v = np.zeros(n)
        v[self.support] = self.values
        return v


def _common_sphere_candidates(g: SparseGraph, dl: SparseSymMatrix, gamma: int,
                              hub_candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate sets built around hubs and their shells, read off ``dl = D^ell``.

    The set is gamma neighbors of a hub (one of the first 25 candidates of
    degree at least gamma), the shell the vertices at distance exactly ell
    from every member, so the certificate's closed form is attained in the
    unedited graph.  ``D^ell`` times the 0/1 indicator block of all sets
    counts, per vertex and set, the members at distance ell; the shell is
    where that count reaches gamma, which no member's does (a member is at
    distance 0 from itself).  Returns the sets whose shells hold 2 or more
    vertices, as rows of a (c, gamma) array, and the shells as an (n, c) mask.
    """
    hubs = hub_candidates[np.diff(g.indptr)[hub_candidates] >= gamma][:25]
    if not len(hubs):
        raise GreedyExhausted(gamma, 0, f"no candidate hub has degree >= {gamma}")
    k_sets = g.indices[g.indptr[hubs, None] + np.arange(gamma)].astype(np.int64)
    block = np.zeros((g.n, len(hubs)))
    block[k_sets, np.arange(len(hubs))[:, None]] = 1.0
    shells = dl.matvec(block) == gamma
    kept = shells.sum(axis=0) >= 2
    if not kept.any():
        raise GreedyExhausted(gamma, 0, f"no {gamma} neighbours of a hub share a distance-"
                                        f"{dl.ell} shell of 2 or more vertices")
    return k_sets[kept], shells[:, kept]


def _unit_mass_vector(n: int, k_set: np.ndarray, shell: np.ndarray) -> np.ndarray:
    """Mass 1 spread evenly over ``k_set`` and 1 over ``shell`` (squared norm 2)."""
    v = np.zeros(n)
    v[k_set] = 1.0 / np.sqrt(len(k_set))
    v[shell] = 1.0 / np.sqrt(len(shell))
    return v


def _cosines(v: np.ndarray, pairs: Sequence[EigenPair]) -> np.ndarray:
    nv = np.linalg.norm(v)
    return np.array([float(np.dot(v, p.vector) / (nv * np.linalg.norm(p.vector)))
                     for p in pairs])


def build_rogue_certificate(
    g: SparseGraph,
    profile: SpectralProfile,
    ell: int,
    gamma: int,
    seed: int = 0,
    dl: Optional[SparseSymMatrix] = None,
) -> RogueCertificate:
    """Construct the rogue test vector and measure it against the spectrum.

    Everything is read off one matrix, ``dl = D^ell`` of ``g`` (built here
    when not passed), and nothing is expanded in the graph.  The candidate
    pool is the top n^(1-EPSILON) vertices by row sum of ``D^ell``, which
    is the shell size S_ell(v).  For gamma > 1 the set is gamma
    co-neighbours of a hub, so the whole reported shell is at distance
    exactly ell from every member and the closed form is attained in the
    unedited graph; among candidate hubs the one least aligned with the
    informative eigenvectors of ``D^ell`` is chosen (the adversary sees
    the graph, so it may optimize against the spectrum).  For gamma = 1
    the set is the top pool vertex and its shell that vertex's row of
    ``D^ell``.  Shells come from products of ``D^ell`` with the sets'
    indicators.

    Each call runs one eigensolve, of ``D^ell``.  Requires ``gamma >= 1``
    and, if given, ``dl`` built from ``g`` at depth ``ell``; raises
    :class:`GreedyExhausted`, saying what was missing, when no set and
    shell are found.
    """
    _check_strength(gamma)
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if dl is None:
        dl = distance_matrix(g, ell)
    else:
        _require_built(dl, "dl", g, ell, "distance")

    pool_size = max(gamma, int(np.ceil(g.n ** (1.0 - EPSILON))))
    pool = np.argsort(-dl.matvec(np.ones(g.n)), kind="stable")[:pool_size]

    if gamma == 1:
        k_set = pool[:1]
        indicator = np.zeros(g.n)
        indicator[k_set] = 1.0
        shell = np.nonzero(dl.matvec(indicator))[0]
        if not len(shell):
            raise GreedyExhausted(1, 1, f"no vertex lies at distance {ell} from vertex "
                                        f"{k_set[0]}")
    # The informative eigenvectors: the top max(r0, 1) pairs of one solve.
    top = top_eigenpairs(dl, g.n, k=profile.signal_pairs(g.n),
                         seed=derive_seed(seed, "rogue-eig"))[: max(profile.r0, 1)]
    if gamma > 1:
        k_sets, shells = _common_sphere_candidates(g, dl, gamma, pool)
        sizes = shells.sum(axis=0)
        # Every candidate's unit-mass vector as a column, scored by its largest |cosine|.
        vs = shells / np.sqrt(sizes)
        vs[k_sets, np.arange(len(k_sets))[:, None]] = 1.0 / np.sqrt(gamma)
        tops = np.column_stack([p.vector for p in top])
        scores = np.abs((vs.T @ tops) / np.outer(np.linalg.norm(vs, axis=0),
                                                  np.linalg.norm(tops, axis=0))).max(axis=1)
        # Strongest certificate among the safely-unaligned candidates;
        # fall back to the least-aligned one if none clears the margin.
        safe = np.flatnonzero(scores <= 0.15)
        best = safe[np.argmax(sizes[safe])] if len(safe) else np.argmin(scores)
        k_set, shell = k_sets[best], np.flatnonzero(shells[:, best])

    v = _unit_mass_vector(g.n, k_set, shell)
    support = np.concatenate([k_set, shell])
    return RogueCertificate(
        k_set=np.asarray(k_set, dtype=np.int64),
        shell=np.asarray(shell, dtype=np.int64),
        support=support,
        values=v[support],
        rayleigh=float(v @ dl.matvec(v)) / float(v @ v),
        closed_form=float(2.0 * np.sqrt(gamma * len(shell))),
        cosines=_cosines(v, top),
        gamma=int(gamma),
        shell_size=int(len(shell)),
    )
