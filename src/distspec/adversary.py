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
    distance_matrix,
    set_shell_sizes,
)
from .model import SpectralProfile
from .reconstruct import AtOrBelowThreshold
from .spectral import EigenPair, qc_bound, top_eigenpairs
from .util import derive_seed, is_int, make_rng

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
    out = []
    for u, v in edges:
        if not (is_int(u) and is_int(v)):
            raise ValueError(f"edge ({u!r}, {v!r}) must join integer vertices")
        u, v = int(u), int(v)
        if u == v:
            raise InconsistentEdit(f"self-loop ({u}, {v})")
        out.append((min(u, v), max(u, v)))
    if len(set(out)) != len(out):
        raise InconsistentEdit("duplicate edge in edit list")
    return tuple(sorted(out))


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Edge edits plus the strength budget they must respect."""

    added_edges: tuple
    removed_edges: tuple
    gamma_budget: int
    affected: frozenset = field(init=False)

    def __post_init__(self):
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
        if not is_int(doc["gamma"]):
            raise ValueError(f"gamma must be an integer, got {doc['gamma']!r}")
        return cls(
            added_edges=tuple(tuple(e) for e in doc.get("add", [])),
            removed_edges=tuple(tuple(e) for e in doc.get("remove", [])),
            gamma_budget=doc["gamma"],
        )


def _edge_keys(edges, n: int) -> np.ndarray:
    """``u*n + v`` for each normalized edge (u < v) inside [0, n), else -1."""
    return np.array([u * n + v if u >= 0 and v < n else -1 for u, v in edges],
                    dtype=np.int64)


def apply_perturbation(g: SparseGraph, p: Perturbation) -> SparseGraph:
    """Rebuild the graph with the edits applied; validates consistency.

    Edges are compared as sorted ``u*n + v`` keys.  Checks run in edit
    order: the first added edge that is present or out of range fails,
    then the first removed edge that is absent.
    """
    n = g.n
    edges = g.edge_array()
    keys = edges[:, 0] * n + edges[:, 1]
    add_keys = _edge_keys(p.added_edges, n)
    present = np.isin(add_keys, keys)
    bad = np.nonzero(present | (add_keys < 0))[0]
    if len(bad):
        e = p.added_edges[bad[0]]
        if present[bad[0]]:
            raise InconsistentEdit(f"edge {e} to add is already present")
        raise InconsistentEdit(f"edge {e} out of range")
    rem_keys = _edge_keys(p.removed_edges, n)
    absent = ~np.isin(rem_keys, keys)
    if absent.any():
        raise InconsistentEdit(f"edge {p.removed_edges[np.argmax(absent)]} to remove is absent")
    keys = np.union1d(np.setdiff1d(keys, rem_keys, assume_unique=True), add_keys)
    return SparseGraph.from_edges(n, np.stack([keys // n, keys % n], axis=1))


def _missing_clique_edges(g: SparseGraph, vertices) -> tuple:
    """The pairs of ``vertices``, in order, that are not yet edges of ``g``."""
    return tuple((int(u), int(v)) for i, u in enumerate(vertices) for v in vertices[i + 1:]
                 if not g.has_edge(int(u), int(v)))


def plant_clique(g: SparseGraph, gamma: int, seed: int) -> tuple[SparseGraph, Perturbation]:
    """Complete a uniformly chosen gamma-subset into a clique.

    Only missing pairs are added, so the affected set is exactly the
    endpoints of new edges (a one-vertex "clique" changes nothing).
    """
    if gamma > g.n:
        raise ValueError("clique size exceeds the graph")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    rng = make_rng(seed)
    chosen = np.sort(rng.choice(g.n, size=gamma, replace=False)) if gamma else np.array([], dtype=np.int64)
    p = Perturbation(added_edges=_missing_clique_edges(g, chosen), removed_edges=(),
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
                              hub_candidates: np.ndarray):
    """Candidate (k_set, shell) pairs built around hubs, read off ``dl = D^ell``.

    The set is gamma neighbors of a hub (one of the first 25 candidates of
    degree at least gamma), the shell the vertices outside it
    at distance exactly ell from every member; every set-to-shell pair then
    sits at distance exactly ell, so the certificate's closed form is
    attained in the unedited graph.  Column j of ``D^ell`` times the 0/1
    indicator block of all tried sets counts, per vertex, the members of
    set j at distance ell; the shell is where that count reaches gamma.
    """
    hubs = hub_candidates[np.diff(g.indptr)[hub_candidates] >= gamma][:25]
    if not len(hubs):
        raise GreedyExhausted(gamma, 0, f"no candidate hub has degree >= {gamma}")
    k_sets = [g.neighbors(hub)[:gamma].astype(np.int64) for hub in hubs]
    block = np.zeros((g.n, len(hubs)))
    for j, k_set in enumerate(k_sets):
        block[k_set, j] = 1.0
    out = []
    for k_set, hits in zip(k_sets, dl.matvec(block).T):
        shell = np.setdiff1d(np.nonzero(hits == gamma)[0], k_set)
        if len(shell) >= 2:
            out.append((k_set, shell.astype(np.int64)))
    if not out:
        raise GreedyExhausted(gamma, 0, f"no {gamma} neighbours of a hub share a distance-"
                                        f"{dl.ell} shell of 2 or more vertices")
    return out


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
        scored = [(float(np.abs(_cosines(_unit_mass_vector(g.n, k_set, shell), top)).max()),
                   k_set, shell)
                  for k_set, shell in _common_sphere_candidates(g, dl, gamma, pool)]
        # Strongest certificate among the safely-unaligned candidates;
        # fall back to the least-aligned one if none clears the margin.
        safe = [c for c in scored if c[0] <= 0.15]
        if safe:
            _, k_set, shell = max(safe, key=lambda c: len(c[2]))
        else:
            _, k_set, shell = min(scored, key=lambda c: c[0])

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
