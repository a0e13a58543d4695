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
    _source_rows,
    distance_matrix,
    frontiers,
    set_shell,
    set_shell_sizes,
)
from .model import SpectralProfile
from .reconstruct import AtOrBelowThreshold
from .spectral import EigenPair, qc_bound, top_eigenpairs
from .util import derive_seed, make_rng


class BudgetExceeded(ValueError):
    """The edit touches more vertices than the declared strength."""


class InconsistentEdit(ValueError):
    """Added edges must be absent, removed edges present, and the lists disjoint."""


class GreedyExhausted(RuntimeError):
    """Could not build a vertex set of the requested size: too few
    vertices could be separated, or (in sphere mode, where ``message``
    says which) no candidate hub had enough neighbours or no hub's
    neighbours shared a large enough shell."""

    def __init__(self, requested: int, achieved: int, message: Optional[str] = None):
        self.requested = requested
        self.achieved = achieved
        super().__init__(
            message or f"only {achieved} of {requested} vertices could be separated"
        )


def _normalize_edges(edges) -> tuple:
    out = []
    for u, v in edges:
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
        return cls(
            added_edges=tuple(tuple(e) for e in doc.get("add", [])),
            removed_edges=tuple(tuple(e) for e in doc.get("remove", [])),
            gamma_budget=int(doc["gamma"]),
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
    mode: str
    perturbation: Optional[Perturbation] = None

    def vector(self, n: int) -> np.ndarray:
        v = np.zeros(n)
        v[self.support] = self.values
        return v


def _greedy_separated(g: SparseGraph, pool: np.ndarray, gamma: int, ell: int) -> np.ndarray:
    """Greedily pick pool vertices with pairwise distance > 2*ell.

    Each chosen vertex blocks its whole 2*ell-ball.
    """
    blocked = np.zeros(g.n, dtype=bool)
    chosen: list[int] = []
    for cand in pool:
        cand = int(cand)
        if blocked[cand]:
            continue
        chosen.append(cand)
        if len(chosen) == gamma:
            break
        for front in frontiers(g, _source_rows(g, [[cand]]), 2 * ell):
            blocked[front.indices] = True
    if len(chosen) < gamma:
        raise GreedyExhausted(gamma, len(chosen))
    return np.array(sorted(chosen), dtype=np.int64)


def _common_sphere_candidates(g: SparseGraph, dl: SparseSymMatrix, gamma: int,
                              hub_candidates: np.ndarray, limit: int = 25):
    """Candidate (k_set, shell) pairs built around hubs, read off ``dl = D^ell``.

    The set is gamma neighbors of a hub, the shell the vertices outside it
    at distance exactly ell from every member; every set-to-shell pair then
    sits at distance exactly ell, so the certificate's closed form is
    attained in the unedited graph.  Column j of ``D^ell`` times the 0/1
    indicator block of all tried sets counts, per vertex, the members of
    set j at distance ell; the shell is where that count reaches gamma.
    """
    hubs = hub_candidates[np.diff(g.indptr)[hub_candidates] >= gamma][:limit]
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


def _informative_pairs(dmat: SparseSymMatrix, profile: SpectralProfile,
                       seed: int) -> list[EigenPair]:
    """The top max(r0, 1) eigenpairs of ``dmat`` from one solve."""
    pairs = top_eigenpairs(dmat, dmat.n, k=min(max(profile.r0, 2), dmat.n),
                           seed=derive_seed(seed, "rogue-eig"))
    return list(pairs)[: max(profile.r0, 1)]


def build_rogue_certificate(
    g: SparseGraph,
    profile: SpectralProfile,
    ell: int,
    gamma: int,
    epsilon: float = 0.2,
    mode: str = "sphere",
    seed: int = 0,
    dl: Optional[SparseSymMatrix] = None,
) -> RogueCertificate:
    """Construct the rogue test vector and measure it against the spectrum.

    Everything is read off one matrix, ``dl = D^ell`` of ``g`` (built here
    when not passed): the candidate pool is the top n^(1-epsilon) vertices
    by row sum of ``D^ell``, which is the shell size S_ell(v).  Modes:

    - ``"sphere"`` (default): the set is gamma co-neighbors of a hub, so
      the whole reported shell is at distance exactly ell from every
      member and the closed form is attained in the unedited graph;
      among candidate hubs the one least aligned with the informative
      eigenvectors of ``D^ell`` is chosen (the adversary sees the graph,
      so it may optimize against the spectrum).  The shells come from one
      product of ``D^ell`` with the hub sets' indicators, so this mode
      expands nothing in the graph.
    - ``"separated"``: greedy set with pairwise distance > 2*ell
      (disjoint neighborhoods, the largest shells); each shell vertex
      then sits at distance ell from exactly one member, so the measured
      quadratic form stays below the closed form by about a factor gamma.
    - ``"separated_clique"``: as above, plus a clique edit on the set
      (within budget); the value and the cosines are measured on the
      edited graph's ``D^ell``.

    Each call runs one eigensolve, of the matrix it measures on.  Requires
    ``epsilon < 1/4``, ``gamma >= 1`` and, if given, ``dl`` built from
    ``g`` at depth ``ell``.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if not 0 < epsilon < 0.25:
        raise ValueError("epsilon must lie in (0, 1/4)")
    if mode not in ("sphere", "separated", "separated_clique"):
        raise ValueError(f"unknown mode {mode!r}")
    if dl is None:
        dl = distance_matrix(g, ell)
    else:
        _require_built(dl, "dl", g, ell, "distance")

    pool_size = max(gamma, int(np.ceil(g.n ** (1.0 - epsilon))))
    pool = np.argsort(-dl.matvec(np.ones(g.n)), kind="stable")[:pool_size]

    perturbation = None
    dmat = dl
    if mode == "sphere" and gamma > 1:
        top = _informative_pairs(dl, profile, seed)
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
    else:
        k_set = _greedy_separated(g, pool, gamma, ell)
        measured = g
        if mode == "separated_clique" and gamma > 1:
            perturbation = Perturbation(_missing_clique_edges(g, k_set), (),
                                        gamma_budget=int(gamma))
            measured = apply_perturbation(g, perturbation)
        shell = set_shell(measured, k_set, ell)
        if len(shell) == 0:
            raise GreedyExhausted(gamma, len(k_set))
        if measured is not g:
            dmat = distance_matrix(measured, ell)
        top = _informative_pairs(dmat, profile, seed)

    v = _unit_mass_vector(g.n, k_set, shell)
    support = np.concatenate([k_set, shell])
    return RogueCertificate(
        k_set=np.asarray(k_set, dtype=np.int64),
        shell=np.asarray(shell, dtype=np.int64),
        support=support,
        values=v[support],
        rayleigh=float(v @ dmat.matvec(v)) / float(v @ v),
        closed_form=float(2.0 * np.sqrt(gamma * len(shell))),
        cosines=_cosines(v, top),
        gamma=int(gamma),
        shell_size=int(len(shell)),
        mode=mode,
        perturbation=perturbation,
    )
