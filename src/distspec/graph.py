"""Immutable sparse graphs and the sparse matrices built from them.

The production object is the distance matrix ``D^ell`` (entry 1 exactly at
pairs whose graph distance equals ell).  It and every other ball-walking
statistic (shell sizes of vertices and of vertex sets, tangles) are read off
one blocked expansion, :func:`_expand`, which runs :func:`frontiers`, a
truncated BFS from many source sets at once written as sparse products, so
the total cost is the sum of ball sizes.  The path-expansion
matrix ``B^ell`` (counts of self-avoiding walks of length ell) is kept as
a verification artifact: an exact level-wise enumeration over arrays (one
vertex column per depth), feasible for small depths on sparse graphs.
Their difference is supported near cycles only, which is what the
perturbation bounds exploit.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Optional, Sequence, Sized

import numpy as np
import scipy.sparse as sp

from .util import is_int


class NegativeEntry(ValueError):
    """Path counts fell below distance indicators; inputs are inconsistent."""


class CapSaturated(UserWarning):
    """Some self-avoiding path counts hit the cap (signals tangled regions)."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__(
            f"{len(self.pairs)} pair(s) hit the path-count cap: "
            f"{self.pairs[:5]}{'...' if len(self.pairs) > 5 else ''}"
        )


class SparseGraph:
    """Undirected simple graph with sorted per-vertex neighbor lists.

    Immutable after construction; edits go through rebuilds (see the
    adversary module).
    """

    __slots__ = ("n", "m", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.m = int(len(indices) // 2)
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "SparseGraph":
        """Build from (u, v) integer rows, checked in this order: n a nonnegative
        integer, the rows and their ids (:func:`_vertex_pairs`), range, no
        self-loops, no duplicates.  The CSR is one sort of the directed keys
        u * n + v and v * n + u (a repeat is a duplicate edge)."""
        if not is_int(n) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        arr = _vertex_pairs(edges, "edges must be (u, v) rows")
        if (arr < 0).any() or (arr >= n).any():
            raise ValueError("edge endpoint out of range")
        if (arr[:, 0] == arr[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        keys = np.sort(np.concatenate([arr @ (n, 1), arr @ (1, n)]))
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edges are not allowed")
        return cls._from_keys(n, keys)

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "SparseGraph":
        """From the sorted int64 keys u * n + v of both directions of every
        edge: row u holds the keys in [u * n, (u + 1) * n), mod n."""
        return cls(n, np.searchsorted(keys, np.arange(n + 1) * n), keys % n)

    def _keys(self) -> np.ndarray:
        """The sorted int64 keys u * n + v of both directions of every edge."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64) * self.n, np.diff(self.indptr))
        return rows + self.indices

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def edge_array(self) -> np.ndarray:
        """All edges once, as an (m, 2) array with u < v, lexicographically sorted."""
        u = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        keep = self.indices > u
        return np.stack([u[keep], self.indices[keep]], axis=1).astype(np.int64)

    def edge_set(self) -> set:
        return {(int(u), int(v)) for u, v in self.edge_array()}

    def to_csr(self) -> sp.csr_matrix:
        data = np.ones(len(self.indices), dtype=np.int8)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


class SparseSymMatrix:
    """Symmetric small-integer matrix with a zero diagonal, held as one full
    float64 CSR (both triangles), so ``matvec`` is a single sparse product.

    Entries are indicators or capped path counts, exact in float64.  The
    diagonal is structurally zero for every matrix built here (a
    positive-length path or distance needs two distinct endpoints).
    ``to_csr``, ``upper``, ``entries``, ``max_value`` and ``min_value``
    cast to int64, so they are for integer-valued matrices only; ``matvec``
    and ``to_dense`` read any float64 entries.  The weak-reference slot
    lets ``spectral`` keep a matrix's complete solve for as long as the
    matrix lives.
    """

    __slots__ = ("n", "ell", "kind", "_full", "__weakref__")

    def __init__(self, n: int, ell: int, kind: str, full: sp.csr_matrix):
        self.n = int(n)
        self.ell = int(ell)
        self.kind = str(kind)
        full = sp.csr_matrix(full, dtype=np.float64)
        full.sort_indices()
        self._full = full

    @classmethod
    def from_pairs(cls, n: int, ell: int, kind: str, rows, cols, vals) -> "SparseSymMatrix":
        """From strictly upper-triangular (row, col, value) triples; duplicates add."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size and not (rows < cols).all():
            raise ValueError("pairs must be strictly upper triangular")
        upper = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return cls(n, ell, kind, upper + upper.T)

    @property
    def nnz(self) -> int:
        """Logical nonzero count (both triangles)."""
        return self._full.nnz

    @property
    def upper(self) -> sp.csr_matrix:
        """Strictly upper triangle as an int64 CSR (computed on each access)."""
        return sp.triu(self._full, k=1, format="csr").astype(np.int64)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product with an (n,) vector or an (n, k) block, as float64."""
        return self._full @ x

    def to_dense(self) -> np.ndarray:
        return self._full.toarray()

    def to_csr(self) -> sp.csr_matrix:
        """An int64 copy of the stored CSR, rows in their stored order.

        The data is cast on its own: ``astype`` would sum duplicates first,
        which sorts every row.
        """
        full = self._full
        return sp.csr_matrix((full.data.astype(np.int64), full.indices.copy(), full.indptr.copy()),
                             shape=full.shape)

    def entries(self) -> np.ndarray:
        """Upper-triangle entries as an (nnz, 3) int64 array of (i, j, value)."""
        coo = self.upper.tocoo()
        return np.stack([coo.row, coo.col, coo.data]).T

    def max_value(self) -> int:
        return int(self._full.data.max()) if self._full.nnz else 0

    def min_value(self) -> int:
        return int(self._full.data.min()) if self._full.nnz else 0


# Ball entries (summed over rows) that one block of single-vertex or set
# sources may hold: keeps the blocked expansions at a few tens of MB.  The
# same number, read as bytes, bounds one block of paths in ``_path_ends``.
_BLOCK_ENTRIES = 1 << 20
# Operand entries (both matrices) in one row block of a difference.
_DIFF_ENTRIES = 1 << 16


def frontiers(g: SparseGraph, sources: sp.spmatrix, ell: int) -> list[sp.csr_matrix]:
    """Distance layers 0..ell around many source sets at once.

    ``sources`` is a (B, n) 0/1 sparse matrix whose row b marks one vertex
    set.  Row b of the t-th returned bool CSR marks the vertices at graph
    distance exactly t from that set (t = 0 gives the set itself).  Each
    step is ``next = bool(front @ A) & ~ball``, the linear-algebra BFS of
    Kepner and Gilbert (*Graph Algorithms in the Language of Linear
    Algebra*, SIAM 2011), so the work is the sum over rows of ball sizes.
    The ball is extended only while another step reads it: the final ball,
    which nothing reads, is never formed.  Rows hold no duplicate entries;
    their indices need not be sorted.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if sources.shape[1] != g.n:
        raise ValueError("sources must have one column per vertex")
    adj = sp.csr_matrix((np.ones(len(g.indices), dtype=bool), g.indices, g.indptr),
                        shape=(g.n, g.n))
    front = sp.csr_matrix(sources, dtype=bool, copy=True)
    front.sum_duplicates()
    front.eliminate_zeros()
    ball = front
    out = [front]
    for step in range(ell):
        if step:
            ball = ball + front
        front = (front @ adj) > ball
        out.append(front)
    return out


def _vertex_ids(x) -> np.ndarray:
    """The vertex ids ``x``, of any shape, as an array: an array must have an
    integer dtype, any other iterable must hold integers (``util.is_int``)."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "iu":
            raise ValueError(f"vertex ids must be integers, got dtype {x.dtype}")
        return x.astype(np.int64, copy=False)
    x = np.asarray(list(x), dtype=object)
    flat = x.ravel().tolist()
    # is_int reads only the type, so one element of each distinct type decides.
    bad = {t for t, v in dict(zip(map(type, flat), flat)).items() if not is_int(v)}
    if bad:
        first = next(v for v in flat if type(v) in bad)
        raise ValueError(f"vertex ids must be integers, got {first!r}")
    return x.astype(np.int64)


def _vertex_pairs(edges, what: str) -> np.ndarray:
    """The (u, v) rows ``edges`` as an (m, 2) int64 array, the empty list being
    no rows.  A list whose rows differ in length names its first row that is
    not a pair; otherwise the ids are checked (:func:`_vertex_ids`), then the
    shape.  ``what`` opens the two messages about rows."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
        sizes = [len(row) if isinstance(row, Sized) else None for row in edges]
        if len(set(sizes)) > 1:
            short = next(row for row, size in zip(edges, sizes) if size != 2)
            raise ValueError(f"{what}, got the row {short!r}")
    arr = _vertex_ids(edges)
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what}, got an array of shape {arr.shape}")
    return arr


def _source_rows(g: SparseGraph, sets) -> sp.csr_matrix:
    """One source row per vertex set; rejects empty sets and bad vertices."""
    members = [_vertex_ids(x) for x in sets]
    lengths = [len(x) for x in members]
    if 0 in lengths:
        raise ValueError("vertex set must be nonempty")
    flat = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
    if len(flat) and (flat.min() < 0 or flat.max() >= g.n):
        raise ValueError("vertex out of range")
    indptr = np.cumsum([0] + lengths)
    return sp.csr_matrix((np.ones(len(flat), dtype=bool), flat, indptr),
                         shape=(len(members), g.n))


def _expand(g: SparseGraph, ell: int, sets=None, distance: bool = False,
            tangle: bool = False, vertices=None
            ) -> tuple[Optional[sp.csr_matrix], list[int], np.ndarray]:
    """``(last frontiers or None, tangle offenders, (B, ell+1) int64 layer sizes)``.

    The sources are the given vertex sets, else the single vertices of the
    sorted array ``vertices``, else every single vertex (the offenders need
    single vertices).  Row blocks go through :func:`frontiers` one at a
    time, each reduced before the next is formed (to the row nnz of its
    frontiers, and its last frontier with ``distance``).  A block holds
    about ``_BLOCK_ENTRIES`` ball entries (at least one row), a row of s
    sources estimated at min(n, s * (1 + mean degree)^reach); the reach is
    ell + 1 when the tangle check's rim product runs and ell otherwise.

    With ``distance`` the last frontiers come back as one (B, n) bool CSR
    with sorted rows.  Over every vertex that is ``D^ell`` itself, and as
    the matrix is symmetric, the CSR form of the stack's transpose is the
    same matrix with its rows sorted: scipy's CSC-to-CSR conversion is an
    O(nnz + n) counting sort.  The stack is dropped once its transpose
    exists.  Other sources' rows are sorted by two such conversions, to
    CSC and back, which beat a per-row sort several times over.

    A ball's cycle count is its edge excess ``edges - vertices + 1``
    (balls are connected; the vertices are the row sums of the sizes);
    twice its edges are its inner vertices' degrees plus the row sums of
    ``(last @ A) * (shell_{ell-1} + last)``.
    """
    if (distance or tangle) and ell < 1:
        raise ValueError("ell must be >= 1")
    if sets is not None:
        sources = _source_rows(g, sets)
    else:
        sources = sp.identity(g.n, dtype=bool, format="csr")
        if vertices is not None:
            sources = sources[vertices]
    sizes = np.zeros((sources.shape[0], ell + 1), dtype=np.int64)
    if tangle:
        # int32, so the bool frontier's product counts rim neighbours past int8.
        adj = g.to_csr().astype(np.int32)
        deg = np.diff(g.indptr)
    reach = ell + 1 if tangle else ell
    n = max(g.n, 1)
    growth = math.exp(min(reach * math.log1p(2.0 * g.m / n), math.log(n)))
    ends = np.cumsum(np.minimum(g.n, np.diff(sources.indptr) * growth))
    lasts, offenders, lo = [], [], 0
    while lo < len(ends):
        start = ends[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _BLOCK_ENTRIES, side="right")))
        fronts = frontiers(g, sources[lo:hi], ell)
        last = fronts[-1]
        sizes[lo:hi] = np.stack([np.diff(f.indptr) for f in fronts], axis=1)
        if distance:
            lasts.append(last)
        if tangle:
            rim = (last @ adj).multiply(fronts[-2] + last).sum(axis=1)
            twice = sum(f @ deg for f in fronts[:-1]) + np.asarray(rim).ravel()
            excess = twice // 2 - sizes[lo:hi].sum(axis=1) + 1
            offenders.extend((np.nonzero(excess > 1)[0] + lo).tolist())
        del fronts, last
        lo = hi
    if not distance:
        return None, offenders, sizes
    stack = (sp.vstack(lasts, format="csr") if lasts
             else sp.csr_matrix((sources.shape[0], g.n), dtype=bool))
    del lasts
    if sets is not None or vertices is not None:
        return stack.tocsc().tocsr(), offenders, sizes
    return stack.T.tocsr(), offenders, sizes


def distance_matrix(g: SparseGraph, ell: int, base: Optional[SparseSymMatrix] = None,
                    rows=None) -> SparseSymMatrix:
    """0/1 matrix marking pairs at graph distance exactly ell.

    Row v is the last frontier of v, so the stacked frontiers are the full
    matrix.  Cost is the sum over vertices of their ell-ball sizes.

    Given ``base``, the ``D^ell`` of a graph that differs from ``g`` only in
    edges joining two vertices of a set X, only the vertices in ``rows``
    are expanded (in ``g``) and their rows spliced into a copy of
    ``base``; ``base`` and ``rows``, integer vertex ids, come together.
    ``rows`` must hold every vertex within distance ell - 1 of X; that
    distance is the same in both graphs, since a shortest path to X meets
    X only at its end and so uses no edited edge.  Every other row is the
    same in both matrices: a distance of at most ell that the edit changes
    is, in one of the graphs, the length of a path through an edited edge,
    and that path reaches X within ell - 1 steps.  The result is then
    array for array the full build's, at the cost of the balls of ``rows``
    plus O(nnz) for the copy.
    """
    if (base is None) != (rows is None):
        raise ValueError("base and rows must be given together")
    if base is None:
        return SparseSymMatrix(g.n, ell, "distance", _expand(g, ell, distance=True)[0])
    _require_built(base, "base", g, ell, "distance")
    rows = np.unique(_vertex_ids(rows))
    if len(rows) and (rows[0] < 0 or rows[-1] >= g.n):
        raise ValueError("vertex out of range")
    part = _expand(g, ell, distance=True, vertices=rows)[0]
    old = base._full
    spliced = np.zeros(g.n, dtype=bool)
    spliced[rows] = True
    lengths = np.diff(old.indptr)
    kept = old.indices[~np.repeat(spliced, lengths)]
    lengths[rows] = np.diff(part.indptr)
    indptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    # Entries keep their row order: the kept rows' entries in place, the new rows' between them.
    indices = np.empty(indptr[-1], dtype=old.indices.dtype)
    new = np.repeat(spliced, lengths)
    indices[~new] = kept
    indices[new] = part.indices
    del part, new, kept
    full = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(g.n, g.n))
    return SparseSymMatrix(g.n, ell, "distance", full)


def _path_ends(g: SparseGraph, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 ``(first, last)`` of every self-avoiding path of length ell with
    first < last, one entry per path.

    Paths of depth t are t+1 int32 vertex columns, extended level by level
    to each neighbour of the last vertex that differs from all earlier
    columns.  A block of paths is halved while its next level, counted as
    t+2 int32 columns plus the int64 row and gather temporaries per path,
    would take more than ``_BLOCK_ENTRIES`` bytes; a finished block keeps
    only its endpoints.
    """
    indptr, indices = g.indptr, g.indices.astype(np.int32)
    deg = np.diff(indptr)
    firsts, lasts = [], []
    todo = [[np.arange(g.n, dtype=np.int32)]]
    while todo:
        cols = todo.pop()
        last = cols[-1]
        reps = deg[last]
        size = int(reps.sum())
        if size * (4 * len(cols) + 20) > _BLOCK_ENTRIES and len(last) > 1:
            todo += [[c[len(last) // 2:] for c in cols], [c[:len(last) // 2] for c in cols]]
            continue
        row = np.repeat(np.arange(len(last)), reps)
        nxt = indices[np.arange(size) + np.repeat(indptr[last] - (np.cumsum(reps) - reps), reps)]
        keep = np.ones(size, dtype=bool)
        for c in cols[:-1]:  # a simple graph has no loop back to the last column
            keep &= c[row] != nxt
        row, nxt = row[keep], nxt[keep]
        if len(cols) < ell:
            todo.append([c[row] for c in cols] + [nxt])
            continue
        first = cols[0][row]
        up = first < nxt
        firsts.append(first[up])
        lasts.append(nxt[up])
    return np.concatenate(firsts), np.concatenate(lasts)


def path_expansion_matrix(g: SparseGraph, ell: int, cap: int = 2) -> SparseSymMatrix:
    """Counts of self-avoiding paths of length exactly ell, saturated at cap.

    Enumerated in byte-bounded blocks by :func:`_path_ends`; the upper
    triangle is assembled once from every path's endpoints, duplicates
    summed as exact integer counts.  For small ell on sparse graphs.  Pairs
    whose raw count exceeds ``cap`` are clamped and reported, in (v, w)
    order, via a :class:`CapSaturated` warning (they indicate tangles).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = g.n
    first, last = _path_ends(g, ell)
    # The constructor sums duplicate pairs and sorts every row.  No count,
    # nor a cap that clamps one, passes the number of paths, so the
    # smallest unsigned type that holds it holds every count exactly; the
    # triangles are joined in it and cast to float64 once.
    count = np.min_scalar_type(len(first))
    upper = sp.csr_matrix((np.ones(len(first), dtype=count), (first, last)), shape=(n, n))
    del first, last
    over = np.flatnonzero(upper.data > cap)
    if len(over):
        rows = np.searchsorted(upper.indptr, over, side="right") - 1
        warnings.warn(CapSaturated(zip(rows.tolist(), upper.indices[over].tolist())))
        upper.data[over] = cap
    full = upper + upper.T
    del upper  # not alive through the cast
    return SparseSymMatrix(n, ell, "path", full)


def _require_built(mat: SparseSymMatrix, name: str, g: SparseGraph, ell: int, kind: str) -> None:
    """Raise ``ValueError`` unless ``mat`` is g's ``kind`` matrix at depth ``ell``."""
    if (mat.n, mat.ell, mat.kind) != (g.n, ell, kind):
        raise ValueError(f"{name} is a {mat.kind} matrix on {mat.n} vertices at depth {mat.ell}, "
                         f"not the {kind} matrix of this graph at depth {ell}")


def _row_difference(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """a - b as a float64 CSR with no stored zeros, a block of rows at a time.

    scipy sizes a difference's buffers for the operands' summed nnz, which
    a nearly equal pair (``B^ell`` and ``D^ell``) does not come near, and
    casts an operand of another type (a bool ``D^ell``) to the result's;
    blocked, both hold about ``_DIFF_ENTRIES`` entries, and only the
    difference is kept.  Each row of a difference is computed on its own,
    so the blocks give the whole-matrix difference array for array.
    """
    step = max(1, a.shape[0] * _DIFF_ENTRIES // max(a.nnz + b.nnz, 1))
    parts = [a[lo:lo + step] - b[lo:lo + step] for lo in range(0, max(a.shape[0], 1), step)]
    diff = sp.vstack(parts, format="csr")
    diff.eliminate_zeros()
    return diff


def difference_matrix(a: SparseSymMatrix, b: SparseSymMatrix, kind: str = "diff") -> SparseSymMatrix:
    """Signed entrywise difference a - b (used for perturbation spectra)."""
    if a.n != b.n:
        raise ValueError("matrix sizes differ")
    return SparseSymMatrix(a.n, a.ell, kind, _row_difference(a._full, b._full))


def delta_matrix(bl: SparseSymMatrix, dl: SparseSymMatrix) -> SparseSymMatrix:
    """Entrywise difference path-counts minus distance-indicators.

    Raises :class:`NegativeEntry` if any entry is negative: a distance-ell
    pair always carries at least one self-avoiding path of that length, so
    a negative value means the inputs disagree about the graph.
    """
    if bl.ell != dl.ell:
        raise ValueError("matrices were built for different depths")
    return _delta(bl, dl._full)


def _delta(bl: SparseSymMatrix, dl: sp.csr_matrix) -> SparseSymMatrix:
    """:func:`delta_matrix` of ``bl`` and the rows ``dl`` of ``D^ell``, which
    may be the bool CSR that ``_expand`` returns: no float copy of it is
    made whole."""
    delta = SparseSymMatrix(bl.n, bl.ell, "delta", _row_difference(bl._full, dl))
    if delta.min_value() < 0:
        bad = [(int(i), int(j)) for i, j, v in delta.entries() if v < 0]
        raise NegativeEntry(f"negative entries at {bad[:5]}")
    return delta


def tangle_free_check(g: SparseGraph, ell: int) -> tuple[bool, list[int]]:
    """True iff every radius-ell ball contains at most one independent cycle
    (edge excess, see :func:`_expand`); also returns the offending vertices."""
    offenders = _expand(g, ell, tangle=True)[1]
    return (not offenders), offenders


def shell_sizes_all(g: SparseGraph, ell: int) -> np.ndarray:
    """(n, ell+1) array of layer sizes S_t(v) for every vertex."""
    return _expand(g, ell)[2]


def shell_growth_report(g: SparseGraph, ell: int, alpha: float) -> tuple[float, float]:
    """(max over t,v of S_t(v)/alpha^t, sum over v of S_ell(v)^2).

    The first statistic tracks how far any neighborhood outruns the mean
    growth rate; the second is the second-moment mass of top shells that
    the adversarial constructions rely on.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    sizes = shell_sizes_all(g, ell)
    powers = alpha ** np.arange(ell + 1)
    max_ratio = float((sizes / powers[None, :]).max())
    top_mass = float((sizes[:, ell].astype(np.float64) ** 2).sum())
    return max_ratio, top_mass


def set_shell_sizes(g: SparseGraph, vertex_set: Sequence[int], ell: int) -> np.ndarray:
    """Multi-source layer sizes S_t(X) for t = 0..ell (S_0 = |X|)."""
    return _expand(g, ell, [vertex_set])[2][0]


def fundamental_cycles(g: SparseGraph) -> list[np.ndarray]:
    """Vertex sets of the fundamental cycles of a BFS spanning forest.

    Each non-tree edge (u, w) closes one cycle: the two tree paths from u
    and w up to their meeting point, plus the edge itself.  On graphs
    where every small ball holds at most one cycle these are exactly the
    local cycles the difference-matrix bounds need.
    """
    from scipy.sparse.csgraph import breadth_first_order, connected_components  # slow import

    n, m2 = g.n, len(g.indices)
    # One BFS from a virtual vertex n whose children are the smallest vertex
    # of each component visits each component as a BFS from that vertex would.
    roots = np.unique(connected_components(g.to_csr(), directed=False)[1], return_index=True)[1]
    forest = sp.csr_matrix((np.ones(m2 + len(roots), dtype=np.int8),
                            np.concatenate([g.indices, roots]), np.append(g.indptr, m2 + len(roots))),
                           shape=(n + 1, n + 1))
    parent = breadth_first_order(forest, n, directed=True)[1].astype(np.int64)
    parent[n] = n
    # Pointer jumping over the forest: depth[v] ends as v's distance to its root.
    depth, up = (parent != n).astype(np.int64), parent
    while (up != n).any():
        depth += depth[up]
        up = up[up]
    edges = g.edge_array()
    pu, pw = edges[(parent[edges[:, 1]] != edges[:, 0]) & (parent[edges[:, 0]] != edges[:, 1])].T
    # Walk all closing edges' ends up at once, deeper end first; key cycle * n + vertex.
    cycle = np.arange(len(pu)) * n
    keys = [cycle + pu, cycle + pw]
    while (live := pu != pw).any():
        left = live & (depth[pu] >= depth[pw])
        right = live & ~left
        pu, pw = np.where(left, parent[pu], pu), np.where(right, parent[pw], pw)
        keys += [(cycle + pu)[left], (cycle + pw)[right]]
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    ends, vertices = (np.flatnonzero(np.diff(keys // n, append=-1)) + 1).tolist(), keys % n
    return [vertices[a:b] for a, b in zip([0] + ends, ends)]
