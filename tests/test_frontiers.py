"""Differential tests: the frontier expansion and every traversal built on it
against dense all-pairs BFS (scipy's csgraph), and the path-expansion matrix
and the fundamental cycles against plain Python enumerations, on small random
graphs that include the empty graph, n = 1, isolated vertices, disconnected
graphs and depths above the diameter."""

import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distspec as ds
import distspec.graph as graph
import distspec.spectral as spectral
from distspec.adversary import GreedyExhausted, _common_sphere_candidates
from distspec.cli import _apsp, _oracle_path_counts, _oracle_set_layers, _oracle_tangle_offenders
from conftest import apsp_distance_oracle, check_cycle_expansions, small_params

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return ds.SparseGraph.from_edges(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    return ds.SparseGraph.from_edges(n, edges)


@st.composite
def graph_and_sets(draw, max_sets=5):
    g = draw(graphs().filter(lambda g: g.n > 0))
    sets = draw(st.lists(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=4),
                         min_size=1, max_size=max_sets))
    return g, [sorted(x) for x in sets]


depths = st.integers(1, 7)
# Block budgets that put one row, a few rows and every row of a small graph in a block.
blocks = st.sampled_from([1, 16, graph._BLOCK_ENTRIES])


@SETTINGS
@given(graph_and_sets(), st.integers(0, 7))
def test_frontier_rows_are_the_apsp_layers(case, ell):
    g, sets = case
    rows = sp.csr_matrix((np.ones(sum(map(len, sets)), dtype=bool), np.concatenate(sets),
                          np.cumsum([0] + [len(x) for x in sets])), shape=(len(sets), g.n))
    fronts = ds.frontiers(g, rows, ell)
    assert len(fronts) == ell + 1
    dist = _apsp(g)
    for b, x in enumerate(sets):
        for front, layer in zip(fronts, _oracle_set_layers(dist, x, ell)):
            assert front.shape == (len(sets), g.n) and front.dtype == bool
            assert np.array_equal(np.sort(front[b].indices), layer)


@SETTINGS
@given(graphs(), depths, blocks)
def test_distance_matrix_matches_apsp(g, ell, block):
    with mock.patch.object(graph, "_BLOCK_ENTRIES", block):
        mat = ds.distance_matrix(g, ell)
    assert np.array_equal(mat.to_dense(), apsp_distance_oracle(g, ell))


@SETTINGS
@given(graphs(), depths)
def test_distance_matrix_rows_are_sorted_and_symmetric(g, ell):
    csr = ds.distance_matrix(g, ell).to_csr()
    for v in range(g.n):
        row = csr.indices[csr.indptr[v]:csr.indptr[v + 1]]
        assert (np.diff(row) > 0).all()  # sorted, no duplicates
    back = csr.T.tocsr()
    for a, b in ((csr.indptr, back.indptr), (csr.indices, back.indices), (csr.data, back.data)):
        assert np.array_equal(a, b)


@st.composite
def edited_graphs(draw):
    """A graph and a perturbation of it: some of its edges removed, some added."""
    g = draw(graphs())
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    flips = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    present = g.edge_set()
    return g, ds.Perturbation(tuple(e for e in flips if e not in present),
                              tuple(e for e in flips if e in present), gamma_budget=g.n)


@SETTINGS
@given(edited_graphs(), st.integers(1, 4), blocks, st.lists(st.integers(0, 13), max_size=3))
def test_spliced_distance_matrix_is_the_full_build(case, ell, block, extra):
    g, p = case
    edited = ds.apply_perturbation(g, p)
    x = sorted(p.affected)
    near = np.flatnonzero(_apsp(g)[x].min(axis=0) <= ell - 1) if x else np.empty(0, np.int64)
    # Any superset of the rows within ell - 1 of the edit will do.
    rows = np.concatenate([near, [v for v in extra if v < g.n]]).astype(np.int64)
    with mock.patch.object(graph, "_BLOCK_ENTRIES", block):
        base = ds.distance_matrix(g, ell)
        got = ds.distance_matrix(edited, ell, base, rows)
    assert got is not base
    for mat, want in ((got, ds.distance_matrix(edited, ell)), (base, ds.distance_matrix(g, ell))):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(mat._full, name), getattr(want._full, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@SETTINGS
@given(graphs(), st.integers(0, 7), blocks)
def test_shell_sizes_count_apsp_distances(g, ell, block):
    dist = _apsp(g)
    want = np.stack([(dist == t).sum(axis=1) for t in range(ell + 1)], axis=1)
    with mock.patch.object(graph, "_BLOCK_ENTRIES", block):
        got = ds.shell_sizes_all(g, ell)
    assert np.array_equal(got, want.reshape(g.n, ell + 1))


@SETTINGS
@given(graphs(), depths, blocks)
def test_tangle_verdict_matches_ball_edge_excess(g, ell, block):
    with mock.patch.object(graph, "_BLOCK_ENTRIES", block):
        tf, offenders = ds.tangle_free_check(g, ell)
    assert offenders == _oracle_tangle_offenders(g, _apsp(g), ell)
    assert tf == (not offenders)


@SETTINGS
@given(graphs(), st.integers(1, 4), st.sampled_from([1, 2, 10**6]), blocks)
def test_path_matrix_matches_enumeration(g, ell, cap, block):
    counts = _oracle_path_counts(g, ell)
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(graph, "_BLOCK_ENTRIES", block):
        warnings.simplefilter("always")
        mat = ds.path_expansion_matrix(g, ell, cap=cap)
    assert np.array_equal(mat.to_dense(), np.minimum(counts, cap))
    over = [(int(v), int(w)) for v, w in zip(*np.nonzero(np.triu(counts > cap, 1)))]
    saturated = [w.message.pairs for w in caught if isinstance(w.message, ds.CapSaturated)]
    assert saturated == ([over] if over else [])


def _queue_bfs_cycles(g):
    """Fundamental cycles of the BFS forest grown by a plain FIFO queue from
    the smallest unvisited vertex, walking each closing edge's deeper end up."""
    parent, depth = [-1] * g.n, [-1] * g.n
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root], queue = 0, [root]
        for u in queue:
            for w in g.neighbors(u).tolist():
                if depth[w] < 0:
                    depth[w], parent[w] = depth[u] + 1, u
                    queue.append(w)
    cycles = []
    for u, w in g.edge_array().tolist():
        if parent[w] == u or parent[u] == w:
            continue
        left, right = [u], [w]
        while left[-1] != right[-1]:
            side = left if depth[left[-1]] >= depth[right[-1]] else right
            side.append(parent[side[-1]])
        cycles.append(sorted(set(left) | set(right)))
    return cycles


@SETTINGS
@given(graphs(max_n=24))
def test_fundamental_cycles_match_a_queue_bfs_forest(g):
    cycles = ds.fundamental_cycles(g)
    assert [c.tolist() for c in cycles] == _queue_bfs_cycles(g)
    assert all(c.dtype == np.int64 for c in cycles)


@SETTINGS
@given(graph_and_sets(max_sets=1), st.integers(0, 7), blocks)
def test_set_shell_matches_apsp(case, ell, block):
    g, (x,) = case
    layers = _oracle_set_layers(_apsp(g), x, ell)
    with mock.patch.object(graph, "_BLOCK_ENTRIES", block):
        assert ds.set_shell_sizes(g, x, ell).tolist() == [len(t) for t in layers]


@st.composite
def unicyclic_graphs(draw):
    """A cycle on vertices 0..k-1 with trees attached, beside trees of its own
    (a vertex with no parent starts one)."""
    k = draw(st.integers(3, 6))
    edges = [(v, (v + 1) % k) for v in range(k)]
    n = k + draw(st.integers(0, 10))
    for v in range(k, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.append((parent, v))
    return ds.SparseGraph.from_edges(n, edges)


@SETTINGS
@given(graphs(), st.integers(1, 5))
# Two disjoint triangles: tied cycles, each bound exactly, must both be expanded.
@example(ds.SparseGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), 2)
def test_cycle_shell_bounds_cover_the_exact_layers(g, ell):
    cycles = ds.fundamental_cycles(g)
    one_block = spectral._cycle_shell_bounds(g, cycles, ell)
    calls, expand = [], graph._expand
    with warnings.catch_warnings(), mock.patch.object(graph, "_BLOCK_ENTRIES", 16):
        warnings.simplefilter("ignore", ds.CapSaturated)
        # The block size splits only _expand's cycle expansions, not the bounds.
        bounds = spectral._cycle_shell_bounds(g, cycles, ell)
        exact = expand(g, ell, cycles)[2]
        with mock.patch.object(spectral, "_expand",
                               lambda g, ell, sets=None, **kw: calls.append(sets)
                               or expand(g, ell, sets, **kw)):
            report = ds.delta_radius_check(g, ell, alpha=2.0)
    assert bounds.shape == exact.shape == (len(cycles), ell + 1)
    assert np.array_equal(bounds, one_block) and (bounds >= exact).all()
    # Bit for bit the radius of the full cycle expansion.
    assert report.cycle_bound.hex() == spectral._qc_radius(exact).hex()
    assert report.n_cycles == len(cycles)
    check_cycle_expansions(cycles, exact, calls, report.cycle_bound)


@SETTINGS
@given(unicyclic_graphs(), depths)
def test_cycle_shell_bounds_are_exact_on_unicyclic_graphs(g, ell):
    (cycle,) = ds.fundamental_cycles(g)
    assert np.array_equal(spectral._cycle_shell_bounds(g, [cycle], ell),
                          graph._expand(g, ell, [cycle])[2])


def _walk_bound_oracle(g, cycles, ell):
    """The bound of ``_cycle_shell_bounds`` from plain dicts: c_s per directed
    edge over ``g.neighbors``, clamped at n, summed over each cycle's leaving edges."""
    n = g.n
    nbrs = {x: [int(y) for y in g.neighbors(x)] for x in range(n)}
    counts = [{(x, y): 1 for x in nbrs for y in nbrs[x]}]
    for _ in range(ell - 1):
        c = counts[-1]
        counts.append({(x, y): min(n, sum(c[y, z] for z in nbrs[y] if z != x)) for x, y in c})
    rows = []
    for cycle in cycles:
        inside = {int(x) for x in cycle}
        leaving = [(x, y) for x in inside for y in nbrs[x] if y not in inside]
        rows.append([len(inside)] + [min(n, sum(c[e] for e in leaving)) for c in counts])
    return np.array(rows, dtype=np.int64).reshape(len(cycles), ell + 1)


@SETTINGS
@given(graphs(max_n=40), st.integers(1, 5))
def test_cycle_shell_bounds_match_a_dict_walk_count(g, ell):
    cycles = ds.fundamental_cycles(g)
    bounds = spectral._cycle_shell_bounds(g, cycles, ell)
    assert bounds.dtype == np.int64
    assert np.array_equal(bounds, _walk_bound_oracle(g, cycles, ell))


def test_cycle_shell_bounds_are_pinned():
    # SHA-256 of the bound arrays (dtype, shape and raw bytes) on sampled
    # graphs, the benchmark's certify graph (n = 3000, seed 1, ell = 4)
    # first, each also with no cycles.
    h = hashlib.sha256()
    for n, seed, ell in [(3000, 1, 4), (300, 2, 2), (500, 3, 3), (700, 4, 5), (1000, 5, 4),
                         (1000, 6, 2)]:
        g = ds.sample_graph(small_params(n), seed).graph
        for cycles in (ds.fundamental_cycles(g), []):
            b = spectral._cycle_shell_bounds(g, cycles, ell)
            assert b.shape == (len(cycles), ell + 1)
            h.update(f"|n={n} seed={seed} ell={ell} C={len(cycles)}: {b.dtype.str} {b.shape}"
                     .encode())
            h.update(np.ascontiguousarray(b).tobytes())
    assert h.hexdigest() == (
        "18f464ab76b64f09ef750a4340746eed594c0b6fbca70d741be6c018c595bcd3")


def test_each_statistic_is_one_expansion(monkeypatch):
    params = small_params(300)
    sample = ds.sample_graph(params, 4)
    g, profile = sample.graph, ds.derive_spectral_profile(params)
    bl = ds.path_expansion_matrix(g, 3, cap=10**6)
    k_set = g.neighbors(int(np.argmax(np.diff(g.indptr))))[:5]
    cases = [
        ("distance_matrix", lambda: ds.distance_matrix(g, 3), ["vertices"]),
        ("tangle_free_check", lambda: ds.tangle_free_check(g, 3), ["vertices"]),
        ("shell_sizes_all", lambda: ds.shell_sizes_all(g, 3), ["vertices"]),
        ("shell_growth_report", lambda: ds.shell_growth_report(g, 3, 3.0), ["vertices"]),
        ("set_shell_sizes", lambda: ds.set_shell_sizes(g, k_set, 3), ["sets"]),
        ("qk_bound", lambda: ds.qk_bound(g, k_set, 3), ["sets"]),
        ("local_moment_report",
         lambda: ds.local_moment_report(g, sample.sigma, profile, 3, seed=2), ["vertices"]),
    ]
    calls = []
    expand = graph._expand
    cycles = ds.fundamental_cycles(g)
    full = expand(g, 3, cycles)[2]

    def counted(g, ell, sets=None, **kwargs):
        calls.append(sets)
        return expand(g, ell, sets, **kwargs)

    for module in (graph, spectral):
        monkeypatch.setattr(module, "_expand", counted)
    for name, run, want in cases:
        calls.clear()
        run()
        assert ["vertices" if sets is None else "sets" for sets in calls] == want, name
    # delta_radius_check: one vertex expansion, then the cycles that can reach its bound.
    calls.clear()
    report = ds.delta_radius_check(g, 3, alpha=3.0, bl=bl)
    check_cycle_expansions(cycles, full, calls, report.cycle_bound)


@SETTINGS
@given(graphs().filter(lambda g: g.n > 0), st.integers(1, 3), st.integers(1, 3))
def test_common_sphere_candidates_match_apsp(g, ell, gamma):
    hubs = np.arange(g.n, dtype=np.int64)
    dl = ds.distance_matrix(g, ell)
    dist = _apsp(g)
    want = []
    for hub in [h for h in hubs if g.degree(h) >= gamma][:25]:
        k_set = g.neighbors(hub)[:gamma]
        shell = np.setdiff1d(np.nonzero((dist[k_set] == ell).all(axis=0))[0], k_set)
        if len(shell) >= 2:
            want.append((k_set.tolist(), shell.tolist()))
    if not want:
        with pytest.raises(GreedyExhausted):
            _common_sphere_candidates(g, dl, gamma, hubs)
    else:
        k_sets, shells = _common_sphere_candidates(g, dl, gamma, hubs)
        got = zip(k_sets, (np.flatnonzero(s) for s in shells.T))
        assert [(k.tolist(), s.tolist()) for k, s in got] == want


class TestEdgeCases:
    def test_empty_graph(self):
        g = ds.SparseGraph.from_edges(0, [])
        assert ds.distance_matrix(g, 2).nnz == 0
        assert ds.tangle_free_check(g, 2) == (True, [])
        assert ds.shell_sizes_all(g, 3).shape == (0, 4)
        assert [f.shape for f in ds.frontiers(g, sp.csr_matrix((0, 0)), 2)] == [(0, 0)] * 3

    def test_single_vertex(self):
        g = ds.SparseGraph.from_edges(1, [])
        assert ds.distance_matrix(g, 1).nnz == 0
        assert ds.shell_sizes_all(g, 2).tolist() == [[1, 0, 0]]
        assert ds.set_shell_sizes(g, [0], 3).tolist() == [1, 0, 0, 0]

    def test_duplicate_and_zero_source_entries_are_dropped(self, path_graph):
        rows = sp.csr_matrix((np.array([1, 1, 0]), np.array([0, 0, 2]), np.array([0, 3])),
                             shape=(1, 4))
        fronts = ds.frontiers(path_graph, rows, 2)
        assert [f.nnz for f in fronts] == [1, 1, 1]
        assert rows.nnz == 3  # the caller's matrix is left as it was

    def test_repeated_members_count_once(self, path_graph):
        for x in ([1, 1, 2], {1, 2}, np.array([2, 1])):
            assert ds.set_shell_sizes(path_graph, x, 1).tolist() == [2, 2]

    def test_bad_inputs_raise(self, path_graph):
        with pytest.raises(ValueError, match="ell must be >= 1"):
            ds.distance_matrix(path_graph, 0)
        with pytest.raises(ValueError, match="ell must be >= 1"):
            ds.tangle_free_check(path_graph, 0)
        with pytest.raises(ValueError, match="ell must be nonnegative"):
            ds.frontiers(path_graph, sp.identity(4, format="csr"), -1)
        with pytest.raises(ValueError, match="one column per vertex"):
            ds.frontiers(path_graph, sp.identity(3, format="csr"), 1)
        for bad in ([4], [-1, 0]):
            with pytest.raises(ValueError, match="vertex out of range"):
                ds.set_shell_sizes(path_graph, bad, 1)
        with pytest.raises(ValueError, match="nonempty"):
            ds.set_shell_sizes(path_graph, [], 1)
        base = ds.distance_matrix(path_graph, 2)
        with pytest.raises(ValueError, match="not the distance matrix of this graph at depth 3"):
            ds.distance_matrix(path_graph, 3, base, [0])
        for bad in ([4], [-1, 0]):
            with pytest.raises(ValueError, match="vertex out of range"):
                ds.distance_matrix(path_graph, 2, base, bad)
        for bad in ([1.7], ["1"], np.array([1.5]), [True, 2], np.array([True, False, True, False])):
            with pytest.raises(ValueError, match="vertex ids must be integers"):
                ds.set_shell_sizes(path_graph, bad, 2)
            with pytest.raises(ValueError, match="vertex ids must be integers"):
                ds.distance_matrix(path_graph, 2, base, bad)
        for extra in ({"rows": [0]}, {"base": base}):
            with pytest.raises(ValueError, match="base and rows must be given together"):
                ds.distance_matrix(path_graph, 2, **extra)
        for ragged, row in (([(0, 1), (2,)], r"\(2,\)"), ([[0, 1, 2], [3]], r"\[0, 1, 2\]")):
            message = rf"^edges must be \(u, v\) rows, got the row {row}$"
            with pytest.raises(ValueError, match=message):
                ds.SparseGraph.from_edges(4, ragged)
