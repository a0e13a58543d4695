import functools
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import distspec as ds
from distspec import graph
from distspec.graph import CapSaturated, NegativeEntry

from conftest import apsp_distance_oracle, simple_path_count_oracle, small_params


class TestSparseGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            ds.SparseGraph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            ds.SparseGraph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            ds.SparseGraph.from_edges(3, [(0, 5)])
        with pytest.raises(ValueError, match="duplicate"):
            ds.SparseGraph.from_edges(3, [(0, 1), (0, 1)])
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            ds.SparseGraph.from_edges(-1, [])

    @pytest.mark.parametrize("edges", [
        [[0, 1, 1], [2, 3, 1]],            # weighted rows once read as (0,1), (1,2), (1,3)
        [0, 1, 2, 3],                      # a flat list
        np.array([[[0, 1], [2, 3]]]),      # one level too deep
        [[0], [1]]])
    def test_rows_other_than_pairs_are_rejected(self, edges):
        with pytest.raises(ValueError, match=r"edges must be \(u, v\) rows"):
            ds.SparseGraph.from_edges(4, edges)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_csr_matches_sorted_neighbour_sets(self, data):
        # Random simple graphs (isolated and trailing vertices included), each
        # edge in a random orientation and the list in a random order.
        n = data.draw(st.integers(0, 40))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)
                           if pairs else st.just([]))
        edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in chosen]
        edges = data.draw(st.permutations(edges))
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        indptr = np.cumsum([0] + [len(x) for x in nbrs])
        indices = [w for x in nbrs for w in sorted(x)]
        for given_edges in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
            g = ds.SparseGraph.from_edges(n, given_edges)
            assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
            assert g.indptr.tolist() == indptr.tolist()
            assert g.indices.tolist() == indices
            assert (g.n, g.m) == (n, len(edges))

    def test_adjacency_sorted_symmetric(self):
        g = ds.SparseGraph.from_edges(4, [(2, 1), (0, 3), (0, 1)])
        assert g.neighbors(1).tolist() == [0, 2]
        for u in range(4):
            assert (np.diff(g.neighbors(u)) > 0).all()
            for w in g.neighbors(u):
                assert u in g.neighbors(w)

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(1, 2)
        assert not path_graph.has_edge(0, 2)


def _vertex_layers(g, v, ell):
    source = sp.csr_matrix(([True], ([0], [v])), shape=(1, g.n))
    return [np.sort(f.indices).tolist() for f in ds.frontiers(g, source, ell)]


class TestBfsShells:
    def test_path_graph(self, path_graph):
        assert ds.set_shell_sizes(path_graph, [0], 2).tolist() == [1, 1, 1]
        assert _vertex_layers(path_graph, 0, 2) == [[0], [1], [2]]

    def test_five_cycle(self):
        c5 = ds.SparseGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert ds.set_shell_sizes(c5, [2], 2).tolist() == [1, 2, 2]
        assert _vertex_layers(c5, 2, 2) == [[2], [1, 3], [0, 4]]

    def test_star_center(self):
        k = 6
        star = ds.SparseGraph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])
        assert ds.set_shell_sizes(star, [0], 1).tolist() == [1, k]

    def test_type_counts_sum_to_sizes(self):
        # The type counts local_moment_report reads off D^t, per vertex.
        sample = ds.sample_graph(small_params(100), 3)
        onehot = np.eye(2)[sample.sigma]
        sizes = ds.shell_sizes_all(sample.graph, 3)
        for t in (1, 2, 3):
            counts = ds.distance_matrix(sample.graph, t).matvec(onehot)
            assert np.array_equal(counts.sum(axis=1), sizes[:, t])


class TestDistanceMatrix:
    def test_path_graph(self, path_graph):
        d2 = ds.distance_matrix(path_graph, 2)
        assert d2.entries().tolist() == [[0, 2, 1], [1, 3, 1]]

    def test_depth_one_is_adjacency(self):
        sample = ds.sample_graph(small_params(150), 7)
        d1 = ds.distance_matrix(sample.graph, 1)
        assert np.array_equal(d1.to_dense(), sample.graph.to_csr().toarray())

    def test_matches_apsp_oracle(self):
        sample = ds.sample_graph(small_params(200, W=[[3.0, 1.0], [1.0, 3.0]]), 1)
        for ell in (1, 2, 3):
            mine = ds.distance_matrix(sample.graph, ell).to_dense()
            assert np.array_equal(mine, apsp_distance_oracle(sample.graph, ell))

    def test_supports_disjoint_across_depths(self):
        sample = ds.sample_graph(small_params(120), 5)
        seen = set()
        for ell in (1, 2, 3, 4):
            entries = {(int(i), int(j)) for i, j, _ in
                       ds.distance_matrix(sample.graph, ell).entries()}
            assert not (entries & seen)
            seen |= entries

    def test_requires_positive_depth(self, path_graph):
        with pytest.raises(ValueError):
            ds.distance_matrix(path_graph, 0)

    def test_isolated_vertices_give_empty_rows(self):
        g = ds.SparseGraph.from_edges(5, [(0, 1)])  # vertices 2..4 isolated
        dense = ds.distance_matrix(g, 2).to_dense()
        assert dense.sum() == 0
        assert ds.set_shell_sizes(g, [3], 4).tolist() == [1, 0, 0, 0, 0]

    def test_pipeline_layout_is_pinned(self):
        # The pipeline benchmark's graph (n = 4000, W = [[11, 1], [1, 11]],
        # seed 1) at ell = 3: dtype, shape and raw bytes of every stored CSR
        # array, so a change in row order, index width or value type shows.
        # (The stored data is float64; ``to_csr()`` hands it back as int64.)
        g = ds.sample_graph(small_params(4000, W=[[11.0, 1.0], [1.0, 11.0]]), 1).graph
        d3 = ds.distance_matrix(g, 3)._full
        h = hashlib.sha256()
        for arr in (d3.indptr, d3.indices, d3.data):
            h.update(f"{arr.dtype.str} {arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == \
            "6b535dbdd1c2351a8b2030d2abe2ba5285140f870bf8a355264fe75ca0d26564"


    def test_to_csr_shows_the_stored_layout(self):
        mat = ds.SparseSymMatrix.from_pairs(3, 1, "distance", [0, 0, 1], [1, 2, 2], [1, 1, 1])
        # Rows stored in descending order, which the constructor would sort.
        mat._full = sp.csr_matrix((np.ones(6), [2, 1, 2, 0, 1, 0], [0, 2, 4, 6]), shape=(3, 3))
        csr = mat.to_csr()
        assert csr.indices.tolist() == [2, 1, 2, 0, 1, 0]
        assert csr.indptr.tolist() == [0, 2, 4, 6]
        assert csr.data.dtype == np.int64 and csr.data.tolist() == [1] * 6
        csr.sort_indices()  # a copy: the stored arrays stay as they were
        assert mat._full.indices.tolist() == [2, 1, 2, 0, 1, 0]


class TestPathExpansionMatrix:
    def test_square_two_routes(self, square_graph):
        b2 = ds.path_expansion_matrix(square_graph, 2)
        d2 = ds.distance_matrix(square_graph, 2)
        dense_b, dense_d = b2.to_dense(), d2.to_dense()
        assert dense_b[0, 2] == 2 and dense_d[0, 2] == 1
        assert dense_b[1, 3] == 2 and dense_d[1, 3] == 1

    def test_path_graph(self, path_graph):
        b2 = ds.path_expansion_matrix(path_graph, 2)
        assert b2.entries().tolist() == [[0, 2, 1], [1, 3, 1]]

    def test_matches_enumeration_oracle(self):
        sample = ds.sample_graph(small_params(50, W=[[6.0, 2.0], [2.0, 6.0]]), 2)
        for ell in (2, 3):
            mine = ds.path_expansion_matrix(sample.graph, ell, cap=10**9).to_dense()
            assert np.array_equal(mine, simple_path_count_oracle(sample.graph, ell))

    def test_symmetry_of_counts(self):
        sample = ds.sample_graph(small_params(40), 4)
        dense = ds.path_expansion_matrix(sample.graph, 3, cap=10**9).to_dense()
        assert np.array_equal(dense, dense.T)

    def test_cap_saturation_warns(self, square_graph):
        with pytest.warns(CapSaturated):
            b2 = ds.path_expansion_matrix(square_graph, 2, cap=1)
        assert b2.max_value() == 1

    def test_distance_support_included(self):
        sample = ds.sample_graph(small_params(80), 6)
        bl = ds.path_expansion_matrix(sample.graph, 3, cap=10**9).to_dense()
        dl = ds.distance_matrix(sample.graph, 3).to_dense()
        assert np.all(bl[dl > 0] >= 1)


@functools.cache
def _bench_graph(name):
    """The certify benchmark's graph (n = 3000, seed 1) or a sweep graph
    (n = 500, seeds 1 and 2), all with W = [[5, 1], [1, 5]]."""
    n, seed = {"certify": (3000, 1), "sweep-1": (500, 1), "sweep-2": (500, 2)}[name]
    return ds.sample_graph(small_params(n), seed).graph


# SHA-256 of B^ell's stored CSR arrays (dtype, shape, raw bytes) and its
# CapSaturated pair list at caps 1, 2 and 999; no count passes 999 on these
# graphs, so cap 10^9 gives the cap-999 digest.
_PATH_PINS = {
    ("certify", 2): ("437bb059346280a8139a2e0b420a3112e76b26e2ce98840cdd62dc51305c9143",
                     "a64b3d228b05da867fd424da20d1783ee9e65ab64252dfc9c342a322914edccb",
                     "a64b3d228b05da867fd424da20d1783ee9e65ab64252dfc9c342a322914edccb"),
    ("certify", 3): ("8f88ddfdb07e5882daf8cc0ddfceebb7cc283e4eaae7c9204b9e5f3c318b3963",
                     "bdffb6c0c94060e7a52cfd304cf3c4279525c7fe30b0b68f8110ef573407ceb3",
                     "bdffb6c0c94060e7a52cfd304cf3c4279525c7fe30b0b68f8110ef573407ceb3"),
    ("certify", 4): ("7cb50a69bb341852b76d4bb2a0a42ae9bfc4cb1c7a2a75be8ff361b0e99e93db",
                     "ab22badd848f59022ab9bca2f50dce2009522acb9895d8d5fb6c89c164b9168d",
                     "9fec454a3e126ee57c330f75a0f7f8971826719e4848c4b705bf770b5922b84e"),
    ("sweep-1", 4): ("46ba5fe861056e38e87e6f810ea921fb78321b90526dafd7dced32efd5580c48",
                     "b34a5e2a3632b7d971ace9263d95ab7d2753cb02a61d4e2af97efa24a27bc19e",
                     "2ca85a3dcad7721398f220beda51b9d040d456cd7932a20abe6bd6806e14fcae"),
    ("sweep-2", 4): ("eab10c4c12cbc91049d4171ad8e60250ae8218412daa70c22303e1b869c67e1a",
                     "65e1fe78ce7c32da19b2f3c4d937b36f54cf0e704d8846b804081cdff792ddee",
                     "3e50fb28d977df823b3ab30f229412cb39591f8b8e0041b70834ef45e6bb1653"),
}


class TestPathMatrixLayout:
    @pytest.mark.parametrize("name, ell", list(_PATH_PINS))
    @pytest.mark.parametrize("cap", [1, 2, 999, 10**9])
    def test_layout_and_saturated_pairs_are_pinned(self, name, ell, cap):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            full = ds.path_expansion_matrix(_bench_graph(name), ell, cap=cap)._full
        h = hashlib.sha256()
        for arr in (full.indptr, full.indices, full.data):
            h.update(f"{arr.dtype.str} {arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr([w.message.pairs for w in caught
                       if isinstance(w.message, CapSaturated)]).encode())
        assert h.hexdigest() == _PATH_PINS[name, ell][min(cap, 3) - 1]

    def test_peak_memory_stays_near_the_matrix(self):
        # One assembly from int32 endpoints in byte-sized blocks; an int64
        # CSR per block, summed at the end, peaked at 4.8x the result.
        g = _bench_graph("certify")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapSaturated)
            ds.path_expansion_matrix(g, 4)  # first-call allocations are not the build's
            tracemalloc.start()
            try:
                full = ds.path_expansion_matrix(g, 4)._full
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        held = full.data.nbytes + full.indices.nbytes + full.indptr.nbytes
        assert peak <= 2.5 * held, (peak, held)


class TestDeltaMatrix:
    def test_tree_is_zero(self, path_graph):
        delta = ds.delta_matrix(ds.path_expansion_matrix(path_graph, 2),
                                ds.distance_matrix(path_graph, 2))
        assert delta.nnz == 0

    def test_square(self, square_graph):
        delta = ds.delta_matrix(ds.path_expansion_matrix(square_graph, 2),
                                ds.distance_matrix(square_graph, 2))
        assert delta.entries().tolist() == [[0, 2, 1], [1, 3, 1]]

    def test_negative_entry_raises(self, square_graph):
        empty = ds.SparseSymMatrix.from_pairs(4, 2, "path", [], [], [])
        with pytest.raises(NegativeEntry):
            ds.delta_matrix(empty, ds.distance_matrix(square_graph, 2))

    @pytest.mark.parametrize("entries", [1, 64, 1 << 16])
    def test_row_blocks_give_the_whole_difference(self, monkeypatch, entries):
        # Blocks of one row, of a few rows and of the whole matrix (n = 300), with
        # D^ell as a float64 matrix and as the bool rows delta_radius_check subtracts.
        g = ds.sample_graph(small_params(300), 0).graph
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapSaturated)
            bl = ds.path_expansion_matrix(g, 3)
        dl = ds.distance_matrix(g, 3)
        monkeypatch.setattr(graph, "_DIFF_ENTRIES", entries)
        rows = graph._expand(g, 3, distance=True)[0]  # D^ell's bool rows
        for (a, b), got in [((bl, dl), ds.delta_matrix(bl, dl)),
                            ((bl, dl), graph._delta(bl, rows)),
                            ((dl, bl), ds.difference_matrix(dl, bl))]:
            whole = a._full - b._full
            whole.eliminate_zeros()
            for x, y in zip((got._full.indptr, got._full.indices, got._full.data),
                            (whole.indptr, whole.indices, whole.data)):
                assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_zero_one_on_untangled_pairs(self):
        # Entries above 1 need two cycles within reach of both endpoints,
        # so they can only touch vertices whose balls are tangled.
        sample = ds.sample_graph(small_params(300), 0)
        tf, offenders = ds.tangle_free_check(sample.graph, 3)
        off = set(offenders)
        bl = ds.path_expansion_matrix(sample.graph, 3, cap=999)
        delta = ds.delta_matrix(bl, ds.distance_matrix(sample.graph, 3))
        for i, j, v in delta.entries():
            if v > 1:
                assert int(i) in off and int(j) in off


class TestTangleFree:
    def test_tree(self, path_graph):
        ok, offenders = ds.tangle_free_check(path_graph, 3)
        assert ok and offenders == []

    def test_two_triangles_fail_at_shared_vertex(self, two_triangles):
        ok, offenders = ds.tangle_free_check(two_triangles, 2)
        assert not ok
        assert 0 in offenders

    def test_single_cycle_ok(self):
        n = 12
        cyc = ds.SparseGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        for ell in (1, 3, 5):
            ok, _ = ds.tangle_free_check(cyc, ell)
            assert ok

    def test_rim_counts_pass_int8(self):
        # K_{2,200}: from a leaf at ell = 2 each hub has 199 neighbours on
        # the rim, a count an int8 product wraps; every ball holds 199 cycles.
        g = ds.SparseGraph.from_edges(202, [(h, 2 + i) for h in (0, 1) for i in range(200)])
        assert ds.tangle_free_check(g, 2) == (False, list(range(202)))

    def test_tangle_free_implies_small_counts(self):
        # On a certified graph the path counts stay at most 2 and the
        # difference matrix is 0/1.
        edges = [(i, i + 1) for i in range(20)] + [(0, 21), (21, 5)]
        g = ds.SparseGraph.from_edges(22, edges)
        ok, _ = ds.tangle_free_check(g, 4)
        assert ok
        bl = ds.path_expansion_matrix(g, 4, cap=999)
        assert bl.max_value() <= 2
        delta = ds.delta_matrix(bl, ds.distance_matrix(g, 4))
        assert delta.max_value() <= 1


class TestShellStatistics:
    def test_regular_tree_growth(self):
        # Complete binary tree: every internal shell doubles.
        depth, n = 6, 2**7 - 1
        edges = [(v, 2 * v + c) for v in range(2**6 - 1) for c in (1, 2)]
        g = ds.SparseGraph.from_edges(n, edges)
        max_ratio, _ = ds.shell_growth_report(g, 3, alpha=2.0)
        assert max_ratio <= 1.5

    def test_path_graph_bounded(self, path_graph):
        max_ratio, _ = ds.shell_growth_report(path_graph, 3, alpha=3.0)
        assert max_ratio <= 2.0

    def test_top_shell_mass_scale(self, two_type_params):
        # Sum of squared top-shell sizes stays within a constant band of
        # n * alpha^(2 ell).
        ratios = []
        for seed in range(5):
            sample = ds.sample_graph(two_type_params, seed)
            _, mass = ds.shell_growth_report(sample.graph, 4, alpha=3.0)
            ratios.append(mass / (two_type_params.n * 3.0**8))
        assert all(0.1 <= r <= 10.0 for r in ratios)

    def test_set_shell_sizes(self, path_graph):
        sizes = ds.set_shell_sizes(path_graph, [0], 2)
        assert sizes.tolist() == [1, 1, 1]
        sizes = ds.set_shell_sizes(path_graph, [0, 3], 1)
        assert sizes.tolist() == [2, 2]


class TestCycles:
    def test_tree_has_none(self, path_graph):
        assert ds.fundamental_cycles(path_graph) == []

    def test_square(self, square_graph):
        cycles = ds.fundamental_cycles(square_graph)
        assert len(cycles) == 1
        assert cycles[0].tolist() == [0, 1, 2, 3]

    def test_count_matches_excess(self):
        sample = ds.sample_graph(small_params(200), 9)
        g = sample.graph
        comps = _component_count(g)
        assert len(ds.fundamental_cycles(g)) == g.m - g.n + comps

    def test_cycle_list_is_pinned(self):
        # A sparse sample with many components; the digest covers the
        # order of the cycles and the vertices of each.
        g = ds.sample_graph(small_params(1000), 11).graph
        assert _component_count(g) > 1
        cycles = ds.fundamental_cycles(g)
        digest = hashlib.sha256()
        for c in cycles:
            digest.update(np.asarray(c, dtype="<i8").tobytes())
            digest.update(b"|")
        assert len(cycles) == 564
        assert digest.hexdigest() == \
            "7d54ee8a8778074c248e9e3e667540ef37221b475b67c54b1764c109e72ca1d9"


def _component_count(g):
    seen = np.zeros(g.n, dtype=bool)
    comps = 0
    for v in range(g.n):
        if seen[v]:
            continue
        comps += 1
        stack = [v]
        seen[v] = True
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return comps
