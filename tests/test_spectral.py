import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import distspec as ds
import distspec.graph as graph
import distspec.spectral as spectral
from distspec.cli import _explicit_spectrum
from distspec.spectral import DegenerateOperator, NoConvergence

from conftest import small_params


def dense_op(A):
    A = np.asarray(A, dtype=float)
    return lambda x: A @ x


class TestTopEigenpairs:
    def test_identity(self):
        pairs = ds.top_eigenpairs(dense_op(np.eye(3)), 3, 1, seed=1)
        assert pairs[0].value == pytest.approx(1.0)
        assert pairs[0].residual <= 1e-10

    def test_two_by_two(self):
        pairs = ds.top_eigenpairs(dense_op([[2.0, 1.0], [1.0, 2.0]]), 2, 2, seed=1)
        assert [p.value for p in pairs] == pytest.approx([3.0, 1.0])

    def test_matches_dense_oracle(self):
        sample = ds.sample_graph(small_params(300), 4)
        dl = ds.distance_matrix(sample.graph, 3)
        pairs = ds.top_eigenpairs(dl, 300, 4, seed=2)
        dense = np.linalg.eigvalsh(dl.to_dense())
        top = dense[np.argsort(-np.abs(dense))][:4]
        for p, t in zip(pairs, top):
            assert abs(p.value - t) <= 1e-6 * max(1.0, abs(t))

    def test_residual_and_orthogonality(self):
        sample = ds.sample_graph(small_params(300), 4)
        dl = ds.distance_matrix(sample.graph, 3)
        pairs = ds.top_eigenpairs(dl, 300, 5, seed=3)
        for p in pairs:
            assert p.residual <= 1e-8 * max(1.0, abs(p.value))
            assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-10
        G = np.array([[np.dot(p.vector, q.vector) for q in pairs] for p in pairs])
        assert np.abs(G - np.eye(len(pairs))).max() <= 1e-8

    def test_rayleigh_never_beats_top(self):
        sample = ds.sample_graph(small_params(200), 6)
        dl = ds.distance_matrix(sample.graph, 2)
        top = ds.top_eigenpairs(dl, 200, 1, seed=4)[0].value
        rng = ds.make_rng(99)
        for _ in range(1000):
            x = rng.standard_normal(200)
            x /= np.linalg.norm(x)
            assert x @ dl.matvec(x) <= top + 1e-9

    def test_sign_canonicalized_and_deterministic(self):
        sample = ds.sample_graph(small_params(150), 8)
        dl = ds.distance_matrix(sample.graph, 2)
        a = ds.top_eigenpairs(dl, 150, 3, seed=7)
        b = ds.top_eigenpairs(dl, 150, 3, seed=7)
        for p, q in zip(a, b):
            assert np.array_equal(p.vector, q.vector)
            nz = np.nonzero(np.abs(p.vector) > 1e-12 * np.abs(p.vector).max())[0]
            assert p.vector[nz[0]] > 0

    def test_zero_operator(self):
        pairs = ds.top_eigenpairs(dense_op(np.zeros((5, 5))), 5, 2, seed=1)
        assert all(abs(p.value) <= 1e-10 for p in pairs)

    def test_degenerate_eigenvalue_multiplicity(self):
        A = np.diag([4.0, 4.0, 1.0])
        pairs = ds.top_eigenpairs(dense_op(A), 3, 2, seed=5)
        assert [p.value for p in pairs] == pytest.approx([4.0, 4.0])
        assert abs(np.dot(pairs[0].vector, pairs[1].vector)) <= 1e-8

    def test_no_convergence_warns_and_returns_partial(self, monkeypatch):
        sample = ds.sample_graph(small_params(300), 4)
        dl = ds.distance_matrix(sample.graph, 3)
        monkeypatch.setattr(spectral, "_MAX_MATVECS", 3)
        with pytest.warns(NoConvergence):
            pairs = ds.top_eigenpairs(dl, 300, 6, seed=1)
        assert len(pairs) < 6

    def test_empty_operator_raises(self):
        with pytest.raises(DegenerateOperator):
            ds.top_eigenpairs(lambda x: x, 0, 1)

    def test_negative_k_raises(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            ds.top_eigenpairs(dense_op(np.eye(100)), 100, -1)

    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("copies", [3, 5])
    def test_repeated_components_match_dense(self, copies, ell, k):
        # D^ell of disjoint copies of one graph is block diagonal, so every
        # eigenvalue repeats `copies` times; one Krylov run sees one copy.
        union = _copies(copies)
        dl = ds.distance_matrix(union, ell)
        pairs = ds.top_eigenpairs(dl, union.n, k, seed=1)
        assert len(pairs) == k
        dense = np.sort(np.abs(np.linalg.eigvalsh(dl.to_dense())))[::-1][:k]
        assert np.abs(np.abs([p.value for p in pairs]) - dense).max() <= 1e-6
        V = np.stack([p.vector for p in pairs])
        assert np.abs(V @ V.T - np.eye(k)).max() <= 1e-8


class TestMultiplicityScreen:
    """The multiplicity check first runs ARPACK at ``_SCREEN_TOL``; only a
    screen that cannot show that nothing left beats the k-th pair hands
    over to the run at tol / 10."""

    @pytest.fixture
    def tols(self, monkeypatch):
        import scipy.sparse.linalg

        seen = []
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *args, **kw: seen.append(kw["tol"]) or eigsh(*args, **kw))
        return seen

    def test_gap_is_settled_by_the_screen(self, tols):
        g = ds.sample_graph(small_params(500), 1).graph
        ds.top_eigenpairs(ds.distance_matrix(g, 4), g.n, 4, seed=1)
        assert tols == [1e-9, spectral._SCREEN_TOL]

    @pytest.mark.parametrize("top, k, bulk", [
        # One copy of the 4th eigenvalue hides from the first run and is merged.
        ([10.0, 9.0, 8.0, 8.0], 4, 7.9),
        # lambda_4 sits 1e-6 below lambda_3: the screen cannot settle it and
        # the tight run must not merge it.
        ([10.0, 9.0, 8.0, 8.0 * (1 - 1e-6)], 3, 7.5),
    ])
    def test_unsettled_screen_falls_back_and_matches_dense(self, tols, top, k, bulk):
        A = _explicit_spectrum(top, bulk, seed=0)
        pairs = ds.top_eigenpairs(dense_op(A), len(A), k, seed=0)
        # The first run and one check that the screen handed over.
        assert tols.count(1e-9) == 2
        dense = np.linalg.eigvalsh(A)
        dense = dense[np.argsort(-np.abs(dense))][:k]
        assert len(pairs) == k
        for p, t in zip(pairs, dense):
            assert abs(p.value - t) <= 1e-8 * max(1.0, abs(t))
        kth = top[k - 1]
        assert sum(abs(p.value - kth) <= 1e-7 for p in pairs) == top[:k].count(kth)


def _copies(copies: int) -> ds.SparseGraph:
    """``copies`` disjoint copies of one 40-vertex graph."""
    g = ds.sample_graph(small_params(40), 3).graph
    edges = g.edge_array()
    return ds.SparseGraph.from_edges(
        copies * g.n, np.concatenate([edges + c * g.n for c in range(copies)]))


def _pinned_solves():
    """(name, D^ell, k) for the pipeline benchmark's graphs (n = 4,000,
    W = [[11, 1], [1, 11]], ell = 3, seeds 1 and 2), the sweep benchmark's
    graph (n = 500, W = [[5, 1], [1, 5]], seed 1) at ell 2 and 4, and 3 and
    5 disjoint copies of a 40-vertex graph, whose eigenvalues all repeat."""
    for seed in (1, 2):
        g = ds.sample_graph(small_params(4000, W=[[11.0, 1.0], [1.0, 11.0]]), seed).graph
        yield f"pipeline seed={seed}", ds.distance_matrix(g, 3), 4
    g = ds.sample_graph(small_params(500), 1).graph
    for ell in (2, 4):
        yield f"sweep ell={ell}", ds.distance_matrix(g, ell), 4
    for copies in (3, 5):
        union = _copies(copies)
        for ell in (1, 2, 3):
            for k in (4, 6):
                yield f"copies={copies} ell={ell} k={k}", ds.distance_matrix(union, ell), k


def test_eigenpairs_are_pinned():
    # SHA-256 of every returned value, vector and residual, with floats as
    # hex and arrays as raw bytes, so a change in the last bit shows.
    h = hashlib.sha256()
    for name, dl, k in _pinned_solves():
        h.update(f"|{name}:".encode())
        for p in ds.top_eigenpairs(dl, dl.n, k, seed=1):
            h.update(f"{p.value.hex()} {p.residual.hex()} {p.vector.dtype.str}".encode())
            h.update(np.ascontiguousarray(p.vector).tobytes())
    assert h.hexdigest() == (
        "72a2c1dca4ffc412c21e62b7ac6286b0167afede22f96e6331640e4e06ee8747")


class TestSeparationReport:
    def test_perfect_match(self, two_type_profile):
        ell = 4
        vec = np.ones(100) / 10.0
        pairs = [ds.EigenPair(value=float(two_type_profile.mu[k] ** ell),
                              vector=vec, residual=0.0)
                 for k in range(2)]
        pairs.append(ds.EigenPair(value=1.0, vector=vec, residual=0.0))
        rep = ds.separation_report(pairs, two_type_profile, ell)
        assert np.allclose(rep.ratios, 1.0)
        assert rep.informative_ok
        assert rep.bulk_ok

    def test_flags_bulk_violation(self, two_type_profile):
        ell = 2
        vec = np.ones(4) / 2.0
        lam = [9.0, 4.0, 1e6]
        pairs = [ds.EigenPair(value=v, vector=vec, residual=0.0) for v in lam]
        rep = ds.separation_report(pairs, two_type_profile, ell)
        assert not rep.bulk_ok

    @pytest.mark.parametrize("count", [1, 2])
    def test_short_solve_passes_nothing_unmeasured(self, two_type_profile, count):
        # r0 = 2, so one pair leaves an informative value unjudged and
        # neither count reaches the bulk.
        ell = 4
        vec = np.ones(100) / 10.0
        pairs = [ds.EigenPair(value=float(two_type_profile.mu[k] ** ell), vector=vec,
                              residual=0.0) for k in range(count)]
        rep = ds.separation_report(pairs, two_type_profile, ell)
        assert two_type_profile.r0 == 2
        assert len(rep.ratios) == count and np.allclose(rep.ratios, 1.0)
        assert rep.informative_ok == (count == 2)
        assert np.isnan(rep.bulk_ratio) and not rep.bulk_ok


class TestQcBound:
    def test_point_mass(self):
        exact, bound = ds.qc_bound([1, 0, 0])
        assert exact == pytest.approx(1.0)
        assert bound == pytest.approx(1.0)

    def test_geometric_shells(self):
        exact, bound = ds.qc_bound([1, 4, 16])
        assert bound == pytest.approx(7.0)
        assert exact <= bound

    def test_geometric_sum_bound(self):
        # For S_t = alpha^t the row-sum bound stays below
        # (ell+1) * alpha^(ell/2) * sqrt(alpha)/(sqrt(alpha)-1).
        for alpha in (2.0, 3.0, 4.0):
            for ell in (2, 3, 5):
                S = alpha ** np.arange(ell + 1)
                _, bound = ds.qc_bound(S)
                cap = (ell + 1) * alpha ** (ell / 2) * np.sqrt(alpha) / (np.sqrt(alpha) - 1)
                assert bound <= cap

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_exact_never_exceeds_rowsum(self, shells):
        exact, bound = ds.qc_bound(shells)
        assert exact <= bound + 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ds.qc_bound([1, -1])


class TestDeltaRadius:
    def test_tree_zero(self, path_graph):
        rep = ds.delta_radius_check(path_graph, 2, alpha=2.0)
        assert rep.rho == pytest.approx(0.0, abs=1e-12)

    def test_square_is_one(self, square_graph):
        rep = ds.delta_radius_check(square_graph, 2, alpha=2.0)
        assert rep.rho == pytest.approx(1.0, abs=1e-9)

    def test_sbm_within_bounds(self):
        sample = ds.sample_graph(small_params(500), 0)
        with pytest.warns(ds.CapSaturated):
            rep = ds.delta_radius_check(sample.graph, 3, alpha=3.0)
        assert rep.rho <= 10 * np.log(500) * 3.0**1.5
        assert rep.rho <= rep.cycle_bound

    def test_one_vertex_expansion_gives_distances_and_tangles(self, monkeypatch):
        g = ds.sample_graph(small_params(300), 4).graph
        bl = ds.path_expansion_matrix(g, 3, cap=10**6)
        want = ds.delta_radius_check(g, 3, alpha=3.0, dl=ds.distance_matrix(g, 3), bl=bl)
        assert want.tangle_free == ds.tangle_free_check(g, 3)[0]

        def forbidden(*args, **kwargs):
            raise AssertionError("delta_radius_check ran a second traversal")

        for module in (graph, spectral, ds):
            for name in ("tangle_free_check", "distance_matrix"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        calls = []
        expand = graph._expand

        def counted(g, ell, sets=None, **kwargs):
            calls.append("vertices" if sets is None else "sets")
            return expand(g, ell, sets, **kwargs)

        for module in (graph, spectral):
            monkeypatch.setattr(module, "_expand", counted)
        got = ds.delta_radius_check(g, 3, alpha=3.0, bl=bl)
        assert calls == ["vertices", "sets"]  # one vertex expansion, then the cycles
        assert vars(got) == vars(want)

    @pytest.mark.parametrize("kind", ["cyclic", "forest"])
    def test_cycle_shells_in_small_blocks_give_the_same_report(self, monkeypatch, kind):
        if kind == "cyclic":
            g = ds.sample_graph(small_params(300), 4).graph
        else:  # a random recursive tree: no cycles, so no cycle bound
            parents = np.random.default_rng(0).integers(0, np.arange(1, 200))
            g = ds.SparseGraph.from_edges(200, np.stack([np.arange(1, 200), parents], 1))
        bl = ds.path_expansion_matrix(g, 3, cap=10**6)
        want = ds.delta_radius_check(g, 3, alpha=3.0, bl=bl)
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 64)
        got = ds.delta_radius_check(g, 3, alpha=3.0, bl=bl)
        assert vars(got) == vars(want)
        cycles = ds.fundamental_cycles(g)
        blocks, expand = [], graph.frontiers
        monkeypatch.setattr(graph, "frontiers",
                            lambda g, rows, ell: blocks.append(rows) or expand(g, rows, ell))
        sizes = graph._expand(g, 3, cycles)[2]
        if kind == "cyclic":
            assert len(blocks) > 1 and want.n_cycles > 1 and want.cycle_bound > 0
            rows = graph._source_rows(g, cycles)
            # The blocks are consecutive runs of the source rows, in order.
            assert (sp.vstack(blocks, format="csr") != rows).nnz == 0
            assert np.array_equal(sizes, np.stack(
                [np.diff(f.indptr) for f in expand(g, rows, 3)], axis=1))
        else:
            assert blocks == [] and want.n_cycles == 0 and want.cycle_bound == 0.0

    @pytest.mark.parametrize("which, mismatch", [
        (which, mismatch) for which in ("dl", "bl") for mismatch in ("kind", "ell", "n")])
    def test_passed_matrices_must_fit_the_graph(self, square_graph, which, mismatch):
        builders = {"dl": ds.distance_matrix, "bl": ds.path_expansion_matrix}
        other = {"dl": ds.path_expansion_matrix, "bl": ds.distance_matrix}[which]
        five = ds.SparseGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
        wrong = {"kind": lambda: other(square_graph, 2),
                 "ell": lambda: builders[which](square_graph, 1),
                 "n": lambda: builders[which](five, 2)}[mismatch]()
        with pytest.raises(ValueError, match=f"{which} is a .* not the "
                                             f"{'distance' if which == 'dl' else 'path'} matrix"):
            ds.delta_radius_check(square_graph, 2, alpha=2.0, **{which: wrong})
