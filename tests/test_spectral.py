import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distspec as ds
import distspec.graph as graph
import distspec.spectral as spectral
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
        pairs = ds.top_eigenpairs(dl, 300, 5, tol=1e-8, seed=3)
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

    def test_no_convergence_warns_and_returns_partial(self):
        sample = ds.sample_graph(small_params(300), 4)
        dl = ds.distance_matrix(sample.graph, 3)
        with pytest.warns(NoConvergence):
            pairs = ds.top_eigenpairs(dl, 300, 6, max_iter=3, seed=1)
        assert len(pairs) < 6

    def test_empty_operator_raises(self):
        with pytest.raises(DegenerateOperator):
            ds.top_eigenpairs(lambda x: x, 0, 1)

    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("copies", [3, 5])
    def test_repeated_components_match_dense(self, copies, ell, k):
        # D^ell of disjoint copies of one graph is block diagonal, so every
        # eigenvalue repeats `copies` times; one Krylov run sees one copy.
        g = ds.sample_graph(small_params(40), 3).graph
        edges = g.edge_array()
        union = ds.SparseGraph.from_edges(
            copies * g.n, np.concatenate([edges + c * g.n for c in range(copies)]))
        dl = ds.distance_matrix(union, ell)
        pairs = ds.top_eigenpairs(dl, union.n, k, seed=1)
        assert len(pairs) == k
        dense = np.sort(np.abs(np.linalg.eigvalsh(dl.to_dense())))[::-1][:k]
        assert np.abs(np.abs([p.value for p in pairs]) - dense).max() <= 1e-6
        V = np.stack([p.vector for p in pairs])
        assert np.abs(V @ V.T - np.eye(k)).max() <= 1e-8


class TestSeparationReport:
    def test_perfect_match(self, two_type_profile):
        ell = 4
        vec = np.ones(100) / 10.0
        pairs = [ds.EigenPair(value=float(two_type_profile.mu[k] ** ell),
                              vector=vec, residual=0.0)
                 for k in range(2)]
        pairs.append(ds.EigenPair(value=1.0, vector=vec, residual=0.0))
        rep = ds.separation_report(pairs, two_type_profile, ell, n=100)
        assert np.allclose(rep.ratios, 1.0)
        assert rep.informative_ok
        assert rep.bulk_ok

    def test_flags_bulk_violation(self, two_type_profile):
        ell = 2
        vec = np.ones(4) / 2.0
        lam = [9.0, 4.0, 1e6]
        pairs = [ds.EigenPair(value=v, vector=vec, residual=0.0) for v in lam]
        rep = ds.separation_report(pairs, two_type_profile, ell, n=2000)
        assert not rep.bulk_ok


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
        expand = graph._vertex_frontiers
        monkeypatch.setattr(graph, "_vertex_frontiers",
                            lambda *args: calls.append(args) or expand(*args))
        got = ds.delta_radius_check(g, 3, alpha=3.0, bl=bl)
        assert len(calls) == 1
        assert vars(got) == vars(want)
