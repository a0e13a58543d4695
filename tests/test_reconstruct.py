import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import distspec as ds
from distspec.reconstruct import (
    AtOrBelowThreshold,
    BelowThreshold,
    LabelOutOfRange,
    ZeroVector,
    round_labels,
    solve_pairs,
)
from distspec.cli import _explicit_spectrum

from conftest import small_params


def pair_bytes(pairs):
    return [(p.value, p.vector.tobytes()) for p in pairs]


class TestExplicitK:
    def test_two_type_value(self):
        assert ds.explicit_K(2, 4.0 / 3.0, 1) == pytest.approx(16.0 / 3.0, abs=1e-9)

    def test_three_type_value(self):
        assert ds.explicit_K(3, 1.5625, 2) == pytest.approx(11.048543456039805, abs=1e-9)

    def test_large_tau_limit(self):
        tau = 1e9
        assert ds.explicit_K(2, tau, 1) / (2 * tau) == pytest.approx(1.0, rel=1e-6)

    def test_at_threshold_raises(self):
        with pytest.raises(AtOrBelowThreshold):
            ds.explicit_K(2, 1.0, 1)


class TestNormalize:
    def test_all_ones_unchanged(self):
        out = ds.normalize_for_algorithm(np.ones(4), 4)
        assert np.allclose(out, 1.0)

    def test_already_normalized(self):
        out = ds.normalize_for_algorithm(np.array([2.0, 0.0, 0.0, 0.0]), 4)
        assert np.allclose(out, [2.0, 0.0, 0.0, 0.0])

    def test_squared_norm_is_n(self):
        rng = ds.make_rng(5)
        for n in (3, 17, 100):
            out = ds.normalize_for_algorithm(rng.standard_normal(n), n)
            assert np.dot(out, out) == pytest.approx(n, abs=1e-12 * n)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            ds.normalize_for_algorithm(np.zeros(3), 3)


class TestLabelTwoWay:
    def test_extreme_entries_are_deterministic(self):
        K = 2.0
        xi = np.array([K, -K, K, -K] * 50)
        out = ds.label_two_way(xi, K, seed=3)
        assert np.array_equal(out.labels, np.where(xi > 0, 0, 1))

    def test_beyond_cutoff_is_fair_coin(self):
        # Entries outside [-K, K] contribute probability exactly 1/2.
        n = 40000
        xi = np.full(n, 4.0)  # 2K
        out = ds.label_two_way(xi, 2.0, seed=9)
        frac = (out.labels == 0).mean()
        assert abs(frac - 0.5) <= 3.0 / np.sqrt(n)

    def test_zero_entry_is_fair_coin(self):
        n = 40000
        out = ds.label_two_way(np.zeros(n), 1.0, seed=10)
        assert abs((out.labels == 0).mean() - 0.5) <= 3.0 / np.sqrt(n)

    def test_determinism(self):
        xi = ds.make_rng(0).standard_normal(500)
        a = ds.label_two_way(xi, 3.0, seed=77)
        b = ds.label_two_way(xi, 3.0, seed=77)
        assert np.array_equal(a.labels, b.labels)

    def test_per_block_fractions_concentrate(self):
        # With xi fixed, the positive-class fraction of each block settles
        # at its predicted limit, independent of the coins.
        n = 4000
        rng = ds.make_rng(21)
        sigma = rng.integers(0, 2, size=n)
        xi = np.where(sigma == 0, 0.8, -0.8) + 0.3 * rng.standard_normal(n)
        xi = ds.normalize_for_algorithm(xi, n)
        K = 3.0
        inside = np.abs(xi) <= K
        p = 0.5 + np.where(inside, xi / (2 * K), 0.0)
        for block in (0, 1):
            mask = sigma == block
            expected = p[mask].mean() * mask.mean()
            for coin_seed in range(50):
                labels = ds.label_two_way(xi, K, seed=coin_seed).labels
                observed = ((labels == 0) & mask).mean()
                assert abs(observed - expected) <= 3.0 / np.sqrt(n)


class TestOverlap:
    def test_perfect_recovery(self):
        sigma = np.array([0, 1] * 10)
        score = ds.overlap(sigma, sigma, [0.5, 0.5])
        assert score.value == pytest.approx(0.5)

    def test_global_swap_absorbed(self):
        sigma = np.array([0, 1] * 10)
        score = ds.overlap(sigma, 1 - sigma, [0.5, 0.5])
        assert score.value == pytest.approx(0.5)
        assert score.best_permutation == (1, 0)

    def test_constant_guess_scores_zero(self):
        rng = ds.make_rng(2)
        sigma = rng.integers(0, 2, size=400)
        score = ds.overlap(sigma, np.zeros(400, dtype=int), [0.5, 0.5])
        assert abs(score.value) <= 2.0 / np.sqrt(400)

    def test_brute_force_oracle_n12(self):
        # Exhaustive check of the permutation maximization against a direct
        # evaluation over every two-way assignment of 12 vertices.
        rng = ds.make_rng(8)
        sigma = rng.integers(0, 2, size=12)
        pi = [0.5, 0.5]
        for bits in range(2**12):
            sigma_hat = np.array([(bits >> i) & 1 for i in range(12)])
            agree = max((sigma_hat == sigma).mean(),
                        (sigma_hat == 1 - sigma).mean())
            expected = agree - 0.5
            assert ds.overlap(sigma, sigma_hat, pi).value == pytest.approx(expected)

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, r, seed):
        rng = ds.make_rng(seed)
        n = 60
        sigma = rng.integers(0, r, size=n)
        sigma_hat = rng.integers(0, r, size=n)
        pi = np.full(r, 1.0 / r)
        base = ds.overlap(sigma, sigma_hat, pi).value
        perm = rng.permutation(r)
        relabeled = perm[sigma_hat]
        assert ds.overlap(sigma, relabeled, pi).value == pytest.approx(base)

    def test_value_bounds(self):
        rng = ds.make_rng(3)
        sigma = rng.integers(0, 3, size=90)
        sigma_hat = rng.integers(0, 3, size=90)
        pi = np.full(3, 1.0 / 3.0)
        v = ds.overlap(sigma, sigma_hat, pi).value
        assert -pi.max() <= v <= 1 - pi.max()

    def test_label_range_checks(self):
        with pytest.raises(LabelOutOfRange):
            ds.overlap(np.array([0, 3]), np.array([0, 1]), [0.5, 0.5])
        with pytest.raises(LabelOutOfRange):
            ds.overlap(np.array([0, 1]), np.array([0, 5]), [0.5, 0.5])


def two_cliques_graph(m):
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges += [(m + i, m + j) for i in range(m) for j in range(i + 1, m)]
    return ds.SparseGraph.from_edges(2 * m, edges), np.array([0] * m + [1] * m)


class TestDetect:
    def test_two_cliques_contrast_gives_half(self):
        # Dense oracle route: the top eigenspace of the two-clique adjacency
        # is spanned by the block indicators; its direction orthogonal to
        # the all-ones vector is the contrast, and rounding it with K = 1
        # recovers the split exactly.
        m = 8
        g, sigma = two_cliques_graph(m)
        n = 2 * m
        A = ds.distance_matrix(g, 1).to_dense()
        vals, vecs = np.linalg.eigh(A)
        top2 = vecs[:, np.argsort(-vals)[:2]]
        ones = np.ones(n) / np.sqrt(n)
        q = top2 @ (top2.T @ ones)
        q /= np.linalg.norm(q)
        u = top2[:, 0] - q * np.dot(q, top2[:, 0])
        if np.linalg.norm(u) < 1e-9:
            u = top2[:, 1] - q * np.dot(q, top2[:, 1])
        xi = ds.normalize_for_algorithm(u, n)
        assert np.allclose(np.abs(xi), 1.0)
        xi = np.round(xi)  # clear normalization dust off the +-1 entries
        labels = ds.label_two_way(xi, 1.0, seed=5).labels
        assert ds.overlap(sigma, labels, [0.5, 0.5]).value == pytest.approx(0.5)

    def test_pipeline_runs_and_is_deterministic(self):
        params = small_params(400)
        profile = ds.derive_spectral_profile(params)
        sample = ds.sample_graph(params, 12)
        a, rec_a = ds.detect(sample.graph, profile, 3, seed=5)
        b, rec_b = ds.detect(sample.graph, profile, 3, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert a.K_used == pytest.approx(16.0 / 3.0)
        assert [p.value for p in rec_a.pairs] == [p.value for p in rec_b.pairs]

    def test_a_one_vertex_graph_is_labelled_from_its_one_pair(self):
        # One vertex has one eigenpair, (0, e_0), and the rounding reads it.
        g = ds.SparseGraph.from_edges(1, [])
        assignment, record = ds.detect(g, ds.derive_spectral_profile(small_params(2)), 2, 0)
        assert [(p.value, p.vector.tolist()) for p in record.pairs] == [(0.0, [1.0])]
        assert assignment.source == 0 and assignment.labels.tolist() == [1]

    def test_a_passed_matrix_gives_the_same_detection(self, monkeypatch):
        params = small_params(400)
        profile = ds.derive_spectral_profile(params)
        g = ds.sample_graph(params, 12).graph
        dl = ds.distance_matrix(g, 3)
        built, built_rec = ds.detect(g, profile, 3, seed=5)
        monkeypatch.setattr(ds.reconstruct, "distance_matrix", None)  # a call would raise
        given, given_rec = ds.detect(g, profile, 3, seed=5, dl=dl)
        assert np.array_equal(built.labels, given.labels)
        assert (built.source, built.K_used) == (given.source, given.K_used)
        assert pair_bytes(built_rec.pairs) == pair_bytes(given_rec.pairs)
        assert given_rec.ms_build is None
        assert min(built_rec.ms_build, built_rec.ms_solve, built_rec.ms_round) >= 0
        assert min(given_rec.ms_solve, given_rec.ms_round) >= 0

    @pytest.mark.parametrize("build", [lambda g: ds.distance_matrix(g, 2),
                                       lambda g: ds.path_expansion_matrix(g, 3, cap=10**6)],
                             ids=["other-depth", "path"])
    def test_a_matrix_not_built_for_the_call_is_rejected(self, build):
        params = small_params(200)
        g = ds.sample_graph(params, 3).graph
        with pytest.raises(ValueError, match="not the distance matrix of this graph at depth 3"):
            ds.detect(g, ds.derive_spectral_profile(params), 3, seed=1, dl=build(g))

    def test_record_holds_the_solved_pairs(self, monkeypatch):
        solved = []
        original = ds.reconstruct.solve_pairs
        monkeypatch.setattr(ds.reconstruct, "solve_pairs",
                            lambda *args: solved.append(original(*args)) or solved[-1])
        params = small_params(300)
        _, record = ds.detect(ds.sample_graph(params, 4).graph,
                              ds.derive_spectral_profile(params), 3, seed=2)
        assert len(solved) == 1 and record.pairs is solved[0]

    def test_edgeless_graph_reads_zero_pairs(self):
        # D^2 has no nonzero; with 100 rows it takes the sparse path.
        params = small_params(100)
        asg, record = ds.detect(ds.SparseGraph.from_edges(100, []),
                                ds.derive_spectral_profile(params), 2, seed=1)
        assert [(p.value, p.residual) for p in record.pairs] == [(0.0, 0.0)] * 2
        assert np.array_equal(record.pairs[asg.source].vector, np.eye(100)[1])

    def test_below_threshold_warns_and_uses_fallback(self, below_threshold_params):
        profile = ds.derive_spectral_profile(below_threshold_params)
        sample = ds.sample_graph(
            small_params(400, W=[[4.0, 2.0], [2.0, 4.0]]), 3)
        with pytest.warns(BelowThreshold):
            asg, _ = ds.detect(sample.graph, profile, 3, seed=1)
        assert asg.K_used == pytest.approx(ds.reconstruct.FALLBACK_K)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_opposite_sign_tie_reaches_the_rounding(self, seed):
        # The solve asks for r0 = 2 pairs of Q diag(10, 5, -5, bulk) Q^T; one
        # Krylov run returns either of +-5, so the check must add the other
        # and the rounding take the one with the sign of mu2^ell.
        self.check_tie_rounding(-5.0, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_opposite_sign_near_tie_reaches_the_rounding(self, seed):
        # -5(1 + 5e-9) ties 5 within the solver's tolerance, not within 1e-9:
        # the -5 pair sorts first and the rounding must still group the two.
        self.check_tie_rounding(-5.0 * (1 + 5e-9), seed)

    @staticmethod
    def check_tie_rounding(minus, seed):
        A = _explicit_spectrum([10.0, 5.0, minus], 2.0, seed)
        profile = ds.derive_spectral_profile(small_params(len(A)))
        mat = ds.SparseSymMatrix(len(A), 1, "explicit", sp.csr_matrix(A))
        pairs = solve_pairs(mat, len(A), profile, seed)
        assert sorted(round(p.value, 9) for p in pairs) == [round(minus, 9), 5.0, 10.0]
        for mu2 in (5.0, -5.0):  # at ell = 1, mu2^ell = mu2
            signed = dataclasses.replace(profile, mu=np.array([10.0, mu2]))
            labels = round_labels(pairs, signed, 1, seed)
            assert pairs[labels.source].value == pytest.approx(mu2)

    def test_strong_signal_recovers(self, strong_params, strong_profile):
        # Far enough above threshold the pipeline finds real structure.
        vals = []
        for seed in range(3):
            sample = ds.sample_graph(strong_params, seed)
            asg, _ = ds.detect(sample.graph, strong_profile, 2, seed=seed)
            vals.append(ds.overlap(sample.sigma, asg.labels, strong_params.pi).value)
        assert np.mean(vals) > 0.02
