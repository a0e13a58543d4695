import warnings

import numpy as np
import pytest

import distspec as ds
from distspec.gw import PopulationCapHit, SingularSystem
from distspec.util import make_rng


def single_type_cfg(mean=3.0, depth=8, runs=10**4, seed=0):
    return ds.GwConfig(M=np.array([[mean]]), root_law=0, depth=depth,
                       runs=runs, seed=seed)


class TestSimulate:
    def test_depth_zero_is_root(self):
        cfg = ds.GwConfig(M=np.array([[2.0]]), root_law=0, depth=0, runs=50, seed=1)
        sample = ds.simulate_population(cfg)
        assert np.all(sample.Z[:, 0, 0] == 1)

    def test_mean_population_matches_matrix_powers(self, two_type_profile):
        M = two_type_profile.M
        nu = np.array([1.0, 0.0])
        cfg = ds.GwConfig(M=M, root_law=0, depth=5, runs=3 * 10**4, seed=2)
        sample = ds.simulate_population(cfg)
        for t in range(6):
            expected = np.linalg.matrix_power(M, t) @ nu
            mean = sample.Z[:, t, :].mean(axis=0)
            se = sample.Z[:, t, :].std(axis=0) / np.sqrt(cfg.runs)
            assert np.all(np.abs(mean - expected) <= 3 * se + 1e-12)

    def test_single_type_growth(self):
        cfg = single_type_cfg(runs=3 * 10**4, seed=3)
        sample = ds.simulate_population(cfg)
        X = sample.Z[:, 8, 0] / 3.0**8
        assert abs(X.mean() - 1.0) <= 3 * X.std() / np.sqrt(cfg.runs)

    def test_cap_flags_and_freezes(self):
        cfg = ds.GwConfig(M=np.array([[4.0]]), root_law=0, depth=10, runs=200,
                          seed=4, cap=50)
        with pytest.warns(PopulationCapHit):
            sample = ds.simulate_population(cfg)
        assert sample.capped.any()
        assert sample.Z[sample.capped, -1, 0].max() <= 4 * 50  # frozen early

    def test_determinism(self):
        a = ds.simulate_population(single_type_cfg(seed=9))
        b = ds.simulate_population(single_type_cfg(seed=9))
        assert np.array_equal(a.Z, b.Z)

    @pytest.mark.parametrize("root_law, cap", [(0, 10**6), ([0.3, 0.7], 10**6), ([0.5, 0.5], 40)])
    def test_matches_a_run_major_loop(self, root_law, cap):
        cfg = ds.GwConfig(M=np.array([[2.5, 0.5], [0.5, 2.0]]), root_law=root_law, depth=6,
                          runs=500, seed=5, cap=cap)
        rng = make_rng(cfg.seed)
        roots = (np.full(cfg.runs, 0) if root_law == 0
                 else rng.choice(2, size=cfg.runs, p=cfg.root_law))
        Z = np.zeros((cfg.runs, cfg.depth + 1, 2), dtype=np.int64)
        Z[np.arange(cfg.runs), 0, roots] = 1
        capped = np.zeros(cfg.runs, dtype=bool)
        for t in range(cfg.depth):
            nxt = rng.poisson(Z[:, t, :] @ cfg.M.T)
            frozen = capped | (nxt.sum(axis=1) > cfg.cap)
            nxt[frozen] = Z[frozen, t, :]
            capped |= frozen
            Z[:, t + 1, :] = nxt
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PopulationCapHit)
            sample = ds.simulate_population(cfg)
        assert capped.any() == (cap == 40)
        assert np.array_equal(sample.Z, Z) and sample.Z.shape == Z.shape
        assert np.array_equal(sample.root_types, roots)
        assert np.array_equal(sample.capped, capped)


class TestMartingale:
    def test_single_type_mean_and_variance(self):
        cfg = single_type_cfg(runs=10**5, seed=5)
        mart = ds.martingale_limit_check(cfg, np.array([1.0]), 3.0)
        assert mart.expected_mean == 1.0
        assert abs(mart.mean - 1.0) <= 3 * mart.stderr
        assert abs(mart.variance - 0.5) <= 0.10 * 0.5

    def test_mean_matches_root_projection(self, two_type_profile):
        phi = two_type_profile.phi[1]
        nu = np.array([0.7, 0.3])
        cfg = ds.GwConfig(M=two_type_profile.M, root_law=nu, depth=8,
                          runs=10**5, seed=6)
        mart = ds.martingale_limit_check(cfg, phi, 2.0)
        assert mart.expected_mean == pytest.approx(float(phi @ nu))
        assert abs(mart.mean - mart.expected_mean) <= 3 * mart.stderr

    def test_mean_constant_across_depths(self, two_type_profile):
        # The rescaled projection keeps its expectation at every depth.
        phi = two_type_profile.phi[1]
        cfg = ds.GwConfig(M=two_type_profile.M, root_law=0, depth=8,
                          runs=10**5, seed=7)
        sample = ds.simulate_population(cfg)
        target = phi[0]
        for t in range(1, 9):
            X = ds.martingale_values(sample, phi, 2.0, depth=t)
            se = X.std(ddof=1) / np.sqrt(len(X))
            assert abs(X.mean() - target) <= 3 * se + 1e-12

    def test_requires_supercritical_ratio(self, two_type_profile):
        cfg = ds.GwConfig(M=two_type_profile.M, root_law=0, depth=4, runs=100, seed=1)
        with pytest.raises(SingularSystem):
            ds.martingale_limit_check(cfg, two_type_profile.phi[0], 1.0)


class TestClosedForms:
    def test_single_type(self):
        params = ds.SbmParams(r=2, W=np.array([[3.0, 3.0], [3.0, 3.0]]),
                              pi=np.array([0.5, 0.5]), n=10)
        prof = ds.derive_spectral_profile(params)
        # Rank-one connectivity collapses to a single-type process with
        # mean 3; test the solve on the top eigenvector directly.
        c2, m2, var_sum, sq_sum = ds.moment_closed_forms(prof, prof.phi[0], 3.0)
        tau = 3.0
        assert var_sum == pytest.approx(1.0 / (tau - 1.0), abs=1e-9)
        assert sq_sum == pytest.approx(tau / (tau - 1.0), abs=1e-9)

    def test_two_type_values(self, two_type_profile):
        _, _, var_sum, sq_sum = ds.moment_closed_forms(
            two_type_profile, two_type_profile.phi[1], 2.0)
        assert var_sum == pytest.approx(3.0, abs=1e-9)
        assert sq_sum == pytest.approx(4.0, abs=1e-9)

    def test_three_type_values(self, three_type_profile):
        _, _, var_sum, sq_sum = ds.moment_closed_forms(
            three_type_profile, three_type_profile.phi[1], 2.5)
        assert var_sum == pytest.approx(1.0 / 0.5625, abs=1e-9)
        assert sq_sum == pytest.approx(1.5625 / 0.5625, abs=1e-9)

    def test_subcritical_raises(self, below_threshold_params):
        prof = ds.derive_spectral_profile(below_threshold_params)
        with pytest.raises(SingularSystem):
            ds.moment_closed_forms(prof, prof.phi[1], 1.0)

    def test_finite_depth_converges_to_limit(self, two_type_profile):
        phi, mu = two_type_profile.phi[1], 2.0
        c2, m2, var_sum, _ = ds.moment_closed_forms(two_type_profile, phi, mu)
        prev_gap = np.inf
        for depth in (4, 8, 16, 32):
            c2_t, _ = ds.finite_depth_second_moments(two_type_profile, phi, mu, depth)
            gap = abs(c2_t.sum() - var_sum)
            assert gap < prev_gap
            prev_gap = gap
        assert prev_gap <= 1e-3

    def test_finite_depth_matches_simulation(self, two_type_profile):
        phi, mu = two_type_profile.phi[1], 2.0
        depth = 6
        c2_t, _ = ds.finite_depth_second_moments(two_type_profile, phi, mu, depth)
        cfg = ds.GwConfig(M=two_type_profile.M, root_law=np.array([0.5, 0.5]),
                          depth=depth, runs=10**5, seed=8)
        mart = ds.martingale_limit_check(cfg, phi, mu)
        var_mc = float(np.nansum(mart.per_type_var))
        assert abs(var_mc - c2_t.sum()) <= 0.05 * c2_t.sum()


class TestCumulants:
    def test_order_one_recovers_eigenvector(self, two_type_profile):
        chk = ds.cumulant_relation_check(two_type_profile, two_type_profile.phi[1],
                                         2.0, order=1, runs=4 * 10**4, seed=9)
        assert np.allclose(chk.cumulants, two_type_profile.phi[1], atol=0.03)
        assert chk.max_z <= 3.0

    def test_order_two_residual_within_noise(self, two_type_profile):
        chk = ds.cumulant_relation_check(two_type_profile, two_type_profile.phi[1],
                                         2.0, order=2, runs=10**5, seed=10)
        assert chk.max_z <= 3.0

    def test_single_type_order_two(self):
        params = ds.SbmParams(r=2, W=np.array([[3.0, 3.0], [3.0, 3.0]]),
                              pi=np.array([0.5, 0.5]), n=10)
        prof = ds.derive_spectral_profile(params)
        chk = ds.cumulant_relation_check(prof, prof.phi[0], 3.0, order=2,
                                         runs=4 * 10**4, seed=11)
        assert chk.max_z <= 3.0

    def test_markov_tail_bound(self, two_type_profile):
        # P(|X_i| > sqrt(tau / (eta (tau - 1)))) <= eta for the limits.
        phi, mu = two_type_profile.phi[1], 2.0
        tau = two_type_profile.tau
        for eta in (0.1, 0.05):
            cutoff = np.sqrt(tau / (eta * (tau - 1.0)))
            for root in (0, 1):
                cfg = ds.GwConfig(M=two_type_profile.M, root_law=root, depth=8,
                                  runs=4 * 10**4, seed=12 + root)
                sample = ds.simulate_population(cfg)
                X = ds.martingale_values(sample, phi, mu)[sample.ok]
                assert (np.abs(X) > cutoff).mean() <= eta
