import dataclasses
import functools
import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import distspec as ds
from distspec import gw
from distspec.cli import _oracle_cumulant_check
from distspec.gw import PopulationCapHit, SingularSystem
from distspec.util import _sfc64_rng


def single_type_cfg(mean=3.0, depth=8, runs=10**4, seed=0):
    return ds.GwConfig(M=np.array([[mean]]), root_law=0, depth=depth,
                       runs=runs, seed=seed)


def assert_matches_run_major_loop(cfg):
    """Compare with a run-major reference loop; return its capped flags."""
    rng = _sfc64_rng(cfg.seed)
    roots = (np.full(cfg.runs, int(cfg.root_law))
             if isinstance(cfg.root_law, (int, np.integer))
             else rng.choice(cfg.r, size=cfg.runs, p=cfg.root_law))
    Z = np.zeros((cfg.runs, cfg.depth + 1, cfg.r), dtype=np.int64)
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
    assert np.array_equal(sample.Z, Z) and sample.Z.shape == Z.shape
    assert np.array_equal(sample.root_types, roots)
    assert np.array_equal(sample.capped, capped)
    return capped


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

    @pytest.mark.parametrize("M", [[[3.0]], [[2.0, 1.0], [1.0, 2.0]]])
    def test_a_total_at_the_cap_is_not_frozen(self, M):
        cfg = ds.GwConfig(M=np.array(M), root_law=0, depth=4, runs=1, seed=6)
        free = ds.simulate_population(cfg).Z[0]
        totals = free.sum(axis=1)
        assert totals[:-1].max() < totals[-1]  # only the last step can reach the cap
        at_cap = ds.simulate_population(dataclasses.replace(cfg, cap=int(totals[-1])))
        assert not at_cap.capped[0] and np.array_equal(at_cap.Z[0], free)
        with pytest.warns(PopulationCapHit):
            over = ds.simulate_population(dataclasses.replace(cfg, cap=int(totals[-1]) - 1))
        assert over.capped[0]
        assert np.array_equal(over.Z[0, :-1], free[:-1])
        assert np.array_equal(over.Z[0, -1], free[-2])

    def test_cap_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            ds.GwConfig(M=np.array([[3.0]]), root_law=0, cap=0)
        assert ds.GwConfig(M=np.array([[3.0]]), root_law=0, cap=1).cap == 1

    @pytest.mark.parametrize("field, value", [
        ("depth", True), ("depth", 2.5), ("runs", 1e3), ("runs", "5"), ("seed", 1.5),
        ("seed", True), ("cap", 2.5), ("cap", np.float64(100.0))])
    def test_non_integer_counts_and_seeds_are_rejected(self, field, value):
        # depth=True once ran one generation and runs=1e3 failed inside NumPy.
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=message):
            ds.GwConfig(M=np.array([[3.0]]), root_law=0, **{field: value})

    def test_numpy_integer_counts_and_seeds_keep_the_stream(self):
        ints = dict(depth=np.int64(3), runs=np.int32(50), seed=np.uint64(7), cap=np.int64(10**6))
        a = ds.simulate_population(ds.GwConfig(M=np.array([[2.0]]), root_law=0, **ints))
        b = ds.simulate_population(ds.GwConfig(M=np.array([[2.0]]), root_law=0,
                                               **{k: int(v) for k, v in ints.items()}))
        assert np.array_equal(a.Z, b.Z)

    @pytest.mark.parametrize("root_law", [-1, 2, np.int64(2), True])
    def test_root_type_outside_the_types_is_rejected(self, root_law):
        # At r = 2, -1 once rooted every run at type 1 and 2 failed inside the simulation.
        with pytest.raises(ValueError, match="root type must lie in 0..1|probability vector"):
            ds.GwConfig(M=np.eye(2), root_law=root_law)
        assert ds.GwConfig(M=np.eye(2), root_law=1).root_vector().tolist() == [0.0, 1.0]

    def test_determinism(self):
        a = ds.simulate_population(single_type_cfg(seed=9))
        b = ds.simulate_population(single_type_cfg(seed=9))
        assert np.array_equal(a.Z, b.Z)

    @pytest.mark.parametrize("root_law, cap", [(0, 10**6), ([0.3, 0.7], 10**6), ([0.5, 0.5], 40)])
    def test_matches_a_run_major_loop(self, root_law, cap):
        cfg = ds.GwConfig(M=np.array([[2.5, 0.5], [0.5, 2.0]]), root_law=root_law, depth=6,
                          runs=500, seed=5, cap=cap)
        capped = assert_matches_run_major_loop(cfg)
        assert capped.any() == (cap == 40)

    def test_a_frozen_run_stays_frozen_after_the_others_shrink(self):
        # Subcritical: runs capped early face later generations that are all
        # small, where no fresh draw may replace their frozen state.
        cfg = ds.GwConfig(M=np.array([[0.6]]), root_law=0, depth=6, runs=10, seed=3, cap=1)
        assert assert_matches_run_major_loop(cfg).any()


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

    @pytest.mark.parametrize("depth", [-1, 5])
    def test_values_reject_a_depth_outside_the_sample(self, depth):
        sample = ds.simulate_population(single_type_cfg(depth=4, runs=10))
        with pytest.raises(ValueError):
            ds.martingale_values(sample, np.array([1.0]), 3.0, depth=depth)


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

    def test_unequal_prior_matches_deep_recursion(self):
        # M = diag(pi) W is not symmetric here, so the solve must use M^T as the recursion does.
        prof = ds.derive_spectral_profile(ds.SbmParams(
            r=2, W=np.array([[8.0, 1.0], [1.0, 5.0]]), pi=np.array([0.3, 0.7]), n=2000))
        phi, mu = prof.phi[1], float(prof.mu[1])
        c2, m2, _, _ = ds.moment_closed_forms(prof, phi, mu)
        c2_deep, m2_deep = ds.finite_depth_second_moments(prof, phi, mu, depth=200)
        np.testing.assert_allclose(m2, m2_deep, rtol=0, atol=1e-9)
        np.testing.assert_allclose(c2, c2_deep, rtol=0, atol=1e-9)

    def test_subcritical_raises(self, below_threshold_params):
        prof = ds.derive_spectral_profile(below_threshold_params)
        with pytest.raises(SingularSystem):
            ds.moment_closed_forms(prof, prof.phi[1], 1.0)

    def test_irregular_model_between_alpha_and_spectral_radius_is_singular(self):
        # alpha = 10.4 < mu2^2 = 10.712 < rho(M) = 11.073: second moments diverge
        # with depth, so no closed form exists even though mu2^2 exceeds alpha.
        prof = ds.derive_spectral_profile(ds.SbmParams(
            r=2, W=np.array([[1.0, 13.0], [13.0, 18.0]]), pi=np.array([0.6, 0.4]), n=2000))
        phi, mu = prof.phi[1], float(prof.mu[1])
        assert prof.column_sums.mean() < mu**2 < prof.mu[0]
        with pytest.raises(SingularSystem):
            ds.moment_closed_forms(prof, phi, mu)
        with pytest.raises(SingularSystem):
            ds.finite_depth_second_moments(prof, phi, mu, depth=50)
        with pytest.raises(SingularSystem):
            ds.cumulant_relation_check(prof, phi, mu, order=2, runs=100, seed=1)

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

    @pytest.mark.parametrize("kwargs", [{"depth": 0}, {"runs": 2}], ids=["depth-0", "two-runs"])
    def test_rejects_inputs_without_a_standard_error(self, two_type_profile, kwargs):
        with pytest.raises(ValueError):
            ds.cumulant_relation_check(two_type_profile, two_type_profile.phi[1], 2.0,
                                       **{"runs": 500, **kwargs})

    @pytest.mark.parametrize("kind, order, cap", [
        ("two", 1, None), ("two", 2, None), ("two", 3, None), ("three", 2, None),
        ("three", 3, None), ("skew", 2, None), ("skew", 3, None), ("two", 2, 10**4)])
    def test_bootstrap_matches_the_resample_loop(self, two_type_profile, three_type_profile,
                                                 monkeypatch, kind, order, cap):
        # "skew" has unequal block sizes, so M is not symmetric.
        skew = ds.SbmParams(r=2, W=np.array([[8.0, 1.0], [1.0, 5.0]]),
                            pi=np.array([0.3, 0.7]), n=2000)
        profile = {"two": two_type_profile, "three": three_type_profile,
                   "skew": ds.derive_spectral_profile(skew)}[kind]
        r = profile.M.shape[0]
        phi, mu = profile.phi[1], float(profile.mu[1])
        resamples = 1000
        if cap is not None:
            monkeypatch.setattr(gw, "GwConfig", functools.partial(ds.GwConfig, cap=cap))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PopulationCapHit)
                kept = [len(x) for x, _ in gw._matched_depths(profile, phi, mu, 3000, 7, 8)]
            assert len(set(kept)) == r and max(kept) < 3000  # unequal, all capped some
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PopulationCapHit)
            got = ds.cumulant_relation_check(profile, phi, mu, order, runs=3000, seed=7)
            want = _oracle_cumulant_check(profile, phi, mu, order, 3000, 7,
                                          bootstrap=resamples)
        # The closed form is the bootstrap's large-B limit; a B-resample
        # s.e. carries relative noise about 1/sqrt(2B), and 4 of it is allowed.
        np.testing.assert_allclose(got.stderr, want.stderr, rtol=4 / np.sqrt(2 * resamples),
                                   atol=0)
        assert got.max_z == (np.abs(got.residual) / got.stderr).max()
        if kind == "skew":  # the recursion reads columns of M, which differ from its rows here
            assert got.max_z <= 3.0
        for field in ("order", "cumulants", "predicted", "residual", "residual_inf"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestGenerationLoop:
    """The branching checks read the simulator's generations without its history."""

    @pytest.mark.parametrize("kind, cap", [("two", 10**7), ("two", 10**4), ("three", 10**7),
                                           ("three", 10**5)])
    def test_checks_see_the_simulated_values(self, two_type_profile, three_type_profile,
                                             monkeypatch, kind, cap):
        profile = {"two": two_type_profile, "three": three_type_profile}[kind]
        r = profile.M.shape[0]
        phi, mu = profile.phi[1], float(profile.mu[1])
        cfg = ds.GwConfig(M=profile.M, root_law=np.full(r, 1.0 / r), depth=8, runs=2000,
                          seed=3, cap=cap)
        monkeypatch.setattr(gw, "GwConfig", functools.partial(ds.GwConfig, cap=cap))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PopulationCapHit)
            sample = ds.simulate_population(cfg)
            mart = ds.martingale_limit_check(cfg, phi, mu)
            deep, shallow = zip(*gw._matched_depths(profile, phi, mu, 2000, 5, 8))
            roots = [ds.simulate_population(ds.GwConfig(
                M=profile.M, root_law=i, depth=8, runs=2000, cap=cap,
                seed=ds.derive_seed(5, f"gw-root-{i}"))) for i in range(r)]
        assert sample.capped.any() == (cap < 10**7) and not sample.capped.all()
        assert mart.capped_runs == sample.capped.sum()
        X = ds.martingale_values(sample, phi, mu)
        assert np.array_equal(mart.X, X[sample.ok])
        for i, root in enumerate(roots):
            assert np.array_equal(deep[i], ds.martingale_values(root, phi, mu)[root.ok])
            assert np.array_equal(shallow[i],
                                  ds.martingale_values(root, phi, mu, depth=7)[root.ok])

    def test_cap_is_warned_once_per_simulation(self, two_type_profile):
        phi, mu = two_type_profile.phi[1], 2.0
        cfg = ds.GwConfig(M=two_type_profile.M, root_law=0, depth=8, runs=500, seed=1, cap=10**3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds.martingale_limit_check(cfg, phi, mu)
            ds.simulate_population(cfg)
        assert [type(w.message) for w in caught] == [PopulationCapHit] * 2

    def test_no_full_history_is_held(self, two_type_profile):
        # At most three (runs, r) int64 arrays' worth: one generation, advanced
        # in place, plus per-run vectors.  A fresh array per draw peaked at 3.6
        # of them, and the cumulant check's X of every root type at once at 5.2.
        phi, mu = two_type_profile.phi[1], float(two_type_profile.mu[1])
        runs, depth = 2 * 10**4, 8
        cfg = ds.GwConfig(M=two_type_profile.M, root_law=np.array([0.5, 0.5]), depth=depth,
                          runs=runs, seed=1)
        generations = 3 * runs * 2 * 8
        checks = {"martingale": lambda: ds.martingale_limit_check(cfg, phi, mu),
                  "cumulant": lambda: ds.cumulant_relation_check(two_type_profile, phi, mu,
                                                                 runs=runs, depth=depth)}
        peaks = {}
        for name, check in checks.items():
            check()  # first-call allocations are not the check's working set
            tracemalloc.start()
            try:
                check()
                peaks[name] = tracemalloc.get_traced_memory()[1] / generations
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= 1, peaks

    def test_martingale_needs_two_uncapped_runs(self):
        with pytest.raises(ValueError, match="at least 2 uncapped runs"):
            ds.martingale_limit_check(single_type_cfg(runs=1), np.array([1.0]), 3.0)
        capped = ds.GwConfig(M=np.array([[4.0]]), root_law=0, depth=8, runs=20, seed=1, cap=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PopulationCapHit)
            with pytest.raises(ValueError, match="at least 2 uncapped runs"):
                ds.martingale_limit_check(capped, np.array([1.0]), 3.0)


def test_branching_stream_is_pinned(two_type_profile):
    # SHA-256 of the martingale values and of the cumulant check's arrays as
    # raw bytes, so any change to the branching draws has to be declared.
    phi, mu = two_type_profile.phi[1], 2.0
    cfg = ds.GwConfig(M=two_type_profile.M, root_law=np.array([0.3, 0.7]), depth=6,
                      runs=2000, seed=17)
    chk = ds.cumulant_relation_check(two_type_profile, phi, mu, order=2, runs=2000, seed=18,
                                     depth=6)
    h = hashlib.sha256()
    for arr in (ds.martingale_limit_check(cfg, phi, mu).X, chk.cumulants, chk.predicted,
                chk.stderr):
        h.update(f"|{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == (
        "b10b1e1dc89e02daf133fc0bacc22d9e714432a0b1a20ffd87720a747d04ea61")
