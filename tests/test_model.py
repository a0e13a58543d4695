import hashlib
import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distspec as ds
from distspec import model
from distspec.model import InvalidKappa, NotPositiveRegular, _skip
from distspec.util import make_rng

from conftest import small_params


class TestSpectralProfile:
    def test_two_type_example(self, two_type_profile):
        prof = two_type_profile
        assert np.allclose(prof.M, [[2.5, 0.5], [0.5, 2.5]])
        assert prof.alpha == pytest.approx(3.0)
        assert np.allclose(prof.mu, [3.0, 2.0])
        assert prof.tau == pytest.approx(4.0 / 3.0)
        assert prof.r0 == 2
        assert prof.d == 1
        assert prof.degree_regular

    def test_below_threshold_example(self, below_threshold_params):
        prof = ds.derive_spectral_profile(below_threshold_params)
        assert np.allclose(prof.mu, [3.0, 1.0])
        assert prof.tau == pytest.approx(1.0 / 3.0)
        assert prof.r0 == 1
        assert not prof.above_threshold

    def test_three_type_circulant(self, three_type_profile):
        prof = three_type_profile
        assert prof.alpha == pytest.approx(4.0)
        assert prof.mu[1] == pytest.approx(2.5)
        assert prof.d == 2
        assert prof.tau == pytest.approx(1.5625)
        assert prof.r0 == 3

    def test_leading_eigenvector_constant(self, two_type_profile):
        assert np.allclose(two_type_profile.phi[0], 1.0 / np.sqrt(2))

    def test_left_eigenvector_property(self, three_type_profile):
        prof = three_type_profile
        for k in range(3):
            resid = prof.phi[k] @ prof.M - prof.mu[k] * prof.phi[k]
            assert np.abs(resid).max() <= 1e-8

    def test_column_sums_equal_alpha_when_regular(self, two_type_profile):
        assert np.abs(two_type_profile.column_sums - two_type_profile.alpha).max() <= 1e-9

    def test_not_positive_regular(self):
        params = small_params(10, W=[[5.0, 0.0], [0.0, 5.0]])
        with pytest.raises(NotPositiveRegular):
            ds.derive_spectral_profile(params)

    def test_subcritical_flag(self):
        # A subcritical model is accepted; only choosing a depth needs alpha > 1.
        prof = ds.derive_spectral_profile(small_params(10, W=[[0.8, 0.2], [0.2, 0.8]]))
        assert prof.mu[0] <= 1.0
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            ds.choose_ell(prof, 1000)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ds.SbmParams(r=2, W=np.array([[1.0, 2.0], [3.0, 1.0]]),
                         pi=np.array([0.5, 0.5]), n=10)
        with pytest.raises(ValueError):
            ds.SbmParams(r=2, W=np.eye(2), pi=np.array([0.6, 0.5]), n=10)
        with pytest.raises(ValueError):
            ds.SbmParams(r=1, W=np.eye(1), pi=np.array([1.0]), n=10)


class TestDegreeRegularity:
    def test_regular(self, two_type_profile):
        assert two_type_profile.degree_regular
        assert np.allclose(two_type_profile.column_sums - two_type_profile.alpha, 0.0)

    def test_irregular_column_sums(self):
        prof = ds.derive_spectral_profile(small_params(10, W=[[5.0, 1.0], [1.0, 3.0]]))
        assert not prof.degree_regular
        assert np.allclose(prof.column_sums, [3.0, 2.0])

    def test_circulant_regular(self, three_type_profile):
        assert three_type_profile.degree_regular


class TestSampling:
    def test_zero_connectivity_gives_empty_graph(self):
        params = small_params(20, W=[[0.0, 0.0], [0.0, 0.0]])
        sample = ds.sample_graph(params, 3)
        assert sample.graph.m == 0

    def test_clamped_probability_forces_edge(self):
        params = small_params(2, W=[[4.0, 4.0], [4.0, 4.0]])
        sample = ds.sample_graph(params, 11)
        assert sample.graph.m == 1

    def test_edge_count_matches_mean_degree(self, two_type_params):
        # Mean degree alpha = 3 means about n*alpha/2 edges.
        counts = [ds.sample_graph(two_type_params, seed).graph.m
                  for seed in range(20)]
        target = two_type_params.n * 3.0 / 2.0
        assert abs(np.mean(counts) - target) <= 0.05 * target

    def test_determinism(self):
        params = small_params(300)
        a = ds.sample_graph(params, 17)
        b = ds.sample_graph(params, 17)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.graph.edge_array(), b.graph.edge_array())
        c = ds.sample_graph(params, 18)
        assert not np.array_equal(a.graph.edge_array(), c.graph.edge_array())

    def test_block_fractions_concentrate(self):
        params = small_params(2000)
        n = params.n
        bad = 0
        for seed in range(100):
            sigma = ds.sample_graph(params, seed).sigma
            fracs = np.bincount(sigma, minlength=2) / n
            if np.any(np.abs(fracs - 0.5) > 3 * np.sqrt(0.5 / n)):
                bad += 1
        assert bad <= 1  # 99% of seeds

    def test_sigma_in_range(self, three_type_params):
        sample = ds.sample_graph(three_type_params, 5)
        assert sample.sigma.min() >= 0
        assert sample.sigma.max() < 3


class TestChooseEll:
    def test_small_n_clamps_to_one(self, two_type_profile):
        choice = ds.choose_ell(two_type_profile, 10**4, kappa=1.0 / 12.0)
        assert choice.ell == 1
        assert choice.clamped
        assert not choice.overridden

    def test_override_passthrough(self, two_type_profile):
        choice = ds.choose_ell(two_type_profile, 10**4, override=4)
        assert choice.ell == 4
        assert choice.overridden
        assert ds.choose_ell(two_type_profile, 10**4, override=np.int64(4)) == choice

    def test_exact_power(self, two_type_profile):
        choice = ds.choose_ell(two_type_profile, 3**60, kappa=1.0 / 12.0)
        assert choice.ell == 5
        assert not choice.clamped

    def test_invalid_kappa(self, two_type_profile):
        with pytest.raises(InvalidKappa):
            ds.choose_ell(two_type_profile, 1000, kappa=0.0)

    @pytest.mark.parametrize("override", [None, 3])
    @pytest.mark.parametrize("kappa", [-1.0, np.inf, np.nan])
    def test_kappa_must_be_positive_and_finite(self, two_type_profile, kappa, override):
        # With an override too, as kappa_in_regime reads it.
        with pytest.raises(InvalidKappa, match="kappa must be a positive, finite real number"):
            ds.choose_ell(two_type_profile, 1000, kappa=kappa, override=override)

    @pytest.mark.parametrize("override", [0, -2, 2.5, True, 4.0, "4"])
    def test_override_must_be_an_integer_of_at_least_one(self, two_type_profile, override):
        with pytest.raises(ValueError, match="depth ell must be an integer >= 1"):
            ds.choose_ell(two_type_profile, 1000, override=override)

    @pytest.mark.parametrize("W, ell", [([[3.0, 0.5], [0.5, 0.0]], 2),
                                        ([[3.8, 0.01], [0.01, 0.01]], 1)], ids=["W0", "W1"])
    def test_irregular_depth_reads_spectral_radius(self, W, ell):
        # The mean column sum is at most 1 in both (1.0 and 0.9575), but balls
        # grow at rho(M) = mu1 > 1, and the depth reads that.
        prof = ds.derive_spectral_profile(small_params(100, W=W))
        assert prof.column_sums.mean() <= 1.0 < prof.mu[0] == prof.alpha
        assert ds.choose_ell(prof, 10**6).ell == ell == int(np.log(10**6) / 13 / np.log(prof.mu[0]))

    def test_alpha_at_or_below_one_is_rejected(self):
        prof = ds.derive_spectral_profile(small_params(100, W=[[1.2, 0.4], [0.4, 1.2]]))
        assert prof.alpha == pytest.approx(0.8)
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            ds.choose_ell(prof, 10**6)

    def test_irregular_growth_is_spectral_radius(self):
        # Balls grow at rho(M) = 2.725 here, not at the mean column sum 2.167.
        prof = ds.derive_spectral_profile(ds.SbmParams(
            r=3, W=np.array([[6.0, 2.0, 0.0], [2.0, 4.0, 1.0], [0.0, 1.0, 3.0]]),
            pi=np.array([0.4, 0.3, 0.3]), n=1000))
        rho = float(prof.mu[0])
        assert not prof.degree_regular and prof.column_sums.mean() == pytest.approx(2.1667, abs=1e-4)
        assert prof.alpha == rho == pytest.approx(2.7252, abs=1e-4)
        assert ds.choose_ell(prof, 10**6, kappa=1.0).ell == 13 == int(np.log(10**6) / np.log(rho))
        # The bulk scale of the separation check is rho(M)^(ell/2).
        ell, vec = 4, np.ones(3) / np.sqrt(3)
        pairs = [ds.EigenPair(rho**ell, vec, 0.0), ds.EigenPair(rho ** (ell / 2), vec, 0.0)]
        assert ds.separation_report(pairs, prof, ell).bulk_ratio == pytest.approx(1.0)

    def test_regime_flag(self, two_type_profile):
        assert ds.choose_ell(two_type_profile, 10**6, kappa=1.0 / 13.0).kappa_in_regime
        assert not ds.choose_ell(two_type_profile, 10**6, kappa=0.5).kappa_in_regime


GRAPH_DOC = {"n": 10, "r": 2, "seed": 0, "types": [0, 1] * 5, "edges": [[2, 7], [3, 9]]}


class TestGraphJson:
    def test_round_trip(self, two_type_params):
        params = small_params(50)
        sample = ds.sample_graph(params, 9)
        doc = ds.sample_to_json(sample, params.r)
        assert set(doc) == {"n", "r", "seed", "types", "edges"}
        assert all(u < v for u, v in doc["edges"])
        back = ds.sample_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(back.sigma, sample.sigma)
        assert back.graph.edge_set() == sample.graph.edge_set()

    @pytest.mark.parametrize("types", [[0, -1, 1, 1], [0, 1, 2, 1], [0, 1, 0], [0, 1, 0, 1, 1], 1],
                             ids=["negative", "r", "short", "long", "scalar"])
    def test_rejects_types_outside_r(self, types):
        doc = {"n": 4, "r": 2, "seed": 0, "types": types, "edges": [[0, 1]]}
        with pytest.raises(ValueError, match="types"):
            ds.sample_from_json(doc)

    @pytest.mark.parametrize("read", [
        lambda: ds.sample_from_json({**GRAPH_DOC, "n": 10.9}),
        lambda: ds.sample_from_json({**GRAPH_DOC, "n": "10"}),
        lambda: ds.sample_from_json({**GRAPH_DOC, "edges": [[2.9, 7]]}),
        lambda: ds.sample_from_json({**GRAPH_DOC, "edges": [[True, 5]]}),
        lambda: ds.sample_from_json({**GRAPH_DOC, "edges": [["3", "9"]]}),
        lambda: ds.sample_from_json({**GRAPH_DOC, "types": [0.7] + [1] * 9}),
        lambda: ds.sample_from_json({**GRAPH_DOC, "seed": 1.5}),
        lambda: ds.Perturbation.from_json({"gamma": 2, "add": [[0.5, 3]]}),
        lambda: ds.Perturbation.from_json({"gamma": 2.5, "add": [[1, 3]]}),
        lambda: ds.Perturbation.from_json({"gamma": True}),
        lambda: ds.SparseGraph.from_edges(5, [(0.5, 2)]),
        lambda: ds.SparseGraph.from_edges(5, [(True, 2)]),
        lambda: ds.SparseGraph.from_edges(2.5, [(0, 1)]),
        lambda: small_params(10.5),
        lambda: ds.SbmParams(r=2.5, W=np.eye(2), pi=np.array([0.5, 0.5]), n=10),
    ], ids=["n-float", "n-string", "edge-float", "edge-bool", "edge-strings", "type-float",
            "seed-float", "edit-float", "gamma-float", "gamma-bool", "from-edges-float",
            "from-edges-bool", "from-edges-n-float", "params-n-float", "params-r-float"])
    def test_rejects_numbers_that_are_not_integers(self, read):
        # None of these may be cast to an int, which reads 10.9 as 10 and true as 1;
        # unchecked, from_edges read (True, 2) as edge (1, 2), n = 2.5 built a
        # 2-vertex graph and r = 2.5 failed as "W must be 2.5x2.5".
        with pytest.raises(ValueError, match="integer"):
            read()

    def test_rejects_weighted_edge_rows(self):
        doc = {"n": 4, "r": 2, "seed": 0, "types": [0, 1, 0, 1], "edges": [[0, 1, 1], [2, 3, 1]]}
        with pytest.raises(ValueError, match=r"edges must be \(u, v\) rows"):
            ds.sample_from_json(doc)


def full_coin_sweep(params, seed):
    """Reference sampler: one uniform for every ordered pair, drawn row-major
    in row blocks after the types; the hits with u < v are the edges."""
    rng = make_rng(seed)
    n, r = params.n, params.r
    sigma = rng.choice(r, size=n, p=params.pi)
    prob = np.minimum(params.W / n, 1.0)
    block = max(1, (1 << 22) // n)
    chunks = []
    for start in range(0, n, block):
        stop = min(start + block, n)
        p_rows = prob[np.ix_(sigma[start:stop], sigma)]
        hits = rng.random((stop - start, n)) < p_rows
        rows, cols = np.nonzero(hits)
        rows = rows + start
        keep = cols > rows
        if keep.any():
            chunks.append(np.stack([rows[keep], cols[keep]], axis=1))
    if chunks:
        edges = np.concatenate(chunks, axis=0)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return sigma, ds.SparseGraph.from_edges(n, edges)


@st.composite
def sbm_models(draw):
    """r in {2, 3}, non-uniform pi (zero weights allowed), n from r to 300,
    and W entries that are zero, moderate, or clamped (W / n >= 1)."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 300))
    weights = draw(st.lists(st.integers(0, 9), min_size=r, max_size=r).filter(any))
    entry = st.one_of(st.just(0.0), st.floats(0.5, 30.0), st.floats(float(n), 3.0 * n))
    W = np.zeros((r, r))
    for a in range(r):
        for b in range(a, r):
            W[a, b] = W[b, a] = draw(entry)
    return ds.SbmParams(r=r, W=W, pi=np.array(weights, float) / sum(weights), n=n)


def sample_arrays(sample):
    return sample.sigma, sample.graph.indptr, sample.graph.indices


def stream_digest(sample):
    h = hashlib.sha256()
    for a in sample_arrays(sample):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestSamplerStream:
    """The sampler draws only the upper-triangle coins but must reproduce
    the full row-major coin sweep bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(sbm_models(), st.integers(0, 2**64 - 1), st.integers(1, 400),
           st.sampled_from(["none", "one", "half", "all"]))
    def test_matches_full_coin_sweep(self, params, seed, group_coins, drawn):
        # Small row groups exercise the group boundaries at small n; the rows
        # drawn whole run from none, through one and about half, to all.
        through = {"none": 0, "one": 1, "half": params.n // 2, "all": params.n}[drawn]
        with mock.patch.object(model, "_COIN_ENTRIES", group_coins), \
                mock.patch.object(model, "_DRAW_THROUGH", through):
            sample = ds.sample_graph(params, seed)
        sigma, graph = full_coin_sweep(params, seed)
        for got, want in zip(sample_arrays(sample), (sigma, graph.indptr, graph.indices)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 40))
    def test_skip_lands_where_drawing_through_would(self, before, k):
        ref = np.random.Philox(key=3).random_raw(before + k + 6)
        bitgen = np.random.Philox(key=3)
        bitgen.random_raw(before)
        _skip(bitgen, before, k)
        assert np.array_equal(bitgen.random_raw(6), ref[before + k:])

    def test_clamped_blocks_are_complete_and_zero_blocks_empty(self):
        # W / n >= 1 inside block 0, zero between blocks and inside block 1.
        params = ds.SbmParams(r=2, W=np.array([[90.0, 0.0], [0.0, 0.0]]),
                              pi=np.array([0.4, 0.6]), n=61)
        sample = ds.sample_graph(params, 5)
        inside = np.flatnonzero(sample.sigma == 0)
        expected = {(int(u), int(v)) for u in inside for v in inside if u < v}
        assert sample.graph.edge_set() == expected

    def test_peak_allocation_stays_near_one_row_group(self):
        # One 2 MB group of coins at n = 3,000; an 8 MB group peaked at 8.5 MB.
        params = small_params(3000)
        ds.sample_graph(params, 1)  # first-call allocations are not the sampler's
        tracemalloc.start()
        try:
            ds.sample_graph(params, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, peak

    @pytest.mark.parametrize("W, n, seed, digest", [
        ([[11.0, 1.0], [1.0, 11.0]], 4000, 1,
         "46337e664d12a98b15842ec8e1797ab8d9b7807bd8a799a4682ea3a98a44e3e8"),
        ([[5.0, 1.0], [1.0, 5.0]], 3000, 1,
         "3aaa351e0c492d64c0fc3a42a2b0c8136776374e35abf8e3b6429b95712ab0f8"),
        ([[5.0, 1.0], [1.0, 5.0]], 500, 1,
         "11ecd03881c120f1ceac920b51a0c8382a00f7e04b9664935cdba437dcb6ee85"),
        ([[5.0, 1.0], [1.0, 5.0]], 500, 2,
         "51f17fb0048ea1d2b6254d206fac68cb9f08f9131aa007c71d4a49b308a48ae9"),
    ])
    def test_benchmark_graphs_keep_their_stream(self, W, n, seed, digest):
        # SHA-256 of (sigma, indptr, indices) with dtypes: any change to the
        # sampler's RNG stream fails here and needs a sampler version bump.
        assert stream_digest(ds.sample_graph(small_params(n, W=W), seed)) == digest


class TestSamplerLaw:
    """The sampled graph follows its law: given the types, the pair {u, v}
    is an edge independently with probability p = min(W[a, b] / n, 1).

    Each test pools four fixed seeds and compares a statistic with its exact
    law given the types.  The thresholds put each test's false-alarm rate
    below 1e-4 under the normal approximation (|z| <= 4.5 on each of at most
    six block pairs; the chi-square at its 1e-5 upper quantile for each
    type), so a failure means the sampler left the law: a 5 % error in p or
    an endpoint bias of a few per cent toward low ids fails them."""

    SEEDS = (1, 2, 3, 4)
    MODELS = {  # three blocks with an empty one; a complete block, W / n >= 1
        "sparse": ds.SbmParams(r=3, W=np.array([[60.0, 20.0, 0.0], [20.0, 40.0, 10.0],
                                                [0.0, 10.0, 30.0]]),
                               pi=np.array([0.4, 0.3, 0.3]), n=3000),
        "clamped": ds.SbmParams(r=2, W=np.array([[900.0, 30.0], [30.0, 50.0]]),
                                pi=np.array([0.2, 0.8]), n=600),
    }

    @pytest.fixture(scope="class", params=sorted(MODELS))
    def samples(self, request):
        params = self.MODELS[request.param]
        return params, [ds.sample_graph(params, seed) for seed in self.SEEDS]

    @staticmethod
    def block_pairs(params, sample):
        """Per block pair a <= b: (a, b, its pair count N, p, the block
        sizes, and its edges as the (E, 2) ranks of their endpoints within
        their blocks)."""
        sigma, n = sample.sigma, params.n
        rank = np.empty(n, dtype=np.int64)
        sizes = np.bincount(sigma, minlength=params.r)
        for a in range(params.r):
            rank[sigma == a] = np.arange(sizes[a])
        edges = sample.graph.edge_array()
        ends = np.sort(sigma[edges], axis=1)
        for a, b in itertools.combinations_with_replacement(range(params.r), 2):
            N = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            p = min(params.W[a, b] / n, 1.0)
            mine = edges[(ends[:, 0] == a) & (ends[:, 1] == b)]
            yield a, b, N, p, sizes, rank[mine]

    def test_block_pair_edge_counts_are_binomial(self, samples):
        params, drawn = samples
        total = {}
        for sample in drawn:
            for a, b, N, p, _, ranks in self.block_pairs(params, sample):
                count, mean, var = total.get((a, b), (0, 0.0, 0.0))
                total[a, b] = (count + len(ranks), mean + N * p, var + N * p * (1 - p))
        for (a, b), (count, mean, var) in total.items():
            if var == 0:  # p = 0 or a complete block, clamped from p >= 1
                assert count == mean, (a, b)
            else:
                assert abs(count - mean) <= 4.5 * np.sqrt(var), (a, b, count, mean)

    def test_endpoints_are_uniform_within_blocks(self, samples):
        # Given its edge count E, a block pair's edge set is a uniform E-subset
        # of its N pairs, so the mean over edges of the endpoints' rank sum
        # is that of a sample drawn without replacement from all N pairs.
        params, drawn = samples
        total = {}
        for sample in drawn:
            for a, b, N, p, sizes, ranks in self.block_pairs(params, sample):
                E = len(ranks)
                if E == 0 or E == N:
                    continue
                if a == b:  # two distinct ranks of one block
                    s2 = (sizes[a] ** 2 - 1) / 12
                    mean, var = sizes[a] - 1.0, 2 * s2 * (sizes[a] - 2) / (sizes[a] - 1)
                else:
                    mean = (sizes[a] - 1) / 2 + (sizes[b] - 1) / 2
                    var = (sizes[a] ** 2 - 1) / 12 + (sizes[b] ** 2 - 1) / 12
                dev, v = total.get((a, b), (0.0, 0.0))
                total[a, b] = (dev + ranks.sum() - E * mean, v + E * var * (N - E) / (N - 1))
        assert total
        for (a, b), (dev, var) in total.items():
            assert abs(dev) <= 4.5 * np.sqrt(var), (a, b, dev / np.sqrt(var))

    def test_degrees_follow_the_sum_of_binomials(self, samples):
        # A type-a vertex has Binomial(n_b - [a = b], p_ab) neighbours in each
        # block b.  Degrees are pooled over the seeds into about 20 bins of
        # near-equal probability under the first seed's law.
        from scipy import stats

        params, drawn = samples
        for a in range(params.r):
            cuts, observed, expected = None, 0, 0
            for sample in drawn:
                sizes = np.bincount(sample.sigma, minlength=params.r)
                pmf = np.ones(1)
                for b in range(params.r):
                    trials, p = sizes[b] - (a == b), min(params.W[a, b] / params.n, 1.0)
                    pmf = np.convolve(pmf, stats.binom.pmf(np.arange(trials + 1), trials, p))
                if cuts is None:
                    cuts = np.unique(np.searchsorted(np.cumsum(pmf), np.linspace(0, 1, 21)[1:-1]))
                degrees = np.diff(sample.graph.indptr)[sample.sigma == a]
                observed = observed + np.bincount(np.searchsorted(cuts, degrees, side="right"),
                                                  minlength=len(cuts) + 1)
                expected = expected + sizes[a] * np.bincount(
                    np.searchsorted(cuts, np.arange(len(pmf)), side="right"), weights=pmf,
                    minlength=len(cuts) + 1)
            chi2 = float(((observed - expected) ** 2 / expected).sum())
            assert chi2 <= stats.chi2.isf(1e-5, len(cuts)), (a, chi2, len(cuts) + 1)
