import itertools

import numpy as np
import pytest

import distspec as ds
from distspec import graph
from distspec.cli import _oracle_distance_matrix

from conftest import small_params


class TestShellTypeCounts:
    def test_counts_match_bfs(self):
        # The report reads its type counts off D^ell; recount them from
        # all-pairs BFS distances and project them the same way.
        for r, ell in itertools.product((2, 3), (1, 2, 3)):
            params = small_params(150, W=np.full((r, r), 1.0) + 5.0 * np.eye(r), r=r)
            prof = ds.derive_spectral_profile(params)
            sample = ds.sample_graph(params, 10 * r + ell)
            onehot = np.eye(r, dtype=np.int64)[sample.sigma]
            counts = _oracle_distance_matrix(sample.graph, ell) @ onehot
            proj = counts.astype(np.float64) @ prof.phi.T
            cross = (proj.T @ proj) / params.n
            np.fill_diagonal(cross, 0.0)
            rep = ds.local_moment_report(sample.graph, sample.sigma, prof, ell, seed=1)
            np.testing.assert_allclose(rep.diag_raw, (proj**2).mean(axis=0),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(rep.cross_raw, cross, rtol=1e-12, atol=1e-12)

    def test_rank_one_connectivity_collapses_to_shell_sizes(self):
        # With identical blocks the leading projection is just the shell
        # size over sqrt(r), so the first diagonal moment is the shell
        # second moment over r.
        params = small_params(250, W=[[3.0, 3.0], [3.0, 3.0]])
        sample = ds.sample_graph(params, 5)
        prof = ds.derive_spectral_profile(params)
        ell = 3
        rep = ds.local_moment_report(sample.graph, sample.sigma, prof, ell, seed=1)
        sizes = ds.shell_sizes_all(sample.graph, ell)[:, ell]
        expected = (sizes.astype(float) ** 2).mean() / 2.0
        assert rep.diag_raw[0] == pytest.approx(expected, rel=1e-12)
        assert rep.diag_raw[0] > 0


class TestLocalMoments:
    def test_signal_moment_near_reference(self, two_type_params, two_type_profile):
        # Normalized second moment of the signal projection sits within a
        # factor two of the reference scale 1/(r*(tau-1)).
        vals = []
        for seed in range(1, 6):
            sample = ds.sample_graph(two_type_params, seed)
            rep = ds.local_moment_report(sample.graph, sample.sigma,
                                         two_type_profile, 4, seed=seed)
            vals.append(rep.diag_norm[1])
        ref = rep.rho_reference
        assert ref == pytest.approx(1.5)
        assert all(ref / 2 <= v <= ref * 2 for v in vals)

    def test_signal_cross_terms_decay(self):
        # Two distinct informative directions: their mixed moment is an
        # order of magnitude below the geometric mean of the diagonals
        # for typical samples (asserted on the median over seeds).
        W = 3 * np.array([[3.7, 0.5, 0.8], [0.5, 3.7, 0.8], [0.8, 0.8, 3.4]])
        params = ds.SbmParams(r=3, W=W, pi=np.full(3, 1 / 3), n=2000)
        prof = ds.derive_spectral_profile(params)
        assert prof.r0 == 3 and prof.d == 1
        ratios = []
        for seed in range(1, 11):
            sample = ds.sample_graph(params, seed)
            rep = ds.local_moment_report(sample.graph, sample.sigma, prof, 3,
                                         seed=seed)
            geo = np.sqrt(rep.diag_raw[1] * rep.diag_raw[2])
            ratios.append(abs(rep.cross_raw[1, 2]) / geo)
        assert np.median(ratios) <= 0.1

    def test_alignment_above_threshold(self, strong_params, strong_profile):
        # The second eigenvector of the distance matrix tracks the signal
        # projection of shell counts in nearly every seed.
        hits = 0
        for seed in range(1, 11):
            sample = ds.sample_graph(strong_params, seed)
            rep = ds.local_moment_report(sample.graph, sample.sigma,
                                         strong_profile, 2, seed=seed)
            hits += rep.alignment[1] >= 0.5
        assert hits >= 8

    def test_one_vertex_expansion_without_eigenpairs(self, monkeypatch):
        sample = ds.sample_graph(small_params(300), 4)
        prof = ds.derive_spectral_profile(small_params(300))
        calls = []
        expand = graph._expand
        monkeypatch.setattr(graph, "_expand",
                            lambda *a, **kw: calls.append(a) or expand(*a, **kw))
        ds.local_moment_report(sample.graph, sample.sigma, prof, 3, seed=2)
        assert len(calls) == 1

    def test_report_shapes(self, three_type_params, three_type_profile):
        sample = ds.sample_graph(
            ds.SbmParams(r=3, W=three_type_params.W, pi=three_type_params.pi, n=300), 2)
        rep = ds.local_moment_report(sample.graph, sample.sigma,
                                     three_type_profile, 2, seed=3)
        assert rep.diag_raw.shape == (3,)
        assert rep.cross_raw.shape == (3, 3)
        assert np.allclose(np.diag(rep.cross_raw), 0.0)
        assert (rep.diag_raw >= 0).all()
