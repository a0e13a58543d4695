#!/usr/bin/env python3
"""Walk through the generative model and its derived constants.

Defines a two-block model, derives the quantities that control whether
the hidden partition is recoverable, samples a graph, and checks the
empirical degree and block statistics against their targets.
"""

import numpy as np

import distspec as ds

params = ds.SbmParams(
    r=2,
    W=np.array([[5.0, 1.0], [1.0, 5.0]]),  # per-n edge weights
    pi=np.array([0.5, 0.5]),
    n=2000,
)
profile = ds.derive_spectral_profile(params)

print("Mean progeny matrix M = diag(pi) W:")
print(profile.M)
print(f"eigenvalues mu = {profile.mu}")
print(f"growth rate alpha = rho(M) = {profile.alpha} (the mean degree here)")
print(f"signal-to-noise ratio tau = mu2^2/mu1 = {profile.tau:.4f}")
print(f"informative eigenvalue count r0 = {profile.r0} "
      f"(recovery is possible when r0 > 1: {profile.above_threshold})")
print(f"multiplicity of |mu2|: d = {profile.d}")
print(f"degree regular: {profile.degree_regular}")
print(f"left eigenvectors (rows):\n{profile.phi}")

print(f"column-sum residuals: {profile.column_sums - profile.alpha}")

print("\nSampling one graph (seeded, byte-reproducible)...")
sample = ds.sample_graph(params, seed=1)
g = sample.graph
print(f"n = {g.n}, edges = {g.m} (target n*alpha/2 = {params.n * 3 / 2:.0f})")
fracs = np.bincount(sample.sigma) / g.n
print(f"block fractions = {fracs} (target {params.pi})")
degrees = np.array([g.degree(v) for v in range(g.n)])
print(f"mean degree = {degrees.mean():.3f} (target alpha = 3), max = {degrees.max()}")

choice = ds.choose_ell(profile, params.n, kappa=1.0 / 13.0)
print(f"\nDepth from the kappa rule: ell = {choice.ell} "
      f"(clamped: {choice.clamped}; at this size the rule bottoms out, so "
      f"experiments usually pass an explicit depth)")

print("\nSame seed, same graph:",
      ds.sample_graph(params, seed=1).graph.edge_set() == g.edge_set())
