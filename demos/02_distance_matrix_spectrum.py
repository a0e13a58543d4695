#!/usr/bin/env python3
"""The distance matrix, the path-count matrix, and where they differ.

Builds both matrices on toy graphs to show the exact semantics, then on a
sampled sparse graph to show the spectral picture: the top eigenvalue
tracks mean growth, the difference matrix is supported near cycles, and
its spectral radius stays under the shell-size bound computed per cycle.
"""

import warnings

import numpy as np

import distspec as ds

warnings.filterwarnings("ignore", category=ds.CapSaturated)

print("Toy graphs first.")
path = ds.SparseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
print("path 0-1-2-3, depth 2: distance pairs =",
      [(int(i), int(j)) for i, j, _ in ds.distance_matrix(path, 2).entries()])

square = ds.SparseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
b2 = ds.path_expansion_matrix(square, 2)
d2 = ds.distance_matrix(square, 2)
print("4-cycle, depth 2: opposite corners have two self-avoiding routes "
      f"(count {b2.to_dense()[0, 2]:.0f}) but a single distance indicator "
      f"({d2.to_dense()[0, 2]:.0f})")
delta = ds.delta_matrix(b2, d2)
print("difference matrix entries:", delta.entries().tolist())

print("\nNow a sparse two-block sample, n = 500, depth 3.")
params = ds.SbmParams(r=2, W=np.array([[5.0, 1.0], [1.0, 5.0]]),
                      pi=np.array([0.5, 0.5]), n=500)
profile = ds.derive_spectral_profile(params)
sample = ds.sample_graph(params, seed=7)
ell = 3

dl = ds.distance_matrix(sample.graph, ell)
print(f"distance matrix nonzeros: {dl.nnz}")
pairs = ds.top_eigenpairs(dl, sample.graph.n, k=4, seed=1)
print(f"top eigenvalues: {[round(p.value, 2) for p in pairs]}")
print(f"predicted scales: mu1^ell = {profile.mu[0]**ell:.0f}, "
      f"mu2^ell = {profile.mu[1]**ell:.0f}, "
      f"bulk alpha^(ell/2) = {profile.alpha**(ell/2):.1f} (log factors apply)")
# detect() solves only the r0 pairs it rounds, so the bulk goes unmeasured
# there; these four pairs reach past r0, so this report measures it too.
sep = ds.separation_report(pairs, profile, ell)
print(f"informative ratios lambda_k / mu_k^ell: {np.round(sep.ratios, 2).tolist()} "
      f"(within [0.1, 10]: {sep.informative_ok})")
print(f"first bulk eigenvalue / alpha^(ell/2) = {sep.bulk_ratio:.2f} "
      f"(under log(n)^2 = {np.log(sample.graph.n)**2:.1f}: {sep.bulk_ok})")

tf, offenders = ds.tangle_free_check(sample.graph, ell)
print(f"\nevery radius-{ell} ball cycle-sparse: {tf} "
      f"({len(offenders)} vertices see more than one cycle)")

report = ds.delta_radius_check(sample.graph, ell, alpha=profile.alpha)
print(f"spectral radius of (path counts - distance indicators): {report.rho:.2f}")
print(f"  max per-cycle shell bound: {report.cycle_bound:.2f} "
      f"({report.n_cycles} cycles)")
print(f"  log-scaled growth bound:   {report.log_bound:.2f}")
print(f"  dominated: {report.rho <= report.cycle_bound <= report.log_bound * 10}")

max_ratio, mass = ds.shell_growth_report(sample.graph, ell, alpha=profile.alpha)
print(f"\nshell growth: max S_t(v)/alpha^t = {max_ratio:.2f}; "
      f"sum of squared top shells / (n alpha^(2 ell)) = "
      f"{mass / (sample.graph.n * profile.alpha**(2 * ell)):.2f}")
