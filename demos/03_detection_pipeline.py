#!/usr/bin/env python3
"""End-to-end label recovery, from easy to impossible.

Sweeps the contrast between within-block and cross-block connectivity at
fixed mean degree.  Well above the recovery threshold the second
eigenvector of the distance matrix carries the partition and the
randomized rounding recovers a large overlap; near the threshold the signal
drowns in the size-fluctuation bulk at this scale; below it nothing is
recoverable even in principle.
"""

import warnings

import numpy as np

import distspec as ds

warnings.filterwarnings("ignore")

n = 2000
ell = 2
seeds = range(1, 6)

print(f"n = {n}, depth = {ell}, {len(list(seeds))} seeds per setting")
print(f"{'within/cross':>14} {'tau':>7} {'K':>7} {'mean overlap':>13}   regime")

for a, b in [(11.0, 1.0), (9.0, 3.0), (8.0, 4.0), (5.0, 1.0), (4.0, 2.0)]:
    params = ds.SbmParams(r=2, W=np.array([[a, b], [b, a]]),
                          pi=np.array([0.5, 0.5]), n=n)
    profile = ds.derive_spectral_profile(params)
    ovs = []
    for seed in seeds:
        sample = ds.sample_graph(params, seed)
        assignment, _ = ds.detect(sample.graph, profile, ell, seed)
        score = ds.overlap(sample.sigma, assignment.labels, params.pi)
        ovs.append(score.value)
    if profile.tau > 1:
        K = ds.explicit_K(2, profile.tau, profile.d)
        regime = "above threshold" if profile.tau > 2 else "barely above"
    else:
        K = float("nan")
        regime = "below threshold"
    print(f"{a:>7.0f}/{b:<6.0f} {profile.tau:>7.3f} {K:>7.3f} "
          f"{np.mean(ovs):>13.4f}   {regime}")

print()
print("Notes:")
print("- the rounding constant K comes from a closed form in (r, tau, d);")
print("  no tuning is involved.")
print("- near the threshold the informative eigenvalue mu2^ell sits under")
print("  the finite-size bulk (log-factor growth modes), so desk-scale")
print("  overlaps fade long before the asymptotic theory does.")
print("- below the threshold the overlap hovers at the +/- 1/sqrt(n) floor")
print("  regardless of K, as it must.")
