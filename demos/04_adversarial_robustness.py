#!/usr/bin/env python3
"""How far can an adversary push the spectrum by touching few vertices?

An adversary of strength gamma may rewire edges at will as long as at
most gamma vertices are endpoints of altered edges.  Planted cliques are
the classic instance.  Two sides are measured here:

- stability: the spectral change of the distance matrix is bounded by a
  small matrix built from the shell sizes around the touched set, and in
  the safe regime the recovered overlap barely moves;
- attack: a vertex set with a large common sphere carries a sparse test
  vector whose quadratic form is big while staying nearly orthogonal to
  the informative eigenvectors - the seed of a rogue eigenvalue.
"""

import warnings

import numpy as np

import distspec as ds

warnings.filterwarnings("ignore")

params = ds.SbmParams(r=2, W=np.array([[11.0, 1.0], [1.0, 11.0]]),
                      pi=np.array([0.5, 0.5]), n=2000)
profile = ds.derive_spectral_profile(params)
ell = 2
seed = 1
sample = ds.sample_graph(params, seed)
dl = ds.distance_matrix(sample.graph, ell)

safe, breaking = ds.robustness_budget(profile, ell, params.n)
print(f"strength frontiers at depth {ell}: safe ~ tau^ell/ln n = {safe:.2f}, "
      f"breaking ~ tau^ell = {breaking:.2f}")

base_assignment, _ = ds.detect(sample.graph, profile, ell, seed, dl=dl)
base = ds.overlap(sample.sigma, base_assignment.labels, params.pi).value
print(f"baseline overlap: {base:.4f}\n")

print(f"{'gamma':>6} {'edges+':>7} {'rho(change)':>12} {'shell bound':>12} "
      f"{'overlap':>9}")
for gamma in (2, 4, 8, 16, 32):
    perturbed, p = ds.plant_clique(sample.graph, gamma,
                                   ds.derive_seed(seed, f"clique{gamma}"))
    perturbed_dl = ds.distance_matrix(perturbed, ell)
    diff = ds.difference_matrix(perturbed_dl, dl)
    rho = 0.0
    if diff.nnz:
        top = ds.top_eigenpairs(diff, params.n, 2, seed=3)
        rho = max(abs(q.value) for q in top)
    bound = ds.qk_bound(sample.graph, sorted(p.affected), ell) if p.affected else 0.0
    assignment, _ = ds.detect(perturbed, profile, ell, seed, dl=perturbed_dl)
    ov = ds.overlap(sample.sigma, assignment.labels, params.pi).value
    print(f"{gamma:>6} {len(p.added_edges):>7} {rho:>12.2f} {bound:>12.2f} "
          f"{ov:>9.4f}")

print("\nThe measured spectral change never exceeds the shell-size bound,")
print("and the overlap stays near the baseline until the edit is large.")

print("\nRogue certificate (the attack direction):")
# At high contrast the breaking budget outgrows every hub degree, so the
# witness is built at a weaker-contrast profile where tau^ell is small.
w_params = ds.SbmParams(r=2, W=np.array([[5.0, 1.0], [1.0, 5.0]]),
                        pi=np.array([0.5, 0.5]), n=2000)
w_profile = ds.derive_spectral_profile(w_params)
w_ell = 3
w_sample = ds.sample_graph(w_params, seed)
_, w_breaking = ds.robustness_budget(w_profile, w_ell, w_params.n)
gamma = int(np.ceil(w_breaking))
cert = ds.build_rogue_certificate(w_sample.graph, w_profile, w_ell, gamma, seed=seed)
print(f"tau = {w_profile.tau:.3f}, depth {w_ell}: breaking scale "
      f"tau^ell = {w_breaking:.2f} -> gamma = {gamma}")
print(f"set of {cert.gamma} co-neighbors of a hub, common sphere of size "
      f"{cert.shell_size}")
print(f"quadratic-form value = {cert.rayleigh:.2f} "
      f"(closed form sqrt(gamma * shell) = {cert.closed_form / 2:.2f}, "
      f"mu2^ell = {w_profile.mu[1]**w_ell:.0f})")
print(f"cosines against the informative eigenvectors: "
      f"{np.abs(cert.cosines).round(3)} (localized, nearly orthogonal)")
print("A value of this size orthogonal to the signal directions means the")
print("ordering of the top eigenvectors can no longer be trusted once the")
print("adversary's budget reaches the breaking scale.")
