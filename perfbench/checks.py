"""Correctness checks on distspec outputs, independent of its RNG streams.

Each check returns a list of failure messages (empty when it passes).
They use scipy's graph routines and plain linear algebra, never the
package's own traversals, so a wrong rewrite of a traversal fails them.
"""

from __future__ import annotations

import csv
import io
import itertools

import numpy as np
from scipy.sparse.csgraph import connected_components, shortest_path

# The sweep CSV layout the records must keep, written out here rather than
# imported from distspec.cli so that a change to it fails the check.
CSV_VERSION = "# distspec-records v1"
CSV_HEADER = ("seed,n,r,ell,gamma,overlap,lambda1,lambda2,lambda3,lambda4,"
              "qk_bound,rogue_rayleigh,ms_build,ms_eig,ms_label")


def sample_vertices(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.choice(n, size=min(count, n), replace=False))


def _adjacency(graph):
    from scipy.sparse import csr_matrix

    data = np.ones(len(graph.indices), dtype=np.float64)
    return csr_matrix((data, graph.indices, graph.indptr), shape=(graph.n, graph.n))


def distance_rows(graph, ell: int, mat, sources) -> list[str]:
    """Rows of ``mat`` at ``sources`` equal the BFS indicator dist == ell."""
    sources = np.asarray(sources, dtype=np.int64)
    dist = shortest_path(_adjacency(graph), directed=False, unweighted=True,
                         indices=sources)
    full = mat.to_csr()[sources].toarray()
    want = (dist == ell).astype(full.dtype)
    bad = np.nonzero((full != want).any(axis=1))[0]
    return [f"D^{ell} row {int(sources[i])} differs from BFS distances" for i in bad[:5]]


def eigenpairs(op, pairs, tol: float = 1e-8) -> list[str]:
    """Each pair has ||Dx - lam x|| <= tol max(1, |lam|); vectors orthonormal."""
    if not pairs:
        return ["no eigenpairs returned"]
    csr = op.to_csr().astype(np.float64)
    out = []
    for i, p in enumerate(pairs):
        res = float(np.linalg.norm(csr @ p.vector - p.value * p.vector))
        if not res <= tol * max(1.0, abs(p.value)):
            out.append(f"eigenpair {i}: residual {res:.3e} at lambda {p.value:.6g}")
    V = np.stack([p.vector for p in pairs])
    gram_err = float(np.abs(V @ V.T - np.eye(len(pairs))).max())
    if not gram_err <= tol:
        out.append(f"eigenvectors not orthonormal: max |V V^T - I| = {gram_err:.3e}")
    return out


def confusion_overlap(sigma, labels, pi) -> float:
    """Permutation-maximised agreement minus max(pi), from the confusion matrix."""
    r = len(pi)
    conf = np.zeros((r, r), dtype=np.int64)
    np.add.at(conf, (np.asarray(sigma), np.asarray(labels)), 1)
    best = max(sum(conf[a, perm[a]] for a in range(r))
               for perm in itertools.permutations(range(r)))
    return best / len(sigma) - float(np.max(pi))


def labels_and_overlap(sigma, labels, pi, value: float) -> list[str]:
    labels = np.asarray(labels)
    out = []
    if labels.shape != (len(sigma),):
        out.append(f"labels have shape {labels.shape}, want ({len(sigma)},)")
        return out
    if not np.isin(labels, (0, 1)).all():
        out.append("labels outside {0, 1}")
        return out
    want = confusion_overlap(sigma, labels, pi)
    if abs(want - value) > 1e-12:
        out.append(f"overlap {value!r} differs from the confusion-matrix value {want!r}")
    return out


def tangle_verdicts(graph, ell: int, verdict: bool, offenders, vertices) -> list[str]:
    """Recompute ball edge excess at ``vertices``; compare with the verdict."""
    adj = _adjacency(graph)
    offenders = set(int(v) for v in offenders)
    dist = shortest_path(adj, directed=False, unweighted=True,
                         indices=np.asarray(vertices, dtype=np.int64))
    out = []
    for row, v in zip(dist, vertices):
        ball = np.nonzero(row <= ell)[0]
        edges = adj[ball][:, ball].nnz // 2
        tangled = edges - len(ball) + 1 > 1
        if tangled != (int(v) in offenders):
            out.append(f"tangle verdict for vertex {int(v)}: recomputed {tangled}")
        if tangled and verdict:
            out.append(f"graph declared tangle-free but vertex {int(v)} is tangled")
    return out


def cycle_count(graph, cycles: int) -> list[str]:
    """Fundamental cycles of a spanning forest number m - n + components."""
    comps, _ = connected_components(_adjacency(graph), directed=False)
    want = graph.m - graph.n + comps
    return [] if cycles == want else [f"{cycles} fundamental cycles, want {want}"]


def parse_sweep_csv(text: str, seeds, gammas, rogue: bool):
    """Check the sweep CSV layout; return (rows, error_rows, empty_rogue, failures)."""
    lines = text.splitlines()
    failures = []
    if lines[:1] != [CSV_VERSION]:
        failures.append(f"sweep CSV version line is {lines[:1]!r}")
    if lines[1:2] != [CSV_HEADER]:
        failures.append(f"sweep CSV header is {lines[1:2]!r}")
    body = lines[2:]
    errors = [ln for ln in body if ln.startswith("# ERROR")]
    rows = list(csv.DictReader(io.StringIO("\n".join([CSV_HEADER] + [
        ln for ln in body if ln and not ln.startswith("#")]))))
    if len(rows) + len(errors) != len(seeds) * len(gammas):
        failures.append(f"{len(rows)} rows + {len(errors)} errors, "
                        f"want {len(seeds)} x {len(gammas)}")
    want_keys = {(int(s), int(g)) for s in seeds for g in gammas}
    got_keys = {(int(r["seed"]), int(r["gamma"])) for r in rows}
    if not got_keys <= want_keys:
        failures.append(f"unexpected (seed, gamma) rows {sorted(got_keys - want_keys)}")
    empty_rogue = [r for r in rows
                   if rogue and int(r["gamma"]) > 0 and r["rogue_rayleigh"] == ""]
    for r in rows:
        ov = float(r["overlap"])
        if not 0.0 <= ov <= 0.5:
            failures.append(f"row seed={r['seed']} gamma={r['gamma']}: overlap {ov}")
    return rows, errors, empty_rogue, failures


def finite(name: str, *values) -> list[str]:
    arr = np.asarray(values, dtype=np.float64)
    return [] if np.isfinite(arr).all() else [f"{name}: non-finite value in {values}"]
