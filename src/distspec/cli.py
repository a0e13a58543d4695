"""Batch experiment harness: generate, perturb, detect, score, verify.

Commands
--------
generate   sample a graph from a config profile and write the graph JSON
detect     run the detection pipeline on a graph file, write the assignment
perturb    plant a clique within a vertex budget and write the edited graph
sweep      seeds x gamma grid -> CSV of experiment records
verify     run a named invariant suite (gw | spectra | bounds | oracles | all)
gw         branching-process moment checks -> JSON records

All randomness funnels through one seed; per-phase seeds are derived by
labeled hashing, so any CSV row is reproducible from (config, seed) alone
(timing columns excepted).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import numbers
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .adversary import GreedyExhausted, build_rogue_certificate, plant_clique, qk_bound
from .graph import CapSaturated, SparseGraph, SparseSymMatrix, distance_matrix, \
    fundamental_cycles, path_expansion_matrix, set_shell_sizes, shell_sizes_all, tangle_free_check
from .gw import (
    CumulantCheck,
    GwConfig,
    _cumulant,
    _matched_depths,
    _raw_moment,
    cumulant_relation_check,
    martingale_limit_check,
    moment_closed_forms,
)
from .model import (
    InvalidKappa,
    SbmParams,
    SpectralProfile,
    TypedGraphSample,
    choose_ell,
    derive_spectral_profile,
    sample_from_json,
    sample_graph,
    sample_to_json,
)
from .reconstruct import detect, overlap, round_labels
from .spectral import delta_radius_check, qc_bound, top_eigenpairs
from .util import derive_seed, is_int, make_rng, require_keys, timed

CSV_HEADER = ("seed,n,r,ell,gamma,overlap,lambda1,lambda2,lambda3,lambda4,"
              "qk_bound,rogue_rayleigh,ms_build,ms_eig,ms_label")
CSV_VERSION = "# distspec-records v1"


# "matrix" and "perturbation" are legacy keys, still accepted; "matrix" is still checked.
_CONFIG_KEYS = ("params", "ell", "kappa", "seeds", "gammas", "rogue", "matrix", "perturbation")
_PARAMS_KEYS = ("r", "W", "pi", "n")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    params: SbmParams
    ell: Optional[int] = None
    kappa: Optional[float] = None
    seeds: tuple = (1,)
    gammas: tuple = ()
    rogue: bool = False

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(gamma < 0 for gamma in self.gammas):
            raise ValueError("gamma values must be nonnegative")
        if self.ell is not None and (not is_int(self.ell) or self.ell < 1):
            raise ValueError(f"ell must be a positive integer, got {self.ell!r}")
        if self.kappa is not None and (isinstance(self.kappa, bool)
                                       or not isinstance(self.kappa, numbers.Real)
                                       or not 0 < self.kappa < np.inf):
            raise InvalidKappa(f"kappa must be a positive number, got {self.kappa!r}")

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        require_keys(doc, "config", ("params",))
        p, seeds, gammas = doc["params"], doc.get("seeds", [1]), doc.get("gammas", [])
        for where, keys, known in (("config", doc, _CONFIG_KEYS), ("params", p, _PARAMS_KEYS)):
            unknown = [key for key in keys if key not in known]
            if unknown:
                raise ValueError(f"unknown {where} key {unknown[0]!r}")
        require_keys(p, "params", _PARAMS_KEYS)
        for name, values in (("r", [p["r"]]), ("n", [p["n"]]), ("seed", seeds), ("gamma", gammas)):
            bad = [x for x in values if not is_int(x)]
            if bad:
                raise ValueError(f"{name} must be an integer, got {bad[0]!r}")
        rogue = doc.get("rogue", False)
        if not isinstance(rogue, bool):
            raise ValueError(f"rogue must be true or false, got {rogue!r}")
        if doc.get("matrix", "distance") != "distance":
            raise ValueError(f"unknown matrix kind {doc['matrix']!r}")
        params = SbmParams(r=p["r"], W=np.asarray(p["W"], dtype=float),
                           pi=np.asarray(p["pi"], dtype=float), n=p["n"])
        return cls(params=params, ell=doc.get("ell"), kappa=doc.get("kappa"),
                   seeds=tuple(seeds), gammas=tuple(gammas), rogue=rogue)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _default_config() -> ExperimentConfig:
    params = SbmParams(r=2, W=np.array([[5.0, 1.0], [1.0, 5.0]]),
                       pi=np.array([0.5, 0.5]), n=2000)
    return ExperimentConfig(params=params, ell=4)


def _resolve_ell(args, config: ExperimentConfig, n: Optional[int] = None,
                 profile: Optional[SpectralProfile] = None) -> int:
    """Depth resolution order: --ell, --kappa, the config's ell, its kappa,
    then kappa = 1/13.  A kappa reads the graph's vertex count ``n`` (default:
    the config's n); ``choose_ell`` rejects a depth below 1 and kappa <= 0."""
    if args.ell is not None or args.kappa is not None:
        override, kappa = args.ell, args.kappa
    else:
        override, kappa = config.ell, config.kappa
    return choose_ell(profile or derive_spectral_profile(config.params),
                      config.params.n if n is None else n, override=override,
                      kappa=1.0 / 13.0 if kappa is None else kappa).ell


def _load_config(path: Optional[str]) -> ExperimentConfig:
    return ExperimentConfig.load(path) if path else _default_config()


def _load_graph(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, doc, **dump) -> None:
    """``doc`` as JSON (``json.dump`` with the ``dump`` options) and a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, **dump)
        fh.write("\n")


def _csv_row(seed, n, r, ell, gamma, overlap, lambdas, qk, rogue_rayleigh,
             ms_build, ms_eig, ms_label) -> str:
    """One CSV record in ``CSV_HEADER`` order.  The first four ``lambdas`` fill
    lambda1..lambda4; missing ones and ``None`` values stay empty.  Values get
    6 decimals, the ``ms_*`` columns 3."""
    values = (overlap, *(list(lambdas) + [None] * 4)[:4], qk, rogue_rayleigh)
    return ",".join([str(x) for x in (seed, n, r, ell, gamma)]
                    + ["" if x is None else f"{x:.6f}" for x in values]
                    + [f"{x:.3f}" for x in (ms_build, ms_eig, ms_label)])


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else config.seeds[0]
    sample = sample_graph(config.params, seed)
    doc = sample_to_json(sample, config.params.r)
    out = args.out or f"graph-{seed}.json"
    _write_json(out, doc, separators=(",", ":"))
    print(f"wrote {out}: n={doc['n']} edges={len(doc['edges'])} seed={seed}")
    return 0


def cmd_detect(args) -> int:
    config = _load_config(args.config)
    sample = sample_from_json(_load_graph(args.graph))
    if sample.sigma.max(initial=0) >= config.params.r:
        raise ValueError(f"the graph has type {sample.sigma.max()}, "
                         f"but the config has r = {config.params.r}")
    profile = derive_spectral_profile(config.params)
    ell = _resolve_ell(args, config, sample.graph.n, profile)
    seed = args.seed if args.seed is not None else sample.seed

    assignment, record = detect(sample.graph, profile, ell, seed)
    ov = overlap(sample.sigma, assignment.labels, config.params.pi)
    lambdas = tuple(p.value for p in record.pairs)  # the r0 solved: no bulk value
    doc = {
        "labels": [int(x) for x in assignment.labels],
        "overlap": ov.value,
        "perm": [int(x) for x in ov.best_permutation],
        "K": assignment.K_used,
        "source": assignment.source,
        "lambdas": [float(v) for v in lambdas],
    }
    out = args.out or "assignment.json"
    _write_json(out, doc)
    if args.csv:
        _append_row(args.csv, _csv_row(seed, sample.graph.n, config.params.r, ell, 0, ov.value,
                                       lambdas, None, None, record.ms_build, record.ms_solve,
                                       record.ms_round))
    print(f"overlap={ov.value:.4f} K={assignment.K_used:.4f} "
          f"lambda={[round(v, 3) for v in lambdas]}")
    return 0


def cmd_perturb(args) -> int:
    source = _load_graph(args.graph)
    sample = sample_from_json(source)
    gamma = args.gamma
    seed = args.seed if args.seed is not None else sample.seed
    perturbed, p = plant_clique(sample.graph, gamma, derive_seed(seed, f"perturb:{gamma}"))
    out = args.out or "perturbed.json"
    _write_json(out, sample_to_json(TypedGraphSample(perturbed, sample.sigma, seed),
                                    int(source["r"])), separators=(",", ":"))
    if args.perturbation_out:
        _write_json(args.perturbation_out, p.to_json())
    print(f"wrote {out}: gamma={gamma} added={len(p.added_edges)} "
          f"affected={len(p.affected)}")
    return 0


def _append_row(path: str, row: str) -> None:
    """Append ``row`` to the CSV at ``path``, writing the version line and
    the header first when the file is missing or empty."""
    with open(path, "a") as fh:
        if fh.tell() == 0:
            fh.write(CSV_VERSION + "\n" + CSV_HEADER + "\n")
        fh.write(row + "\n")


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    profile = derive_spectral_profile(config.params)
    ell = _resolve_ell(args, config, profile=profile)
    gammas = tuple(args.gamma or config.gammas or (0,))
    out = args.out or "sweep.csv"
    failures = rogue_failures = 0
    with open(out, "w") as fh:
        fh.write(CSV_VERSION + "\n" + CSV_HEADER + "\n")
        for seed in config.seeds:
            sample = sample_graph(config.params, seed)
            # (D^ell, build ms) of the unedited graph, built on first use: the
            # gamma = 0 row and every rogue certificate share it.
            unedited = functools.cache(functools.partial(timed, distance_matrix, sample.graph, ell))
            for gamma in gammas:
                try:
                    row, rogue_error = _sweep_row(config, profile, sample, unedited,
                                                  ell, seed, gamma)
                except Exception as exc:  # record and continue
                    failures += 1
                    row, rogue_error = f"# ERROR seed={seed} gamma={gamma}: {exc}", None
                if rogue_error is not None:
                    rogue_failures += 1
                    row += f"\n# ROGUE seed={seed} gamma={gamma}: {rogue_error}"
                fh.write(row + "\n")
                fh.flush()  # a finished row survives a crash in a later cell
    print(f"wrote {out}: {len(config.seeds)}x{len(gammas)} grid, "
          f"{failures} failure(s), {rogue_failures} rogue certificate(s) not built")
    return 0 if failures == 0 else 1


def _sweep_row(config, profile, sample, unedited, ell, seed, gamma):
    graph = sample.graph
    qk = None
    rogue_r = None
    if gamma > 0:
        perturbed, p = plant_clique(graph, gamma, derive_seed(seed, f"perturb:{gamma}"))
        if p.affected:
            qk = qk_bound(graph, sorted(p.affected), ell)
        graph = perturbed
        mat, ms_build = timed(distance_matrix, graph, ell)
    else:
        mat, ms_build = unedited()

    pairs, ms_eig = timed(top_eigenpairs, mat, graph.n, k=min(4, graph.n),
                          seed=derive_seed(seed, f"eig:{gamma}"))
    # A second solve, of the r0 signal pairs, for the labels: perfbench counts
    # each eigensolve as an operation on sweep, so merging the two waits for a
    # change in that count.
    assignment, record = detect(graph, profile, ell, derive_seed(seed, f"detect:{gamma}"), dl=mat)
    ov = overlap(sample.sigma, assignment.labels, config.params.pi)
    rogue_error = None
    if config.rogue and gamma > 0:
        try:
            cert = build_rogue_certificate(sample.graph, profile, ell, gamma,
                                           seed=derive_seed(seed, f"rogue:{gamma}"),
                                           dl=unedited()[0])
            rogue_r = cert.rayleigh
        except GreedyExhausted as exc:
            rogue_error = str(exc)
    return _csv_row(seed, sample.graph.n, config.params.r, ell, gamma, ov.value,
                    [p.value for p in pairs], qk, rogue_r, ms_build, ms_eig,
                    record.ms_solve + record.ms_round), rogue_error


def cmd_gw(args) -> int:
    config = _load_config(args.config)
    profile = derive_spectral_profile(config.params)
    mu = float(profile.mu[1])
    phi = profile.phi[1]
    seed = args.seed if args.seed is not None else 0
    runs = args.runs

    c2, m2, var_sum, sq_sum = moment_closed_forms(profile, phi, mu)
    cfg = GwConfig(M=profile.M, root_law=np.full(profile.params.r, 1.0 / profile.params.r),
                   depth=8, runs=runs, seed=derive_seed(seed, "gw-mart"))
    mart = martingale_limit_check(cfg, phi, mu)
    cum = cumulant_relation_check(profile, phi, mu, order=2, runs=runs,
                                  seed=derive_seed(seed, "gw-cum"))
    rows = [  # (statistic, estimate, stderr, closed_form)
        ("variance_sum", float(np.nansum(mart.per_type_var)), mart.stderr, var_sum),
        ("mean", mart.mean, mart.stderr, mart.expected_mean),
        ("cumulant_relation_order2", cum.residual_inf, float(cum.stderr.max()), 0.0),
    ]
    if profile.params.uniform_pi and profile.degree_regular:  # as moment_closed_forms asserts
        tau_mu = mu**2 / profile.alpha
        rows.insert(2, ("sqmean_sum_closed_form", sq_sum, 0.0, tau_mu / (tau_mu - 1.0)))
    records = [{"statistic": name, "estimate": est, "stderr": se, "closed_form": form,
                "residual": est - form} for name, est, se, form in rows]
    out = args.out or "gw-report.json"
    _write_json(out, records, indent=2)
    for rec in records:
        print(f"{rec['statistic']}: estimate={rec['estimate']:.6f} "
              f"closed_form={rec['closed_form']:.6f} residual={rec['residual']:.2e}")
    return 0


# ----------------------------------------------------------------------------
# verify suites: small, self-contained invariant checks with stable IDs.

def _apsp(graph: SparseGraph) -> np.ndarray:
    """Dense all-pairs BFS distances via scipy's csgraph (inf if unreachable)."""
    from scipy.sparse.csgraph import shortest_path

    return shortest_path(graph.to_csr(), method="D", unweighted=True, directed=False)


def _oracle_distance_matrix(graph: SparseGraph, ell: int) -> np.ndarray:
    """Dense 0/1 matrix of the pairs at distance exactly ell."""
    return (_apsp(graph) == ell).astype(np.int64)


def _oracle_set_layers(dist: np.ndarray, vertex_set, ell: int) -> list:
    """Sorted vertices at distance t = 0..ell from the set, by all-pairs BFS."""
    to_set = dist[np.asarray(list(vertex_set), dtype=np.int64)].min(axis=0)
    return [np.nonzero(to_set == t)[0] for t in range(ell + 1)]


def _oracle_tangle_offenders(graph: SparseGraph, dist: np.ndarray, ell: int) -> list:
    """Vertices whose radius-ell ball has edge excess above 1, by all-pairs BFS."""
    adj = graph.to_csr().toarray().astype(np.int64)
    ball = (dist <= ell).astype(np.int64)
    edges = ((ball @ adj) * ball).sum(axis=1) // 2
    return np.nonzero(edges - ball.sum(axis=1) + 1 > 1)[0].tolist()


def _oracle_path_counts(graph: SparseGraph, ell: int) -> np.ndarray:
    """Independent uncapped simple-path counter (tiny graphs only)."""
    n = graph.n
    counts = np.zeros((n, n), dtype=np.int64)

    def extend(path, last):
        if len(path) - 1 == ell:
            counts[path[0], last] += 1
            return
        for w in graph.neighbors(last).tolist():
            if w not in path:
                path.append(w)
                extend(path, w)
                path.pop()

    for v in range(n):
        extend([v], v)
    return counts


def _oracle_coin_sweep(params: SbmParams, seed: int) -> dict:
    """Graph document from the types and one uniform per ordered pair, drawn row-major."""
    rng = make_rng(seed)
    sigma = rng.choice(params.r, size=params.n, p=params.pi)
    prob = np.minimum(params.W / params.n, 1.0)[np.ix_(sigma, sigma)]
    edges = np.argwhere(np.triu(rng.random((params.n, params.n)) < prob, 1))
    return {"n": params.n, "r": params.r, "seed": seed, "types": sigma.tolist(),
            "edges": edges.tolist()}


def _oracle_cumulant_check(profile, phi, mu: float, order: int, runs: int, seed: int,
                           depth: int = 8, bootstrap: int = 200) -> CumulantCheck:
    """``cumulant_relation_check`` with a run bootstrap of ``bootstrap`` resamples.

    Each resample gathers its runs and re-estimates.  The check's closed-form
    standard error is this bootstrap's limit as ``bootstrap`` grows.
    """
    deep, shallow = _matched_depths(profile, np.asarray(phi, dtype=float), mu, runs, seed,
                                    depth)
    MjT = np.ascontiguousarray(profile.M.T) / mu**order
    cum = np.array([_cumulant(x, order) for x in deep])
    predicted = MjT @ np.array([_raw_moment(y, order) for y in shallow])
    rng = make_rng(derive_seed(seed, "gw-bootstrap"))
    boot = np.empty((bootstrap, len(deep)))
    for b in range(bootstrap):
        cums, raws = np.empty(len(deep)), np.empty(len(deep))
        for i, (x, y) in enumerate(zip(deep, shallow)):
            idx = rng.integers(0, len(x), size=len(x))
            cums[i] = _cumulant(x[idx], order)
            raws[i] = _raw_moment(y[idx], order)
        boot[b] = cums - MjT @ raws
    se = boot.std(axis=0, ddof=1)
    residual = cum - predicted
    return CumulantCheck(order=order, cumulants=cum, predicted=predicted, residual=residual,
                         residual_inf=float(np.abs(residual).max()), stderr=se,
                         max_z=float((np.abs(residual) / np.where(se > 0, se, np.inf)).max()))


def _verify_oracles() -> list[tuple[str, bool, str]]:
    ok = True
    for n in (61, 100):  # the coins start off and on a Philox block boundary
        params = SbmParams(r=3, W=np.array([[150.0, 2, 0], [2, 4, 3], [0, 3, 9]]),
                           pi=np.array([0.5, 0.3, 0.2]), n=n)
        ok &= all(sample_to_json(sample_graph(params, s), params.r) == _oracle_coin_sweep(params, s)
                  for s in range(7, 10))
    results = [("oracles.sampler_matches_coin_sweep", bool(ok),
                "3 seeds x n in {61,100}, 3 blocks with clamped and zero entries")]
    params = SbmParams(r=2, W=np.array([[5.0, 1.0], [1.0, 5.0]]),
                       pi=np.array([0.5, 0.5]), n=120)
    ok_dist = ok_layout = ok_shells = True
    for seed in range(3):
        graph = sample_graph(params, seed + 7).graph
        dist = _apsp(graph)
        for ell in (1, 2, 3):
            mine = distance_matrix(graph, ell)
            dense, csr = mine.to_dense(), mine.to_csr()
            ok_dist &= np.array_equal(dense, _oracle_distance_matrix(graph, ell))
            ok_layout &= np.array_equal(dense, dense.T) and all(  # rows strictly increasing
                (np.diff(csr.indices[a:b]) > 0).all() for a, b in itertools.pairwise(csr.indptr))
            sizes = np.stack([(dist == t).sum(axis=1) for t in range(ell + 1)], axis=1)
            ok_shells &= np.array_equal(shell_sizes_all(graph, ell), sizes)
            tf, offenders = tangle_free_check(graph, ell)
            ok_shells &= tf == (not offenders)
            ok_shells &= offenders == _oracle_tangle_offenders(graph, dist, ell)
            for x in fundamental_cycles(graph)[:20]:
                layers = _oracle_set_layers(dist, x, ell)
                ok_shells &= set_shell_sizes(graph, x, ell).tolist() == [len(t) for t in layers]
    results.append(("oracles.distance_matrix_matches_apsp", bool(ok_dist),
                    "3 seeds x ell in {1,2,3} at n=120"))
    results.append(("oracles.distance_matrix_layout", bool(ok_layout),
                    "sorted rows without duplicates and exact symmetry, same graphs"))
    results.append(("oracles.shells_and_tangle_match_apsp", bool(ok_shells),
                    "shell sizes, tangle offenders and 20 cycle shells, same graphs"))
    params_small = SbmParams(r=2, W=np.array([[6.0, 2.0], [2.0, 6.0]]),
                             pi=np.array([0.5, 0.5]), n=40)
    ok_all = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapSaturated)
        for seed, ell, cap in itertools.product(range(2), (2, 3, 4), (10**6, 2)):
            graph = sample_graph(params_small, seed + 7).graph
            ok_all &= np.array_equal(path_expansion_matrix(graph, ell, cap=cap).to_dense(),
                                     np.minimum(_oracle_path_counts(graph, ell), cap))
    results.append(("oracles.path_matrix_matches_enumeration", bool(ok_all),
                    "2 seeds x ell in {2,3,4} x cap in {10^6, 2 (default)} at n=40"))
    return results


def _verify_spectra() -> list[tuple[str, bool, str]]:
    results = []
    params = SbmParams(r=2, W=np.array([[5.0, 1.0], [1.0, 5.0]]),
                       pi=np.array([0.5, 0.5]), n=300)
    sample = sample_graph(params, 11)
    dl = distance_matrix(sample.graph, 3)
    pairs = top_eigenpairs(dl, sample.graph.n, k=4, seed=3)
    dense_vals = np.linalg.eigvalsh(dl.to_dense())
    top_by_abs = dense_vals[np.argsort(-np.abs(dense_vals))][:4]
    ok = all(abs(p.value - t) <= 1e-6 * max(1.0, abs(t))
             for p, t in zip(pairs, top_by_abs))
    results.append(("spectra.solver_matches_dense", ok,
                    f"top-4 of distance matrix at n=300, ell=3"))
    ok = all(p.residual <= 1e-8 * max(1.0, abs(p.value)) for p in pairs)
    results.append(("spectra.residuals_within_tol", ok, "residual <= tol*max(1,|lambda|)"))
    G = np.array([[np.dot(p.vector, q.vector) for q in pairs] for p in pairs])
    ok = bool(np.abs(G - np.eye(len(pairs))).max() <= 1e-8)
    results.append(("spectra.vectors_orthonormal", ok, "pairwise dot products"))
    # Disjoint copies of one graph repeat every eigenvalue of D^ell.
    g = sample_graph(SbmParams(r=2, W=params.W, pi=params.pi, n=40), 3).graph
    edges = g.edge_array()
    ok = True
    for copies in (3, 5):
        union = SparseGraph.from_edges(
            copies * g.n, np.concatenate([edges + c * g.n for c in range(copies)]))
        for ell in (1, 2, 3):
            dl = distance_matrix(union, ell)
            dense = np.sort(np.abs(np.linalg.eigvalsh(dl.to_dense())))[::-1]
            for k in (4, 6):
                pairs = top_eigenpairs(dl, union.n, k, seed=1)
                V = np.stack([p.vector for p in pairs])
                ok = ok and len(pairs) == k and bool(
                    np.abs(np.abs([p.value for p in pairs]) - dense[:k]).max() <= 1e-6
                    and np.abs(V @ V.T - np.eye(k)).max() <= 1e-8)
    results.append(("spectra.multiplicity_matches_dense", ok,
                    "3 and 5 copies of a 40-vertex graph, ell in {1,2,3}, k in {4,6}"))
    # lambda_4 sits 1e-6 below lambda_3 over a bulk up to 7.5: the check's
    # screening run cannot settle k = 3 and hands over to the tight run.
    ok = True
    for seed in (0, 1, 2):
        A = _explicit_spectrum([10.0, 9.0, 8.0, 8.0 * (1 - 1e-6)], 7.5, seed)
        dense = np.linalg.eigvalsh(A)
        dense = dense[np.argsort(-np.abs(dense))][:3]
        pairs = top_eigenpairs(SparseSymMatrix(len(A), 1, "explicit", A), len(A), 3, seed=seed)
        ok = ok and len(pairs) == 3 and all(
            abs(p.value - t) <= 1e-8 * max(1.0, abs(t)) for p, t in zip(pairs, dense))
    results.append(("spectra.multiplicity_screen_near_ties", ok,
                    "top-3 of Q diag(10, 9, 8, 8(1-1e-6), bulk) Q^T at n=200, 3 seeds"))
    # One Krylov run returns either member of the +-5 tie at k = 2, exact or
    # within the solver's tolerance; both must come back, and the rounding
    # must take the predicted sign.
    ok, profile = True, derive_spectral_profile(params)
    for seed, minus in itertools.product((0, 1, 2), (-5.0, -5.0 * (1 + 5e-9))):
        A = _explicit_spectrum([10.0, 5.0, minus], 2.0, seed)
        pairs = top_eigenpairs(SparseSymMatrix(len(A), 1, "explicit", A), len(A), 2, seed=seed)
        ok = ok and sorted(round(p.value, 6) for p in pairs) == [-5.0, 5.0, 10.0]
        for mu2 in (5.0, -5.0):  # at ell = 1, mu2^ell = mu2
            chosen = round_labels(pairs, replace(profile, mu=np.array([10.0, mu2])), 1, seed)
            ok = ok and pairs[chosen.source].value * mu2 > 0
    results.append(("spectra.opposite_sign_tie_returned", ok,
                    "k=2 of Q diag(10, 5, -5 and -5(1+5e-9), bulk) Q^T at n=200, 3 seeds: "
                    "both of +-5 returned, the second pair taken with the sign of mu2^ell"))
    # A second solve of one matrix skips the check its first solve's screen
    # settled; a fresh solve of an equal matrix runs it.
    fresh, repeat = (_CountedMatrix(distance_matrix(sample.graph, 3)) for _ in range(2))
    top_eigenpairs(repeat, repeat.n, 4, seed=3)
    repeat.products = 0
    fresh_pairs, repeat_pairs = ([(p.value, p.residual, p.vector.tobytes())
                                  for p in top_eigenpairs(mat, mat.n, 2, seed=5)]
                                 for mat in (fresh, repeat))
    results.append(("spectra.repeat_solve_settled",
                    repeat_pairs == fresh_pairs and repeat.products < fresh.products,
                    f"k=2 after k=4 on one D^3 at n=300: same bytes as a fresh solve, "
                    f"{repeat.products} products against {fresh.products}"))
    return results


class _CountedMatrix(SparseSymMatrix):
    """A copy of a ``SparseSymMatrix`` that counts its products."""

    __slots__ = ("products",)

    def __init__(self, mat: SparseSymMatrix):
        super().__init__(mat.n, mat.ell, mat.kind, mat.to_csr())
        self.products = 0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        self.products += 1
        return super().matvec(x)


def _explicit_spectrum(top, bulk: float, seed: int) -> np.ndarray:
    """Q diag(lambda) Q^T at n = 200 for a seeded orthogonal Q: ``top``
    followed by 200 - len(top) eigenvalues drawn uniformly from [-bulk, bulk]."""
    n, rng = 200, make_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([top, rng.uniform(-bulk, bulk, n - len(top))])
    return (Q * lam) @ Q.T


def _verify_bounds() -> list[tuple[str, bool, str]]:
    results = []
    # Path graph: unique paths, so the difference matrix vanishes.
    path_edges = [(i, i + 1) for i in range(9)]
    tree = SparseGraph.from_edges(10, path_edges)
    rep = delta_radius_check(tree, 3, alpha=2.0)
    results.append(("bounds.tree_delta_radius_zero", rep.rho <= 1e-12,
                    f"rho={rep.rho:.2e}"))
    square = SparseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rep = delta_radius_check(square, 2, alpha=2.0)
    results.append(("bounds.square_delta_radius_one", abs(rep.rho - 1.0) <= 1e-9,
                    f"rho={rep.rho:.6f}"))
    exact, bound = qc_bound([1, 4, 16])
    results.append(("bounds.qc_exact_below_rowsum", exact <= bound + 1e-12,
                    f"exact={exact:.3f} bound={bound:.3f}"))
    params = SbmParams(r=2, W=np.array([[5.0, 1.0], [1.0, 5.0]]),
                       pi=np.array([0.5, 0.5]), n=300)
    sample = sample_graph(params, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # saturation is expected on tangled samples
        rep = delta_radius_check(sample.graph, 3, alpha=3.0)
    tangle_free = tangle_free_check(sample.graph, 3)[0]
    ok = (not tangle_free) or rep.rho <= rep.cycle_bound + 1e-9
    results.append(("bounds.delta_within_cycle_bound", ok,
                    f"rho={rep.rho:.3f} cycle_bound={rep.cycle_bound:.3f} "
                    f"tangle_free={tangle_free}"))
    # The pruned cycle bound against every fundamental cycle's layers by all-pairs BFS.
    dist = _apsp(sample.graph)
    radii = [qc_bound([len(t) for t in _oracle_set_layers(dist, cycle, 3)])[0]
             for cycle in fundamental_cycles(sample.graph)]
    want = max(radii, default=0.0)
    results.append(("bounds.cycle_bound_matches_full_expansion", rep.cycle_bound == want,
                    f"cycle_bound={rep.cycle_bound!r} all-pairs BFS={want!r} "
                    f"over {len(radii)} cycles"))
    return results


def _verify_gw() -> list[tuple[str, bool, str]]:
    from .gw import finite_depth_second_moments

    results = []
    params = SbmParams(r=2, W=np.array([[5.0, 1.0], [1.0, 5.0]]),
                       pi=np.array([0.5, 0.5]), n=100)
    profile = derive_spectral_profile(params)
    mu = float(profile.mu[1])
    phi = profile.phi[1]
    c2, m2, var_sum, sq_sum = moment_closed_forms(profile, phi, mu)
    tau = profile.tau
    ok = (abs(var_sum - 1 / (tau - 1)) <= 1e-9 and
          abs(sq_sum - tau / (tau - 1)) <= 1e-9)
    results.append(("gw.closed_form_identities", ok,
                    f"var_sum={var_sum:.9f} sqmean_sum={sq_sum:.9f}"))
    # The simulation estimates the depth-8 truncation, which sits a known
    # (alpha/mu^2)^8 below the limit; compare against the exact recursion.
    depth = 8
    c2_t, _ = finite_depth_second_moments(profile, phi, mu, depth)
    cfg = GwConfig(M=profile.M, root_law=np.array([0.5, 0.5]), depth=depth,
                   runs=10**5, seed=404)
    mart = martingale_limit_check(cfg, phi, mu)
    var_mc = float(np.nansum(mart.per_type_var))
    ok = abs(var_mc - c2_t.sum()) <= 0.10 * c2_t.sum()
    results.append(("gw.variance_sum_monte_carlo", ok,
                    f"mc={var_mc:.4f} depth-{depth} exact={c2_t.sum():.4f} "
                    f"limit={var_sum:.4f}"))
    # A B-resample bootstrap s.e. has relative noise about 1/sqrt(2B); allow 4 of it.
    ok, worst, resamples = True, 0.0, 400
    tol = 4 / np.sqrt(2 * resamples)
    for order in (1, 2, 3):
        mine = cumulant_relation_check(profile, phi, mu, order, runs=2000, seed=405)
        ref = _oracle_cumulant_check(profile, phi, mu, order, 2000, 405, bootstrap=resamples)
        worst = max(worst, float(np.max(np.abs(mine.stderr / ref.stderr - 1))))
        ok &= np.array_equal(mine.residual, ref.residual)
    results.append(("gw.stderr_matches_bootstrap", bool(ok and worst <= tol),
                    f"orders 1-3, 2000 runs, {resamples} resamples: max relative se gap "
                    f"{worst:.3f} (tolerance {tol:.3f})"))
    return results


SUITES = {
    "oracles": _verify_oracles,
    "spectra": _verify_spectra,
    "bounds": _verify_bounds,
    "gw": _verify_gw,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.which == "all" else [args.which]
    failures = 0
    for name in names:
        for check_id, ok, detail in SUITES[name]():
            status = "PASS" if ok else "FAIL"
            print(f"{status} {check_id} — {detail}")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def nonnegative_int(text: str) -> int:
    """``--gamma``'s argparse type; argparse names it in its usage error."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def run_count(text: str) -> int:
    """``gw --runs``'s argparse type: at least 3, the uncapped runs per root
    type that the cumulant check needs."""
    value = int(text)
    if value < 3:
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distspec",
        description="Distance-matrix spectral detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {  # each command declares only the flags its cmd_* reads
        "--config": dict(help="experiment config JSON"),
        "--seed": dict(type=int, help="master 64-bit seed"),
        "--ell": dict(type=int, help="matrix depth override"),
        "--kappa": dict(type=float, help="depth exponent"),
        "--out": dict(help="output path"),
    }

    def add(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("generate", help="sample a graph and write JSON")
    add(p, "--config", "--seed", "--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("detect", help="run detection on a graph file")
    p.add_argument("graph", help="graph JSON produced by generate")
    add(p, "--config", "--seed", "--ell", "--kappa", "--out")
    p.add_argument("--csv", help="append an experiment record to this CSV")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("perturb", help="plant a clique within a vertex budget")
    p.add_argument("graph", help="graph JSON")
    add(p, "--seed", "--out")
    p.add_argument("--gamma", type=nonnegative_int, default=1, help="clique size to plant")
    p.add_argument("--perturbation-out", help="write the edit list JSON here")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("sweep", help="seeds x gamma grid to CSV")
    add(p, "--config", "--ell", "--kappa", "--out")
    p.add_argument("--gamma", type=nonnegative_int, nargs="+", help="perturbation strengths")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("which", choices=["gw", "spectra", "bounds", "oracles", "all"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gw", help="branching-process moment checks")
    add(p, "--config", "--seed", "--out")
    p.add_argument("--runs", type=run_count, default=10**5,
                   help="branching runs per simulation (at least 3)")
    p.set_defaults(func=cmd_gw)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
