"""The three benchmark workloads: pipeline, sweep and certify.

Each workload is one closed loop with a single caller: the next
repetition starts when the previous one and its checks are done.  A
workload has

- ``setup(workdir)``: builds its inputs and warms the code paths up on a
  tiny instance; the benchmark times it several times;
- ``rep(state, i)``: one repetition, the timed unit;
- ``check(state, out, cap)``: the correctness checks on that
  repetition's outputs, run after the repetition's clock has stopped.

Sizes are chosen so that a repetition takes a few seconds on a 2-core
machine and the layer shares stay close to those of the full-size runs
(see README.md in this directory).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks


def mix(seed: int, *labels) -> int:
    """A 64-bit seed derived from the workload seed and labels."""
    text = ":".join([str(int(seed))] + [str(x) for x in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def sbm(W, n):
    import distspec

    return distspec.SbmParams(r=2, W=np.asarray(W, dtype=float),
                              pi=np.array([0.5, 0.5]), n=int(n))


@dataclass
class Outcome:
    """What one repetition did, as counted after it finished."""

    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)   # failed correctness checks
    overlaps: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def op(self, n: int = 1, failed: int = 0) -> None:
        self.ops += n
        self.failed += failed

    def check(self, messages: list) -> None:
        self.op(1, failed=1 if messages else 0)
        self.problems.extend(messages)


class Capture:
    """Observers on layer calls: keeps what the checks and counters need.

    One ``distance_matrix`` call and one ``top_eigenpairs`` call per
    repetition are kept for checking, chosen uniformly by a seeded
    reservoir, so memory stays that of one extra matrix.  Size counters
    are gathered only for traced repetitions.
    """

    def __init__(self, instrument):
        self.rng = np.random.default_rng(0)
        self.traced = False
        self.reset()
        on = instrument.observe
        on("graph.distance_matrix", self._distance)
        on("spectral.top_eigenpairs", self._eigen)
        on("reconstruct.overlap", self._overlap)
        on("graph.tangle_free_check", self._tangle)
        on("graph.fundamental_cycles", self._cycles)
        on("model.sample_graph", self._sample)
        on("spectral.matvec", self._matvec)

    def reset(self, rng=None, traced: bool = False) -> None:
        if rng is not None:
            self.rng = rng
        self.traced = traced
        self.builds = 0
        self.solves = 0
        self.kept_build = None      # (graph, ell, matrix)
        self.kept_solve = None      # (operator, pairs)
        self.last_distance_pairs = None
        self.overlap_calls = []     # (sigma, labels, pi, value)
        self.tangle = None          # (graph, ell, (verdict, offenders))
        self.cycles = []            # (graph, count)
        self.residual_max = 0.0
        self.built_on = []          # (graph, ell) per build, traced only
        self.nnz_D = 0
        self.vertices_sampled = 0
        self.edges_sampled = 0
        self.matvec_bytes = 0
        self._bytes_per_matvec = {}

    def _keep(self, count: int) -> bool:
        return self.rng.random() * count < 1.0

    def _distance(self, args, kwargs, mat):
        graph, ell = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "ell")
        self.builds += 1
        if self._keep(self.builds):
            self.kept_build = (graph, ell, mat)
        if self.traced:
            self.built_on.append((graph, ell))
            self.nnz_D += mat.nnz

    def _eigen(self, args, kwargs, pairs):
        op = _arg(args, kwargs, 0, "op")
        self.solves += 1
        if self._keep(self.solves):
            self.kept_solve = (op, pairs)
        if getattr(op, "kind", None) == "distance":
            self.last_distance_pairs = pairs
        for p in pairs:
            self.residual_max = max(self.residual_max, p.residual / max(1.0, abs(p.value)))

    def _overlap(self, args, kwargs, score):
        sigma, labels, pi = (_arg(args, kwargs, i, k)
                             for i, k in enumerate(("sigma", "sigma_hat", "pi")))
        self.overlap_calls.append((sigma, labels, pi, score.value))

    def _tangle(self, args, kwargs, result):
        self.tangle = (_arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "ell"), result)

    def _cycles(self, args, kwargs, cycles):
        self.cycles.append((_arg(args, kwargs, 0, "g"), len(cycles)))

    def _sample(self, args, kwargs, sample):
        self.vertices_sampled += sample.graph.n
        self.edges_sampled += sample.graph.m

    def _matvec(self, args, kwargs, result):
        if not self.traced:
            return
        mat = args[0]
        per_call = self._bytes_per_matvec.get(id(mat))
        if per_call is None:
            per_call = matvec_bytes(mat, result.itemsize)
            self._bytes_per_matvec[id(mat)] = per_call
        self.matvec_bytes += per_call

    # -- checks shared by the workloads --------------------------------

    def check_kept(self, out: Outcome, sources: int = 32) -> None:
        if self.kept_build is not None:
            graph, ell, mat = self.kept_build
            picked = checks.sample_vertices(graph.n, sources, self.rng)
            out.check(checks.distance_rows(graph, ell, mat, picked))
        if self.kept_solve is not None:
            out.check(checks.eigenpairs(*self.kept_solve))
        for sigma, labels, pi, value in self.overlap_calls:
            out.check(checks.labels_and_overlap(sigma, labels, pi, value))
            out.overlaps.append(value)

    def count_sizes(self, out: Outcome, warnings_seen) -> None:
        """Size counters of a traced repetition, computed after it ended."""
        seen = {}
        ball = 0
        for graph, ell in self.built_on:
            key = (id(graph), ell)
            if key not in seen:
                seen[key] = ball_sum(graph, ell)
            ball += seen[key]
        categories = [w[0] for w in warnings_seen]
        out.counters.update({
            "model.n": self.vertices_sampled,
            "model.edges": self.edges_sampled,
            "graph.nnz_D": self.nnz_D,
            "graph.ball_sum": ball,
            "graph.cycles": sum(c for _, c in self.cycles),
            "graph.cap_saturated": categories.count("CapSaturated"),
            "spectral.matvec.bytes_computed": self.matvec_bytes,
            "spectral.residual_max": self.residual_max,
            "spectral.no_convergence": categories.count("NoConvergence"),
        })


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def matvec_bytes(mat, itemsize: int = 8) -> int:
    """Bytes one ``SparseSymMatrix.matvec`` reads and writes, from array sizes.

    Each stored triangle is one CSR product: it reads data, indices,
    indptr and the input vector and writes one output vector; the sum of
    the two products reads two vectors and writes one.  Computed, not
    measured: cache misses and temporary dtype conversions are not in it.
    """
    n, upper = mat.n, mat.upper
    product = (upper.data.nbytes + upper.indices.nbytes + upper.indptr.nbytes
               + 2 * n * itemsize)
    return int(2 * product + 3 * n * itemsize)


def ball_sum(graph, ell: int) -> int:
    """Sum over vertices of the radius-ell ball sizes, by sparse powers."""
    from scipy.sparse import csr_matrix, identity

    data = np.ones(len(graph.indices), dtype=np.int32)
    adj = csr_matrix((data, graph.indices, graph.indptr), shape=(graph.n, graph.n))
    reach = identity(graph.n, dtype=np.int32, format="csr")
    for _ in range(ell):
        reach = reach + reach @ adj
        reach.data[:] = 1
    return int(reach.nnz)


class Workload:
    """Sizes per ``--size``: ``min_reps`` repetitions run even past
    ``--seconds``; ``overlap_mean`` averages the first ``quality_reps``,
    so it repeats exactly for a fixed seed and fixed code."""

    sizes: dict

    def __init__(self, size: str, seed: int):
        self.cfg = self.sizes[size]
        self.seed = seed
        self.min_reps = self.cfg["min_reps"]
        self.quality_reps = self.cfg["quality_reps"]


class Pipeline(Workload):
    """README library path: sample_graph -> detect -> overlap, a new graph per repetition."""

    name = "pipeline"
    sizes = {"full": {"n": 4000, "min_reps": 12, "quality_reps": 12},
             "tiny": {"n": 300, "min_reps": 2, "quality_reps": 2}}
    W = [[11.0, 1.0], [1.0, 11.0]]
    ell = 3

    def setup(self, workdir):
        import distspec

        params = sbm(self.W, self.cfg["n"])
        state = {"params": params, "profile": distspec.derive_spectral_profile(params)}
        # Warm-up on a tiny instance: first-call costs leave the timed loop.
        tiny = sbm(self.W, 200)
        self._run(tiny, distspec.derive_spectral_profile(tiny), mix(self.seed, "warm"))
        return state

    def _run(self, params, profile, seed):
        import distspec

        sample = distspec.sample_graph(params, mix(seed, "graph"))
        assignment, _ = distspec.detect(sample.graph, profile, self.ell,
                                        seed=mix(seed, "detect"))
        return distspec.overlap(sample.sigma, assignment.labels, params.pi)

    def rep(self, state, i):
        return self._run(state["params"], state["profile"], mix(self.seed, self.name, i))

    def check(self, state, result, cap: Capture) -> Outcome:
        out = Outcome()
        out.op(1)                    # the detection
        out.op(cap.solves)           # eigensolves; NoConvergence counts below
        cap.check_kept(out)
        return out


class Sweep(Workload):
    """In-process ``distspec sweep`` over seeds x gammas with rogue certificates.

    The config's seeds are fixed, so every repetition redoes the same
    sweep: at tau = 1.33 a row's overlap moves by about 60 % between
    graphs, too much for a seed-dependent mean to stay within its bound.
    """

    name = "sweep"
    sizes = {"full": {"n": 500, "min_reps": 3, "quality_reps": 1},
             "tiny": {"n": 150, "min_reps": 2, "quality_reps": 1}}
    W = [[5.0, 1.0], [1.0, 5.0]]
    ell = 4
    seeds = (1, 2)
    gammas = (0, 3, 8, 20)

    def _config(self, workdir, tag, n, seeds, gammas):
        path = os.path.join(workdir, f"sweep-{tag}.json")
        doc = {"params": {"r": 2, "W": self.W, "pi": [0.5, 0.5], "n": n},
               "ell": self.ell, "seeds": list(seeds), "gammas": list(gammas),
               "rogue": True}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return {"config": path, "out": os.path.join(workdir, f"sweep-{tag}.csv")}

    def setup(self, workdir):
        warm = self._config(workdir, "warm", 120, (1,), (0, 3))
        self._run(warm)
        return self._config(workdir, "main", self.cfg["n"], self.seeds, self.gammas)

    def _run(self, state):
        from distspec import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", state["config"], "--out", state["out"]])
        with open(state["out"]) as fh:
            return code, fh.read()

    def rep(self, state, i):
        return self._run(state)

    def check(self, state, result, cap: Capture) -> Outcome:
        code, text = result
        out = Outcome()
        rows, errors, empty_rogue, problems = checks.parse_sweep_csv(
            text, self.seeds, self.gammas, rogue=True)
        out.check(problems)
        if (code != 0) != bool(errors):
            out.check([f"sweep exit code {code} with {len(errors)} error row(s)"])
        certificates = len(self.seeds) * sum(1 for g in self.gammas if g > 0)
        out.op(len(self.seeds) * len(self.gammas), failed=len(errors))
        out.op(certificates, failed=len(empty_rogue))
        out.op(cap.solves)
        cap.check_kept(out)
        if not errors:
            csv_overlaps = [float(r["overlap"]) for r in rows]
            seen = [c[3] for c in cap.overlap_calls]
            if len(seen) != len(csv_overlaps) or any(
                    abs(a - b) > 5e-7 for a, b in zip(seen, csv_overlaps)):
                out.check(["sweep CSV overlaps differ from the overlap() results"])
        n_rows = len(rows) + len(errors)
        out.counters.update({
            "adversary.rogue_failed": len(empty_rogue),
            "cli.rows": n_rows,
            "cli.builds_per_row": cap.builds / n_rows if n_rows else 0.0,
            "cli.solves_per_row": cap.solves / n_rows if n_rows else 0.0,
        })
        return out


class Certify(Workload):
    """Verification path on one graph sampled at set-up.

    The graph seed is fixed for the same reason as the sweep's seeds;
    ``--seed`` drives the branching-process and solver seeds.
    """

    name = "certify"
    sizes = {"full": {"n": 3000, "runs": 10**5, "min_reps": 3, "quality_reps": 1},
             "tiny": {"n": 200, "runs": 2000, "min_reps": 2, "quality_reps": 1}}
    W = [[5.0, 1.0], [1.0, 5.0]]
    ell = 4
    graph_seed = 1

    def setup(self, workdir):
        state = self._inputs(self.cfg["n"], self.graph_seed)
        self._run(self._inputs(150, self.graph_seed), 500, mix(self.seed, "warm"))
        return state

    @staticmethod
    def _inputs(n, graph_seed):
        import distspec

        params = sbm(Certify.W, n)
        return {"params": params,
                "profile": distspec.derive_spectral_profile(params),
                "sample": distspec.sample_graph(params, graph_seed)}

    def _run(self, state, runs, seed):
        import distspec as ds

        g, profile, ell = state["sample"].graph, state["profile"], self.ell
        alpha = profile.alpha
        mu, phi = float(profile.mu[1]), profile.phi[1]
        r = profile.params.r
        gw_cfg = ds.GwConfig(M=profile.M, root_law=np.full(r, 1.0 / r), depth=8,
                             runs=runs, seed=mix(seed, "martingale"))
        return {
            "tangle": ds.tangle_free_check(g, ell),
            "growth": ds.shell_growth_report(g, ell, alpha),
            "delta": ds.delta_radius_check(g, ell, alpha, seed=mix(seed, "delta")),
            "moments": ds.local_moment_report(g, state["sample"].sigma, profile, ell,
                                              seed=mix(seed, "moments")),
            "martingale": ds.martingale_limit_check(gw_cfg, phi, mu),
            "cumulant": ds.cumulant_relation_check(profile, phi, mu, order=2, runs=runs,
                                                   seed=mix(seed, "cumulant")),
        }

    def rep(self, state, i):
        return self._run(state, self.cfg["runs"], mix(self.seed, self.name, i))

    def check(self, state, result, cap: Capture) -> Outcome:
        import distspec as ds

        out = Outcome()
        out.op(len(result))
        out.op(cap.solves)
        g, profile = state["sample"].graph, state["profile"]
        if cap.tangle is not None:
            graph, ell, (verdict, offenders) = cap.tangle
            picked = checks.sample_vertices(graph.n, 32, cap.rng)
            out.check(checks.tangle_verdicts(graph, ell, verdict, offenders, picked))
        for graph, count in cap.cycles:
            out.check(checks.cycle_count(graph, count))
        delta, mart = result["delta"], result["martingale"]
        out.check(checks.finite("certify reports", *result["growth"], delta.rho,
                                delta.cycle_bound, mart.mean, mart.variance,
                                result["cumulant"].residual_inf,
                                *result["moments"].diag_raw))
        # The detection the certified spectrum supports: round the second
        # eigenvector local_moment_report computed, as detect() would.
        pairs = cap.last_distance_pairs
        if pairs is None or len(pairs) < 2:
            out.check(["certify computed no second eigenvector"])
        else:
            xi = ds.normalize_for_algorithm(pairs[1].vector, g.n)
            K = ds.explicit_K(profile.params.r, profile.tau, profile.d)
            labels = ds.label_two_way(xi, K, mix(self.graph_seed, "label")).labels
            ds.overlap(state["sample"].sigma, labels, profile.params.pi)
        cap.check_kept(out)
        return out


WORKLOADS = {w.name: w for w in (Pipeline, Sweep, Certify)}
