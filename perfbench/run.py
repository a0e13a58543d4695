"""distspec benchmark: one workload, one closed loop, metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced repetitions and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric by name and unit, the environment and (traced) the
span table.  A failed correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3    # set-up is timed this many times; setup_s takes the median

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("overlap_mean", "1"),
    ("ok_frac", "1"),
)

# Span metrics are "<module>.<function>.self_s" or ".calls"; the rest are
# counters gathered outside the spans (see workloads.Capture).
PER_LAYER = (
    ("model.sample_graph.self_s", "s"),
    ("model.n", "count"),
    ("model.edges", "count"),
    ("graph.distance_matrix.self_s", "s"),
    ("graph.distance_matrix.calls", "count"),
    ("graph.nnz_D", "count"),
    ("graph.ball_sum", "count"),
    ("graph.build_visits_per_s", "1/s"),
    ("graph.tangle_free_check.self_s", "s"),
    ("graph.set_shell_sizes.self_s", "s"),
    ("graph.set_shell_sizes.calls", "count"),
    ("graph.shell_sizes_all.self_s", "s"),
    ("graph.path_expansion_matrix.self_s", "s"),
    ("graph.fundamental_cycles.self_s", "s"),
    ("graph.cycles", "count"),
    ("graph.cap_saturated", "count"),
    ("graph.from_edges.self_s", "s"),
    ("graph.from_edges.calls", "count"),
    ("spectral.top_eigenpairs.self_s", "s"),
    ("spectral.top_eigenpairs.calls", "count"),
    ("spectral.matvec.self_s", "s"),
    ("spectral.matvec.calls", "count"),
    ("spectral.matvec.bytes_computed", "B"),
    ("spectral.residual_max", "1"),
    ("spectral.no_convergence", "count"),
    ("spectral.delta_radius_check.self_s", "s"),
    ("reconstruct.detect.self_s", "s"),
    ("reconstruct.label_two_way.self_s", "s"),
    ("reconstruct.overlap.self_s", "s"),
    ("adversary.plant_clique.self_s", "s"),
    ("adversary.apply_perturbation.self_s", "s"),
    ("adversary.qk_bound.self_s", "s"),
    ("adversary.build_rogue_certificate.self_s", "s"),
    ("adversary.build_rogue_certificate.calls", "count"),
    ("adversary.rogue_failed", "count"),
    ("gw.simulate_population.self_s", "s"),
    ("gw.martingale_limit_check.self_s", "s"),
    ("gw.cumulant_relation_check.self_s", "s"),
    ("diagnostics.local_moment_report.self_s", "s"),
    ("diagnostics.shell_type_counts.self_s", "s"),
    ("cli.cmd_sweep.self_s", "s"),
    ("cli.rows", "count"),
    ("cli.builds_per_row", "count/row"),
    ("cli.solves_per_row", "count/row"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("pipeline", "sweep", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long instance for the benchmark's own tests")
    p.add_argument("--rss-probe", action="store_true",
                   help="internal: set up and run one repetition, print nothing")
    return p.parse_args(argv)


def source_dir() -> str | None:
    src = os.path.join(os.getcwd(), "src")
    return src if os.path.isfile(os.path.join(src, "distspec", "__init__.py")) else None


def import_layers() -> float:
    """Import numpy, scipy and every distspec layer; returns the seconds taken."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import distspec  # noqa: F401
    from tracing import LAYERS
    for layer in LAYERS:
        __import__(f"distspec.{layer}")
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except Exception:   # the config layout differs between numpy versions
        blas = {"name": "unknown"}
    threads = {v: os.environ.get(v) for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(os.getcwd()),
    }


def git_commit(root: str) -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_peak_rss_mb(args) -> float:
    """Peak RSS of a fresh process that sets up and runs one repetition.

    The probe reports its own high-water mark (``VmHWM``): the
    ``ru_maxrss`` of a child started from this process also counts the
    parent's memory, which Linux carries over the ``exec``.  glibc raises
    its mmap threshold each time a large block is freed, so whether a
    freed array leaves the RSS depends on the allocation history (the
    same pipeline input peaks at 140 or 168 MB); the probe pins the
    threshold at glibc's 128 KiB default, so the peak follows the memory
    the program holds.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--rss-probe"]
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS probe failed:\n{proc.stderr[-2000:]}")
    key, kb = proc.stdout.split()[-2:]
    if key != "peak_rss_kb":
        raise RuntimeError(f"peak-RSS probe printed {proc.stdout[-200:]!r}")
    return int(kb) / 1024.0


def run_probe(workload, workdir) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the measuring run reports them
        state = workload.setup(workdir)
        workload.rep(state, 0)
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(f"peak_rss_kb {kb}")
    return 0


def measure(args, workload, workdir, import_s):
    """Set up, run the closed loop and check every repetition."""
    from reference import Reference
    from tracing import Instrument
    from workloads import Capture, mix

    import numpy as np

    instrument = Instrument()
    capture = Capture(instrument)
    reference = Reference()
    reference()         # first call: warm-up, and the checksum later calls must match
    reps = []           # (RepTrace, Outcome)
    crash = None
    with instrument:
        setup_times = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # warm-up warnings; the loop records its own
            for _ in range(SETUPS):
                start = time.perf_counter()
                state = workload.setup(workdir)
                setup_times.append(time.perf_counter() - start)
        # Repetitions rotate over the CPUs this process may use: on a shared
        # host each core slows down and recovers on its own (a fixed loop
        # drifts by 25 % over tens of seconds, with little correlation
        # between the two cores), and a run pinned to one core by the
        # scheduler would inherit that core's state for its whole length.
        # The reference kernel runs right before and after each repetition,
        # on the repetition's CPU, so it sees the same core state.
        cpus = sorted(os.sched_getaffinity(0))
        loop_start = time.perf_counter()
        i = 0
        try:
            while i < workload.min_reps or time.perf_counter() - loop_start < args.seconds:
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                traced = bool(args.trace) and i % 2 == 0
                capture.reset(np.random.default_rng(mix(args.seed, "check", i)), traced)
                before = reference()
                try:
                    with instrument.repetition(traced) as rep:
                        result = workload.rep(state, i)
                except Exception:
                    crash = traceback.format_exc()
                    break
                rep.reference_s = (before + reference()) / 2
                outcome = workload.check(state, result, capture)
                no_conv = sum(1 for w in rep.warnings if w[0] == "NoConvergence")
                outcome.op(0, failed=no_conv)
                if traced:
                    capture.count_sizes(outcome, rep.warnings)
                reps.append((rep, outcome))
                i += 1
        finally:
            os.sched_setaffinity(0, cpus)
    setup_s = import_s + statistics.median(setup_times)
    return reps, setup_s, crash, reference.check()


def end_to_end(reps, workload, setup_s, peak_mb) -> dict:
    """The end-to-end metrics of a run.

    ``wall_s`` is the geometric mean over repetitions of the repetition's
    wall time divided by the mean of the reference kernel's times right
    before and right after it, on the same CPU, times ``REF_S`` seconds:
    the repetition's wall time on a host where the kernel takes
    ``REF_S``.  A slow stretch of the host slows the repetition and the
    kernel alike, so it cancels; a slower program does not.  Over ten
    seeds the geometric mean of these ratios spread less than their
    median (README.md, Steadiness).
    """
    from reference import REF_S

    overlaps = [v for _, o in reps[:workload.quality_reps] for v in o.overlaps]
    attempted = sum(o.ops for _, o in reps)
    failed = sum(o.failed for _, o in reps)
    return {
        "wall_s": REF_S * statistics.geometric_mean(r.wall / r.reference_s for r, _ in reps),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "overlap_mean": statistics.fmean(overlaps) if overlaps else float("nan"),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(reps) -> tuple[dict, dict]:
    """Median over traced repetitions of each per-repetition value, and the span table."""
    traced = [(r, o, r.aggregate()) for r, o in reps if r.traced]
    untraced = [r.wall for r, _ in reps if not r.traced]

    def value(name, rep, outcome, agg):
        if name in outcome.counters:
            return outcome.counters[name]
        if name == "graph.build_visits_per_s":
            busy = agg.get("graph.distance_matrix", {}).get("self_s", 0.0)
            return outcome.counters["graph.ball_sum"] / busy if busy else 0.0
        if name == "trace.unattributed_s":
            return rep.unattributed_s()
        span, _, field = name.rpartition(".")
        return agg.get(span, {}).get(field, 0)

    values = {name: statistics.median(value(name, *t) for t in traced)
              for name, _ in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(r.wall for r, _, _ in traced)
                                  - statistics.median(untraced)) if untraced else 0.0
    spans = {}
    for _, _, agg in traced:
        for span, a in agg.items():
            s = spans.setdefault(span, {"calls": [], "self_s": [], "total_s": []})
            for k in s:
                s[k].append(a[k])
    table = {span: {k: statistics.median(v) for k, v in s.items()}
             for span, s in sorted(spans.items())}
    return values, table


def main(argv=None) -> int:
    args = parse_args(argv)
    src = source_dir()
    if src is None:
        print("perfbench: no src/distspec here; run from the repository root",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if src not in sys.path:
        sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import_s = import_layers()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size, args.seed)
    workdir = os.path.join(os.getcwd(), ".bench_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.rss_probe:
            return run_probe(workload, workdir)
        reps, setup_s, crash, reference_problems = measure(args, workload, workdir, import_s)
        peak_mb = probe_peak_rss_mb(args) if crash is None else float("nan")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for _, o in reps for p in o.problems] + reference_problems
    if crash is not None:
        problems.append("repetition raised:\n" + crash)
    attempted = sum(o.ops for _, o in reps) + (1 if crash else 0)
    failed = sum(o.failed for _, o in reps) + (1 if crash else 0)
    correct = not problems and bool(reps)

    env = environment(args.seed)
    env.update({"workload": args.workload, "size": args.size, "trace": args.trace,
                "repetitions": len(reps), "traced_repetitions":
                sum(1 for r, _ in reps if r.traced), "seconds": args.seconds})
    print("env " + json.dumps(env, sort_keys=True))
    print("rep_walls " + json.dumps([round(r.wall, 6) for r, _ in reps]))
    print("rep_references " + json.dumps([round(r.reference_s, 6) for r, _ in reps]))
    if reps:
        print(f"median raw wall {statistics.median(r.wall for r, _ in reps)!r} s, median "
              f"reference {statistics.median(r.reference_s for r, _ in reps)!r} s")
    for p in problems:
        print("FAIL " + p)
    warned = {}
    for rep, _ in reps:
        for category, span, _ in rep.warnings:
            key = f"{span}:{category}"
            warned[key] = warned.get(key, 0) + 1
    if warned:
        print("warnings " + json.dumps(warned, sort_keys=True))

    if crash is not None or not reps:
        metrics = {}
    elif args.trace:
        values, table = per_layer(reps)
        errors = {}
        for rep, _ in reps:
            for k, v in rep.errors.items():
                errors[k] = errors.get(k, 0) + v
        print("spans " + json.dumps(table, sort_keys=True))
        if errors:
            print("span_errors " + json.dumps(errors, sort_keys=True))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = end_to_end(reps, workload, setup_s, peak_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"attempted {attempted} failed {failed} "
          f"failed_frac {failed / max(attempted, 1)!r}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
