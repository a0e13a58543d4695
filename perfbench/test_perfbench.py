"""Tests of the benchmark itself, at the tiny size (a few seconds in all)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
from reference import REF_S, Reference  # noqa: E402
from tracing import Instrument, RepTrace  # noqa: E402
from workloads import WORKLOADS, Capture, Outcome  # noqa: E402

import distspec  # noqa: E402


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_lists_match_benchmark_json():
    doc = spec()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench(["--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    doc = spec()
    want = doc["per_layer"] if trace else doc["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_and_unattributed_sum_to_traced_wall(workload, tmp_path):
    wl = WORKLOADS[workload]("tiny", 5)
    with Instrument() as instrument:
        capture = Capture(instrument)
        state = wl.setup(str(tmp_path))
        capture.reset(np.random.default_rng(0), traced=True)
        with instrument.repetition(True) as rep:
            result = wl.rep(state, 0)
        assert not wl.check(state, result, capture).problems
    agg = rep.aggregate()
    assert agg, "a traced repetition records spans"
    self_total = sum(a["self_s"] for a in agg.values())
    assert self_total + rep.unattributed_s() == pytest.approx(rep.wall, rel=1e-9, abs=1e-9)
    assert all(a["self_s"] >= -1e-9 for a in agg.values())
    assert 0.0 <= rep.unattributed_s() <= rep.wall
    # Installing and removing the wrappers leaves the package as it was.
    assert not hasattr(distspec.distance_matrix, "__wrapped__")
    assert not hasattr(distspec.graph.SparseSymMatrix.matvec, "__wrapped__")


def test_reference_kernel_repeats_its_work():
    ref = Reference()
    assert ref() > 0 and ref() > 0
    assert ref.check() == []
    ref.expected = ("not", "this", "checksum")
    ref()
    assert ref.check()


def test_wall_s_cancels_a_uniform_host_slowdown():
    wl = WORKLOADS["pipeline"]("tiny", 1)

    def reps(host_scale):
        out = []
        for wall, reference_s in ((2.0, 0.2), (2.2, 0.2), (1.0, 0.1)):
            rep = RepTrace()
            rep.wall, rep.reference_s = wall * host_scale, reference_s * host_scale
            out.append((rep, Outcome(ops=1)))
        return out

    quiet = run.end_to_end(reps(1.0), wl, 0.5, 100.0)["wall_s"]
    busy = run.end_to_end(reps(1.5), wl, 0.5, 100.0)["wall_s"]
    assert quiet == pytest.approx(busy)
    assert quiet == pytest.approx((10.0 * 11.0 * 10.0) ** (1 / 3) * REF_S)


def _tiny_graph():
    params = distspec.SbmParams(r=2, W=np.array([[5.0, 1.0], [1.0, 5.0]]),
                                pi=np.array([0.5, 0.5]), n=200)
    return distspec.sample_graph(params, 9).graph


def test_distance_matrix_with_one_entry_flipped_fails_the_check():
    g, ell = _tiny_graph(), 3
    mat = distspec.distance_matrix(g, ell)
    every = np.arange(g.n)
    assert checks.distance_rows(g, ell, mat, every) == []
    rows, cols, vals = mat.entries().T
    dropped = distspec.SparseSymMatrix.from_pairs(g.n, ell, "distance",
                                                  rows[1:], cols[1:], vals[1:])
    assert checks.distance_rows(g, ell, dropped, every)
    assert checks.distance_rows(g, ell, dropped, [rows[0]])
    assert checks.distance_rows(g, ell, dropped, [cols[0]])
    dense = mat.to_dense()
    i, j = map(int, np.argwhere(np.triu(dense == 0, k=1))[0])
    added = distspec.SparseSymMatrix.from_pairs(g.n, ell, "distance",
                                                np.append(rows, i), np.append(cols, j),
                                                np.append(vals, 1))
    assert checks.distance_rows(g, ell, added, [i])


def test_eigenpair_check_catches_a_wrong_pair():
    g = _tiny_graph()
    mat = distspec.distance_matrix(g, 2)
    pairs = distspec.top_eigenpairs(mat, g.n, k=3, seed=1)
    assert checks.eigenpairs(mat, pairs) == []
    bent = distspec.EigenPair(value=pairs[0].value * (1 + 1e-6), vector=pairs[0].vector,
                              residual=0.0)
    assert checks.eigenpairs(mat, [bent] + pairs[1:])


def test_tangle_check_recomputes_the_verdict():
    # Two triangles sharing vertex 0: the ball of radius 1 around 0 holds two cycles.
    g = distspec.SparseGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4),
                                            (4, 5)])
    verdict, offenders = distspec.tangle_free_check(g, 1)
    assert checks.tangle_verdicts(g, 1, verdict, offenders, range(6)) == []
    assert checks.tangle_verdicts(g, 1, True, [], range(6))


def test_sweep_csv_layout_check():
    text = "\n".join([checks.CSV_VERSION, checks.CSV_HEADER,
                      "1,10,2,2,0,0.1,,,,,,,1,1,1",
                      "1,10,2,2,3,0.1,,,,,1.0,,1,1,1"])
    rows, errors, empty, problems = checks.parse_sweep_csv(text, [1], [0, 3], rogue=True)
    assert (len(rows), len(errors), len(empty), problems) == (2, 0, 1, [])
    _, _, _, problems = checks.parse_sweep_csv(text, [1, 2], [0, 3], rogue=True)
    assert problems
    _, _, _, problems = checks.parse_sweep_csv(text.replace("v1", "v2"), [1], [0, 3], True)
    assert problems


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(["--workload", "pipeline", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
