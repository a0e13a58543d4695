import dataclasses
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import distspec as ds
import distspec.adversary as adversary
import distspec.cli as cli
import distspec.reconstruct as reconstruct
from distspec.model import InvalidKappa


PARAMS = {"r": 2, "W": [[5, 1], [1, 5]], "pi": [0.5, 0.5], "n": 300}
README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, **overrides):
    doc = {
        "params": PARAMS,
        "ell": 3,
        "seeds": [1, 2],
        "gammas": [],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == cli.CSV_VERSION
    assert lines[1] == cli.CSV_HEADER
    return [ln for ln in lines[2:] if not ln.startswith("#")]


def strip_timings(row):
    return row.split(",")[:-3]


def record_detect_calls(monkeypatch):
    """Patch ``cli.detect`` to record the (graph, dl) of every call."""
    calls = []
    original = cli.detect

    def recorded(g, *args, dl=None, **kwargs):
        calls.append((g, dl))
        return original(g, *args, dl=dl, **kwargs)

    monkeypatch.setattr(cli, "detect", recorded)
    return calls


def count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_import_leaves_the_slow_scipy_modules_unloaded():
    # The solver and the tangle check import these inside functions: either
    # one at module level adds about 0.15 s to every command's start.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(README.parent / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, distspec, distspec.cli; "
            "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


class TestConfig:
    def test_a_matrix_other_than_distance_fails_before_sampling(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a graph for an invalid config")

        monkeypatch.setattr(cli, "sample_graph", no_sampling)
        cfg = write_config(tmp_path, matrix="distnace")
        with pytest.raises(ValueError, match="unknown matrix kind 'distnace'"):
            cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
        with pytest.raises(ValueError, match="unknown matrix kind"):
            cli.main(["detect", str(tmp_path / "missing.json"), "--config", str(cfg)])

    @pytest.mark.parametrize("field, value", [
        ("ell", 2.7), ("ell", "3"), ("ell", True), ("ell", 0),
        ("kappa", "3"), ("kappa", True), ("kappa", 0), ("kappa", -0.5)])
    def test_non_positive_or_mistyped_depth_fields_are_rejected(self, tmp_path, field, value):
        cfg = write_config(tmp_path, **{"ell": None, field: value})
        with pytest.raises(ValueError, match=f"{field} must be a positive"):
            cli.ExperimentConfig.load(str(cfg))

    @pytest.mark.parametrize("field, overrides", [
        ("n", {"params": dict(PARAMS, n=300.9)}), ("r", {"params": dict(PARAMS, r="2")}),
        ("seed", {"seeds": [1.7, True]}), ("seed", {"seeds": [1, True]}),
        ("gamma", {"gammas": [2.5]}), ("rogue", {"rogue": "no"})],
        ids=["n-float", "r-string", "seed-float", "seed-bool", "gamma-float", "rogue-string"])
    def test_non_integer_counts_and_non_boolean_rogue_are_rejected(self, tmp_path, field,
                                                                   overrides):
        cfg = write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            cli.ExperimentConfig.load(str(cfg))

    def test_unused_keys_still_load(self, tmp_path):
        cfg = write_config(tmp_path, perturbation="clique")
        assert cli.ExperimentConfig.load(str(cfg)).seeds == (1, 2)

    @pytest.mark.parametrize("where, key, overrides", [
        ("config", "gamas", {"gamas": [5]}), ("config", "rogeu", {"rogeu": True}),
        ("params", "nn", {"params": dict(PARAMS, nn=300)})])
    def test_unknown_keys_are_rejected(self, tmp_path, where, key, overrides):
        cfg = write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=f"^unknown {where} key '{key}'$"):
            cli.ExperimentConfig.load(str(cfg))

    @pytest.mark.parametrize("where, key", [
        ("config", "params"), ("params", "r"), ("params", "W"), ("params", "pi"),
        ("params", "n"), ("graph", "n"), ("graph", "r"), ("graph", "types"), ("graph", "edges")])
    def test_missing_keys_are_named(self, where, key):
        graph = {"n": 4, "r": 2, "seed": 0, "types": [0, 1, 0, 1], "edges": [[0, 1]]}
        config = {"params": dict(PARAMS), "ell": 3}
        del {"config": config, "params": config["params"], "graph": graph}[where][key]
        load = ds.sample_from_json if where == "graph" else cli.ExperimentConfig.from_json
        with pytest.raises(ValueError, match=f"^missing {where} key '{key}'$"):
            load(graph if where == "graph" else config)


class TestResolveEll:
    def resolve(self, tmp_path, *flags, **overrides):
        cfg = cli.ExperimentConfig.load(str(write_config(tmp_path, **overrides)))
        args = cli.build_parser().parse_args(["sweep", *flags])
        return cli._resolve_ell(args, cfg)

    def test_flags_then_config(self, tmp_path):
        assert self.resolve(tmp_path) == 3
        assert self.resolve(tmp_path, "--ell", "2") == 2
        # kappa * log(300) / log(3) = 5.19 * kappa
        assert self.resolve(tmp_path, "--kappa", "0.5") == 2
        assert self.resolve(tmp_path, ell=None, kappa=0.5) == 2
        assert self.resolve(tmp_path, ell=None) == 1

    def test_zero_ell_flag_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            self.resolve(tmp_path, "--ell", "0")

    def test_zero_kappa_flag_is_rejected(self, tmp_path):
        with pytest.raises(InvalidKappa):
            self.resolve(tmp_path, "--kappa", "0")

    def test_zero_kappa_in_config_is_rejected(self, tmp_path):
        with pytest.raises(InvalidKappa):
            self.resolve(tmp_path, ell=None, kappa=0)


class TestGenerate:
    def test_writes_graph_json(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "g.json"
        assert cli.main(["generate", "--config", str(cfg), "--seed", "1",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"n", "r", "seed", "types", "edges"}
        assert doc["n"] == 300 and doc["seed"] == 1
        assert all(u < v for u, v in doc["edges"])

    def test_byte_identical_per_seed(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "7", "--out", str(a)])
        cli.main(["generate", "--config", str(cfg), "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_connectivity(self, tmp_path):
        cfg = write_config(tmp_path, params={"r": 2, "W": [[0, 0], [0, 0]],
                                             "pi": [0.5, 0.5], "n": 40})
        out = tmp_path / "empty.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert json.loads(out.read_text())["edges"] == []


class TestDetect:
    def test_assignment_and_record(self, tmp_path):
        cfg = write_config(tmp_path)
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "1", "--out", str(graph)])
        out = tmp_path / "assignment.json"
        csv = tmp_path / "rows.csv"
        assert cli.main(["detect", str(graph), "--config", str(cfg),
                         "--out", str(out), "--csv", str(csv)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"labels", "overlap", "perm", "K", "lambdas"}
        assert len(doc["labels"]) == 300
        assert len(read_rows(csv)) == 1

    def test_one_build_and_one_solve(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "1", "--out", str(graph)])
        counts = {}
        count_calls(monkeypatch, cli, "distance_matrix", counts)
        count_calls(monkeypatch, reconstruct, "distance_matrix", counts)
        count_calls(monkeypatch, reconstruct, "top_eigenpairs", counts)
        count_calls(monkeypatch, cli, "top_eigenpairs", counts)
        assert cli.main(["detect", str(graph), "--config", str(cfg),
                         "--out", str(tmp_path / "a.json")]) == 0
        assert counts == {"distance_matrix": 1, "top_eigenpairs": 1}

    def test_labels_and_lambdas_are_those_of_detect(self, tmp_path):
        cfg = write_config(tmp_path)
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "4", "--out", str(graph)])
        out = tmp_path / "a.json"
        cli.main(["detect", str(graph), "--config", str(cfg), "--seed", "9", "--out", str(out)])
        doc = json.loads(out.read_text())
        sample = ds.sample_from_json(json.loads(graph.read_text()))
        config = cli.ExperimentConfig.load(str(cfg))
        assignment, record = ds.detect(sample.graph, ds.derive_spectral_profile(config.params),
                                       3, seed=9)
        assert doc["labels"] == assignment.labels.tolist()
        assert doc["lambdas"] == [p.value for p in record.pairs]
        assert doc["source"] == assignment.source

    def test_kappa_reads_the_graphs_vertex_count(self, tmp_path):
        # kappa * log(n) / log(3) at kappa = 0.5: 2.60 at the config's n = 300,
        # 3.04 at the graph's n = 800, so the depth must be 3.
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(write_config(tmp_path, params={**PARAMS, "n": 800})),
                  "--seed", "1", "--out", str(graph)])
        csv = tmp_path / "rows.csv"
        assert cli.main(["detect", str(graph), "--config", str(write_config(tmp_path)),
                         "--kappa", "0.5", "--out", str(tmp_path / "a.json"),
                         "--csv", str(csv)]) == 0
        (row,) = read_rows(csv)
        assert row.split(",")[1:4] == ["800", "2", "3"]

    def test_calls_detect_once_without_a_matrix(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "1", "--out", str(graph)])
        calls = record_detect_calls(monkeypatch)
        assert cli.main(["detect", str(graph), "--config", str(cfg),
                         "--out", str(tmp_path / "a.json")]) == 0
        assert [dl for _, dl in calls] == [None]
        assert not hasattr(cli, "solve_pairs")

    def test_types_beyond_the_configs_r_are_rejected_before_detect(self, tmp_path, monkeypatch):
        graph = tmp_path / "g.json"
        three = {"r": 3, "W": [[5, 1, 1], [1, 5, 1], [1, 1, 5]], "pi": [0.4, 0.3, 0.3], "n": 300}
        cli.main(["generate", "--config", str(write_config(tmp_path, params=three)),
                  "--seed", "1", "--out", str(graph)])
        calls = record_detect_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"^the graph has type 2, but the config has r = 2$"):
            cli.main(["detect", str(graph), "--config", str(write_config(tmp_path)),
                      "--out", str(tmp_path / "a.json")])
        assert calls == []

    def test_matrix_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["detect", str(tmp_path / "g.json"), "--matrix", "path"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --matrix path" in capsys.readouterr().err

    def test_csv_rows_append_under_one_header(self, tmp_path):
        cfg = write_config(tmp_path)
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "1", "--out", str(graph)])
        csv = tmp_path / "rows.csv"
        csv.touch()  # an empty file gets the header too
        for seed in ("3", "4"):
            cli.main(["detect", str(graph), "--config", str(cfg), "--seed", seed,
                      "--out", str(tmp_path / "a.json"), "--csv", str(csv)])
        assert [row.split(",")[0] for row in read_rows(csv)] == ["3", "4"]
        assert csv.read_text().count(cli.CSV_HEADER) == 1

    def test_same_seed_identical_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "2", "--out", str(graph)])
        rows = []
        for name in ("r1.csv", "r2.csv"):
            csv = tmp_path / name
            cli.main(["detect", str(graph), "--config", str(cfg),
                      "--out", str(tmp_path / "a.json"), "--csv", str(csv)])
            rows.append(strip_timings(read_rows(csv)[0]))
        assert rows[0] == rows[1]


class TestSolveSizes:
    """The k of every ``top_eigenpairs`` call: the labels ask for the r0
    signal pairs (r0 = 2 here), the sweep's CSV lambdas for four."""

    @pytest.fixture
    def ks(self, monkeypatch):
        import distspec.diagnostics as diagnostics
        import distspec.spectral as spectral

        seen = []
        original = spectral.top_eigenpairs

        def recorded(op, n, k, *args, **kwargs):
            seen.append(k)
            return original(op, n, k, *args, **kwargs)

        for module in (cli, reconstruct, adversary, diagnostics, spectral):
            monkeypatch.setattr(module, "top_eigenpairs", recorded)
        return seen

    def test_detect_solves_r0_pairs_once(self, tmp_path, ks):
        cfg = write_config(tmp_path)
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "1", "--out", str(graph)])
        ks.clear()
        assert cli.main(["detect", str(graph), "--config", str(cfg),
                         "--out", str(tmp_path / "a.json")]) == 0
        assert ks == [2]

    def test_sweep_row_solves_four_for_the_csv_and_r0_for_the_labels(self, tmp_path, ks):
        cfg = write_config(tmp_path, gammas=[0, 2], seeds=[1], rogue=True)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        # gamma = 0: CSV, labels; gamma = 2: CSV, labels, rogue certificate.
        assert ks == [4, 2, 4, 2, 2]

    def test_benchmark_sweep_reuses_each_matrixs_screen(self, tmp_path, ks, tols):
        # The benchmark's sweep: n = 500, ell = 4, seeds 1-2, gammas 0/3/8/20
        # with rogue certificates.  Each seed's k = 4 solve of the unedited
        # D^ell settles its gap; the labels and the three certificates solve
        # that same matrix again, and each edited matrix is solved twice.
        cfg = write_config(tmp_path, params={**PARAMS, "n": 500}, ell=4, seeds=[1, 2],
                           gammas=[0, 3, 8, 20], rogue=True)
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_rows(out)) == 8
        assert ks == 2 * [4, 2, 4, 2, 2, 4, 2, 2, 4, 2, 2]  # 22 solves per 8 rows
        # A screen on the first solve of each of the 8 matrices: 22 first runs
        # and 8 screens, where the parent ran a screen in all 22 solves (44).
        assert len(tols) == 30 and tols.count(ds.spectral._SCREEN_TOL) == 8

    def test_certify_solves_are_unchanged(self, ks):
        sample = ds.sample_graph(cli._default_config().params, 1)
        profile = ds.derive_spectral_profile(cli._default_config().params)
        ds.delta_radius_check(sample.graph, 2, profile.alpha, seed=1)
        ds.local_moment_report(sample.graph, sample.sigma, profile, 2, seed=1)
        assert ks == [1, 2]


class TestPerturb:
    def test_writes_edit_list(self, tmp_path):
        cfg = write_config(tmp_path)
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(cfg), "--seed", "1", "--out", str(graph)])
        out = tmp_path / "gp.json"
        pout = tmp_path / "p.json"
        assert cli.main(["perturb", str(graph), "--gamma", "4", "--seed", "9",
                         "--out", str(out), "--perturbation-out", str(pout)]) == 0
        pdoc = json.loads(pout.read_text())
        assert pdoc["gamma"] == 4
        gdoc = json.loads(out.read_text())
        base = json.loads(graph.read_text())
        assert len(gdoc["edges"]) == len(base["edges"]) + len(pdoc["add"])

    def test_keeps_the_block_count_of_the_input(self, tmp_path):
        # The third block drew no vertex; r must still read 3.
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 6, "r": 3, "seed": 1, "types": [0, 1, 0, 1, 0, 1],
                                     "edges": [[0, 1], [2, 3]]}))
        out = tmp_path / "gp.json"
        assert cli.main(["perturb", str(graph), "--gamma", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["r"] == 3

    def test_writes_the_model_graph_document(self, tmp_path):
        graph = tmp_path / "g.json"
        cli.main(["generate", "--config", str(write_config(tmp_path)), "--seed", "1",
                  "--out", str(graph)])
        out = tmp_path / "gp.json"
        assert cli.main(["perturb", str(graph), "--gamma", "5", "--seed", "9",
                         "--out", str(out)]) == 0
        sample = ds.sample_from_json(json.loads(graph.read_text()))
        perturbed, _ = ds.plant_clique(sample.graph, 5, ds.derive_seed(9, "perturb:5"))
        doc = ds.sample_to_json(ds.TypedGraphSample(perturbed, sample.sigma, 9), PARAMS["r"])
        assert out.read_text() == json.dumps(doc, separators=(",", ":")) + "\n"

    def test_empty_gamma_is_a_usage_error(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 6, "r": 2, "seed": 1, "types": [0, 1, 0, 1, 0, 1],
                                     "edges": [[0, 1], [2, 3]]}))
        out = tmp_path / "gp.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["perturb", str(graph), "--out", str(out), "--gamma"])
        assert exc.value.code == 2
        assert "--gamma: expected one argument" in capsys.readouterr().err
        assert not out.exists()

    def test_several_gammas_are_rejected(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 6, "r": 2, "seed": 1, "types": [0, 1, 0, 1, 0, 1],
                                     "edges": [[0, 1], [2, 3]]}))
        out = tmp_path / "gp.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["perturb", str(graph), "--gamma", "3", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: 5" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_gamma_is_a_usage_error(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 6, "r": 2, "seed": 1, "types": [0, 1, 0, 1, 0, 1],
                                     "edges": [[0, 1], [2, 3]]}))
        out = tmp_path / "gp.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["perturb", str(graph), "--gamma", "-2", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --gamma: invalid nonnegative_int value: '-2'" in capsys.readouterr().err
        assert not out.exists()


class TestCsvRow:
    FIELDS = dict(seed=7, n=300, r=2, ell=3, gamma=0, overlap=0.25, qk=None,
                  rogue_rayleigh=None, ms_build=1.5, ms_eig=2.25, ms_label=0.0625)

    def test_none_and_missing_lambdas_are_empty(self):
        row = cli._csv_row(**self.FIELDS, lambdas=[3.0, -1.5])
        assert row == "7,300,2,3,0,0.250000,3.000000,-1.500000,,,,,1.500,2.250,0.062"
        assert len(row.split(",")) == len(cli.CSV_HEADER.split(","))

    def test_only_the_first_four_lambdas_are_written(self):
        fields = dict(self.FIELDS, qk=41.8400144, rogue_rayleigh=6.75)
        row = cli._csv_row(**fields, lambdas=[5.0, 4.0, 3.0, 2.0, 1.0])
        assert row == ("7,300,2,3,0,0.250000,5.000000,4.000000,3.000000,2.000000,"
                       "41.840014,6.750000,1.500,2.250,0.062")


class TestSweep:
    def test_empty_gamma_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(write_config(tmp_path, gammas=[0, 1])),
                      "--out", str(out), "--gamma"])
        assert exc.value.code == 2
        assert "--gamma: expected at least one argument" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_gamma_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(write_config(tmp_path, gammas=[0, 1])),
                      "--out", str(out), "--gamma", "0", "-2"])
        assert exc.value.code == 2
        assert "argument --gamma: invalid nonnegative_int value: '-2'" in capsys.readouterr().err
        assert not out.exists()

    def test_opens_its_csv_once(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep.csv"
        opened = []

        def counted(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counted, raising=False)
        cfg = write_config(tmp_path, gammas=[0, 2], seeds=[1, 2])
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert opened.count(str(out)) == 1
        assert len(read_rows(out)) == 4

    def test_a_finished_row_is_on_disk_when_a_later_cell_raises(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep.csv"
        original, on_disk = cli._sweep_row, []

        def interrupted(*args):
            if on_disk:  # the second cell: read the file while the sweep holds it open
                on_disk.append(out.read_text())
                raise KeyboardInterrupt
            on_disk.append(None)
            return original(*args)

        monkeypatch.setattr(cli, "_sweep_row", interrupted)
        cfg = write_config(tmp_path, gammas=[0, 2], seeds=[1])
        with pytest.raises(KeyboardInterrupt):
            cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        lines = on_disk[1].splitlines()
        assert lines[:2] == [cli.CSV_VERSION, cli.CSV_HEADER]
        assert len(lines) == 3 and lines[2].startswith("1,300,2,3,0,")

    def test_empty_gamma_grid_gives_baseline_rows(self, tmp_path):
        cfg = write_config(tmp_path, gammas=[])
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 2  # one per seed
        assert all(row.split(",")[4] == "0" for row in rows)

    def test_grid_row_count_and_order(self, tmp_path):
        cfg = write_config(tmp_path, gammas=[0, 1, 2], seeds=[1, 2])
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        rows = read_rows(out)
        assert len(rows) == 6
        key = [(int(r.split(",")[0]), int(r.split(",")[4])) for r in rows]
        assert key == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]

    def test_one_build_per_graph(self, tmp_path, monkeypatch):
        # Each seed's unedited D^ell serves its gamma = 0 row and every
        # rogue certificate; each perturbed graph is built once.
        counts = {}
        count_calls(monkeypatch, cli, "distance_matrix", counts)
        count_calls(monkeypatch, reconstruct, "distance_matrix", counts)
        count_calls(monkeypatch, adversary, "distance_matrix", counts)
        cfg = write_config(tmp_path, gammas=[0, 2, 3], seeds=[1, 2], rogue=True)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 6 and all(r.split(",")[11] for r in rows if r.split(",")[4] != "0")
        assert counts == {"distance_matrix": 2 + 2 * 2}

    def test_each_row_calls_detect_once_with_its_matrix(self, tmp_path, monkeypatch):
        # detect gets the matrix the row's CSV solve read, built from the
        # graph it labels: the unedited one at gamma = 0, else the edited one.
        solved = []
        original = cli.top_eigenpairs
        monkeypatch.setattr(cli, "top_eigenpairs",
                            lambda op, *a, **kw: solved.append(op) or original(op, *a, **kw))
        calls = record_detect_calls(monkeypatch)
        cfg = write_config(tmp_path, gammas=[0, 2], seeds=[1, 2])
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        assert len(calls) == len(solved) == 4
        for (g, dl), mat in zip(calls, solved):
            assert dl is mat
            assert (ds.distance_matrix(g, 3).to_csr() != dl.to_csr()).nnz == 0

    def test_rogue_certificates_without_a_gamma_zero_row(self, tmp_path, monkeypatch):
        counts = {}
        count_calls(monkeypatch, cli, "distance_matrix", counts)
        count_calls(monkeypatch, reconstruct, "distance_matrix", counts)
        count_calls(monkeypatch, adversary, "distance_matrix", counts)
        cfg = write_config(tmp_path, gammas=[2, 3], seeds=[1], rogue=True)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        assert counts == {"distance_matrix": 1 + 2}

    def test_rows_regenerate_identically(self, tmp_path):
        cfg = write_config(tmp_path, gammas=[0, 2], seeds=[3])
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        cli.main(["sweep", "--config", str(cfg), "--out", str(out1)])
        cli.main(["sweep", "--config", str(cfg), "--out", str(out2)])
        rows1 = [strip_timings(r) for r in read_rows(out1)]
        rows2 = [strip_timings(r) for r in read_rows(out2)]
        assert rows1 == rows2

    def test_rogue_greedy_exhausted_keeps_row_and_says_why(self, tmp_path):
        # Mean degree 3 leaves no hub with 20 neighbors for the sphere set.
        cfg = write_config(tmp_path, gammas=[20], seeds=[1], rogue=True)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1 and rows[0].split(",")[11] == ""
        assert "# ROGUE seed=1 gamma=20: no candidate hub has degree >= 20" \
            in out.read_text().splitlines()

    def test_other_rogue_errors_fail_the_row(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken certificate")

        monkeypatch.setattr(cli, "build_rogue_certificate", broken)
        cfg = write_config(tmp_path, gammas=[0, 2], seeds=[1], rogue=True)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        text = out.read_text()
        assert [r.split(",")[4] for r in read_rows(out)] == ["0"]
        assert "# ERROR seed=1 gamma=2: broken certificate" in text.splitlines()
        assert "# ROGUE" not in text


class TestVerify:
    def test_oracles_suite_passes(self, capsys):
        assert cli.main(["verify", "oracles"]) == 0
        out = capsys.readouterr().out
        assert "PASS oracles.distance_matrix_matches_apsp" in out
        assert "FAIL" not in out

    def test_oracles_suite_checks_shells_and_tangles(self, capsys):
        assert cli.main(["verify", "oracles"]) == 0
        assert "PASS oracles.shells_and_tangle_match_apsp" in capsys.readouterr().out

    def test_oracles_suite_checks_the_distance_matrix_layout(self, capsys):
        assert cli.main(["verify", "oracles"]) == 0
        assert "PASS oracles.distance_matrix_layout" in capsys.readouterr().out

    def test_oracles_suite_checks_the_sampler(self, capsys):
        assert cli.main(["verify", "oracles"]) == 0
        assert "PASS oracles.sampler_matches_coin_sweep" in capsys.readouterr().out

    def test_bounds_suite_passes(self, capsys):
        assert cli.main(["verify", "bounds"]) == 0
        out = capsys.readouterr().out
        assert "PASS bounds.cycle_bound_matches_full_expansion" in out
        assert "FAIL" not in out

    def test_gw_suite_checks_the_bootstrap(self, capsys):
        assert cli.main(["verify", "gw"]) == 0
        out = capsys.readouterr().out
        assert "PASS gw.stderr_matches_bootstrap" in out
        assert "FAIL" not in out

    def test_spectra_suite_passes(self, capsys):
        assert cli.main(["verify", "spectra"]) == 0
        out = capsys.readouterr().out
        assert "PASS spectra.multiplicity_matches_dense" in out
        assert "PASS spectra.multiplicity_screen_near_ties" in out
        assert "PASS spectra.opposite_sign_tie_returned" in out
        assert "PASS spectra.repeat_solve_settled" in out
        assert "FAIL" not in out


class TestGwCommand:
    @pytest.mark.parametrize("runs", ["0", "1", "2"])
    def test_too_few_runs_is_a_usage_error(self, tmp_path, capsys, runs):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gw", "--config", str(write_config(tmp_path)), "--runs", runs,
                      "--out", str(tmp_path / "gw.json")])
        assert exc.value.code == 2
        assert f"argument --runs: invalid run_count value: '{runs}'" in capsys.readouterr().err
        assert not (tmp_path / "gw.json").exists()

    def test_writes_records(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "gw.json"
        assert cli.main(["gw", "--config", str(cfg), "--runs", "20000",
                         "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        names = {rec["statistic"] for rec in records}
        assert {"variance_sum", "mean", "cumulant_relation_order2"} <= names
        for rec in records:
            assert set(rec) == {"statistic", "estimate", "stderr",
                                "closed_form", "residual"}

    def test_cumulant_stderr_is_the_checks(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "gw.json"
        assert cli.main(["gw", "--config", str(cfg), "--runs", "20000", "--seed", "3",
                         "--out", str(out)]) == 0
        (rec,) = [r for r in json.loads(out.read_text())
                  if r["statistic"] == "cumulant_relation_order2"]
        assert math.isfinite(rec["stderr"]) and rec["stderr"] > 0
        profile = ds.derive_spectral_profile(ds.SbmParams(**PARAMS))
        chk = ds.cumulant_relation_check(profile, profile.phi[1], float(profile.mu[1]),
                                         order=2, runs=20000,
                                         seed=ds.derive_seed(3, "gw-cum"))
        assert rec["stderr"] == float(chk.stderr.max())

    def test_skew_model_writes_no_uniform_prior_identity(self, tmp_path):
        # tau_mu / (tau_mu - 1) is the sum of second moments only under a
        # uniform prior with equal column sums; on this model the exact solve
        # gives 2.556 and the identity 3.238.
        cfg = write_config(tmp_path, params={"r": 2, "W": [[8, 1], [1, 5]],
                                             "pi": [0.3, 0.7], "n": 300})
        out = tmp_path / "gw.json"
        assert cli.main(["gw", "--config", str(cfg), "--runs", "2000",
                         "--out", str(out)]) == 0
        names = [rec["statistic"] for rec in json.loads(out.read_text())]
        assert names == ["variance_sum", "mean", "cumulant_relation_order2"]

    def test_residual_is_estimate_minus_closed_form(self, tmp_path):
        out = tmp_path / "gw.json"
        assert cli.main(["gw", "--config", str(write_config(tmp_path)), "--runs", "2000",
                         "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        assert len(records) == 4
        for rec in records:
            assert rec["residual"] == rec["estimate"] - rec["closed_form"]


class TestFlags:
    """Each command declares the flags its cmd_* reads and no other, so a
    flag it would ignore is a usage error instead."""

    FLAGS = {
        "generate": {"--config", "--seed", "--out"},
        "detect": {"--config", "--seed", "--ell", "--kappa", "--out", "--csv"},
        "perturb": {"--seed", "--gamma", "--out", "--perturbation-out"},
        "sweep": {"--config", "--ell", "--kappa", "--gamma", "--out"},
        "verify": set(),
        "gw": {"--config", "--seed", "--out", "--runs"},
    }
    POSITIONAL = {"detect": ["g.json"], "perturb": ["g.json"], "verify": ["all"]}

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_declared_flags(self, command, capsys):
        (commands,) = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
        declared = {opt for action in commands.choices[command]._actions
                    for opt in action.option_strings if opt not in ("-h", "--help")}
        assert declared == self.FLAGS[command]
        for flag in set().union(*self.FLAGS.values()) - declared:
            with pytest.raises(SystemExit) as exc:
                cli.main([command, *self.POSITIONAL.get(command, []), flag, "5"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_sweep_seed_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(write_config(tmp_path)), "--seed", "5",
                      "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "s.csv").exists()


class TestReadme:
    """The README's config example loads, its CLI lines parse and its CSV
    header is the one written, so a removed flag, config key or column
    cannot linger there."""

    @staticmethod
    def blocks(lang):
        fenced = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.S | re.M)
        return [body for tag, body in fenced if tag == lang]

    def test_config_example_loads(self):
        (block,) = self.blocks("json")
        doc = json.loads(block)
        cli.ExperimentConfig.from_json(doc)
        assert set(doc) <= {f.name for f in dataclasses.fields(cli.ExperimentConfig)}

    def test_cli_lines_parse(self):
        (block,) = [b for b in self.blocks("") if b.startswith("distspec ")]
        parser = cli.build_parser()
        lines = block.replace("\\\n", " ").splitlines()
        for line in lines:
            program, *tokens = shlex.split(line)
            assert program == "distspec"
            choices = [t[1:-1].split("|") if re.fullmatch(r"\{.*\}", t) else [t]
                       for t in tokens]
            for argv in itertools.product(*choices):
                parser.parse_args(argv)

    def test_quick_start_runs(self, capsys):
        (block,) = self.blocks("python")
        exec(block, {})
        score, lambdas = capsys.readouterr().out.split(" ", 1)
        assert -1 <= float(score) <= 1 and len(json.loads(lambdas)) >= 2

    def test_csv_header_matches(self):
        (header,) = re.findall(r"^`(seed,[\w.,]+)`", README.read_text(), re.M)
        expanded = re.sub(r"([a-z]+)(\d+)\.\.\1(\d+)", lambda m: ",".join(
            f"{m[1]}{i}" for i in range(int(m[2]), int(m[3]) + 1)), header)
        assert expanded == cli.CSV_HEADER

    def test_flag_table_matches_the_parser(self):
        rows = re.findall(r"^\| `(\w+)[^`]*` \| (.*) \|$", README.read_text(), re.M)
        table = {command: set() if flags == "none" else set(flags.strip("`").split())
                 for command, flags in rows}
        (commands,) = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
        assert table == {command: {opt for action in p._actions for opt in action.option_strings
                                   if opt not in ("-h", "--help")}
                         for command, p in commands.choices.items()}
