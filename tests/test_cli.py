import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import enumerate_set_partitions

from netlasso import cli
from netlasso.cli import (ConfigError, build_parser, main, normalize_config,
                          serialize_config)
from netlasso.datasets import gen_half_moons, load_signal_csv, save_csv

FOUR_POINTS = [0.0, 0.1, 5.0, 5.1]
PATH_EDGES_4 = [(0, 1), (1, 2), (2, 3)]


def write_points_csv(path, points, labels=None):
    lines = []
    for i, v in enumerate(points):
        cells = [repr(float(v))]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def best_partition_labels(points, edges, K):
    """Argmin merge pattern with at most K crossing edges, brute force."""
    points = np.asarray(points, dtype=np.float64)[:, None]
    best, best_labels = np.inf, None
    for parts in enumerate_set_partitions(range(len(points))):
        label = {v: t for t, part in enumerate(parts) for v in part}
        crossing = sum(1 for i, j in edges if label[i] != label[j])
        if crossing > K:
            continue
        cost = 0.0
        for part in parts:
            chunk = points[list(part)]
            cost += 0.5 * float(((chunk - chunk.mean(axis=0)) ** 2).sum())
        if cost < best - 1e-12:
            best = cost
            best_labels = [label[v] for v in range(len(points))]
    seen = {}
    return [seen.setdefault(l, len(seen)) for l in best_labels]


def read_artifacts(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.is_file()}


def base_solve_config(data_file, out_dir):
    return {
        "task": "solve-ntl",
        "data": {"file": str(data_file)},
        "graph": {"kind": "path"},
        "gamma": 2.0,
        "cardinality": 1,
        "solver": {"rho": 100.0, "max_iters": 4000,
                   "eps_abs": 1e-9, "eps_rel": 1e-9},
        "output": {"dir": str(out_dir)},
    }


GRID = {"start": 0.1, "factor": 2.0, "count": 5}
# option -> (arguments, raw-config path it must set, value found there)
FLAG_CASES = {
    "--out-dir": (["o"], ("output", "dir"), "o"),
    "--seed": (["7"], ("seed",), 7),
    "--merge-tol": (["0.001"], ("merge_tol",), 0.001),
    "--generator": (["half-moons"], ("generator", "kind"), "half-moons"),
    "--n": (["12"], ("generator", "n"), 12),
    "--noise-sd": (["0.1"], ("generator", "noise_sd"), 0.1),
    "--data-file": (["d.csv"], ("data", "file"), "d.csv"),
    "--has-labels": ([], ("data", "has_labels"), True),
    "--has-responses": ([], ("data", "has_responses"), True),
    "--graph": (["knn"], ("graph", "kind"), "knn"),
    "--knn-k": (["3"], ("graph", "k"), 3),
    "--alpha": (["0.25"], ("graph", "alpha"), 0.25),
    "--graph-file": (["g.txt"], ("graph", "file"), "g.txt"),
    "--loss": (["ridge"], ("loss", "kind"), "ridge"),
    "--epsilon": (["0.5"], ("loss", "epsilon"), 0.5),
    "--rho": (["2.5"], ("solver", "rho"), 2.5),
    "--x-update": (["exact"], ("solver", "x_update"), "exact"),
    "--smoothness": (["3.0"], ("solver", "smoothness"), 3.0),
    "--max-iters": (["17"], ("solver", "max_iters"), 17),
    "--eps-abs": (["0.0001"], ("solver", "eps_abs"), 1e-4),
    "--eps-rel": (["0.001"], ("solver", "eps_rel"), 1e-3),
    "--gamma": (["0.5"], ("gamma",), 0.5),
    "--cardinality": (["2"], ("cardinality",), 2),
    "-K": (["2"], ("cardinality",), 2),
    "--init": (["nl-midpoint"], ("init", "kind"), "nl-midpoint"),
    "--init-file": (["c.csv"], ("init", "file"), "c.csv"),
    "--k-values": (["3,1"], ("k_sequence",), {"values": [3, 1]}),
    "--gamma-grid": (["0.1,2,5"], ("gamma_sequence",), GRID),
    "--no-warm-start": ([], ("warm_start",), False),
    "--stop-on-full-merge": ([], ("stop_on_full_merge",), True),
    "--predicted": (["a.json"], ("predicted",), "a.json"),
    "--reference": (["b.csv"], ("reference",), "b.csv"),
    "--signal-file": (["s.csv"], ("signal", "file"), "s.csv"),
    "--nl-grid": (["0.1,2,5"], ("nl_grid",), GRID),
}
PIECEWISE_PATHS = {"--seed": ("signal", "seed"), "--alpha": ("alpha",)}


def accepted_options():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return [(task, option) for task, sub in subs.choices.items()
            for action in sub._actions for option in action.option_strings
            if option not in ("--config", "-h", "--help")]


class TestConfigHandling:
    @pytest.mark.parametrize("task, option", accepted_options())
    def test_every_flag_reaches_the_config(self, monkeypatch, task, option):
        values, path, expected = FLAG_CASES[option]
        if task == "piecewise":
            path = PIECEWISE_PATHS.get(option, path)
        captured = []
        monkeypatch.setattr(cli, "normalize_config", captured.append)
        cli.load_config(build_parser().parse_args([task, option, *values]))
        node = captured[0]
        for key in path:
            node = node[key]
        assert node == expected

    @pytest.mark.parametrize("task", ["thresholds", "recovery-check",
                                      "metrics"])
    def test_seed_rejected_where_nothing_is_seeded(self, task, capsys):
        with pytest.raises(SystemExit) as exc:
            main([task, "--seed", "1", "--out-dir", "o"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            normalize_config({"task": "gen-data", "bogus": 1,
                              "generator": {"kind": "half-moons", "n": 4},
                              "output": {"dir": "x"}})

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = base_solve_config(tmp_path / "d.csv", tmp_path)
        cfg["solver"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="solver.*momentum"):
            normalize_config(cfg)

    def test_missing_required_key(self, tmp_path):
        cfg = base_solve_config(tmp_path / "d.csv", tmp_path)
        del cfg["gamma"]
        with pytest.raises(ConfigError, match="missing key.*gamma"):
            normalize_config(cfg)

    def test_bad_value_types(self, tmp_path):
        cfg = base_solve_config(tmp_path / "d.csv", tmp_path)
        for key, value in (("gamma", "high"), ("cardinality", 1.5),
                           ("merge_tol", 0.0), ("seed", 2.5)):
            bad = dict(cfg)
            bad[key] = value
            with pytest.raises(ConfigError):
                normalize_config(bad)

    def test_auto_gamma_rejected_for_convex_solve(self, tmp_path):
        cfg = {"task": "solve-nl", "data": {"file": "d.csv"},
               "gamma": "auto", "output": {"dir": str(tmp_path)}}
        with pytest.raises(ConfigError, match="auto"):
            normalize_config(cfg)

    def test_round_trip_is_identity(self, tmp_path):
        configs = [
            base_solve_config(tmp_path / "d.csv", tmp_path),
            {"task": "gamma-path", "data": {"file": "d.csv"},
             "gamma_sequence": {"start": 0.01, "factor": 1.5, "count": 7},
             "output": {"dir": "o"}},
            {"task": "piecewise",
             "signal": {"levels": [[5, 0.0], [5, 1.0]], "noise_sd": 0.1},
             "output": {"dir": "o"}},
            {"task": "metrics", "predicted": "a.json",
             "reference": "b.csv", "output": {"dir": "o"}},
        ]
        for raw in configs:
            once = normalize_config(raw)
            again = normalize_config(json.loads(serialize_config(once)))
            assert again == once

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "task": "solve-nl",
            "data": {"file": str(data)},
            "graph": {"kind": "path"},
            "gamma": 1.0,
            "output": {"dir": str(tmp_path / "out")},
        }))
        code = main(["solve-nl", "--config", str(cfg), "--gamma", "0.0"])
        assert code == 0
        written = json.loads((tmp_path / "out" / "config.json").read_text())
        assert written["gamma"] == 0.0

    def test_config_for_other_task_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            base_solve_config(tmp_path / "d.csv", tmp_path)))
        assert main(["solve-nl", "--config", str(cfg)]) == 2
        assert "task" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert main(["solve-nl", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_decreasing_gamma_grid_rejected(self, tmp_path, capsys):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "task": "gamma-path",
            "data": {"file": str(data)},
            "graph": {"kind": "path"},
            "gamma_sequence": {"values": [1.0, 0.5]},
            "output": {"dir": str(tmp_path / "out")},
        }))
        assert main(["gamma-path", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("task, extra", [
        ("solve-nl", {"gamma": 1.0}),
        ("gamma-path", {"gamma_sequence": {"values": [0.5, 1.0]}}),
        ("recovery-check", {}),
    ])
    def test_rho_schedule_rejected_for_convex_tasks(self, tmp_path, capsys,
                                                    task, extra):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS, labels=[0, 0, 1, 1])
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "task": task,
            "data": {"file": str(data), "has_labels": True},
            "solver": {"rho_schedule": {"multiplier": 10.0}},
            "output": {"dir": str(tmp_path / "out")},
            **extra,
        }))
        assert main([task, "--config", str(cfg)]) == 2
        assert "rho_schedule" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_increasing_k_sequence_rejected(self, tmp_path):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        assert main(["k-path", "--data-file", str(data), "--graph", "path",
                     "--gamma", "1.0", "--k-values", "1,2",
                     "--out-dir", str(tmp_path / "out")]) == 2


class TestGenData:
    def test_two_line_csv_shape(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["gen-data", "--generator", "two-line", "--n", "20",
                     "--noise-sd", "0.05", "--seed", "3",
                     "--out-dir", str(out)]) == 0
        rows = (out / "data.csv").read_text().strip().split("\n")
        assert len(rows) == 20
        assert all(len(r.split(",")) == 3 for r in rows)

    def test_half_moons_labels_present(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["gen-data", "--generator", "half-moons", "--n", "12",
                     "--out-dir", str(out)]) == 0
        labels = [r.split(",")[-1]
                  for r in (out / "data.csv").read_text().split()]
        assert set(labels) == {"0", "1"}

    def test_piecewise_signal_artifact(self, tmp_path):
        out = tmp_path / "gen"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": "gen-data",
            "generator": {"kind": "piecewise",
                          "levels": [[4, 0.0], [4, 3.0]],
                          "noise_sd": 0.0},
            "output": {"dir": str(out)},
        }))
        assert main(["gen-data", "--config", str(cfg)]) == 0
        signal = load_signal_csv(out / "signal.csv")
        assert list(signal.jumps) == [4]
        assert np.array_equal(signal.original, signal.noisy)

    def test_seed_controls_bytes(self, tmp_path):
        args = ["gen-data", "--generator", "two-line", "--n", "9",
                "--noise-sd", "0.1"]
        for seed, sub in (("7", "a"), ("7", "b"), ("8", "c")):
            assert main(args + ["--seed", seed,
                                "--out-dir", str(tmp_path / sub)]) == 0
        a = (tmp_path / "a" / "data.csv").read_bytes()
        b = (tmp_path / "b" / "data.csv").read_bytes()
        c = (tmp_path / "c" / "data.csv").read_bytes()
        assert a == b
        assert a != c


class TestSolveCommands:
    def run_four_node(self, tmp_path, **updates):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        out = tmp_path / "out"
        cfg_dict = base_solve_config(data, out)
        cfg_dict.update(updates)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfg_dict))
        return main([cfg_dict["task"], "--config", str(cfg)]), out

    def test_trimmed_solve_matches_brute_force_partition(self, tmp_path):
        code, out = self.run_four_node(tmp_path)
        assert code == 0
        for name in ("config.json", "centroids.csv", "partition.json",
                     "trace.csv", "optimality.json"):
            assert (out / name).exists()
        partition = json.loads((out / "partition.json").read_text())
        expected = best_partition_labels(FOUR_POINTS, PATH_EDGES_4, K=1)
        assert partition["labels"] == expected
        optimality = json.loads((out / "optimality.json").read_text())
        assert optimality["passed"] is True
        assert optimality["stop_reason"] == "converged"

    def test_gamma_zero_centroids_are_minimizers(self, tmp_path):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        out = tmp_path / "out"
        assert main(["solve-nl", "--data-file", str(data), "--graph", "path",
                     "--gamma", "0.0", "--eps-abs", "1e-10",
                     "--eps-rel", "1e-10", "--max-iters", "5000",
                     "--out-dir", str(out)]) == 0
        rows = (out / "centroids.csv").read_text().strip().split("\n")[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values == pytest.approx(FOUR_POINTS, abs=1e-8)

    def test_cardinality_above_edge_count_is_config_error(self, tmp_path,
                                                          capsys):
        code, _ = self.run_four_node(tmp_path, cardinality=99)
        assert code == 2
        assert "edge count" in capsys.readouterr().err

    def test_missing_data_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve-nl", "--data-file", str(tmp_path / "nope.csv"),
                     "--gamma", "1.0", "--out-dir", str(out)]) == 2

    def test_divergence_is_numerical_failure(self, tmp_path, capsys):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        assert main(["solve-nl", "--data-file", str(data), "--graph", "path",
                     "--gamma", "1.0", "--x-update", "linearized",
                     "--smoothness", "0.01",
                     "--out-dir", str(tmp_path / "out")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_rerun_reproduces_every_artifact_byte(self, tmp_path):
        code, out = self.run_four_node(tmp_path)
        assert code == 0
        first = read_artifacts(out)
        code, out = self.run_four_node(tmp_path)
        assert code == 0
        assert read_artifacts(out) == first

    def test_trace_rows_match_reported_iterations(self, tmp_path):
        code, out = self.run_four_node(tmp_path)
        assert code == 0
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == ("iter,objective,augmented_lagrangian,"
                            "primal_residual,x_change,rho")
        optimality = json.loads((out / "optimality.json").read_text())
        assert len(trace) - 1 == optimality["iterations"]

    def test_init_from_file_round_trips(self, tmp_path):
        code, out = self.run_four_node(tmp_path)
        assert code == 0
        first = json.loads((out / "partition.json").read_text())
        init_file = tmp_path / "warm.csv"
        init_file.write_bytes((out / "centroids.csv").read_bytes())
        code, out = self.run_four_node(
            tmp_path, init={"kind": "from-file", "file": str(init_file)})
        assert code == 0
        second = json.loads((out / "partition.json").read_text())
        assert second["labels"] == first["labels"]

    def test_init_file_shape_mismatch_is_config_error(self, tmp_path):
        init_file = tmp_path / "warm.csv"
        init_file.write_text("node,dim0\n0,1.0\n1,2.0\n")
        code, _ = self.run_four_node(
            tmp_path, init={"kind": "from-file", "file": str(init_file)})
        assert code == 2


class TestPathCommands:
    def test_cardinality_path_staircase(self, tmp_path):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        out = tmp_path / "out"
        assert main(["k-path", "--data-file", str(data), "--graph", "path",
                     "--gamma", "auto", "--k-values", "3,2,1,0",
                     "--rho", "100.0", "--max-iters", "4000",
                     "--eps-abs", "1e-8", "--eps-rel", "1e-8",
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "path.json").read_text())
        assert doc["kind"] == "cardinality"
        assert [s["parameter"] for s in doc["steps"]] == [3.0, 2.0, 1.0, 0.0]
        assert [s["num_clusters"] for s in doc["steps"]] == [4, 3, 2, 1]
        header = (out / "path_centroids.csv").read_text().split("\n")[0]
        assert header.startswith("parameter,node0_dim0")

    def test_k_sequence_range_form(self, tmp_path):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "task": "k-path",
            "data": {"file": str(data)},
            "graph": {"kind": "path"},
            "gamma": 2.0,
            "k_sequence": {"start": 3, "stop": 0, "step": -2},
            "solver": {"rho": 100.0, "max_iters": 3000,
                       "eps_abs": 1e-8, "eps_rel": 1e-8},
            "output": {"dir": str(out)},
        }))
        assert main(["k-path", "--config", str(cfg)]) == 0
        doc = json.loads((out / "path.json").read_text())
        assert [s["parameter"] for s in doc["steps"]] == [3.0, 1.0, 0.0]

    def test_strength_path_stops_on_full_merge(self, tmp_path):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        out = tmp_path / "out"
        assert main(["gamma-path", "--data-file", str(data),
                     "--graph", "path", "--gamma-grid", "0.001,1.6,24",
                     "--stop-on-full-merge", "--max-iters", "3000",
                     "--eps-abs", "1e-7", "--eps-rel", "1e-7",
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "path.json").read_text())
        assert doc["kind"] == "strength"
        assert len(doc["steps"]) < 24
        assert doc["steps"][-1]["num_clusters"] == 1

    def test_nl_midpoint_init_pipeline(self, tmp_path):
        data = tmp_path / "four.csv"
        write_points_csv(data, FOUR_POINTS)
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "task": "solve-ntl",
            "data": {"file": str(data)},
            "graph": {"kind": "path"},
            "gamma": "auto",
            "cardinality": 1,
            "init": {"kind": "nl-midpoint",
                     "grid": {"start": 0.001, "factor": 1.6, "count": 24}},
            "solver": {"rho": 100.0, "max_iters": 4000,
                       "eps_abs": 1e-8, "eps_rel": 1e-8},
            "output": {"dir": str(out)},
        }))
        assert main(["solve-ntl", "--config", str(cfg)]) == 0
        partition = json.loads((out / "partition.json").read_text())
        assert partition["labels"] == [0, 0, 1, 1]


class TestThresholdCommands:
    def labeled_pairs(self, tmp_path):
        data = tmp_path / "pairs.csv"
        write_points_csv(data, FOUR_POINTS, labels=[0, 0, 1, 1])
        return data

    def test_clustering_report_values(self, tmp_path):
        data = self.labeled_pairs(tmp_path)
        out = tmp_path / "out"
        assert main(["thresholds", "--data-file", str(data), "--has-labels",
                     "--graph", "complete", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "thresholds.json").read_text())
        # n = 4 points, farthest anchor 5.1: C, gamma*, and the 3nC preset
        assert doc["exact_penalty"]["bound_C"] == pytest.approx(5.1)
        assert doc["exact_penalty"]["gamma_star"] == pytest.approx(51.0)
        assert doc["exact_penalty"]["method"] == "clustering"
        assert doc["3nC"] == pytest.approx(3 * 4 * 5.1)
        # uniform complete graph: upper limit 5.0 / (2 + 2)
        assert doc["recovery"]["gamma_max"] == pytest.approx(1.25)
        assert doc["cc_specialized"]["gamma_max"] == pytest.approx(1.25)

    def test_unlabeled_data_skips_recovery_section(self, tmp_path):
        data = tmp_path / "plain.csv"
        write_points_csv(data, FOUR_POINTS)
        out = tmp_path / "out"
        assert main(["thresholds", "--data-file", str(data),
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "thresholds.json").read_text())
        assert doc["recovery"] is None
        assert doc["cc_specialized"] is None
        assert doc["3nC"] is not None

    def test_ridge_loss_uses_quadratic_route(self, tmp_path):
        data = tmp_path / "reg.csv"
        rows = ["0.5,1.2", "-0.5,0.3", "1.0,2.1"]
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["thresholds", "--data-file", str(data),
                     "--has-responses", "--loss", "ridge",
                     "--epsilon", "0.1", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "thresholds.json").read_text())
        assert doc["exact_penalty"]["method"] == "quadratic"
        assert doc["3nC"] is None

    def test_recovery_check_requires_labels(self, tmp_path, capsys):
        data = tmp_path / "plain.csv"
        write_points_csv(data, FOUR_POINTS)
        assert main(["recovery-check", "--data-file", str(data),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "label" in capsys.readouterr().err

    def test_recovery_check_perfect_on_separated_pairs(self, tmp_path):
        data = self.labeled_pairs(tmp_path)
        out = tmp_path / "out"
        assert main(["recovery-check", "--data-file", str(data),
                     "--has-labels", "--graph", "complete",
                     "--alpha", "0.5", "--max-iters", "5000",
                     "--eps-abs", "1e-8", "--eps-rel", "1e-8",
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "recovery.json").read_text())
        assert doc["premise_ok"] is True
        assert doc["relation"] == "perfect"
        assert doc["ari"] == 1.0
        assert doc["gamma_min"] < doc["gamma_used"] < doc["gamma_max"]

    def test_metrics_between_artifact_and_labels(self, tmp_path):
        data = self.labeled_pairs(tmp_path)
        solve_out = tmp_path / "solve"
        cfg = tmp_path / "run.json"
        cfg_dict = base_solve_config(data, solve_out)
        cfg_dict["data"]["has_labels"] = True
        cfg.write_text(json.dumps(cfg_dict))
        assert main(["solve-ntl", "--config", str(cfg)]) == 0
        out = tmp_path / "metrics"
        assert main(["metrics",
                     "--predicted", str(solve_out / "partition.json"),
                     "--reference", str(data),
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["ari"] == 1.0
        assert doc["relation"] == "perfect"

    def test_thresholds_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        data = tmp_path / "moons.csv"
        save_csv(gen_half_moons(1500, noise_sd=0.08, seed=7), data)
        src = str(Path(cli.__file__).resolve().parents[1])
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-m", "netlasso", "thresholds",
                 "--data-file", str(data), "--has-labels", "--graph", "knn",
                 "--knn-k", "10", "--alpha", "15", "--out-dir", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            written.append((out / "thresholds.json").read_bytes())
        assert written[0] == written[1]

    def test_metrics_size_mismatch_is_config_error(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"labels": [0, 0, 1]}))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"labels": [0, 1]}))
        assert main(["metrics", "--predicted", str(a), "--reference",
                     str(b), "--out-dir", str(tmp_path / "out")]) == 2


class TestPiecewiseCommand:
    def test_noiseless_signal_recovered_exactly(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "task": "piecewise",
            "signal": {"levels": [[5, 0.0], [5, 2.0], [5, -1.0]],
                       "noise_sd": 0.0},
            "cardinality": 2,
            "nl_grid": {"start": 0.001, "factor": 1.3, "count": 30},
            "solver": {"max_iters": 2000, "eps_abs": 1e-8,
                       "eps_rel": 1e-8},
            "output": {"dir": str(out)},
        }))
        assert main(["piecewise", "--config", str(cfg)]) == 0
        doc = json.loads((out / "piecewise.json").read_text())
        assert doc["true_jumps"] == [5, 10]
        assert doc["ntl"]["jumps"] == [5, 10]
        assert doc["ntl"]["error"] <= 1e-6
        assert doc["ntl_jumps_exact"] is True

    def test_noisy_report_fields_and_selections(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "task": "piecewise",
            "signal": {"levels": [[10, 0.0], [10, 2.0]], "noise_sd": 0.05,
                       "seed": 1},
            "cardinality": 1,
            "nl_grid": {"start": 0.001, "factor": 1.2, "count": 40},
            "solver": {"max_iters": 2000, "eps_abs": 1e-7,
                       "eps_rel": 1e-7},
            "output": {"dir": str(out)},
        }))
        assert main(["piecewise", "--config", str(cfg)]) == 0
        doc = json.loads((out / "piecewise.json").read_text())
        runs = doc["nl_grid"]
        assert [r["gamma"] for r in runs] \
            == pytest.approx([0.001 * 1.2 ** t for t in range(40)])
        best_sparse = doc["nl_best_cardinality"]
        assert best_sparse["gamma"] == min(
            r["gamma"] for r in runs if r["num_jumps"] <= 1)
        assert doc["nl_best_quality"]["error"] == min(
            r["error"] for r in runs)
        assert doc["nl_best_quality"]["error"] <= best_sparse["error"]
        signals = (out / "signals.csv").read_text().strip().split("\n")
        assert signals[0] == ("index,original,noisy,ntl,nl_best_quality,"
                              "nl_best_cardinality")
        assert len(signals) == 21

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "task": "piecewise",
            "signal": {"levels": [[6, 0.0], [6, 2.0]], "noise_sd": 0.05,
                       "seed": 2},
            "cardinality": 1,
            "nl_grid": {"start": 0.01, "factor": 1.4, "count": 15},
            "solver": {"max_iters": 1500, "eps_abs": 1e-7,
                       "eps_rel": 1e-7},
            "output": {"dir": str(out)},
        }))
        assert main(["piecewise", "--config", str(cfg)]) == 0
        first = read_artifacts(out)
        assert main(["piecewise", "--config", str(cfg)]) == 0
        assert read_artifacts(out) == first


    def test_seed_flag_sets_signal_seed(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "task": "piecewise",
            "signal": {"levels": [[6, 0.0], [6, 2.0]], "noise_sd": 0.05},
            "cardinality": 1,
            "nl_grid": {"start": 0.01, "factor": 2.0, "count": 4},
            "solver": {"max_iters": 500},
        }))
        signals = {}
        for seed in ("7", "8"):
            out = tmp_path / seed
            assert main(["piecewise", "--config", str(cfg), "--seed", seed,
                         "--out-dir", str(out)]) == 0
            signals[seed] = (out / "signals.csv").read_bytes()
        assert signals["7"] != signals["8"]
        written = json.loads((tmp_path / "7" / "config.json").read_text())
        assert written["signal"]["seed"] == 7


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "gen"
        proc = subprocess.run(
            [sys.executable, "-m", "netlasso", "gen-data", "--generator",
             "half-moons", "--n", "8", "--out-dir", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (out / "data.csv").exists()

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "netlasso", "no-such-command"],
            capture_output=True, text=True)
        assert proc.returncode == 2
