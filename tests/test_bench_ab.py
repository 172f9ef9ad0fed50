"""The A/B script's summary on synthetic pairs; nothing here runs the
benchmark."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _path)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = [{"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "ari_best", "better": "higher", "bound": 0.1}]


def pairs_of(parent, change, name="wall_s", other=1.0):
    """Pairs whose ``name`` reads ``parent[i]`` / ``change[i]``, the
    other metric ``other`` on both sides."""
    def side(value):
        metrics = {s["name"]: {"value": other} for s in SPEC}
        metrics[name] = {"value": value}
        return {"metrics": metrics}
    return [{"parent": side(a), "change": side(b)}
            for a, b in zip(parent, change)]


def summary(parent, change, name="wall_s"):
    return bench_ab.summarize(pairs_of(parent, change, name), SPEC)[name]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    got = summary(parent, [p - 2.0 for p in parent])
    assert got["verdict"] == "gain"
    assert got["change_wins"] == 10
    assert got["pair_ratio"]["q1"] < got["pair_ratio"]["median"] \
        < got["pair_ratio"]["q3"] < 1.0
    # 8 of 10 wins is not enough, however large the gap
    change = [p - 2.0 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert summary(parent, change)["verdict"] == "within_bound"
    # 10 wins by less than the parent's interquartile range
    assert summary(parent, [p - 0.01 for p in parent])["verdict"] \
        == "within_bound"


def test_higher_is_better_metrics():
    parent = [0.30, 0.31, 0.29, 0.30, 0.30, 0.31, 0.29, 0.30, 0.30, 0.30]
    assert summary(parent, [p + 0.1 for p in parent],
                   "ari_best")["verdict"] == "gain"
    assert summary(parent, [p - 0.05 for p in parent],
                   "ari_best")["verdict"] == "worse"
    same = summary(parent, parent, "ari_best")
    assert same["verdict"] == "within_bound"
    assert same["pair_ratio"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_worse_beyond_the_bound_of_the_parent_median():
    parent = [2.0] * 10
    assert summary(parent, [2.6] * 10)["verdict"] == "worse"
    assert summary(parent, [2.4] * 10)["verdict"] == "within_bound"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [1.0, 3.0, 1.2, 2.8, 1.1, 2.9, 1.0, 3.0, 1.5, 2.5]
    change = [p * 1.05 for p in parent]
    got = summary(parent, change)
    assert got["verdict"] == "unresolved"
    assert got["pair_ratio"]["median"] == pytest.approx(1.05)
    # unless every run of the change is better than every parent run
    assert summary(parent, [0.9] * 9 + [0.95])["verdict"] \
        == "within_bound"
    assert summary(parent, [0.9] * 5 + [3.5] * 5)["verdict"] \
        == "unresolved"


def test_layers_table_pairs_the_traced_runs():
    per_layer = [{"name": "solver.iters", "unit": "count"},
                 {"name": "graph.D_calls_per_iter", "unit": "ratio"},
                 {"name": "solver.factorize_s", "unit": "s"},
                 {"name": "path.steps", "unit": "count"},
                 {"name": "cli.artifact_bytes", "unit": "B"}]
    traced = {
        "parent": {"metrics": {"solver.iters": {"value": 4240},
                               "graph.D_calls_per_iter": {"value": 2.0},
                               "solver.factorize_s": {"value": 0.004},
                               "path.steps": {"value": 0}}},
        "change": {"metrics": {"solver.iters": {"value": 3035},
                               "graph.D_calls_per_iter": {"value": 1.0},
                               "solver.factorize_s": {"value": 0.001},
                               "path.steps": {"value": 0},
                               "cli.artifact_bytes": {"value": 512}}}}
    table = bench_ab.layers(traced, per_layer)
    assert list(table) == [s["name"] for s in per_layer]
    assert table["solver.iters"] == {"unit": "count", "parent": 4240,
                                     "change": 3035,
                                     "ratio": pytest.approx(3035 / 4240)}
    assert table["graph.D_calls_per_iter"]["ratio"] == 0.5
    # a time from one traced run is listed without a ratio
    assert table["solver.factorize_s"] == {"unit": "s", "parent": 0.004,
                                           "change": 0.001, "ratio": None}
    # no ratio over a parent reading 0 or a metric one side lacks
    assert table["path.steps"] == {"unit": "count", "parent": 0,
                                   "change": 0, "ratio": None}
    assert table["cli.artifact_bytes"] == {"unit": "B", "parent": None,
                                           "change": 512, "ratio": None}


def test_sides_sit_at_equal_length_roots(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench" / "out").mkdir(parents=True)
    (repo / "a.py").write_text("committed\n")
    (repo / "perfbench" / "run.py").write_text("run\n")
    bench_ab.git(repo, "init", "-q")
    bench_ab.git(repo, "add", "-A")
    bench_ab.git(repo, "-c", "user.name=t", "-c", "user.email=t@t",
                 "commit", "-q", "-m", "c")
    (repo / "a.py").write_text("edited\n")
    (repo / "perfbench" / "out" / "old.json").write_text("{}\n")
    work = tmp_path / "work"
    work.mkdir()
    sides = bench_ab.lay_out(repo, "HEAD", work)
    assert sides == {"parent": work / "parent", "change": work / "change"}
    assert (sides["parent"] / "a.py").read_text() == "committed\n"
    assert (sides["change"] / "a.py").read_text() == "edited\n"
    for side in sides.values():
        assert (side / "perfbench" / "run.py").read_text() == "run\n"
        assert not (side / ".git").exists()
        assert not (side / "perfbench" / "out").exists()
