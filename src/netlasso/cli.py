"""Command-line front end: solver runs, paths, thresholds, experiments.

Each subcommand is driven by one JSON config document.  Flags override
individual config entries, the merged document is validated against a
strict per-task schema (unknown keys are errors), and the run writes
its artifacts into the configured output directory.  All numeric
output goes through ``repr``-precision floats and sorted JSON keys, so
re-running the same config and seed reproduces every artifact byte for
byte.  Plotting is left to external tools.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import (gen_half_moons, gen_piecewise_signal,
                       gen_two_line_regression, load_csv, load_signal_csv,
                       save_csv, save_signal_csv)
from .graph import (complete_graph, knn_gaussian_graph, load_edge_list,
                    path_graph, sigma_min_DDt)
from .losses import RidgeRegression, SquaredDistance
from .path import (Partition, adjusted_rand_index, extract_partition,
                   gamma_path, k_path, midpoint_init, partition_relation,
                   save_centroids_csv, save_path_json)
from .solver import (DIVERGED, RhoSchedule, SolverConfig, nl_certificate,
                     solve_nl, solve_ntl, stationarity_check)
from .thresholds import (_jsonify, bound_C_clustering, bound_C_quadratic,
                         clustering_threshold, exact_penalty_threshold,
                         recovery_interval, recovery_interval_cc)


class ConfigError(Exception):
    """Invalid or inconsistent run configuration (exit code 2)."""


class NumericalError(Exception):
    """Solver divergence or non-finite output (exit code 3)."""


GRAPH_KINDS = ("complete", "knn", "path", "edge-list")
LOSS_KINDS = ("squared-distance", "ridge")
INIT_KINDS = ("minimizers", "from-file", "nl-midpoint")
GENERATOR_KINDS = ("two-line", "half-moons", "piecewise")


# ---------------------------------------------------------------------------
# typed config getters


def _require(where, raw, allowed, required=()):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(raw))
    if missing:
        raise ConfigError(f"{where}: missing key(s): {', '.join(missing)}")


def _num(where, value, minimum=None, above=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    if above is not None and v <= above:
        raise ConfigError(f"{where} must be > {above}")
    return v


def _int(where, value, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return value


def _str(where, value, choices=None):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    if choices is not None and value not in choices:
        raise ConfigError(
            f"{where} must be one of: {', '.join(choices)} (got {value!r})")
    return value


def _bool(where, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false")
    return value


def _gamma_value(where, value, allow_auto):
    if value == "auto":
        if not allow_auto:
            raise ConfigError(f"{where} does not accept \"auto\" here")
        return "auto"
    return _num(where, value, minimum=0.0)


# ---------------------------------------------------------------------------
# section parsers (raw -> normalized dict with defaults filled)


def _parse_output(raw):
    _require("output", raw, {"dir"}, ("dir",))
    return {"dir": _str("output.dir", raw["dir"])}


def _parse_data(raw):
    _require("data", raw, {"file", "has_labels", "has_responses"}, ("file",))
    return {"file": _str("data.file", raw["file"]),
            "has_labels": _bool("data.has_labels",
                                raw.get("has_labels", False)),
            "has_responses": _bool("data.has_responses",
                                   raw.get("has_responses", False))}


def _parse_graph(raw):
    _require("graph", raw, {"kind", "k", "alpha", "file"}, ("kind",))
    kind = _str("graph.kind", raw["kind"], GRAPH_KINDS)
    out = {"kind": kind}
    if kind == "edge-list":
        _require("graph", raw, {"kind", "file"}, ("file",))
        out["file"] = _str("graph.file", raw["file"])
        return out
    if "file" in raw:
        raise ConfigError("graph.file only applies to kind \"edge-list\"")
    if kind == "knn":
        _require("graph", raw, {"kind", "k", "alpha"}, ("k",))
        out["k"] = _int("graph.k", raw["k"], minimum=1)
        out["alpha"] = _num("graph.alpha", raw.get("alpha", 0.5), above=0.0)
        return out
    if "k" in raw:
        raise ConfigError("graph.k only applies to kind \"knn\"")
    # complete / path: alpha null means uniform unit weights
    alpha = raw.get("alpha")
    out["alpha"] = None if alpha is None \
        else _num("graph.alpha", alpha, above=0.0)
    return out


def _parse_loss(raw):
    _require("loss", raw, {"kind", "epsilon"}, ("kind",))
    kind = _str("loss.kind", raw["kind"], LOSS_KINDS)
    if kind == "squared-distance":
        if "epsilon" in raw:
            raise ConfigError("loss.epsilon only applies to kind \"ridge\"")
        return {"kind": kind}
    return {"kind": kind,
            "epsilon": _num("loss.epsilon", raw.get("epsilon", 1e-2),
                            above=0.0)}


def _parse_schedule(raw):
    if raw is None:
        return None
    _require("solver.rho_schedule", raw, {"multiplier", "cap", "period"})
    cap = raw.get("cap", "auto")
    if cap != "auto":
        cap = _num("solver.rho_schedule.cap", cap, above=0.0)
    return {"multiplier": _num("solver.rho_schedule.multiplier",
                               raw.get("multiplier", 10.0), above=1.0),
            "cap": cap,
            "period": _int("solver.rho_schedule.period",
                           raw.get("period", 100), minimum=1)}


def _parse_solver(raw, default_rho=None, default_schedule=None,
                  convex=False):
    _require("solver", raw, {"rho", "x_update", "smoothness", "max_iters",
                             "eps_abs", "eps_rel", "rho_schedule"})
    if convex and raw.get("rho_schedule") is not None:
        raise ConfigError("solver.rho_schedule only applies to the trimmed"
                          " tasks solve-ntl, k-path and piecewise")
    rho = raw.get("rho", default_rho)
    if rho is not None:
        rho = _num("solver.rho", rho, above=0.0)
    smoothness = raw.get("smoothness")
    if smoothness is not None:
        smoothness = _num("solver.smoothness", smoothness, above=0.0)
    schedule = _parse_schedule(raw.get("rho_schedule", default_schedule))
    return {"rho": rho,
            "x_update": _str("solver.x_update", raw.get("x_update", "auto"),
                             ("auto", "exact", "linearized")),
            "smoothness": smoothness,
            "max_iters": _int("solver.max_iters", raw.get("max_iters", 1000),
                              minimum=1),
            "eps_abs": _num("solver.eps_abs", raw.get("eps_abs", 1e-5),
                            above=0.0),
            "eps_rel": _num("solver.eps_rel", raw.get("eps_rel", 1e-5),
                            above=0.0),
            "rho_schedule": schedule}


def _parse_init(raw):
    _require("init", raw, {"kind", "file", "grid"}, ("kind",))
    kind = _str("init.kind", raw["kind"], INIT_KINDS)
    if kind == "from-file":
        _require("init", raw, {"kind", "file"}, ("file",))
        return {"kind": kind, "file": _str("init.file", raw["file"])}
    if "file" in raw:
        raise ConfigError("init.file only applies to kind \"from-file\"")
    if kind == "nl-midpoint":
        _require("init", raw, {"kind", "grid"})
        return {"kind": kind,
                "grid": _parse_gamma_grid(raw.get("grid", {}),
                                          "init.grid")}
    if "grid" in raw:
        raise ConfigError("init.grid only applies to kind \"nl-midpoint\"")
    return {"kind": kind}


def _parse_gamma_grid(raw, where="gamma_sequence"):
    _require(where, raw, {"values", "start", "factor", "count"})
    if "values" in raw:
        _require(where, raw, {"values"})
        values = raw["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}.values must be a non-empty list")
        return {"values": [_num(f"{where}.values[{i}]", v, above=0.0)
                           for i, v in enumerate(values)]}
    return {"start": _num(f"{where}.start", raw.get("start", 1e-3),
                          above=0.0),
            "factor": _num(f"{where}.factor", raw.get("factor", 1.2),
                           above=1.0),
            "count": _int(f"{where}.count", raw.get("count", 100),
                          minimum=1)}


def _parse_k_sequence(raw):
    _require("k_sequence", raw, {"values", "start", "stop", "step"})
    if "values" in raw:
        _require("k_sequence", raw, {"values"})
        values = raw["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError("k_sequence.values must be a non-empty list")
        return {"values": [_int(f"k_sequence.values[{i}]", v, minimum=0)
                           for i, v in enumerate(values)]}
    out = {"start": _int("k_sequence.start", raw.get("start", 0), minimum=0),
           "stop": _int("k_sequence.stop", raw.get("stop", 0), minimum=0),
           "step": _int("k_sequence.step", raw.get("step", -1))}
    if "start" not in raw:
        raise ConfigError("k_sequence needs either values or start")
    if out["step"] >= 0:
        raise ConfigError("k_sequence.step must be negative")
    return out


def _parse_generator(raw):
    _require("generator", raw,
             {"kind", "n", "slopes", "intercepts", "x_range", "noise_sd",
              "levels"}, ("kind",))
    kind = _str("generator.kind", raw["kind"], GENERATOR_KINDS)
    noise = _num("generator.noise_sd", raw.get("noise_sd", 0.0), minimum=0.0)
    if kind == "two-line":
        _require("generator", raw, {"kind", "n", "slopes", "intercepts",
                                    "x_range", "noise_sd"}, ("n",))
        out = {"kind": kind, "n": _int("generator.n", raw["n"], minimum=2),
               "noise_sd": noise}
        for key, default in (("slopes", [1.0, -1.0]),
                             ("intercepts", [0.0, 0.0]),
                             ("x_range", [-1.0, 1.0])):
            pair = raw.get(key, default)
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"generator.{key} must be a 2-element list")
            out[key] = [_num(f"generator.{key}[{i}]", v)
                        for i, v in enumerate(pair)]
        return out
    if kind == "half-moons":
        _require("generator", raw, {"kind", "n", "noise_sd"}, ("n",))
        return {"kind": kind, "n": _int("generator.n", raw["n"], minimum=2),
                "noise_sd": noise}
    _require("generator", raw, {"kind", "levels", "noise_sd"}, ("levels",))
    return {"kind": kind, "levels": _parse_levels(raw["levels"]),
            "noise_sd": noise}


def _parse_levels(raw):
    if not isinstance(raw, list) or not raw:
        raise ConfigError("levels must be a non-empty list of"
                          " [length, value] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"levels[{i}] must be a [length, value] pair")
        out.append([_int(f"levels[{i}] length", pair[0], minimum=1),
                    _num(f"levels[{i}] value", pair[1])])
    return out


def _parse_signal(raw):
    _require("signal", raw, {"file", "levels", "noise_sd", "seed"})
    if "file" in raw:
        _require("signal", raw, {"file"})
        return {"file": _str("signal.file", raw["file"])}
    if "levels" not in raw:
        raise ConfigError("signal needs either file or levels")
    return {"levels": _parse_levels(raw["levels"]),
            "noise_sd": _num("signal.noise_sd", raw.get("noise_sd", 0.2),
                             minimum=0.0),
            "seed": _int("signal.seed", raw.get("seed", 0))}


# ---------------------------------------------------------------------------
# config keys: parser, default, and the flags that override them


REQUIRED = object()
_SET_TRUE = {"action": "store_const", "const": True}


@dataclass(frozen=True)
class _Key:
    """One top-level key of a task's config schema.

    ``parse`` validates the raw value and fills in defaults; ``default``
    stands in for an absent key unless it is ``REQUIRED``.  Each flag is
    ``(option strings, entry, argparse keywords)`` and overrides
    ``entry`` inside this key's section, or the whole value when
    ``entry`` is None.  A task therefore offers a flag exactly when its
    schema has the key the flag overrides.
    """
    parse: object
    default: object = REQUIRED
    flags: tuple = ()


def _flag(*opts, entry=None, **kwargs):
    return opts, entry, kwargs


def _dest(opts):
    """The argparse destination of a flag: its first, long option."""
    return opts[0][2:].replace("-", "_")


def _gamma_flag(text):
    if text == "auto":
        return "auto"
    return float(text)


def _int_list_flag(text):
    return {"values": [int(t) for t in text.split(",")]}


def _grid_flag(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start,factor,count")
    return {"start": float(parts[0]), "factor": float(parts[1]),
            "count": int(parts[2])}


_OUTPUT = _Key(_parse_output, flags=(_flag("--out-dir", entry="dir"),))
_SEED = _Key(lambda v: _int("seed", v), 0, (_flag("--seed", type=int),))
_MERGE_TOL = _Key(lambda v: _num("merge_tol", v, above=0.0), 1e-6,
                  (_flag("--merge-tol", type=float),))
_INIT = _Key(_parse_init, {"kind": "minimizers"}, (
    _flag("--init", entry="kind", choices=INIT_KINDS),
    _flag("--init-file", entry="file")))
# data, graph and loss: the problem instance of every task that reads data
_INSTANCE = {
    "data": _Key(_parse_data, flags=(
        _flag("--data-file", entry="file"),
        _flag("--has-labels", entry="has_labels", **_SET_TRUE),
        _flag("--has-responses", entry="has_responses", **_SET_TRUE))),
    "graph": _Key(_parse_graph, {"kind": "complete"}, (
        _flag("--graph", entry="kind", choices=GRAPH_KINDS),
        _flag("--knn-k", entry="k", type=int),
        _flag("--alpha", entry="alpha", type=float),
        _flag("--graph-file", entry="file"))),
    "loss": _Key(_parse_loss, {"kind": "squared-distance"}, (
        _flag("--loss", entry="kind", choices=LOSS_KINDS),
        _flag("--epsilon", entry="epsilon", type=float))),
}


def _gamma(default=REQUIRED, allow_auto=True):
    return _Key(lambda v: _gamma_value("gamma", v, allow_auto), default,
                (_flag("--gamma",
                       type=_gamma_flag if allow_auto else float),))


def _cardinality(default=REQUIRED):
    return _Key(lambda v: _int("cardinality", v, minimum=0), default,
                (_flag("--cardinality", "-K", type=int),))


def _solver(default_rho, convex=False, default_schedule=None):
    return _Key(lambda raw: _parse_solver(raw, default_rho, default_schedule,
                                          convex), {}, (
        _flag("--rho", entry="rho", type=float),
        _flag("--x-update", entry="x_update",
              choices=("auto", "exact", "linearized")),
        _flag("--smoothness", entry="smoothness", type=float),
        _flag("--max-iters", entry="max_iters", type=int),
        _flag("--eps-abs", entry="eps_abs", type=float),
        _flag("--eps-rel", entry="eps_rel", type=float)))


def normalize_config(raw):
    """Validate a raw config document and fill in defaults.

    Normalization is idempotent, which is what makes the parse ->
    serialize -> parse round trip the identity.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "task" not in raw:
        raise ConfigError("config: missing key(s): task")
    task = _str("task", raw["task"], TASKS)
    schema = TASKS[task].schema
    required = {key for key, spec in schema.items()
                if spec.default is REQUIRED}
    _require("config", raw, {"task", *schema}, {"task", *required})
    out = {"task": task}
    for key, spec in schema.items():
        out[key] = spec.parse(raw.get(key, spec.default))
    return out


def serialize_config(config):
    """Render a normalized config back to its canonical JSON text."""
    return json.dumps(config, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# builders: config sections -> package objects


def _load_data(spec):
    try:
        return load_csv(spec["file"], has_labels=spec["has_labels"],
                        has_responses=spec["has_responses"])
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}")
    except ValueError as exc:
        raise ConfigError(f"bad data file {spec['file']}: {exc}")


def _graph_points(data):
    # Gaussian edge weights see the full observed vector per node: the
    # regression response is stacked next to the inputs when present.
    if data.responses is not None:
        return np.column_stack([data.points, data.responses])
    return data.points


def _build_graph(spec, data):
    n = data.num_points
    kind = spec["kind"]
    if kind == "edge-list":
        try:
            graph = load_edge_list(spec["file"])
        except OSError as exc:
            raise ConfigError(f"cannot read graph file: {exc}")
        except ValueError as exc:
            raise ConfigError(f"bad graph file {spec['file']}: {exc}")
        if graph.num_nodes != n:
            raise ConfigError(
                f"graph file has {graph.num_nodes} nodes, data has {n}")
        return graph
    points = _graph_points(data)
    if kind == "knn":
        k = spec["k"]
        if k >= n:
            raise ConfigError(f"graph.k must be < number of nodes ({n})")
        return knn_gaussian_graph(points, k, spec["alpha"])
    alpha = spec["alpha"]
    builder = complete_graph if kind == "complete" else path_graph
    if alpha is None:
        return builder(n)
    return builder(n, points=points, alpha=alpha)


def _build_loss(spec, data):
    if spec["kind"] == "squared-distance":
        return SquaredDistance(data.points)
    if data.responses is None:
        raise ConfigError("ridge loss needs data.has_responses")
    if data.points.shape[1] != 1:
        raise ConfigError("ridge loss expects one input column")
    return RidgeRegression(data.points[:, 0], data.responses,
                           spec["epsilon"])


def _resolve_gamma(gamma, losses):
    """Turn "auto" into the exact-penalty preset for the given losses."""
    if gamma != "auto":
        return float(gamma)
    if isinstance(losses, SquaredDistance):
        bound = bound_C_clustering(losses)
    elif losses.quadratic_terms() is not None:
        bound = bound_C_quadratic(losses)
    else:
        raise ConfigError("gamma \"auto\" needs a quadratic loss")
    return exact_penalty_threshold(losses, bound).gamma_star * 1.001


def _gamma_values(spec):
    if "values" in spec:
        values = list(spec["values"])
    else:
        values = [spec["start"] * spec["factor"] ** t
                  for t in range(spec["count"])]
    arr = np.asarray(values, dtype=np.float64)
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ConfigError("gamma sequence must be strictly increasing")
    return values


def _k_values(spec, num_edges):
    if "values" in spec:
        values = list(spec["values"])
    else:
        start = spec["start"] if spec["start"] > 0 else num_edges
        values = list(range(start, spec["stop"] - 1, spec["step"]))
        if not values or values[-1] != spec["stop"]:
            values.append(spec["stop"])
    for v in values:
        if v > num_edges:
            raise ConfigError(
                f"cardinality {v} exceeds the edge count {num_edges}")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigError("k sequence must be strictly decreasing")
    return values


def _solver_options(spec, graph=None, stopping_only=False):
    """Keyword options for ``SolverConfig``, ``solve_nl`` and the paths,
    from a parsed solver section.

    ``stopping_only`` keeps only the iteration cap and the tolerances:
    the auxiliary convex solves (the nl-midpoint init and the piecewise
    baseline) run at solve_nl's own rho and x-step.  A rho schedule is
    only ever set for the trimmed tasks; its "auto" cap is the
    surjectivity threshold of ``graph``.
    """
    keys = ["max_iters", "eps_abs", "eps_rel"]
    if stopping_only:
        return {key: spec[key] for key in keys}
    options = {key: spec[key]
               for key in keys + ["rho", "x_update", "smoothness"]}
    schedule = spec["rho_schedule"]
    if schedule is not None:
        cap = schedule["cap"]
        if cap == "auto":
            sigma = sigma_min_DDt(graph)
            if sigma <= 0:
                raise ConfigError("rho cap \"auto\" needs a connected graph"
                                  " with surjective differences")
            cap = 2.0 / (0.99 * sigma)
        options["rho_schedule"] = RhoSchedule(
            multiplier=schedule["multiplier"], cap=cap,
            period=schedule["period"])
    return options


def _read_centroids_csv(path, num_nodes, dim):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read init file: {exc}")
    if len(rows) != num_nodes + 1:
        raise ConfigError(f"init file {path} has {len(rows) - 1} rows,"
                          f" expected {num_nodes}")
    try:
        x0 = np.asarray([[float(c) for c in row[1:]] for row in rows[1:]])
    except ValueError:
        raise ConfigError(f"init file {path} has a non-numeric cell")
    if x0.shape != (num_nodes, dim):
        raise ConfigError(f"init file {path} has shape {x0.shape},"
                          f" expected ({num_nodes}, {dim})")
    return x0


def _initial_x(spec, losses, graph, solver_spec):
    kind = spec["kind"]
    if kind == "minimizers":
        return losses.all_minimizers()
    if kind == "from-file":
        return _read_centroids_csv(spec["file"], losses.num_nodes,
                                   losses.dim)
    gammas = _gamma_values(spec["grid"])
    path = gamma_path(losses, graph, gammas, warm_start=True,
                      stop_on_full_merge=True,
                      **_solver_options(solver_spec, stopping_only=True))
    try:
        return midpoint_init(path)
    except ValueError as exc:
        raise NumericalError(f"nl-midpoint init failed: {exc}")


# ---------------------------------------------------------------------------
# artifact writers


def _to_plain(value):
    if isinstance(value, dict):
        return {k: _to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_plain(v) for v in value]
    return _jsonify(value)


def _write_json(path, payload):
    text = json.dumps(_to_plain(payload), sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text)


def _write_centroids(path, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    header = "node," + ",".join(f"dim{c}" for c in range(x.shape[1]))
    lines = [header]
    for i, row in enumerate(x):
        lines.append(",".join([str(i)] + [repr(float(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_trace(path, state):
    lines = ["iter,objective,augmented_lagrangian,primal_residual,"
             "x_change,rho"]
    histories = zip(state.objectives, state.aug_lagrangians,
                    state.primal_residuals, state.x_changes, state.rhos)
    for t, row in enumerate(histories, start=1):
        lines.append(",".join([str(t)] + [repr(float(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def _partition_payload(x, graph, merge_tol):
    part = extract_partition(x, graph, merge_tol=merge_tol)
    return part, {"labels": [int(v) for v in part.labels],
                  "num_clusters": part.num_clusters,
                  "merge_tol": merge_tol}


def _check_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{what} contains non-finite values")


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(config, out):
    gen = config["generator"]
    seed = config["seed"]
    if gen["kind"] == "two-line":
        data = gen_two_line_regression(gen["n"], slopes=tuple(gen["slopes"]),
                                       intercepts=tuple(gen["intercepts"]),
                                       x_range=tuple(gen["x_range"]),
                                       noise_sd=gen["noise_sd"], seed=seed)
        save_csv(data, out / "data.csv")
    elif gen["kind"] == "half-moons":
        data = gen_half_moons(gen["n"], noise_sd=gen["noise_sd"], seed=seed)
        save_csv(data, out / "data.csv")
    else:
        levels = [(int(l), float(v)) for l, v in gen["levels"]]
        signal = gen_piecewise_signal(sum(l for l, _ in levels), levels,
                                      noise_sd=gen["noise_sd"], seed=seed)
        save_signal_csv(signal, out / "signal.csv")


def _solve_common(config):
    data = _load_data(config["data"])
    losses = _build_loss(config["loss"], data)
    graph = _build_graph(config["graph"], data)
    return data, losses, graph


def cmd_solve_nl(config, out):
    data, losses, graph = _solve_common(config)
    state, reason = solve_nl(losses, graph, config["gamma"],
                             **_solver_options(config["solver"]))
    if reason == DIVERGED:
        raise NumericalError("solver diverged; lower rho or gamma")
    _check_finite(state.x, "solution")
    _write_centroids(out / "centroids.csv", state.x)
    _write_trace(out / "trace.csv", state)
    part, payload = _partition_payload(state.x, graph, config["merge_tol"])
    _write_json(out / "partition.json", payload)
    report = nl_certificate(state.x, losses, graph, config["gamma"],
                            merge_tol=config["merge_tol"])
    _write_json(out / "optimality.json", {
        "kind": "subgradient-certificate",
        "passed": report.passed,
        "max_rel_residual": report.max_rel_residual,
        "max_subgrad_norm": report.max_subgrad_norm,
        "merged_edges": report.merged_edges,
        "residual_tol": report.residual_tol,
        "norm_slack": report.norm_slack,
        "objective": state.objectives[-1],
        "stop_reason": reason,
        "iterations": state.iterations,
        "num_clusters": part.num_clusters,
    })


def cmd_solve_ntl(config, out):
    data, losses, graph = _solve_common(config)
    if config["cardinality"] > graph.num_edges:
        raise ConfigError(f"cardinality {config['cardinality']} exceeds the"
                          f" edge count {graph.num_edges}")
    gamma = _resolve_gamma(config["gamma"], losses)
    spec = config["solver"]
    solver_config = SolverConfig(gamma=gamma,
                                 cardinality=config["cardinality"],
                                 **_solver_options(spec, graph))
    x0 = _initial_x(config["init"], losses, graph, spec)
    state, reason = solve_ntl(losses, graph, solver_config, x0=x0)
    if reason == DIVERGED:
        raise NumericalError("solver diverged; lower rho or gamma")
    _check_finite(state.x, "solution")
    _write_centroids(out / "centroids.csv", state.x)
    _write_trace(out / "trace.csv", state)
    part, payload = _partition_payload(state.x, graph, config["merge_tol"])
    _write_json(out / "partition.json", payload)
    report = stationarity_check(state.x, losses, graph, gamma,
                                config["cardinality"], seed=config["seed"])
    _write_json(out / "optimality.json", {
        "kind": "directional-stationarity",
        "passed": report.passed,
        "min_value": report.min_value,
        "worst_kind": report.worst_kind,
        "num_directions": report.num_directions,
        "tolerance": report.tolerance,
        "gamma": gamma,
        "objective": state.objectives[-1],
        "stop_reason": reason,
        "iterations": state.iterations,
        "num_clusters": part.num_clusters,
    })


def _path_artifacts(out, path):
    if any(step.stop_reason == DIVERGED for step in path.steps):
        raise NumericalError("a path step diverged; lower rho or gamma")
    with open(out / "path.json", "w") as fh:
        save_path_json(path, fh)
    with open(out / "path_centroids.csv", "w") as fh:
        save_centroids_csv(path, fh)


def cmd_k_path(config, out):
    data, losses, graph = _solve_common(config)
    gamma = _resolve_gamma(config["gamma"], losses)
    ks = _k_values(config["k_sequence"], graph.num_edges)
    spec = config["solver"]
    options = _solver_options(spec, graph)
    x0 = _initial_x(config["init"], losses, graph, spec)
    path = k_path(losses, graph, gamma, ks, x0=x0,
                  merge_tol=config["merge_tol"], **options)
    _path_artifacts(out, path)


def cmd_gamma_path(config, out):
    data, losses, graph = _solve_common(config)
    gammas = _gamma_values(config["gamma_sequence"])
    path = gamma_path(losses, graph, gammas,
                      warm_start=config["warm_start"],
                      stop_on_full_merge=config["stop_on_full_merge"],
                      merge_tol=config["merge_tol"],
                      **_solver_options(config["solver"]))
    _path_artifacts(out, path)


def cmd_thresholds(config, out):
    data, losses, graph = _solve_common(config)
    payload = {"3nC": None, "recovery": None, "cc_specialized": None}
    if isinstance(losses, SquaredDistance):
        bound = bound_C_clustering(losses)
        payload["3nC"] = clustering_threshold(losses.points)
        method = "clustering"
    elif losses.quadratic_terms() is not None:
        bound = bound_C_quadratic(losses)
        method = "quadratic"
    else:
        raise ConfigError("thresholds need a quadratic loss")
    threshold = exact_penalty_threshold(losses, bound, method=method)
    payload["exact_penalty"] = threshold.to_json_dict()
    if data.labels is not None:
        report = recovery_interval(losses, graph, data.labels)
        payload["recovery"] = report.to_json_dict()
        if isinstance(losses, SquaredDistance):
            lo, hi = recovery_interval_cc(losses, graph, data.labels)
            payload["cc_specialized"] = {"gamma_min": lo, "gamma_max": hi}
    _write_json(out / "thresholds.json", payload)


def _midpoint_gamma(lo, hi):
    """A strength inside (lo, hi), coping with open-ended intervals.

    A failed premise makes lo infinite; the check still probes at a
    finite strength so the report shows what the solver actually does.
    """
    if math.isinf(lo):
        return 0.5 * hi if math.isfinite(hi) else 1.0
    if math.isfinite(hi):
        return 0.5 * (lo + hi)
    if lo > 0:
        return 2.0 * lo
    return 1.0


def cmd_recovery_check(config, out):
    data, losses, graph = _solve_common(config)
    if data.labels is None:
        raise ConfigError("recovery-check needs data.has_labels with a"
                          " label column")
    report = recovery_interval(losses, graph, data.labels)
    gamma = config["gamma"]
    if gamma == "auto":
        gamma = _midpoint_gamma(report.gamma_min, report.gamma_max)
    state, reason = solve_nl(losses, graph, gamma,
                             **_solver_options(config["solver"]))
    if reason == DIVERGED:
        raise NumericalError("solver diverged; lower rho or gamma")
    _check_finite(state.x, "solution")
    part, _ = _partition_payload(state.x, graph, config["merge_tol"])
    try:
        truth = Partition(np.asarray(data.labels))
    except ValueError as exc:
        raise ConfigError(f"bad label column: {exc}")
    _write_json(out / "recovery.json", {
        "gamma_min": report.gamma_min,
        "gamma_max": report.gamma_max,
        "coarsening_bound": report.coarsening_bound,
        "premise_ok": report.premise_ok,
        "interval_nonempty": report.gamma_min < report.gamma_max,
        "gamma_used": gamma,
        "relation": partition_relation(part, truth),
        "ari": adjusted_rand_index(part, truth),
        "num_clusters_found": part.num_clusters,
        "num_clusters_true": truth.num_clusters,
        "stop_reason": reason,
        "iterations": state.iterations,
    })


def _load_labels(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read labels from {path}: {exc}")
    if path.suffix == ".json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}")
        labels = doc.get("labels") if isinstance(doc, dict) else doc
        if not isinstance(labels, list):
            raise ConfigError(f"{path} holds no labels list")
    else:
        labels = []
        for ln, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            cell = line.split(",")[-1].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ConfigError(f"{path} line {ln}: non-numeric label")
            labels.append(value)
    arr = np.asarray(labels)
    if arr.size == 0:
        raise ConfigError(f"{path} holds no labels")
    if not np.all(arr == np.round(arr)):
        raise ConfigError(f"{path} labels must be integral")
    try:
        return Partition(arr.astype(np.int64))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def cmd_metrics(config, out):
    predicted = _load_labels(config["predicted"])
    reference = _load_labels(config["reference"])
    if predicted.num_nodes != reference.num_nodes:
        raise ConfigError(
            f"label files disagree on size: {predicted.num_nodes}"
            f" vs {reference.num_nodes}")
    _write_json(out / "metrics.json", {
        "ari": adjusted_rand_index(predicted, reference),
        "relation": partition_relation(predicted, reference),
        "num_clusters_predicted": predicted.num_clusters,
        "num_clusters_reference": reference.num_clusters,
    })


def _jump_set(x, merge_tol):
    """Positions i with a jump between samples i-1 and i."""
    x = np.asarray(x, dtype=np.float64).ravel()
    gaps = np.abs(np.diff(x))
    scale = 1.0 + float(np.abs(x).max()) if x.size else 1.0
    return [int(i) + 1 for i in np.flatnonzero(gaps > merge_tol * scale)]


def _signal_instance(spec):
    if "file" in spec:
        try:
            return load_signal_csv(spec["file"])
        except OSError as exc:
            raise ConfigError(f"cannot read signal file: {exc}")
        except ValueError as exc:
            raise ConfigError(f"bad signal file {spec['file']}: {exc}")
    levels = [(int(l), float(v)) for l, v in spec["levels"]]
    n = sum(l for l, _ in levels)
    return gen_piecewise_signal(n, levels, noise_sd=spec["noise_sd"],
                                seed=spec["seed"])


def cmd_piecewise(config, out):
    signal = _signal_instance(config["signal"])
    n = signal.original.size
    noisy = signal.noisy.reshape(-1, 1)
    losses = SquaredDistance(noisy)
    K = config["cardinality"]
    if K > n - 1:
        raise ConfigError(f"cardinality {K} exceeds the edge count {n - 1}")
    merge_tol = config["merge_tol"]

    # trimmed run: plain path graph, strength from the exact-penalty
    # preset unless pinned, rho schedule per config (capped at the
    # surjectivity threshold when "auto")
    plain = path_graph(n)
    gamma = _resolve_gamma(config["gamma"], losses)
    solver_config = SolverConfig(gamma=gamma, cardinality=K,
                                 **_solver_options(config["solver"], plain))
    state, reason = solve_ntl(losses, plain, solver_config,
                             x0=noisy.copy())
    if reason == DIVERGED:
        raise NumericalError("trimmed solver diverged")
    _check_finite(state.x, "trimmed solution")
    ntl_est = state.x[:, 0]
    ntl_result = {
        "gamma": gamma,
        "error": float(np.linalg.norm(ntl_est - signal.original)),
        "jumps": _jump_set(ntl_est, merge_tol),
        "iterations": state.iterations,
        "stop_reason": reason,
    }

    # convex baseline: Gaussian-weighted path graph, one cold-started
    # run per strength on the grid
    weighted = path_graph(n, points=noisy, alpha=config["alpha"])
    grid = _gamma_values(config["nl_grid"])
    nl_runs = []
    for g in grid:
        nl_state, nl_reason = solve_nl(
            losses, weighted, g, x0=noisy.copy(),
            **_solver_options(config["solver"], stopping_only=True))
        if nl_reason == DIVERGED:
            raise NumericalError(f"convex baseline diverged at"
                                 f" gamma={g!r}")
        est = nl_state.x[:, 0]
        nl_runs.append({
            "gamma": float(g),
            "error": float(np.linalg.norm(est - signal.original)),
            "jumps": _jump_set(est, merge_tol),
            "estimate": est,
        })

    def public(run):
        return {"gamma": run["gamma"], "error": run["error"],
                "jumps": run["jumps"], "num_jumps": len(run["jumps"])}

    best_quality = min(nl_runs, key=lambda r: r["error"])
    sparse_enough = [r for r in nl_runs if len(r["jumps"]) <= K]
    best_cardinality = sparse_enough[0] if sparse_enough else None

    payload = {
        "n": n,
        "noise_sd": signal.noise_sd,
        "cardinality": K,
        "true_jumps": [int(j) for j in signal.jumps],
        "ntl": dict(ntl_result, num_jumps=len(ntl_result["jumps"])),
        "nl_best_quality": public(best_quality),
        "nl_best_cardinality":
            public(best_cardinality) if best_cardinality else None,
        "nl_grid": [{"gamma": r["gamma"], "error": r["error"],
                     "num_jumps": len(r["jumps"])} for r in nl_runs],
        "ntl_beats_best_nl": ntl_result["error"] <= best_quality["error"],
        "ntl_jumps_exact": ntl_result["jumps"]
            == [int(j) for j in signal.jumps],
    }
    _write_json(out / "piecewise.json", payload)

    bc = best_cardinality["estimate"] if best_cardinality \
        else np.full(n, math.nan)
    lines = ["index,original,noisy,ntl,nl_best_quality,nl_best_cardinality"]
    columns = zip(signal.original, signal.noisy, ntl_est,
                  best_quality["estimate"], bc)
    for i, row in enumerate(columns):
        lines.append(",".join([str(i)] + [repr(float(v)) for v in row]))
    (out / "signals.csv").write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Task:
    """One CLI task: its help line, config schema and command.

    The command runs after the output directory exists and holds the
    normalized ``config.json``.
    """
    help: str
    schema: dict
    command: object


TASKS = {
    "gen-data": Task("write a synthetic dataset", {
        "generator": _Key(_parse_generator, flags=(
            _flag("--generator", entry="kind", choices=GENERATOR_KINDS),
            _flag("--n", entry="n", type=int),
            _flag("--noise-sd", entry="noise_sd", type=float))),
        "seed": _SEED, "output": _OUTPUT}, cmd_gen_data),
    "solve-nl": Task("solve the convex weighted problem", {
        **_INSTANCE, "gamma": _gamma(allow_auto=False),
        "solver": _solver(1.0, convex=True), "merge_tol": _MERGE_TOL,
        "seed": _SEED, "output": _OUTPUT}, cmd_solve_nl),
    "solve-ntl": Task("solve the trimmed problem", {
        **_INSTANCE, "gamma": _gamma(), "solver": _solver(1e4),
        "cardinality": _cardinality(), "init": _INIT,
        "merge_tol": _MERGE_TOL, "seed": _SEED, "output": _OUTPUT},
        cmd_solve_ntl),
    "k-path": Task("sweep the exemption budget downward", {
        **_INSTANCE, "gamma": _gamma(),
        "k_sequence": _Key(_parse_k_sequence, flags=(
            _flag("--k-values", type=_int_list_flag),)),
        "init": _INIT, "solver": _solver(1e4), "merge_tol": _MERGE_TOL,
        "seed": _SEED, "output": _OUTPUT}, cmd_k_path),
    "gamma-path": Task("sweep the penalty strength upward", {
        **_INSTANCE,
        "gamma_sequence": _Key(_parse_gamma_grid, flags=(
            _flag("--gamma-grid", type=_grid_flag),)),
        "warm_start": _Key(lambda v: _bool("warm_start", v), True, (
            _flag("--no-warm-start", action="store_const", const=False),)),
        "stop_on_full_merge": _Key(
            lambda v: _bool("stop_on_full_merge", v), False,
            (_flag("--stop-on-full-merge", **_SET_TRUE),)),
        "solver": _solver(1.0, convex=True), "merge_tol": _MERGE_TOL,
        "seed": _SEED, "output": _OUTPUT}, cmd_gamma_path),
    "thresholds": Task("report penalty and recovery thresholds",
                       {**_INSTANCE, "output": _OUTPUT}, cmd_thresholds),
    "recovery-check": Task(
        "solve at an in-interval strength and compare against labels", {
            **_INSTANCE, "gamma": _gamma("auto"),
            "solver": _solver(1.0, convex=True), "merge_tol": _MERGE_TOL,
            "output": _OUTPUT}, cmd_recovery_check),
    "metrics": Task("compare two partition files", {
        "predicted": _Key(lambda v: _str("predicted", v),
                          flags=(_flag("--predicted"),)),
        "reference": _Key(lambda v: _str("reference", v),
                          flags=(_flag("--reference"),)),
        "output": _OUTPUT}, cmd_metrics),
    "piecewise": Task("piecewise-constant signal experiment", {
        "signal": _Key(_parse_signal, flags=(
            _flag("--signal-file", entry="file"),
            _flag("--seed", entry="seed", type=int))),
        "cardinality": _cardinality(5), "gamma": _gamma("auto"),
        "alpha": _Key(lambda v: _num("alpha", v, above=0.0), 0.5,
                      (_flag("--alpha", type=float),)),
        "nl_grid": _Key(lambda raw: _parse_gamma_grid(raw, "nl_grid"), {},
                        (_flag("--nl-grid", type=_grid_flag),)),
        "solver": _solver(1.0, default_schedule={"multiplier": 10.0,
                                                 "cap": "auto",
                                                 "period": 100}),
        "merge_tol": _MERGE_TOL, "output": _OUTPUT}, cmd_piecewise),
}


# ---------------------------------------------------------------------------
# argument parsing and flag overrides


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netlasso",
        description="Graph-regularized fitting with simultaneous"
                    " clustering: solvers, paths, and threshold reports.")
    subs = parser.add_subparsers(dest="task", required=True)
    for name, task in TASKS.items():
        sub = subs.add_parser(name, help=task.help)
        sub.add_argument("--config", help="JSON config document")
        for spec in task.schema.values():
            for opts, _, kwargs in spec.flags:
                sub.add_argument(*opts, dest=_dest(opts), **kwargs)
    return parser


def _apply_overrides(raw, args, schema):
    for key, spec in schema.items():
        for opts, entry, _ in spec.flags:
            value = getattr(args, _dest(opts))
            if value is None:
                continue
            if entry is None:
                raw[key] = value
                continue
            section = raw.setdefault(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config entry {key} must be an object to"
                                  f" accept the {opts[0]} flag")
            section[entry] = value


def load_config(args):
    """Read the config file (if any), overlay flags, and validate."""
    raw = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {args.config}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if "task" in raw and raw["task"] != args.task:
            raise ConfigError(f"config file is for task {raw['task']!r},"
                              f" not {args.task!r}")
    raw["task"] = args.task
    _apply_overrides(raw, args, TASKS[args.task].schema)
    return normalize_config(raw)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        out = Path(config["output"]["dir"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(serialize_config(config))
        TASKS[config["task"]].command(config, out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
