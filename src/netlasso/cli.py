"""Command-line front end: solver runs, paths, thresholds, experiments.

Each subcommand is driven by one JSON config document.  Flags override
individual config entries, the merged document is validated against a
strict per-task schema (unknown keys are errors), and the run writes
its artifacts into the configured output directory.  All numeric
output goes through ``repr``-precision floats and sorted JSON keys, so
re-running the same config reproduces every artifact byte for byte.
Plotting is left to external tools.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .datasets import (_change_positions, _floats, _int_labels, _json_text,
                       _jsonify, _read_rows, _write_rows, gen_half_moons,
                       gen_piecewise_signal, gen_two_line_regression,
                       load_csv, load_signal_csv, save_csv, save_signal_csv)
from .graph import (complete_graph, knn_gaussian_graph, load_edge_list,
                    path_graph, sigma_min_DDt)
from .losses import RidgeRegression, SquaredDistance
from .path import (Partition, adjusted_rand_index, extract_partition,
                   gamma_path, k_path, midpoint_init, partition_relation,
                   save_centroids_csv, save_path_json)
from .solver import (DIVERGED, MAX_ITERS, RhoSchedule, SingularSystemError,
                     SolverConfig, nl_certificate, solve_nl, solve_ntl,
                     stationarity_check)
from .thresholds import (bound_C_clustering, bound_C_quadratic,
                         clustering_threshold, exact_penalty_threshold,
                         recovery_interval, recovery_interval_cc)


class ConfigError(Exception):
    """Invalid or inconsistent run configuration (exit code 2)."""


class NumericalError(Exception):
    """Solver divergence or non-finite output (exit code 3)."""


# ---------------------------------------------------------------------------
# value checks: each factory returns ``check(where, value)``, which
# validates one raw value and returns it normalized


def _require(where, raw, allowed, required=()):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(raw))
    if missing:
        raise ConfigError(f"{where}: missing key(s): {', '.join(missing)}")


def _num(minimum=None, above=None, maximum=None, integer=False):
    """A number (an integer when ``integer``) within the given bounds."""
    def check(where, value):
        if isinstance(value, bool) or not isinstance(
                value, int if integer else (int, float)):
            raise ConfigError(f"{where} must be"
                              f" {'an integer' if integer else 'a number'}")
        v = value if integer else float(value)
        if not (integer or math.isfinite(v)):
            raise ConfigError(f"{where} must be finite")
        if minimum is not None and v < minimum:
            raise ConfigError(f"{where} must be >= {minimum}")
        if above is not None and v <= above:
            raise ConfigError(f"{where} must be > {above}")
        if maximum is not None and v > maximum:
            raise ConfigError(f"{where} must be <= {maximum}")
        return v
    return check


def _str(choices=None):
    def check(where, value):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string")
        if choices is not None and value not in choices:
            raise ConfigError(f"{where} must be one of: {', '.join(choices)}"
                              f" (got {value!r})")
        return value
    return check


def _bool(where, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false")
    return value


def _optional(check):
    """``check``, letting null through."""
    return lambda where, value: None if value is None else check(where, value)


def _auto(check, allowed=True):
    """``check``, letting the string "auto" through where ``allowed``."""
    def checked(where, value):
        if value != "auto":
            return check(where, value)
        if not allowed:
            raise ConfigError(f"{where} does not accept \"auto\" here")
        return "auto"
    return checked


def _list(item):
    """A non-empty list, each entry checked by ``item``."""
    def check(where, value):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list")
        return [item(f"{where}[{i}]", v) for i, v in enumerate(value)]
    return check


def _tuple(*items):
    """A list with exactly one entry per check in ``items``."""
    def check(where, value):
        if not isinstance(value, list) or len(value) != len(items):
            raise ConfigError(f"{where} must be a {len(items)}-element list")
        return [item(f"{where}[{i}]", v)
                for i, (item, v) in enumerate(zip(items, value))]
    return check


# ---------------------------------------------------------------------------
# config objects: tables of fields, each with its check, default and flag


REQUIRED = object()
_SET_TRUE = {"action": "store_const", "const": True}


class _Field:
    """One entry of a config object.

    ``check(where, value)`` validates the raw value and fills in
    defaults; ``default`` stands in for an absent entry unless it is
    ``REQUIRED``.  ``flags`` holds the flag that sets this entry, if
    any: its option strings ``opts`` and argparse keywords ``kwargs``.
    So a task offers a flag exactly when its schema has the entry the
    flag sets.
    """

    def __init__(self, check, default=REQUIRED, *opts, **kwargs):
        self.check, self.default = check, default
        self.flags = ((opts, kwargs),) if opts else ()


def _walk(where, raw, fields, prefix):
    """Check a raw object against a table of fields: no unknown or
    missing keys, and every field checked, an absent one at its
    default.  The whole config and every section go through here."""
    _require(where, raw, fields, [key for key, field in fields.items()
                                  if field.default is REQUIRED])
    return {key: field.check(prefix + key, raw.get(key, field.default))
            for key, field in fields.items()}


class _Section:
    """A config object with one table of fields."""

    def __init__(self, fields):
        self.fields = fields

    def __call__(self, where, raw):
        return _walk(where, raw, self.fields, where + ".")


class _Kinded(_Section):
    """A config object whose ``kind`` picks the table of its other
    fields; ``fields`` is the union of the tables."""

    def __init__(self, flag, tables):
        kinds = tuple(tables)
        kind = _Field(_str(kinds), REQUIRED, flag, choices=kinds)
        self.tables = {name: {"kind": kind, **table}
                       for name, table in tables.items()}
        super().__init__({key: field for table in self.tables.values()
                          for key, field in table.items()})

    def __call__(self, where, raw):
        _require(where, raw, self.fields, ("kind",))
        table = self.tables[self.fields["kind"].check(f"{where}.kind",
                                                      raw["kind"])]
        stray = sorted(set(raw) - set(table))
        if stray:
            kinds = " or ".join(f"\"{name}\"" for name, other
                                in self.tables.items() if stray[0] in other)
            raise ConfigError(f"{where}.{stray[0]} only applies to kind"
                              f" {kinds}")
        return _walk(where, raw, table, where + ".")


class _Either(_Section):
    """A config object that holds either its first field alone or the
    other fields: a list of values or a range, a file or levels."""

    def __call__(self, where, raw):
        first, *keys = self.fields
        if isinstance(raw, dict) and first in raw:
            keys = [first]
        return _walk(where, raw, {key: self.fields[key] for key in keys},
                     where + ".")


def _gamma_flag(text):
    return text if text == "auto" else float(text)


def _int_list_flag(text):
    return {"values": [int(t) for t in text.split(",")]}


def _grid_flag(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start,factor,count")
    return {"start": float(parts[0]), "factor": float(parts[1]),
            "count": int(parts[2])}


def _convex_schedule(where, value):
    if value is not None:
        raise ConfigError(f"{where} only applies to the trimmed tasks"
                          " solve-ntl, k-path and piecewise")


_LEVELS = _list(_tuple(_num(minimum=1, integer=True), _num()))
_PAIR = _tuple(_num(), _num())
_GRID = _Either({"values": _Field(_list(_num(above=0.0))),
                 "start": _Field(_num(above=0.0), 1e-3),
                 "factor": _Field(_num(above=1.0), 1.2),
                 "count": _Field(_num(minimum=1, integer=True), 100)})
_SCHEDULE = _optional(_Section({
    "multiplier": _Field(_num(above=1.0), 10.0),
    "cap": _Field(_auto(_num(above=0.0)), "auto"),
    "period": _Field(_num(minimum=1, integer=True), 100)}))

_SEED = _Field(_num(integer=True), 0, "--seed", type=int)
_MERGE_TOL = _Field(_num(above=0.0), 1e-6, "--merge-tol", type=float)
_INIT = _Field(_Kinded("--init", {
    "minimizers": {},
    "from-file": {"file": _Field(_str(), REQUIRED, "--init-file")},
    "nl-midpoint": {"grid": _Field(_GRID, {})}}), {"kind": "minimizers"})
# complete / path: alpha null means uniform unit weights
_PLAIN_ALPHA = {"alpha": _Field(_optional(_num(above=0.0)), None,
                                "--alpha", type=float)}
# data, graph and loss: the problem instance of every task that reads data
_INSTANCE = {
    "data": _Field(_Section({
        "file": _Field(_str(), REQUIRED, "--data-file"),
        "has_labels": _Field(_bool, False, "--has-labels", **_SET_TRUE),
        "has_responses": _Field(_bool, False, "--has-responses",
                                **_SET_TRUE)})),
    "graph": _Field(_Kinded("--graph", {
        "complete": _PLAIN_ALPHA,
        "knn": {"k": _Field(_num(minimum=1, integer=True), REQUIRED,
                            "--knn-k", type=int),
                "alpha": _Field(_num(above=0.0), 0.5, "--alpha",
                                type=float)},
        "path": _PLAIN_ALPHA,
        "edge-list": {"file": _Field(_str(), REQUIRED, "--graph-file")},
    }), {"kind": "complete"}),
    "loss": _Field(_Kinded("--loss", {
        "squared-distance": {},
        "ridge": {"epsilon": _Field(_num(above=0.0), 1e-2, "--epsilon",
                                    type=float)},
    }), {"kind": "squared-distance"}),
}
_OUTPUT = _Field(_Section({"dir": _Field(_str(), REQUIRED, "--out-dir")}))


def _gamma(default=REQUIRED, allow_auto=True):
    return _Field(_auto(_num(minimum=0.0), allow_auto), default, "--gamma",
                  type=_gamma_flag if allow_auto else float)


def _solver(rho=1.0, schedule=_convex_schedule, default_schedule=None):
    """The solver section: its rho default and its rho_schedule check and
    default, by default those of the convex tasks, which take none."""
    updates = ("auto", "exact", "linearized")
    return _Field(_Section({
        "rho": _Field(_num(above=0.0), rho, "--rho", type=float),
        "x_update": _Field(_str(updates), "auto", "--x-update",
                           choices=updates),
        "smoothness": _Field(_optional(_num(above=0.0)), None,
                             "--smoothness", type=float),
        "max_iters": _Field(_num(minimum=1, integer=True), 1000,
                            "--max-iters", type=int),
        "eps_abs": _Field(_num(above=0.0), 1e-5, "--eps-abs", type=float),
        "eps_rel": _Field(_num(above=0.0), 1e-5, "--eps-rel", type=float),
        "rho_schedule": _Field(schedule, default_schedule)}), {})


_GEN_N = _Field(_num(minimum=2, integer=True), REQUIRED, "--n", type=int)
_GEN_NOISE = _Field(_num(minimum=0.0), 0.0, "--noise-sd", type=float)


def normalize_config(raw):
    """Validate a raw config document and fill in defaults.

    Normalization is idempotent, which is what makes the parse ->
    serialize -> parse round trip the identity.
    """
    _require("config", raw, raw, ("task",))
    task = _str(TASKS)("task", raw["task"])
    return _walk("config", raw,
                 {"task": _Field(_str()), **TASKS[task].schema}, "")


def serialize_config(config):
    """Render a normalized config back to its canonical JSON text."""
    return _json_text(config)


# ---------------------------------------------------------------------------
# builders: config sections -> package objects


def _read(what, load, path, **kwargs):
    """``load(path, **kwargs)``, with an unreadable or malformed file
    as a config error."""
    try:
        return load(path, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}")
    except ValueError as exc:
        raise ConfigError(f"bad {what} file {path}: {exc}")


def _build_graph(spec, data):
    n = data.num_points
    kind = spec["kind"]
    if kind == "edge-list":
        graph = _read("graph", load_edge_list, spec["file"])
        if graph.num_nodes != n:
            raise ConfigError(
                f"graph file has {graph.num_nodes} nodes, data has {n}")
        return graph
    # Gaussian edge weights see the full observed vector per node: the
    # regression response is stacked next to the inputs when present.
    points = data.points
    if data.responses is not None:
        points = np.column_stack([data.points, data.responses])
    if kind == "knn":
        if spec["k"] >= n:
            raise ConfigError(f"graph.k must be < number of nodes ({n})")
        return knn_gaussian_graph(points, spec["k"], spec["alpha"])
    builder = complete_graph if kind == "complete" else path_graph
    return builder(n, points=None if spec["alpha"] is None else points,
                   alpha=spec["alpha"])


def _build_loss(spec, data):
    if spec["kind"] == "squared-distance":
        return SquaredDistance(data.points)
    if data.responses is None:
        raise ConfigError("ridge loss needs data.has_responses")
    if data.points.shape[1] != 1:
        raise ConfigError("ridge loss expects one input column")
    return RidgeRegression(data.points[:, 0], data.responses,
                           spec["epsilon"])


def _instance(config):
    spec = config["data"]
    data = _read("data", load_csv, spec["file"],
                 has_labels=spec["has_labels"],
                 has_responses=spec["has_responses"])
    return data, _build_loss(config["loss"], data), _build_graph(
        config["graph"], data)


def _truth(data):
    """The label column as a partition (None without one), checked
    before any threshold or solve work reads it."""
    if data.labels is None:
        return None
    try:
        return Partition(np.asarray(data.labels))
    except ValueError as exc:
        raise ConfigError(f"bad label column: {exc}")


def _exact_penalty(losses):
    """The exact-penalty threshold, with the bound of the loss family;
    every loss kind of the config is quadratic."""
    if isinstance(losses, SquaredDistance):
        return exact_penalty_threshold(losses, bound_C_clustering(losses),
                                       method="clustering")
    return exact_penalty_threshold(losses, bound_C_quadratic(losses),
                                   method="quadratic")


def _resolve_gamma(gamma, losses):
    """Turn "auto" into the exact-penalty preset for the given losses."""
    if gamma != "auto":
        return float(gamma)
    return _exact_penalty(losses).gamma_star * 1.001


def _check_cardinality(K, num_edges):
    if K > num_edges:
        raise ConfigError(f"cardinality {K} exceeds the edge count"
                          f" {num_edges}")


def _gamma_values(spec):
    values = spec["values"] if "values" in spec else [
        spec["start"] * spec["factor"] ** t for t in range(spec["count"])]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("gamma sequence must be strictly increasing")
    return values


def _k_values(spec, num_edges):
    if "values" in spec:
        values = list(spec["values"])
    else:
        start = spec["start"] if spec["start"] > 0 else num_edges
        if start < spec["stop"]:
            raise ConfigError(f"k_sequence.start ({start}) is below"
                              f" k_sequence.stop ({spec['stop']})")
        values = list(range(start, spec["stop"] - 1, spec["step"]))
        if values[-1] != spec["stop"]:
            values.append(spec["stop"])
    for v in values:
        _check_cardinality(v, num_edges)
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigError("k sequence must be strictly decreasing")
    return values


# the options of the auxiliary convex solves (the nl-midpoint init and the
# piecewise baseline), which run at solve_nl's own rho and x-step
_STOPPING = ("max_iters", "eps_abs", "eps_rel")


def _solver_options(spec, graph=None):
    """Keyword options for ``SolverConfig``, ``solve_nl`` and the paths,
    from a parsed solver section.  A rho schedule is only ever set for
    the trimmed tasks; its "auto" cap is the surjectivity threshold of
    ``graph``."""
    options = {key: spec[key]
               for key in _STOPPING + ("rho", "x_update", "smoothness")}
    schedule = spec["rho_schedule"]
    if schedule is not None:
        cap = schedule["cap"]
        if cap == "auto":
            sigma = sigma_min_DDt(graph)
            if sigma <= 0:
                raise ConfigError("rho cap \"auto\" needs a connected graph"
                                  " with surjective differences")
            cap = 2.0 / (0.99 * sigma)
        options["rho_schedule"] = RhoSchedule(**dict(schedule, cap=cap))
    return options


def _initial_x(spec, losses, graph, solver_spec):
    kind = spec["kind"]
    if kind == "minimizers":
        return losses.all_minimizers()
    if kind == "from-file":
        # a centroids.csv: a header, then per node its index and values
        x0 = _read("init", lambda file: _floats(
            row[1:] for row in _read_rows(file)[1:]), spec["file"])
        if x0.shape != (losses.num_nodes, losses.dim):
            raise ConfigError(f"init file {spec['file']} has shape"
                              f" {x0.shape}, expected"
                              f" ({losses.num_nodes}, {losses.dim})")
        return x0
    path = gamma_path(losses, graph, _gamma_values(spec["grid"]),
                      warm_start=True, stop_on_full_merge=True,
                      **{key: solver_spec[key] for key in _STOPPING})
    try:
        return midpoint_init(path)
    except ValueError as exc:
        raise NumericalError(f"nl-midpoint init failed: {exc}")


def _piecewise_signal(levels, noise_sd, seed):
    """``gen_piecewise_signal`` over normalized ``[length, value]`` levels."""
    return gen_piecewise_signal(sum(l for l, _ in levels), levels,
                                noise_sd=noise_sd, seed=seed)


# ---------------------------------------------------------------------------
# solving and artifact writing


def _solve(solve, losses, graph, strength, merge_tol, **options):
    """One run of ``solve_nl`` or ``solve_ntl`` that must neither diverge
    nor leave non-finite values: its state, stop reason and partition."""
    state, reason = solve(losses, graph, strength, **options)
    if reason == DIVERGED:
        raise NumericalError("solver diverged; lower rho or gamma")
    if not np.all(np.isfinite(state.x)):
        raise NumericalError("solution contains non-finite values")
    return state, reason, extract_partition(state.x, graph, merge_tol)


def _solve_trimmed(config, losses, graph, K, x0=None):
    """The trimmed solve of a config at cardinality ``K`` from ``x0``,
    by default the config's init: its strength, then ``_solve``'s
    state, stop reason and partition."""
    gamma = _resolve_gamma(config["gamma"], losses)
    solver_config = SolverConfig(gamma=gamma, cardinality=K,
                                 **_solver_options(config["solver"], graph))
    if x0 is None:
        x0 = _initial_x(config["init"], losses, graph, config["solver"])
    return (gamma, *_solve(solve_ntl, losses, graph, solver_config,
                           config["merge_tol"], x0=x0))


def _check_path(path):
    """Fail on a diverged step; name the steps cut at max-iters on stderr."""
    if any(step.stop_reason == DIVERGED for step in path.steps):
        raise NumericalError("a path step diverged; lower rho or gamma")
    capped = [str(step.parameter) for step in path.steps
              if step.stop_reason == MAX_ITERS]
    if capped:
        print(f"warning: {len(capped)} of {len(path.steps)} path steps"
              f" stopped at max-iters ({path.kind} {', '.join(capped)})",
              file=sys.stderr)


def _write_json(path, payload):
    Path(path).write_text(_json_text(_jsonify(payload)))


def _write_solve(out, config, state, reason, part, kind, report, **extra):
    """centroids.csv, trace.csv, partition.json and optimality.json of one
    solver run; ``report`` is the check of ``kind`` that fits the
    problem."""
    dims = ",".join(f"dim{c}" for c in range(state.x.shape[1]))
    _write_rows(out / "centroids.csv", "node," + dims, state.x, start=0)
    _write_rows(out / "trace.csv", "iter,objective,augmented_lagrangian,"
                "primal_residual,x_change,rho",
                zip(state.objectives, state.aug_lagrangians,
                    state.primal_residuals, state.x_changes, state.rhos),
                start=1)
    _write_json(out / "partition.json", {
        "labels": [int(v) for v in part.labels],
        "num_clusters": part.num_clusters, "merge_tol": config["merge_tol"]})
    _write_json(out / "optimality.json", dict(
        kind=kind, passed=report.passed, **extra, **asdict(report),
        objective=state.objectives[-1], stop_reason=reason,
        iterations=state.iterations, num_clusters=part.num_clusters))


def _path_artifacts(out, path):
    _check_path(path)
    with open(out / "path.json", "w") as fh:
        save_path_json(path, fh)
    save_centroids_csv(path, out / "path_centroids.csv")


# ---------------------------------------------------------------------------
# commands


# per generator kind: the function that takes the generator's entries
# and the seed, the writer of its result and the file it writes
_GENERATORS = {"two-line": (gen_two_line_regression, save_csv, "data.csv"),
               "half-moons": (gen_half_moons, save_csv, "data.csv"),
               "piecewise": (_piecewise_signal, save_signal_csv, "signal.csv")}


def cmd_gen_data(config, out):
    gen = dict(config["generator"])
    generate, save, name = _GENERATORS[gen.pop("kind")]
    save(generate(seed=config["seed"], **gen), out / name)


def cmd_solve_nl(config, out):
    data, losses, graph = _instance(config)
    state, reason, part = _solve(solve_nl, losses, graph, config["gamma"],
                                 config["merge_tol"],
                                 **_solver_options(config["solver"]))
    report = nl_certificate(state.x, losses, graph, config["gamma"],
                            merge_tol=config["merge_tol"])
    _write_solve(out, config, state, reason, part, "subgradient-certificate",
                 report)


def cmd_solve_ntl(config, out):
    data, losses, graph = _instance(config)
    K = config["cardinality"]
    _check_cardinality(K, graph.num_edges)
    gamma, state, reason, part = _solve_trimmed(config, losses, graph, K)
    report = stationarity_check(state.x, losses, graph, gamma, K,
                                merge_tol=config["merge_tol"])
    _write_solve(out, config, state, reason, part,
                 "directional-stationarity", report, gamma=gamma)


def cmd_k_path(config, out):
    data, losses, graph = _instance(config)
    gamma = _resolve_gamma(config["gamma"], losses)
    ks = _k_values(config["k_sequence"], graph.num_edges)
    x0 = _initial_x(config["init"], losses, graph, config["solver"])
    path = k_path(losses, graph, gamma, ks, x0=x0,
                  merge_tol=config["merge_tol"],
                  **_solver_options(config["solver"], graph))
    _path_artifacts(out, path)


def cmd_gamma_path(config, out):
    data, losses, graph = _instance(config)
    path = gamma_path(losses, graph, _gamma_values(config["gamma_sequence"]),
                      warm_start=config["warm_start"],
                      stop_on_full_merge=config["stop_on_full_merge"],
                      merge_tol=config["merge_tol"],
                      **_solver_options(config["solver"]))
    _path_artifacts(out, path)


def cmd_thresholds(config, out):
    data, losses, graph = _instance(config)
    truth = _truth(data)
    payload = {"3nC": None, "recovery": None, "cc_specialized": None,
               "exact_penalty": _exact_penalty(losses).to_json_dict()}
    if isinstance(losses, SquaredDistance):
        payload["3nC"] = clustering_threshold(losses.points)
    if truth is not None:
        payload["recovery"] = recovery_interval(losses, graph,
                                                data.labels).to_json_dict()
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
    return 2.0 * lo if lo > 0 else 1.0


def cmd_recovery_check(config, out):
    data, losses, graph = _instance(config)
    truth = _truth(data)
    if truth is None:
        raise ConfigError("recovery-check needs data.has_labels with a"
                          " label column")
    report = recovery_interval(losses, graph, data.labels)
    gamma = config["gamma"]
    if gamma == "auto":
        gamma = _midpoint_gamma(report.gamma_min, report.gamma_max)
    state, reason, part = _solve(solve_nl, losses, graph, gamma,
                                 config["merge_tol"],
                                 **_solver_options(config["solver"]))
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
    """A partition from a JSON labels list (alone or under "labels"),
    or from the last column of a CSV."""
    if Path(path).suffix == ".json":
        doc = json.loads(Path(path).read_text())
        labels = doc.get("labels") if isinstance(doc, dict) else doc
        if not isinstance(labels, list):
            raise ValueError("no labels list")
    else:
        labels = [float(row[-1]) for row in _read_rows(path)]
    return Partition(_int_labels(labels))


def cmd_metrics(config, out):
    predicted = _read("labels", _load_labels, config["predicted"])
    reference = _read("labels", _load_labels, config["reference"])
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


def _fit(gamma, x, part, signal):
    """One estimate of the signal: its strength, error and jump set.

    On the chain every cluster is a run of samples, so the jumps are
    where the partition labels change."""
    jumps = _change_positions(part.labels).tolist()
    return {"gamma": float(gamma),
            "error": float(np.linalg.norm(x[:, 0] - signal.original)),
            "jumps": jumps, "num_jumps": len(jumps)}


def cmd_piecewise(config, out):
    spec = config["signal"]
    if "file" in spec:
        signal = _read("signal", load_signal_csv, spec["file"])
    else:
        signal = _piecewise_signal(**spec)
    n = signal.original.size
    noisy = signal.noisy.reshape(-1, 1)
    losses = SquaredDistance(noisy)
    K = config["cardinality"]
    _check_cardinality(K, n - 1)

    # trimmed run on the plain path graph; convex baseline on the
    # Gaussian-weighted one, one cold-started run per strength
    gamma, state, reason, part = _solve_trimmed(config, losses,
                                                path_graph(n), K, noisy)
    ntl = dict(_fit(gamma, state.x, part, signal),
               iterations=state.iterations, stop_reason=reason)
    path = gamma_path(losses, path_graph(n, points=noisy,
                                         alpha=config["alpha"]),
                      _gamma_values(config["nl_grid"]), x0=noisy,
                      warm_start=False, merge_tol=config["merge_tol"],
                      **{key: config["solver"][key] for key in _STOPPING})
    _check_path(path)
    fits = [_fit(step.parameter, step.centroids, step.partition, signal)
            for step in path.steps]
    best = min(range(len(fits)), key=lambda i: fits[i]["error"])
    sparse = next((i for i, fit in enumerate(fits)
                   if fit["num_jumps"] <= K), None)
    true_jumps = signal.jumps.tolist()
    _write_json(out / "piecewise.json", {
        "n": n,
        "noise_sd": signal.noise_sd,
        "cardinality": K,
        "true_jumps": true_jumps,
        "ntl": ntl,
        "nl_best_quality": fits[best],
        "nl_best_cardinality": None if sparse is None else fits[sparse],
        "nl_grid": [{key: fit[key] for key in ("gamma", "error", "num_jumps")}
                    for fit in fits],
        "ntl_beats_best_nl": ntl["error"] <= fits[best]["error"],
        "ntl_jumps_exact": ntl["jumps"] == true_jumps,
    })
    _write_rows(out / "signals.csv",
                "index,original,noisy,ntl,nl_best_quality,nl_best_cardinality",
                zip(signal.original, signal.noisy, state.x[:, 0],
                    path.steps[best].centroids[:, 0],
                    np.full(n, math.nan) if sparse is None
                    else path.steps[sparse].centroids[:, 0]), start=0)


class Task:
    """One CLI task: its help line, config schema and command.

    The schema gets the ``output`` entry that every task has.  The
    command runs after the output directory exists and holds the
    normalized ``config.json``.
    """

    def __init__(self, help, schema, command):
        self.help, self.command = help, command
        self.schema = {**schema, "output": _OUTPUT}


TASKS = {
    "gen-data": Task("write a synthetic dataset", {
        "generator": _Field(_Kinded("--generator", {
            "two-line": {"n": _GEN_N, "slopes": _Field(_PAIR, [1.0, -1.0]),
                         "intercepts": _Field(_PAIR, [0.0, 0.0]),
                         "x_range": _Field(_PAIR, [-1.0, 1.0]),
                         "noise_sd": _GEN_NOISE},
            "half-moons": {"n": _GEN_N, "noise_sd": _GEN_NOISE},
            "piecewise": {"levels": _Field(_LEVELS),
                          "noise_sd": _GEN_NOISE}})),
        "seed": _SEED}, cmd_gen_data),
    "solve-nl": Task("solve the convex weighted problem", {
        **_INSTANCE, "gamma": _gamma(allow_auto=False), "solver": _solver(),
        "merge_tol": _MERGE_TOL}, cmd_solve_nl),
    "solve-ntl": Task("solve the trimmed problem", {
        **_INSTANCE, "gamma": _gamma(), "solver": _solver(1e4, _SCHEDULE),
        "cardinality": _Field(_num(minimum=0, integer=True), REQUIRED,
                              "--cardinality", "-K", type=int),
        "init": _INIT, "merge_tol": _MERGE_TOL}, cmd_solve_ntl),
    "k-path": Task("sweep the exemption budget downward", {
        **_INSTANCE, "gamma": _gamma(),
        "k_sequence": _Field(_Either({
            "values": _Field(_list(_num(minimum=0, integer=True))),
            "start": _Field(_num(minimum=0, integer=True)),
            "stop": _Field(_num(minimum=0, integer=True), 0),
            "step": _Field(_num(maximum=-1, integer=True), -1)}), REQUIRED,
            "--k-values", type=_int_list_flag),
        "init": _INIT, "solver": _solver(1e4, _SCHEDULE),
        "merge_tol": _MERGE_TOL}, cmd_k_path),
    "gamma-path": Task("sweep the penalty strength upward", {
        **_INSTANCE,
        "gamma_sequence": _Field(_GRID, REQUIRED, "--gamma-grid",
                                 type=_grid_flag),
        "warm_start": _Field(_bool, True, "--no-warm-start",
                             action="store_const", const=False),
        "stop_on_full_merge": _Field(_bool, False, "--stop-on-full-merge",
                                     **_SET_TRUE),
        "solver": _solver(), "merge_tol": _MERGE_TOL}, cmd_gamma_path),
    "thresholds": Task("report penalty and recovery thresholds", _INSTANCE,
                       cmd_thresholds),
    "recovery-check": Task(
        "solve at an in-interval strength and compare against labels", {
            **_INSTANCE, "gamma": _gamma("auto"), "solver": _solver(),
            "merge_tol": _MERGE_TOL}, cmd_recovery_check),
    "metrics": Task("compare two partition files", {
        "predicted": _Field(_str(), REQUIRED, "--predicted"),
        "reference": _Field(_str(), REQUIRED, "--reference")}, cmd_metrics),
    "piecewise": Task("piecewise-constant signal experiment", {
        "signal": _Field(_Either({
            "file": _Field(_str(), REQUIRED, "--signal-file"),
            "levels": _Field(_LEVELS),
            "noise_sd": _Field(_num(minimum=0.0), 0.2),
            "seed": _SEED})),
        "cardinality": _Field(_num(minimum=0, integer=True), 5,
                              "--cardinality", "-K", type=int),
        "gamma": _gamma("auto"),
        "alpha": _Field(_num(above=0.0), 0.5, "--alpha", type=float),
        "nl_grid": _Field(_GRID, {}, "--nl-grid", type=_grid_flag),
        "solver": _solver(1.0, _SCHEDULE, {}),
        "merge_tol": _MERGE_TOL}, cmd_piecewise),
}


# ---------------------------------------------------------------------------
# argument parsing and flag overrides


def _flags(schema):
    """Every flag of a task's schema: its option strings, the config path
    it sets (a top-level key, or a key and an entry of its section) and
    its argparse keywords."""
    for key, field in schema.items():
        for opts, kwargs in field.flags:
            yield opts, (key,), kwargs
        for entry, inner in getattr(field.check, "fields", {}).items():
            for opts, kwargs in inner.flags:
                yield opts, (key, entry), kwargs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netlasso",
        description="Graph-regularized fitting with simultaneous"
                    " clustering: solvers, paths, and threshold reports.")
    subs = parser.add_subparsers(dest="task", required=True)
    for name, task in TASKS.items():
        sub = subs.add_parser(name, help=task.help)
        sub.add_argument("--config", help="JSON config document")
        for opts, _, kwargs in _flags(task.schema):
            sub.add_argument(*opts, **kwargs)
    return parser


def _apply_overrides(raw, args, schema):
    for opts, path, _ in _flags(schema):
        # argparse names a flag's value after its first, long option
        value = getattr(args, opts[0][2:].replace("-", "_"))
        if value is None:
            continue
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"config entry {key} must be an object to"
                                  f" accept the {opts[0]} flag")
        node[path[-1]] = value


def load_config(args):
    """Read the config file (if any), overlay flags, and validate."""
    raw = {} if args.config is None else _read(
        "config", lambda path: json.loads(Path(path).read_text()), args.config)
    if isinstance(raw, dict):  # anything else fails in normalize_config
        if raw.setdefault("task", args.task) != args.task:
            raise ConfigError(f"config file is for task {raw['task']!r},"
                              f" not {args.task!r}")
        _apply_overrides(raw, args, TASKS[args.task].schema)
    return normalize_config(raw)


def main(argv=None):
    args = build_parser().parse_args(argv)
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
    except (NumericalError, SingularSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
