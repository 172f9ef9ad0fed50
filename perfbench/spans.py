"""Span tracing of the netlasso modules, installed from outside the package.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with
a timing wrapper.  A module-level function is replaced in every netlasso
module that holds a reference to it, because callers look names up in
their own module (``netlasso.path`` calls its own ``solve_nl``); a method
is replaced on its class.  A name the program no longer defines is
skipped, so it reports zero calls.  ``Tracer.remove`` puts the originals
back.

Each call becomes one span: name, start, end and the span it was called
from.  Spans are kept in flat arrays and written out with ``save``.
Inclusive time of a group counts only its outermost spans, so a group
calling into itself is not counted twice; self time is a span's duration
minus the durations of its direct children.
"""

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# group -> (module, names); "Class.method" names a method, "Loss.*" every
# class of the module derived from Loss.
TARGETS = {
    "graph.build": ("netlasso.graph",
                    ["knn_gaussian_graph", "complete_graph", "path_graph"]),
    "graph.D": ("netlasso.graph", ["DifferenceOperator.apply",
                                   "DifferenceOperator.apply_adjoint"]),
    "penalty.prox": ("netlasso.penalty", ["prox_trimmed", "prox_group_l2"]),
    "losses": ("netlasso.losses", ["Loss.*total_value",
                                   "Loss.*total_gradient"]),
    "solver.solve": ("netlasso.solver", ["solve_nl", "solve_ntl"]),
    "solver.zstep": ("netlasso.solver", ["z_update", "z_update_convex"]),
    "solver.ystep": ("netlasso.solver", ["y_update"]),
    "solver.objective": ("netlasso.solver",
                         ["objective_trimmed", "objective_convex",
                          "augmented_lagrangian", "_aug_lagrangian_convex"]),
    "solver.factorize": ("netlasso.solver", ["splu"]),
    "solver.certificate": ("netlasso.solver", ["nl_certificate"]),
    "solver.stationarity": ("netlasso.solver", ["stationarity_check"]),
    "path.path": ("netlasso.path", ["k_path", "gamma_path"]),
    "path.partition": ("netlasso.path", ["extract_partition"]),
    "thresholds.recovery": ("netlasso.thresholds", ["recovery_interval"]),
    "thresholds.recovery_cc": ("netlasso.thresholds",
                               ["recovery_interval_cc"]),
    "thresholds.exact_penalty": ("netlasso.thresholds",
                                 ["exact_penalty_threshold",
                                  "clustering_threshold"]),
    "cli.main": ("netlasso.cli", ["main"]),
    "cli.write": ("netlasso.cli", ["save_path_json", "save_centroids_csv"]),
}


def _netlasso_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "netlasso"
                                  or name.startswith("netlasso."))]


def _methods(module, spec):
    """(class, attribute) pairs a method spec names in ``module``."""
    owner, attr = spec.split(".", 1)
    if owner == "Loss" and attr.startswith("*"):
        attr = attr[1:]
        base = getattr(module, "Loss", None)
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and base is not None
                   and issubclass(c, base)]
    else:
        cls = getattr(module, owner, None)
        classes = [cls] if isinstance(cls, type) else []
    return [(c, attr) for c in classes if attr in vars(c)]


class Tracer:
    def __init__(self):
        self.groups = list(TARGETS)
        self.name = array("i")       # span -> name id
        self.group = array("i")      # span -> group id
        self.parent = array("l")     # span -> parent span, -1 at the top
        self.nested = array("b")     # inside a span of its own group
        self.start = array("d")
        self.end = array("d")
        self.names = []
        self.counts = defaultdict(int)
        self._depth = [0] * len(self.groups)
        self._stack = [-1]
        self._undo = []

    def _wrap(self, group_id, label, fn):
        name_id = len(self.names)
        self.names.append(label)
        depth, stack, clock = self._depth, self._stack, time.perf_counter
        s_name, s_group, s_parent = self.name, self.group, self.parent
        s_nested, s_start, s_end = self.nested, self.start, self.end
        count = self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(s_start)
            s_name.append(name_id)
            s_group.append(group_id)
            s_parent.append(stack[-1])
            s_nested.append(depth[group_id] > 0)
            s_end.append(0.0)
            stack.append(idx)
            depth[group_id] += 1
            s_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                depth[group_id] -= 1
                stack.pop()
            count(group_id, out)
            return out

        return wrapper

    def _count(self, group_id, out):
        group = self.groups[group_id]
        if group == "solver.solve":
            self.counts["solver.iters"] += int(out[0].iterations)
        elif group in ("solver.certificate", "solver.stationarity"):
            self.counts["solver.cert_passed"] += bool(out.passed)
        elif group == "path.path":
            self.counts["path.steps"] += len(out.steps)

    def install(self):
        modules = _netlasso_modules()
        for group_id, (modname, specs) in enumerate(TARGETS.values()):
            module = sys.modules.get(modname)
            if module is None:
                continue
            for spec in specs:
                if "." in spec:
                    for cls, attr in _methods(module, spec):
                        orig = vars(cls)[attr]
                        label = f"{modname}.{cls.__name__}.{attr}"
                        setattr(cls, attr, self._wrap(group_id, label, orig))
                        self._undo.append((cls, attr, orig))
                    continue
                orig = getattr(module, spec, None)
                if orig is None:
                    continue
                wrapper = self._wrap(group_id, f"{modname}.{spec}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def remove(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def save(self, target):
        np.savez(target, names=np.array(self.names, dtype=str),
                 groups=np.array(self.groups, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 group=np.frombuffer(self.group, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end))

    def totals(self):
        """Per group: outermost call count, inclusive and self seconds."""
        group = np.frombuffer(self.group, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        outer = np.frombuffer(self.nested, dtype=np.int8) == 0
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        ng = len(self.groups)
        calls = np.bincount(group[outer], minlength=ng)
        incl = np.bincount(group[outer], weights=dur[outer], minlength=ng)
        self_s = np.bincount(group, weights=own, minlength=ng)
        return {g: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, g in enumerate(self.groups)}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, artifact_bytes, overhead_s):
    """The per-layer metrics of one traced repetition, as name -> (value,
    unit)."""
    t = tracer.totals()
    c = tracer.counts
    iters = c["solver.iters"]
    d_calls, d_s, _ = t["graph.D"]
    prox_calls, prox_s, _ = t["penalty.prox"]
    solves, solve_s, solve_self = t["solver.solve"]
    return {
        "graph.build_s": (t["graph.build"][1], "s"),
        "graph.D_calls": (d_calls, "count"),
        "graph.D_s": (d_s, "s"),
        "graph.D_calls_per_iter": (_ratio(d_calls, iters), "ratio"),
        "penalty.prox_calls": (prox_calls, "count"),
        "penalty.prox_s": (prox_s, "s"),
        "penalty.prox_us": (_ratio(prox_s, prox_calls, 1e6), "us"),
        "losses.calls": (t["losses"][0], "count"),
        "losses.s": (t["losses"][1], "s"),
        "solver.solves": (solves, "count"),
        "solver.iters": (iters, "count"),
        "solver.us_per_iter": (_ratio(solve_s, iters, 1e6), "us"),
        "solver.self_s": (solve_self, "s"),
        "solver.zstep_s": (t["solver.zstep"][1], "s"),
        "solver.ystep_s": (t["solver.ystep"][1], "s"),
        "solver.objective_s": (t["solver.objective"][1], "s"),
        "solver.factorize_calls": (t["solver.factorize"][0], "count"),
        "solver.factorize_s": (t["solver.factorize"][1], "s"),
        "solver.certificate_s": (t["solver.certificate"][1], "s"),
        "solver.stationarity_s": (t["solver.stationarity"][1], "s"),
        "solver.cert_passed": (c["solver.cert_passed"], "count"),
        "path.steps": (c["path.steps"], "count"),
        "path.self_s": (t["path.path"][2], "s"),
        "path.partition_s": (t["path.partition"][1], "s"),
        "thresholds.recovery_s": (t["thresholds.recovery"][1], "s"),
        "thresholds.recovery_cc_s": (t["thresholds.recovery_cc"][1], "s"),
        "thresholds.exact_penalty_s": (t["thresholds.exact_penalty"][1],
                                       "s"),
        "cli.self_s": (t["cli.main"][2], "s"),
        "cli.write_s": (t["cli.write"][1], "s"),
        "cli.artifact_bytes": (artifact_bytes, "B"),
        "trace.overhead_s": (overhead_s, "s"),
    }
