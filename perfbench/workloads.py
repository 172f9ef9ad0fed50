"""The three benchmark workloads.

Each workload has ``setup(seed, work)``, which generates its inputs, and
``run(inputs)``, the timed part.  ``run`` calls into the package through
module attributes, so the tracer's wrappers see the calls, and returns
the outputs.  After the clock stops, ``account(inputs, outputs, tally)``
counts the operations and ``evaluate(inputs, outputs)`` returns the
quality numbers, the artifacts and the outputs that must repeat bit for
bit.

An operation is one solve (each path step counts), one certificate or
threshold call, or one CLI invocation.  ``Tally.broken`` counts
operations that did not complete: an exception, a non-zero CLI exit, a
diverged solve, non-finite output, or artifacts that differ between two
invocations in one run.  ``Tally.rejected`` counts certificates and
stationarity checks that completed but did not pass.
"""

import json
import math
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from netlasso import cli, datasets, graph, losses, path, solver, thresholds

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


@dataclass
class Tally:
    attempted: int = 0
    broken: int = 0
    rejected: int = 0
    solves: int = 0
    unconverged: int = 0

    def add_solve(self, reason, x):
        self.attempted += 1
        self.solves += 1
        if reason == solver.DIVERGED or not np.all(np.isfinite(x)):
            self.broken += 1
        if reason != solver.CONVERGED:
            self.unconverged += 1

    def add_raised(self, ops, solves=0):
        self.attempted += ops
        self.broken += ops
        self.solves += solves
        self.unconverged += solves

    def add_solve_result(self, result):
        if result is None:
            self.add_raised(1, solves=1)
        else:
            self.add_solve(result[1], result[0].x)

    def add_path(self, result, planned):
        if result is None:
            self.add_raised(planned, solves=planned)
            return
        for step in result.steps:
            self.add_solve(step.stop_reason, step.centroids)

    def add_check(self, report):
        if report is None:
            self.add_raised(1)
        else:
            self.attempted += 1
            self.rejected += not report.passed


def guarded(fn, *args, **kwargs):
    """Call ``fn``; on an exception print it and return None."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        traceback.print_exc()
        return None


def best_ari(partitions, labels):
    truth = path.Partition(labels)
    return max(path.adjusted_rand_index(p, truth) for p in partitions)


def permuted(n, seed):
    """Node order for a seed: the same problem, relabelled."""
    return np.random.default_rng(seed).permutation(n)


class PiecewisePath:
    """Acceptance criterion 07 for one signal: a trimmed solve at the
    exact-penalty strength, then the 100-step warm-started convex path.

    The seed is the noise seed of the signal.
    """

    name = "piecewise-path"
    n = 200
    levels = [(35, 0.0), (35, 2.0), (30, 0.8), (35, 2.2), (30, 1.0),
              (35, 2.6)]
    gammas = [1e-3 * 1.2 ** t for t in range(100)]

    def setup(self, seed, work):
        sig = datasets.gen_piecewise_signal(self.n, self.levels,
                                            noise_sd=0.2, seed=seed)
        xhat = sig.noisy.reshape(-1, 1)
        return {"signal": sig, "xhat": xhat, "data_seed": seed,
                "losses": losses.SquaredDistance(xhat)}

    def run(self, inp):
        n, xhat, loss = self.n, inp["xhat"], inp["losses"]
        sigma = 2.0 * (1.0 - math.cos(math.pi / n))
        cfg = solver.SolverConfig(
            gamma=thresholds.clustering_threshold(xhat) * 1.001,
            cardinality=5, rho=1.0,
            rho_schedule=solver.RhoSchedule(10.0, 2.0 / (0.99 * sigma), 100),
            max_iters=3000, eps_abs=1e-8, eps_rel=1e-8)
        ntl = guarded(solver.solve_ntl, loss, graph.path_graph(n), cfg,
                      x0=xhat)
        weighted = graph.path_graph(n, points=xhat, alpha=0.5)
        sweep = guarded(path.gamma_path, loss, weighted, self.gammas,
                        x0=xhat, warm_start=True, rho=200.0, max_iters=500,
                        eps_abs=1e-6, eps_rel=1e-6)
        return {"ntl": ntl, "path": sweep}

    def account(self, inp, out, tally):
        tally.add_solve_result(out["ntl"])
        tally.add_path(out["path"], len(self.gammas))

    def evaluate(self, inp, out):
        sig = inp["signal"]
        quality, exact = {}, {}
        if out["ntl"] is not None:
            state, reason = out["ntl"]
            x = state.x[:, 0]
            scale = 1e-6 * (1.0 + np.max(np.abs(x)))
            found = np.flatnonzero(np.abs(np.diff(x)) > scale) + 1
            quality["ntl_error"] = float(np.linalg.norm(x - sig.original))
            quality["jumps_exact"] = int(
                set(found.tolist()) == set(sig.jumps.tolist()))
            exact["ntl"] = (state.x, state.iterations, reason)
        if out["path"] is not None:
            steps = out["path"].steps
            quality["nl_best_error"] = min(
                float(np.linalg.norm(s.centroids[:, 0] - sig.original))
                for s in steps)
            labels = np.repeat(np.arange(len(self.levels)),
                               [length for length, _ in self.levels])
            quality["ari_best"] = best_ari([s.partition for s in steps],
                                           labels)
            exact["path"] = [(s.centroids, s.iterations, s.stop_reason,
                              s.objective) for s in steps]
        return quality, {}, exact


class TwoLineKPathCli:
    """The demo mixed-regression pipeline through ``netlasso.cli.main``:
    ``gen-data`` with the committed demo config (data seed 2) as set-up,
    then the timed ``k-path`` over 91 budgets on the complete graph.

    The seed permutes the rows of the generated data.  The problem is the
    same up to relabelling, so its iteration count does not depend on the
    seed, while the arrays, the edge order and the factorization do.
    """

    name = "twoline-kpath-cli"
    artifacts = ("config.json", "path.json", "path_centroids.csv")

    def setup(self, seed, work):
        gen_dir, gen_config = work / "gen", DEMO_CONFIGS / "two_line_gen.json"
        rc = cli.main(["gen-data", "--config", str(gen_config),
                       "--out-dir", str(gen_dir)])
        if rc != 0:
            raise RuntimeError(f"gen-data exited with {rc}")
        data = datasets.load_csv(gen_dir / "data.csv", has_labels=True,
                                 has_responses=True)
        order = permuted(data.num_points, seed)
        data = datasets.LabeledPoints(points=data.points[order],
                                      labels=data.labels[order],
                                      responses=data.responses[order])
        datasets.save_csv(data, work / "data.csv")
        return {"labels": data.labels, "data_file": work / "data.csv",
                "out_dir": work / "k_path", "first": None,
                "data_seed": json.loads(gen_config.read_text())["seed"]}

    def run(self, inp):
        rc = guarded(cli.main, [
            "k-path", "--config", str(DEMO_CONFIGS / "two_line_k_path.json"),
            "--data-file", str(inp["data_file"]),
            "--out-dir", str(inp["out_dir"])])
        return {"rc": rc}

    def account(self, inp, out, tally):
        files = {}
        for name in self.artifacts:
            target = inp["out_dir"] / name
            files[name] = target.read_bytes() if target.exists() else b""
        shutil.rmtree(inp["out_dir"], ignore_errors=True)
        if inp["first"] is None:
            inp["first"] = files
        out["files"] = files
        tally.attempted += 1
        if out["rc"] != 0 or files != inp["first"]:
            tally.broken += 1
        if not files["path.json"]:
            return
        steps = json.loads(files["path.json"])["steps"]
        rows = files["path_centroids.csv"].decode().splitlines()[1:]
        for step, row in zip(steps, rows):
            x = np.array([float(v) for v in row.split(",")[1:]])
            tally.add_solve(step["stop_reason"], x)
        out["steps"] = steps

    def evaluate(self, inp, out):
        quality = {}
        if out.get("steps"):
            parts = [path.Partition(np.array(s["labels"]))
                     for s in out["steps"]]
            quality["ari_best"] = best_ari(parts, inp["labels"])
        return quality, out["files"], {"files": out["files"]}


class MoonsCertify:
    """Half moons (n=1500, data seed 7) on a kNN graph: a short convex
    path, the certificate of its best-ARI step, a trimmed solve with its
    stationarity check, and both recovery intervals.

    The seed permutes the node order, as in ``TwoLineKPathCli``.
    """

    name = "moons-certify"
    n = 1500
    data_seed = 7
    gammas = np.geomspace(0.01, 5.0, 6)

    def setup(self, seed, work):
        data = datasets.gen_half_moons(self.n, noise_sd=0.08,
                                       seed=self.data_seed)
        order = permuted(self.n, seed)
        points = data.points[order]
        return {"points": points, "labels": data.labels[order],
                "losses": losses.SquaredDistance(points),
                "data_seed": self.data_seed}

    def run(self, inp):
        points, labels, loss = inp["points"], inp["labels"], inp["losses"]
        out = {"cert": None, "stationarity": None}
        g = graph.knn_gaussian_graph(points, 10, alpha=15.0)
        sweep = guarded(path.gamma_path, loss, g, self.gammas, rho=1.0,
                        max_iters=800, eps_abs=1e-6, eps_rel=1e-6,
                        stop_on_full_merge=True)
        out["path"] = sweep
        if sweep is not None:
            truth = path.Partition(labels)
            aris = [path.adjusted_rand_index(s.partition, truth)
                    for s in sweep.steps]
            best = sweep.steps[int(np.argmax(aris))]
            out["ari_best"] = max(aris)
            out["cert"] = guarded(solver.nl_certificate, best.centroids,
                                  loss, g, best.parameter)
        gamma = thresholds.clustering_threshold(points) * 1.001
        cfg = solver.SolverConfig(gamma=gamma, cardinality=50, rho=1e4,
                                  max_iters=300)
        out["ntl"] = guarded(solver.solve_ntl, loss, g, cfg)
        if out["ntl"] is not None:
            out["stationarity"] = guarded(solver.stationarity_check,
                                          out["ntl"][0].x, loss, g, gamma, 50)
        out["recovery"] = guarded(thresholds.recovery_interval, loss, g,
                                  labels)
        out["recovery_cc"] = guarded(thresholds.recovery_interval_cc, points,
                                     g, labels)
        return out

    def account(self, inp, out, tally):
        tally.add_path(out["path"], len(self.gammas))
        if out["path"] is not None:
            tally.add_check(out["cert"])
        tally.add_solve_result(out["ntl"])
        if out["ntl"] is not None:
            tally.add_check(out["stationarity"])
        rec, rec_cc = out["recovery"], out["recovery_cc"]
        for ends in (rec and (rec.gamma_min, rec.gamma_max), rec_cc):
            tally.attempted += 1
            # an interval end may be +inf ("no finite bound"); NaN is not
            if ends is None or any(math.isnan(v) for v in ends):
                tally.broken += 1

    def evaluate(self, inp, out):
        quality, exact = {}, {}
        if "ari_best" in out:
            quality["ari_best"] = out["ari_best"]
            exact["path"] = [(s.centroids, s.iterations, s.stop_reason)
                             for s in out["path"].steps]
        if out["cert"] is not None:
            quality["cert_max_rel_residual"] = out["cert"].max_rel_residual
            exact["cert"] = vars(out["cert"])
        if out["stationarity"] is not None:
            exact["stationarity"] = vars(out["stationarity"])
        if out["ntl"] is not None:
            exact["ntl"] = (out["ntl"][0].x, out["ntl"][0].iterations)
        if out["recovery"] is not None:
            exact["recovery"] = json.dumps(out["recovery"].to_json_dict(),
                                           sort_keys=True)
        exact["recovery_cc"] = out["recovery_cc"]
        return quality, {}, exact


WORKLOADS = {w.name: w for w in (PiecewisePath(), TwoLineKPathCli(),
                                 MoonsCertify())}
