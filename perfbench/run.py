"""Benchmark of the netlasso package: one workload per run.

    python3 perfbench/run.py --workload piecewise-path --seed 0 \
        --seconds 14 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory.  One process, one caller, closed loop: the timed part
of the workload repeats until ``--seconds`` have passed (at least twice),
and each repetition starts when the previous one has returned.  Set-up
(imports plus input generation) is timed in this process and in
``SETUP_PROBES`` fresh interpreters.  With ``--trace 1`` one more
repetition runs under the span tracer of ``spans.py`` and the result
holds the per-layer metrics instead of the end-to-end ones.

Standard output ends with two JSON lines: the full record (environment,
samples, quartiles, operation counts, quality numbers) and the result
line ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

T0 = time.perf_counter()  # set-up time starts before numpy and netlasso load

# Single-threaded BLAS, set before numpy loads: the baseline of record.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REPS = 2          # repetitions per run, whatever --seconds says
SETUP_PROBES = 2      # extra set-up samples, each in a fresh interpreter
LOOP_BUDGET_S = 90.0  # no repetition starts that would end after this


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=14.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time imports and set-up only, print the seconds")
    return p.parse_args(argv)


def load_package():
    """Import netlasso from this checkout's src, or explain why not."""
    sys.path.insert(0, str(SRC))
    try:
        import netlasso
    except ImportError as exc:
        sys.exit(f"cannot import netlasso from {SRC}: {exc}")
    if Path(netlasso.__file__).resolve().parent.parent != SRC:
        sys.exit(f"netlasso was imported from {netlasso.__file__},"
                 f" not from {SRC}")


def digest(obj, h=None):
    """sha256 over arrays (dtype, shape, bytes), floats (bit pattern) and
    nested containers; equal digests mean bit-identical outputs."""
    import numpy as np
    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(struct.pack("<d", float(obj)))
    elif isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            digest(item, h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def setup_probe(args):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def blas_threads():
    """Threads each loaded OpenBLAS reports, by library file name."""
    import ctypes
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return found
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(inputs, seed):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        openblas = None
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without git metadata
    src = hashlib.sha256()
    for f in sorted((SRC / "netlasso").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "blas_threads_env": BLAS_THREADS,
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": openblas, "git_commit": commit,
            "src_sha256": src.hexdigest(),
            "seed": seed, "data_seed": inputs.get("data_seed")}


class Rep:
    """One repetition of the timed part and what was checked after it."""

    def __init__(self, wl, inputs, tally):
        t = time.perf_counter()
        out = wl.run(inputs)
        self.wall_s = time.perf_counter() - t
        self.tally = tally
        wl.account(inputs, out, tally)
        self.quality, artifacts, exact = wl.evaluate(inputs, out)
        self.artifact_bytes = sum(len(b) for b in artifacts.values())
        self.digest = digest(exact)


def repeat(wl, inputs, seconds, tally_cls):
    """The closed loop: repetitions back to back until ``seconds`` have
    passed and there are at least ``MIN_REPS``."""
    reps = []
    t_loop = time.perf_counter()
    while True:
        reps.append(Rep(wl, inputs, tally_cls()))
        elapsed = time.perf_counter() - t_loop
        if len(reps) >= MIN_REPS and elapsed >= seconds:
            return reps
        if elapsed + reps[-1].wall_s > LOOP_BUDGET_S:
            return reps


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r};"
                 f" choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs = wl.setup(args.seed, Path(tmp))
        setup_here = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_here))
            return 0
        setup_samples = [setup_here] + [setup_probe(args)
                                        for _ in range(SETUP_PROBES)]

        reps = repeat(wl, inputs, args.seconds, workloads.Tally)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            / 1024.0

        traced = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = Rep(wl, inputs, workloads.Tally())
            finally:
                tracer.remove()
            trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.npz"
            tracer.save(trace_file)

    first = reps[0]
    tally = workloads.Tally()
    for rep in reps:
        for field, value in vars(rep.tally).items():
            setattr(tally, field, getattr(tally, field) + value)
    wall = [r.wall_s for r in reps]
    checks = {
        "no_broken_operations": tally.broken == 0,
        "repetitions_identical": all(r.digest == first.digest for r in reps),
        "quality_finite": bool(first.quality) and all(
            math.isfinite(v) for v in first.quality.values()),
    }
    if traced is not None:
        checks["traced_identical"] = traced.digest == first.digest \
            and traced.tally == first.tally
    record = {
        "workload": wl.name,
        "env": environment(inputs, args.seed),
        "loop": "closed, 1 caller",
        "wall_s": summary(wall),
        "setup_s": summary(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "operations": dict(vars(tally), per_repetition=vars(first.tally)),
        "unconverged_frac": first.tally.unconverged / first.tally.solves
        if first.tally.solves else 0.0,
        "failed_frac": (first.tally.broken + first.tally.rejected)
        / first.tally.attempted,
        "quality": first.quality,
        "output_sha256": first.digest,
        "checks": checks,
    }
    ok = first.tally.attempted - first.tally.broken - first.tally.rejected
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "converged_frac": (1.0 - record["unconverged_frac"], "ratio"),
        "ok_frac": (ok / first.tally.attempted, "ratio"),
        "ari_best": (first.quality.get("ari_best", 0.0), "ratio"),
    }
    if traced is not None:
        overhead = traced.wall_s - statistics.median(wall)
        metrics = spans.layer_metrics(tracer, traced.artifact_bytes,
                                      overhead)
        record["traced_wall_s"] = traced.wall_s
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": tally.attempted,
        "failed": tally.broken,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
