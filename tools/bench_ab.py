"""A/B benchmark of a parent commit against the working tree.

    python3 tools/bench_ab.py --pr N --parent HEAD~1 \
        --workload moons-certify --seeds 7 8 --pairs 10

Run from anywhere inside a checkout.  ``--parent`` is exported with
``git archive`` into ``<tmp>/parent``, and the checkout as it stands,
uncommitted edits included, is copied to ``<tmp>/change`` (without
``.git`` and ``perfbench/out``), so that both sides run from paths of
equal length; ``config.json`` records paths under the checkout, and
``cli.artifact_bytes`` counts them.  For each workload and seed,
each side's own ``perfbench/run.py --trace 0``, at the run length of
``BENCHMARK.json``, runs in ``--pairs`` (at least 10) alternating pairs
(the parent first in even pairs, the change first in odd ones), and
then once per side with ``--trace 1`` for the per-layer counts.  Runs
are sequential, one at a time.

``BENCH_<pr>.json`` at the root of the checkout holds every raw result
line with the run's ``output_sha256``, and per end-to-end metric of
``BENCHMARK.json`` each side's median and quartiles, the change's wins
and losses over the pairs (ties count for neither, "better" as
``BENCHMARK.json`` says), the ratio of the medians, the quartiles of
the per-pair ratio change/parent and a verdict:

* ``gain``: the change wins at least 9 of 10 pairs and its median is
  better than the parent's by more than the parent's interquartile
  range;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound, a fraction of the parent's median;
* ``unresolved``: the parent's interquartile range is wider than the
  bound and not every run of the change is better than every run of
  the parent;
* ``within_bound`` otherwise.

Each run also holds ``layers``: per ``per_layer`` metric of
``BENCHMARK.json``, its value in the two traced runs (None where a side
does not report it) and, for the exact units (``count``, ``B`` and
``ratio``, a ratio of counts), their ratio change/parent (None where
the parent reads 0 or a value is missing).  A time from one traced run
is a single sample of a noisy reading, so it gets no ratio.

The file is rewritten after every workload and seed, so a stopped run
keeps what it finished.
"""

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(root, rev, dest):
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=root, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def lay_out(root, rev, tmp):
    """The two side roots: ``rev`` exported to ``tmp/parent`` and the
    working tree at ``root`` copied to ``tmp/change``."""
    sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
    sides["parent"].mkdir()
    export(root, rev, sides["parent"])
    skip = {Path(root) / ".git", Path(root) / "perfbench" / "out"}
    shutil.copytree(root, sides["change"], symlinks=True,
                    ignore=lambda d, names: [n for n in names
                                             if Path(d) / n in skip])
    return sides


def bench(side_root, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run: its result line, with the run's
    ``output_sha256`` from the full record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=side_root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench/run.py failed in {side_root}"
                 f" ({workload}, seed {seed}):\n{proc.stderr}")
    record, result = (json.loads(line)
                      for line in proc.stdout.strip().splitlines()[-2:])
    result["output_sha256"] = record["output_sha256"]
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(old, new, wins, lower, bound):
    """``gain``, ``worse``, ``unresolved`` or ``within_bound`` for one
    metric's per-pair values (see the module docstring)."""
    parent, change = spread(old), spread(new)
    # how much better the change's median is; the bound scales the
    # parent's median
    gap = (parent["median"] - change["median"]) if lower \
        else (change["median"] - parent["median"])
    limit = bound * abs(parent["median"])
    iqr = parent["q3"] - parent["q1"]
    if 10 * wins >= 9 * len(old) and gap > iqr:
        return "gain"
    if -gap > limit:
        return "worse"
    all_better = max(new) < min(old) if lower else min(new) > max(old)
    if iqr > limit and not all_better:
        return "unresolved"
    return "within_bound"


def summarize(pairs, end_to_end):
    """Per metric: each side's median and quartiles, the change's wins
    and losses against the parent of the same pair, the quartiles of
    the per-pair ratio change/parent and the verdict."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        old = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        losses = sum((b > a) if lower else (b < a) for a, b in zip(old, new))
        parent, change = spread(old), spread(new)
        ratios = [b / a for a, b in zip(old, new) if a]
        out[name] = {
            "parent": parent, "change": change, "pairs": len(pairs),
            "change_wins": wins, "change_losses": losses,
            "median_ratio": change["median"] / parent["median"]
            if parent["median"] else None,
            "pair_ratio": spread(ratios) if len(ratios) > 1 else None,
            "bound": spec["bound"],
            "verdict": verdict(old, new, wins, lower, spec["bound"]),
        }
    return out


# units whose traced readings repeat exactly on identical code
EXACT_UNITS = ("count", "B", "ratio")


def layers(traced, per_layer):
    """Per ``per_layer`` metric: the parent's and the change's value in
    their traced runs, and for an exact unit the ratio change/parent."""
    out = {}
    for spec in per_layer:
        name = spec["name"]
        old, new = (traced[side]["metrics"].get(name, {}).get("value")
                    for side in ("parent", "change"))
        exact = spec["unit"] in EXACT_UNITS and old and new is not None
        out[name] = {"unit": spec["unit"], "parent": old, "change": new,
                     "ratio": new / old if exact else None}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--pr", type=int, required=True,
                   help="number in the output name BENCH_<pr>.json")
    p.add_argument("--parent", default="HEAD",
                   help="the commit to compare the working tree against")
    p.add_argument("--workload", action="append",
                   help="a workload of BENCHMARK.json (repeatable;"
                        " default: all)")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=10,
                   help="alternating pairs per workload and seed (at least"
                        " 10, the fewest a gain can be claimed on)")
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("--pairs must be at least 10")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path(git(Path(__file__).resolve().parent,
                    "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parent_sha = git(root, "rev-parse", args.parent)
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    out_file = root / f"BENCH_{args.pr}.json"
    report = {
        "harness": f"python3 perfbench/run.py --workload W --seed S"
                   f" --seconds {seconds:g} --trace 0 (pairs) / --trace 1"
                   f" (traced), each side with its own perfbench/",
        "parent": parent_sha,
        "change": "working tree at " + git(root, "rev-parse", "HEAD")
                  + (" with uncommitted edits" if dirty else ""),
        "machine": f"{platform.machine()}, Python"
                   f" {platform.python_version()}, {platform.system()}",
        "order": "pairs alternate which side runs first (even pair index:"
                 " parent first)",
        "runs": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = lay_out(root, parent_sha, tmp)
        for workload in workloads:
            for seed in args.seeds:
                pairs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 \
                        else ("change", "parent")
                    pair = {"pair": i, "first": order[0]}
                    for side in order:
                        pair[side] = bench(sides[side], workload, seed,
                                           seconds, 0)
                    pairs.append(pair)
                    old, new = (pair[side]["metrics"]["wall_s"]["value"]
                                for side in ("parent", "change"))
                    print(f"{workload} seed {seed} pair {i}: wall_s parent"
                          f" {old:.3f} change {new:.3f}", file=sys.stderr)
                traced = {side: bench(sides[side], workload, seed, seconds, 1)
                          for side in ("parent", "change")}
                report["runs"].append({
                    "workload": workload, "seed": seed, "pairs": pairs,
                    "summary": summarize(pairs, spec["end_to_end"]),
                    "traced": traced,
                    "layers": layers(traced, spec["per_layer"]),
                })
                out_file.write_text(json.dumps(report, indent=1,
                                               sort_keys=True) + "\n")
    print(out_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
