"""Golden sha256 digests of the demo runs' artifacts.

Three CLI runs from ``demos/configs/`` -- ``gen-data`` on
``two_line_gen.json``, ``k-path`` on ``two_line_k_path.json`` and
``piecewise`` on ``piecewise_n200.json`` -- are rerun in a fresh
directory with the configs' own relative ``output.dir``, so that even
``config.json`` matches, and every file they write is compared against
``demos/digests.json``.  The digests pin the artifacts' bytes across
changes to the code, not just between two reruns of one commit.

Floating-point results may differ in the last bits under other numpy,
scipy or OpenBLAS builds, so the manifest records the versions it was
made with, and a mismatch fails with the command that regenerates it:

    PYTHONPATH=src python tests/test_demo_digests.py

which prints each file whose digest changed, was added or was removed.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "demos" / "digests.json"
CONFIGS = ROOT / "demos" / "configs"
RUNS = (("gen-data", "two_line_gen.json"),
        ("k-path", "two_line_k_path.json"),
        ("piecewise", "piecewise_n200.json"))
REGENERATE = "PYTHONPATH=src python tests/test_demo_digests.py"


def library_versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": blas["version"]}


def run_digests(workdir, runs):
    """Run the (task, config name) pairs ``runs`` in order inside
    ``workdir``; sha256 per file they write."""
    from netlasso.cli import main

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for task, name in runs:
            code = main([task, "--config", str(CONFIGS / name)])
            if code != 0:
                raise RuntimeError(f"{task} on {name} exited {code}")
    finally:
        os.chdir(cwd)
    out = Path(workdir)
    return {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((out / "demos" / "out").rglob("*"))
            if p.is_file()}


def demo_digests(workdir):
    """Run the three demo configs inside ``workdir``; sha256 per file."""
    return run_digests(workdir, RUNS)


def regenerate(manifest, digests):
    """Run ``digests`` in a temporary directory, write its result to the
    ``manifest`` file and print to stderr every file whose digest
    changed, was added or was removed."""
    old = json.loads(manifest.read_text())["files"] \
        if manifest.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        files = digests(workdir)
    manifest.write_text(json.dumps(
        {"versions": library_versions(), "files": files},
        sort_keys=True, indent=2) + "\n")
    for name in sorted(old.keys() | files.keys()):
        if name not in files:
            print(f"removed {name}", file=sys.stderr)
        elif name not in old:
            print(f"added   {name}", file=sys.stderr)
        elif old[name] != files[name]:
            print(f"changed {name}", file=sys.stderr)
    print(f"wrote {len(files)} digests to {manifest}", file=sys.stderr)


def test_demo_artifacts_match_golden_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    versions = library_versions()
    if versions != manifest["versions"]:
        raise AssertionError(
            f"demos/digests.json was made with {manifest['versions']}, this"
            f" environment has {versions}; after checking that the code did"
            f" not change the artifacts, regenerate it with: {REGENERATE}")
    assert demo_digests(tmp_path) == manifest["files"]


if __name__ == "__main__":
    regenerate(MANIFEST, demo_digests)
