"""Golden sha256 digests of every CLI task's artifacts.

``test_demo_digests.py`` pins the three demo runs.  This test pins the
other tasks and generators on small instances: ``gen-data`` with the
``half-moons``, ``piecewise`` and ``two-line`` generators, then
``solve-nl``, ``solve-ntl`` (from a centroids file and from the
nl-midpoint init), ``gamma-path``, ``thresholds`` (squared distance and
ridge), ``recovery-check``, ``metrics`` and ``piecewise`` (from a signal
file), each reading what an earlier run wrote.  As there, the runs go in
a fresh directory with the configs' relative ``output.dir``, so every
file, ``config.json`` included, is compared against
``demos/task_digests.json``.  Regenerate it, after checking that the
code did not change the artifacts, with:

    PYTHONPATH=src python tests/test_task_digests.py

which prints each file whose digest changed, was added or was removed.
"""

import json

from test_demo_digests import ROOT, library_versions, regenerate, run_digests

MANIFEST = ROOT / "demos" / "task_digests.json"
RUNS = (("gen-data", "moons_gen.json"),
        ("gen-data", "signal_gen.json"),
        ("gen-data", "two_line_gen.json"),
        ("solve-nl", "moons_solve_nl.json"),
        ("solve-ntl", "moons_solve_ntl.json"),
        ("solve-ntl", "two_line_solve_ntl.json"),
        ("gamma-path", "moons_gamma_path.json"),
        ("thresholds", "moons_thresholds.json"),
        ("thresholds", "two_line_thresholds.json"),
        ("recovery-check", "moons_recovery.json"),
        ("metrics", "moons_metrics.json"),
        ("piecewise", "signal_piecewise.json"))
REGENERATE = "PYTHONPATH=src python tests/test_task_digests.py"


def task_digests(workdir):
    """Run ``RUNS`` in order inside ``workdir``; sha256 per file."""
    return run_digests(workdir, RUNS)


def test_task_artifacts_match_golden_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    versions = library_versions()
    if versions != manifest["versions"]:
        raise AssertionError(
            f"demos/task_digests.json was made with {manifest['versions']},"
            f" this environment has {versions}; after checking that the code"
            f" did not change the artifacts, regenerate it with:"
            f" {REGENERATE}")
    assert task_digests(tmp_path) == manifest["files"]


if __name__ == "__main__":
    regenerate(MANIFEST, task_digests)
