"""Lines of the package that a pytest run never executes.

    python3 tools/unrun.py [PYTEST_ARGS ...]

Runs pytest in this process (with ``PYTEST_ARGS``, by default on the
``tests`` directory of this checkout) under a ``sys.settrace`` hook that
records each line executed in a file under ``src/netlasso`` of this
checkout, and frames elsewhere are not traced line by line.  Then, for
each module, it prints the executable lines that never ran, as ranges:
a range is a run of unrun lines with no executed line between them.
The executable lines are the line numbers of the module's compiled code
objects, nested functions and class bodies included, as ``co_lines``
lists them.

Only this process is traced.  A test that runs the CLI in a subprocess
(``python -m netlasso ...``) executes lines that are not recorded, so
lines that only such runs reach are listed as unrun.  The hook slows
the run down: the full suite took 1.8 times as long as without it
(97 s against 53 s on a 2-CPU x86_64 VM, Python 3.11).

The exit status is pytest's.
"""

import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "netlasso"


def executable_lines(path):
    """Line numbers of every instruction compiled from the file at
    ``path``, in its code objects and all the ones nested in them."""
    path = Path(path)
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


@contextmanager
def record(root):
    """Trace the lines executed in files under the directory ``root``.

    Yields a dict from resolved file path to the set of its executed
    line numbers, filled while the block runs; the trace functions in force
    before it are put back afterwards."""
    root = Path(root).resolve()
    executed = defaultdict(set)
    inside = {}  # co_filename -> resolved path under root, or None

    def local(frame, event, arg):
        if event == "line":
            executed[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = path if root in path.parents else None
        return local if inside[name] is not None else None

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        yield executed
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


def unrun(path, ran):
    """The executable lines of the file at ``path`` that are not in
    ``ran``, in ranges: lists of lines with no line of ``ran`` between
    them."""
    ranges = []
    previous_ran = True
    for line in sorted(executable_lines(path)):
        if line in ran:
            previous_ran = True
        elif previous_ran:
            ranges.append([line])
            previous_ran = False
        else:
            ranges[-1].append(line)
    return ranges


def report(root, executed):
    """One line per module under ``root``: its name, how many of its
    executable lines never ran, and their ranges."""
    rows = []
    for path in sorted(Path(root).resolve().glob("*.py")):
        ranges = unrun(path, executed.get(path, set()))
        spans = ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                          for r in ranges)
        count = sum(map(len, ranges))
        rows.append(f"{path.name:<16}{count:>6}  {spans}".rstrip())
    return "\n".join(rows)


def main(argv=None):
    import pytest

    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(PACKAGE.parent))
    with record(PACKAGE) as executed:
        status = pytest.main(argv or [str(ROOT / "tests")])
    print(f"\n{'module':<16}{'unrun':>6}  lines")
    print(report(PACKAGE, executed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
