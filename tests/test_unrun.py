"""The unrun-line lister, on a small module of its own (no pytest run)."""

import importlib.util
import sys
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "tools" / "unrun.py"
_spec = importlib.util.spec_from_file_location("unrun", _path)
unrun = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun)

SOURCE = '''"""Module docstring."""


def used(flag):
    """Docstring, not an instruction."""
    if flag:
        return 1
    # a comment between two unrun lines
    total = 2
    return total


class Box:
    size = 3

    def never(self):
        return [k for k in range(self.size)]
'''


def load(path):
    spec = importlib.util.spec_from_file_location("unrun_sample", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_executable_lines_come_from_nested_code_objects(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # the comprehension is a code object of its own inside never()
    assert unrun.executable_lines(path) == {1, 4, 6, 7, 9, 10, 13, 14,
                                            16, 17}


def test_unrun_lines_grouped_between_executed_ones(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    path = pkg / "sample.py"
    path.write_text(SOURCE)
    outside = tmp_path / "outside.py"
    outside.write_text(SOURCE)
    before = sys.gettrace()
    with unrun.record(pkg) as executed:
        assert load(path).used(True) == 1
        assert load(outside).used(False) == 2
    assert sys.gettrace() is before
    assert set(executed) == {path.resolve()}
    ran = executed[path.resolve()]
    assert unrun.unrun(path, ran) == [[9, 10], [17]]
    assert unrun.report(pkg, executed).split() == ["sample.py", "3",
                                                   "9-10,", "17"]


def test_module_never_imported_is_all_unrun(tmp_path):
    (tmp_path / "idle.py").write_text("x = 1\n\n\ndef f():\n    return x\n")
    assert unrun.report(tmp_path, {}).split() == ["idle.py", "3", "1-5"]
