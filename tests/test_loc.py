"""The line counter behind the package's size figures."""

import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", _path)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math


class Box:
    """Class docstring."""

    def area(self):
        """Function docstring

        with a blank line inside."""
        return math.pi  # a trailing comment

'''


def test_count_splits_every_line_into_one_kind():
    # docstrings: lines 1-2, 9 and 12-14 (13 is blank inside one);
    # comment: line 4; code: lines 5, 8, 11 and 15, the last with a
    # trailing comment; blank: lines 3, 6, 7, 10 and 16
    assert loc.count(SOURCE) == {"total": 16, "code": 4, "docstring": 6,
                                 "comment": 1, "blank": 5}
