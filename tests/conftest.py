"""Test set-up shared by every module.

``pythonpath`` in pyproject.toml puts ``src`` on this process's import
path only; tests that start ``python -m netlasso`` in a child process
need it in the environment as well.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _children_import_the_checkout():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
