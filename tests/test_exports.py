import importlib
import pkgutil
import subprocess
import sys

import pytest

import netlasso

MODULES = ["netlasso"] + [f"netlasso.{m.name}"
                          for m in pkgutil.iter_modules(netlasso.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_import_leaves_scipy_optimize_unloaded():
    # only the BFGS fallback of losses.sum_loss_minimizer needs it
    code = "import sys, netlasso; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
