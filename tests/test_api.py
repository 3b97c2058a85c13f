import importlib
import os
import subprocess
import sys

import pytest

import qasfg

COMPUTE_MODULES = ("materials", "trajectory", "sensitivity", "propagation",
                   "experiments")


@pytest.mark.parametrize("name", ("trajectory", "sensitivity", "propagation",
                                  "experiments"))
def test_all_names_exist(name):
    # each listed name exists in its module and is re-exported by the package
    module = importlib.import_module(f"qasfg.{name}")
    assert module.__all__
    missing = [n for n in module.__all__
               if not hasattr(module, n) or not hasattr(qasfg, n)]
    assert not missing


@pytest.mark.parametrize("name", COMPUTE_MODULES)
def test_only_cli_writes_artifacts(name):
    module = importlib.import_module(f"qasfg.{name}")
    assert "csv" not in vars(module) and "json" not in vars(module)
    assert not [n for n in vars(module) if n.startswith("export_")]


def test_runtime_needs_no_scipy():
    # scipy is a test dependency only; a fresh interpreter must not load it
    src = os.path.dirname(os.path.dirname(os.path.abspath(qasfg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, qasfg.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
