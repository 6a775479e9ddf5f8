import importlib
import os
import pkgutil
import subprocess
import sys

import varda


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(varda.__path__):
        module = importlib.import_module(f"varda.{info.name}")
        assert len(set(module.__all__)) == len(module.__all__), info.name
        for name in module.__all__:
            assert hasattr(module, name), f"varda.{info.name}.{name}"


def test_package_root_exports_the_pipelines_only():
    assert sorted(varda.__all__) == sorted(
        ["ProblemSpec", "assimilate", "AdaptConfig", "adapt_loop", "__version__"]
    )
    for name in varda.__all__:
        assert hasattr(varda, name), name


def test_cli_import_leaves_out_the_sparse_direct_solvers():
    # The solve and the replay share one eigenbasis; a second sparse-LU path
    # would bring scipy.sparse.linalg back into every run's start-up.
    code = "import sys, varda.cli; print('scipy.sparse.linalg' in sys.modules)"
    package_root = os.path.dirname(os.path.dirname(varda.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
