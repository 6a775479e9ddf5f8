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


def test_cli_import_leaves_out_the_sparse_direct_solvers(tmp_path):
    # The runtime needs numpy alone: the eigenbasis and the time factors are
    # numpy kernels, and the sparse views are built only when a check reads
    # them.  The callback spot check needs no numpy.random either.  One fresh
    # interpreter runs each command in process.
    code = """
import sys, varda.cli as cli
out, codes = sys.argv[1], []
for argv in (["assimilate", "grid.d=8", "grid.N=6"],
             ["adapt", "adapt.n_initial=3", "adapt.n_max=6", "adapt.record_reference=true"],
             ["oracle-check", "problem.name=example1i", "oracle.levels=6,8"]):
    codes.append(cli.main(argv + ["--output-dir", out + "/" + argv[0]]))
print(codes, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"), "numpy.random" in sys.modules)
"""
    package_root = os.path.dirname(os.path.dirname(varda.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0] [] False"
