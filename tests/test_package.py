import importlib
import pkgutil

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
