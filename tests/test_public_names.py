import importlib
import pkgutil

import pstwalk

# every module but the command line re-exports its __all__ from the package
LIBRARY_MODULES = [
    importlib.import_module(f"pstwalk.{info.name}")
    for info in pkgutil.iter_modules(pstwalk.__path__)
    if info.name != "cli"
]


def test_package_all_is_union_of_module_all():
    union = set()
    for module in LIBRARY_MODULES:
        union.update(module.__all__)
    assert len(pstwalk.__all__) == len(set(pstwalk.__all__))
    assert set(pstwalk.__all__) == union


def test_every_public_name_resolves():
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(pstwalk, name) is getattr(module, name), name


def test_star_import_binds_p4_pst_condition():
    namespace = {}
    exec("from pstwalk import *", namespace)
    assert namespace["p4_pst_condition"] is pstwalk.cones.p4_pst_condition
