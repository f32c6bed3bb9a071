import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pstwalk

SRC = str(Path(pstwalk.__file__).resolve().parents[1])

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


def test_import_loads_no_module_and_no_numpy():
    probe = (
        "import sys, pstwalk; "
        "print(sorted(m for m in sys.modules if m.startswith(('pstwalk', 'numpy'))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['pstwalk']\n"


def test_dir_lists_every_public_name():
    assert set(dir(pstwalk)) >= set(pstwalk.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pstwalk import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(pstwalk.__all__)
    assert all(namespace[name] is getattr(pstwalk, name) for name in bound)
