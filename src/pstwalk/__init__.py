"""Continuous-time quantum walk toolkit.

Builds weighted graphs (products, joins, cones), evaluates transfer
amplitudes under the adjacency Hamiltonian, and certifies perfect state
transfer exactly through strong cospectrality and eigenvalue phase
alignment.

Importing the package loads none of its modules. The first name looked up
on it that is not yet bound imports every module once, numpy with them, and
binds the union of the modules' __all__ lists here (PEP 562), so that
`python -m pstwalk.cli condition gluedcone ...` loads only what it uses.
"""

__version__ = "0.1.0"

_MODULES = ("conditions", "cones", "errors", "expr", "graphs", "partitions", "products",
            "rationals", "spectral", "transfer")


def _load():
    from importlib import import_module

    # the public names are the union of the modules' __all__ lists
    names = {}
    for module in map(import_module, (f"{__name__}.{m}" for m in _MODULES)):
        names.update((n, getattr(module, n)) for n in module.__all__)
    globals().update(names, __all__=sorted(names))


def __getattr__(name):
    if "__all__" not in globals():
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    if "__all__" not in globals():
        _load()
    return sorted(globals())
