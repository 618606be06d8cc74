"""svlab: a numerical laboratory for heavy-tailed rectangular random matrices.

Sampling of polynomial-tail ensembles, verified singular value
decompositions, localization statistics of bottom singular vectors,
constructive upper certificates for the smallest singular value, and a
deterministic Monte Carlo sweep harness with analysis scans. Each
module's ``__all__`` is the one list of what it exports; the package
re-exports all of them.

The re-export is lazy (PEP 562): ``import svlab`` loads no submodule.
``svlab.<name>`` imports the modules below in order until one lists the
name, and ``svlab.<module>``, ``dir(svlab)`` and ``from svlab import *``
import what they name. So an ``svlab`` command pays only for the modules
it runs.
"""
import importlib

__version__ = "0.1.0"

_MODULES = ("ensemble", "matrixio", "spectra", "localization", "certificates", "svgplot", "experiments")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [symbol for module in _MODULES for symbol in __getattr__(module).__all__]
    if not name.startswith("_"):  # no export is private, and dunder probes must not import
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
