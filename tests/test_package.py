"""Package-level checks: every exported name resolves."""

import importlib
import pkgutil

import pytest

import ellipsum

MODULES = [f"ellipsum.{m.name}" for m in pkgutil.iter_modules(ellipsum.__path__)]


@pytest.mark.parametrize("module", ["ellipsum", *MODULES])
def test_all_names_resolve(module):
    # the benchmark's tracer finds functions through __all__ (and
    # mgf.fftconvolve) and silently skips a name that is missing
    mod = importlib.import_module(module)
    names = [*mod.__all__, *(["fftconvolve"] if module == "ellipsum.mgf" else [])]
    assert [n for n in names if not hasattr(mod, n)] == []
