"""Package-level checks: every exported name resolves and the README demos run."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]


# demo 02 takes about 10 s and is left out
@pytest.mark.parametrize("demo", ["01_elliptic_values.py", "03_conical_and_genus0.py"])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
