"""Command-line interface checks: JSON envelope, exit codes, config
overrides, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from ellipsum.cli import parse_complex, parse_tau, run
from ellipsum.emzv import A_depth1
from ellipsum.numkernel import PrecisionCtx


def _run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_parse_tau_and_complex():
    assert parse_complex("1.5") == mp.mpc("1.5")
    assert parse_complex("2i") == mp.mpc(0, 2)
    assert parse_complex("-0.5+1.25i") == mp.mpc("-0.5", "1.25")
    assert parse_tau("i") == mp.mpc(0, 1)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_tau("1-2i")


def test_emzv_value_and_envelope(capsys):
    rc, doc = _run_json(
        capsys,
        ["emzv", "a", "--n", "3", "--zeros", "1", "--tau", "0.2+1.1i",
         "--prec", "30"],
    )
    assert rc == 0
    assert "value" in doc
    assert "error_bound" in doc and "elapsed_ms" in doc
    assert doc["precision_digits"] == 30
    ctx = PrecisionCtx(digits=30)
    with ctx.workprec():
        ref = A_depth1(3, 2, mp.mpc("0.2", "1.1"), ctx)
        got = mp.mpc(mp.mpf(doc["value"]["re"]), mp.mpf(doc["value"]["im"]))
        assert abs(got - ref) < mp.mpf("1e-20")


def test_mgf_three_point_laurent(capsys):
    rc, doc = _run_json(capsys, ["mgf", "laurent3", "--l", "1", "1", "1",
                                 "--cutoff", "100"])
    assert rc == 0
    terms = {t["exp"]: float(t["coeff_re"]) for t in doc["laurent"]["terms"]}
    assert abs(terms[3] - 2 / 945) < 1e-8


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["emzv", "a", "--n", "not-a-number"])
    assert exc.value.code == 2


def test_guard_violation_exit_code(capsys):
    rc = run(["conical", "zeta", "--matrix", "[[1]]"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 3
    assert "error" in doc and doc["error"]["type"]


def test_verify_suite(capsys):
    rc = run(["verify", "--suite", "genus0"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 0
    assert all(chk["pass"] for chk in doc["checks"])


def test_config_default_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": "1.4i", "prec": 25}))
    rc, doc = _run_json(
        capsys,
        ["emzv", "a", "--n", "2", "--zeros", "0", "--config", str(cfg)],
    )
    assert rc == 0
    assert doc["precision_digits"] == 25
    # an explicit flag wins over the config value
    rc, doc = _run_json(
        capsys,
        ["emzv", "a", "--n", "2", "--zeros", "0", "--config", str(cfg),
         "--prec", "33"],
    )
    assert rc == 0
    assert doc["precision_digits"] == 33


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    rc = run(["genus0", "exponent", "--order", "5", "--which", "open",
              "--output", str(dest)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(dest.read_text())
    assert "series" in doc


def test_determinism(capsys):
    argv = ["mgf", "s", "--m", "2", "--n", "1", "--method", "zagier"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    first = json.loads(first)
    second = json.loads(second)
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code):
    """Run ``code`` in a new interpreter that sees only ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


_PRINT_SCIPY = ("import sys\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")


@pytest.mark.parametrize("module", ["ellipsum.cli", "ellipsum.mgf"])
def test_import_loads_no_scipy(module):
    proc = _fresh_python(f"import {module}\n{_PRINT_SCIPY}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_emzv_call_loads_no_scipy():
    proc = _fresh_python(
        "import contextlib, io\n"
        "from ellipsum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['emzv', 'binf', '--n', '9', '--zeros', '5']) == 0\n"
        + _PRINT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_conical_call_imports_conical_lazily():
    proc = _fresh_python(
        "import sys\n"
        "from ellipsum import cli\n"
        "assert 'ellipsum.conical' not in sys.modules\n"
        "sys.exit(cli.run(['conical', 'zeta', '--matrix', '[[1],[1]]',"
        " '--cutoff', '100']))")
    assert proc.returncode == 0, proc.stderr
    assert "value" in json.loads(proc.stdout)
