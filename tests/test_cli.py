"""Command-line interface checks: JSON envelope, exit codes, config
overrides, determinism."""

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath as mp
import pytest

from ellipsum import conical, emzv, exact, mgf
from ellipsum.cli import build_parser, parse_complex, parse_tau, run
from ellipsum.emzv import A_depth1
from ellipsum.numkernel import PrecisionCtx
from ellipsum.qseries import QTauSeries


def _run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_parse_tau_and_complex():
    assert parse_complex("1.5") == mp.mpc("1.5")
    assert parse_complex("2i") == mp.mpc(0, 2)
    assert parse_complex("-0.5+1.25i") == mp.mpc("-0.5", "1.25")
    assert parse_tau("i") == mp.mpc(0, 1)
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


def _significant_digits(text):
    mantissa = text.lower().split("e")[0].lstrip("-").replace(".", "")
    return len(mantissa.lstrip("0"))


def test_float_value_prints_the_digits_it_has(capsys):
    rc, doc = _run_json(capsys, ["mgf", "dlattice", "--graph", "cycle:2", "--tau", "i",
                                 "--M", "10"])
    assert rc == 0 and doc["precision_digits"] == 30
    ref = mgf.D_lattice(mgf.MultiGraph.cycle(2), mp.mpc(0, 1), 10)
    assert float(doc["value"]) == ref
    assert _significant_digits(doc["value"]) <= 17
    # an mpf result keeps every requested digit
    rc, doc = _run_json(capsys, ["eisenstein", "nonholo", "--s", "2", "--tau", "i"])
    assert _significant_digits(doc["value"]) == 30


def test_conical_integral_prints_a_float(capsys):
    # the quasi-Monte-Carlo mean is a float64, whatever --prec asks for
    rc, doc = _run_json(capsys, ["conical", "integral", "--matrix", "[[1,0],[1,1],[0,1]]",
                                 "--samples", "1024", "--prec", "40"])
    assert rc == 0 and doc["precision_digits"] == 40
    assert _significant_digits(doc["value"]) <= 17


def test_conical_zeta_prints_a_float(capsys):
    # a float64 shell sum plus a float64 tail: 17 digits at most, and the float
    # is the library's value
    argv = ["conical", "zeta", "--matrix", "[[1,0],[0,1],[1,1]]", "--cutoff", "150"]
    rc, doc = _run_json(capsys, argv)
    assert rc == 0 and doc["precision_digits"] == 30
    assert _significant_digits(doc["value"]) <= 17
    ctx = PrecisionCtx(digits=30)
    ref = conical.zeta_A(conical.ConeMatrix([[1, 0], [0, 1], [1, 1]]), cutoff=150, ctx=ctx)
    assert float(doc["value"]) == float(ref)


@pytest.mark.parametrize("matrix", ["[[1],[1],[1]]", "[[1],[1]]"])
def test_conical_zeta_fully_eliminated_bound_holds(capsys, matrix):
    # the Hurwitz elimination sums out the only variable: zeta(3) or zeta(2),
    # one float64 table entry whose bound is its rounding, never 0
    rc, doc = _run_json(capsys, ["conical", "zeta", "--matrix", matrix, "--cutoff", "50"])
    assert rc == 0
    bound = float(doc["error_bound"])
    with PrecisionCtx(digits=30).workprec():
        err = abs(mp.mpf(doc["value"]) - mp.zeta(len(json.loads(matrix))))
    assert 0 < bound < 1e-14 and err <= bound


def test_mgf_r_takes_the_exact_route_for_the_families(capsys):
    # (1,1,5;1,1) has an exact reduction: exact at --prec, whatever the cutoff
    rc, doc = _run_json(capsys, ["mgf", "r", "--m", "1", "1", "5", "--alpha", "1",
                                 "--beta", "1", "--cutoff", "2000"])
    assert rc == 0 and doc["error_bound"] == "1.00000e-30"
    ctx = PrecisionCtx(digits=40)
    value = exact.value(exact._R_exact((1, 1, 5, 1, 1)), ctx)
    with ctx.workprec():
        assert abs(mp.mpf(doc["value"]) - value) < mp.mpf("1e-28")
    # beta = 0 too: R(1,1,2;1,0) = 10 zeta(5) - 4 zeta(2) zeta(3)
    rc, doc = _run_json(capsys, ["mgf", "r", "--m", "1", "1", "2", "--alpha", "1",
                                 "--beta", "0", "--cutoff", "200"])
    assert rc == 0 and doc["error_bound"] == "1.00000e-30"
    with ctx.workprec():
        closed = 10 * mp.zeta(5) - 4 * mp.zeta(2) * mp.zeta(3)
        assert abs(mp.mpf(doc["value"]) - closed) < mp.mpf("1e-28")
    # so have (2,2,2;1,1) and (1,2,3;1,1)
    for m in (["2", "2", "2"], ["1", "2", "3"]):
        rc, doc = _run_json(capsys, ["mgf", "r", "--m", *m, "--alpha", "1", "--beta", "1"])
        assert rc == 0 and doc["error_bound"] == "1.00000e-30"
    with ctx.workprec():
        value = exact.value(exact._R_exact((1, 2, 3, 1, 1)), ctx)
        assert abs(mp.mpf(doc["value"]) - value) < mp.mpf("1e-28")
    # (2,1,3;1,1) has no exact reduction: the float route and its own
    # convergence estimate, never below 10/cutoff^2
    rc, doc = _run_json(capsys, ["mgf", "r", "--m", "2", "1", "3", "--alpha", "1",
                                 "--beta", "1", "--cutoff", "200"])
    _, errors = mgf._R_values([(2, 1, 3, 1, 1)], 200)
    assert float(doc["error_bound"]) == pytest.approx(max(2.5e-4, errors[2, 1, 3, 1, 1]),
                                                      rel=1e-5)
    assert float(doc["value"]) == mgf.R_structured(2, 1, 3, 1, 1, cutoff=200)


@pytest.mark.parametrize("key", [(1, 3, 3, 0, 0), (1, 3, 3, 1, 0), (2, 1, 3, 1, 1),
                                 (2, 2, 3, 1, 1), (1, 3, 4, 1, 1)])
def test_mgf_r_float_route_bound_covers_a_fourfold_cutoff(capsys, key):
    # keys with no exact reduction: the printed bound at cutoff 250 holds
    # the move of the value to cutoff 1000
    m, alpha, beta = key[:3], key[3], key[4]
    rc, doc = _run_json(capsys, ["mgf", "r", "--m", *map(str, m), "--alpha", str(alpha),
                                 "--beta", str(beta), "--cutoff", "250"])
    assert rc == 0
    fine = mgf._R_values([key], 1000)[0][key]
    assert float(doc["error_bound"]) >= abs(float(doc["value"]) - fine)


def test_laurent3_bound_is_exact_unless_an_r_sum_falls_back(capsys):
    # every R-sum of (1,1,2) and of (2,2,2) has an exact reduction; (1,2,3)
    # takes one R-sum, (2,1,3;1,1), from the float route at the cutoff
    assert not exact._d3pt_rows((1, 1, 2))[1]
    assert not exact._d3pt_rows((2, 2, 2))[1]
    assert len({key for _, _, key in exact._d3pt_rows((1, 2, 3))[1]}) == 1
    for l in (["1", "1", "2"], ["2", "2", "2"]):
        rc, doc = _run_json(capsys, ["mgf", "laurent3", "--l", *l])
        assert rc == 0 and doc["error_bound"] == "1.00000e-30"
    # the float route sums at the multiple of 8 below the cutoff, 96 for 100:
    # there its estimate, 2.3e-3, is above the floor 10/cutoff^2
    rc, doc = _run_json(capsys, ["mgf", "laurent3", "--l", "1", "2", "3", "--cutoff", "100"])
    assert rc == 0 and doc["error_bound"] == "0.00116228"
    rc, doc96 = _run_json(capsys, ["mgf", "laurent3", "--l", "1", "2", "3", "--cutoff", "96"])
    assert rc == 0 and (doc96["laurent"], doc96["error_bound"]) == (doc["laurent"], "0.00116228")


@pytest.mark.parametrize("l", [(1, 2, 3), (1, 2, 4)], ids=lambda l: "".join(map(str, l)))
def test_laurent3_bound_covers_a_fourfold_cutoff(capsys, l):
    # R-sums from the float route: the printed bound at cutoff 250 holds the
    # largest coefficient move of the polynomial to cutoff 1000
    rc, doc = _run_json(capsys, ["mgf", "laurent3", "--l", *map(str, l), "--cutoff", "250"])
    assert rc == 0
    ctx = PrecisionCtx(digits=30)
    fine = mgf.d3pt(*l, ctx=ctx, cutoff=1000)
    with ctx.workprec():
        coarse = {t["exp"]: mp.mpf(t["coeff_re"]) for t in doc["laurent"]["terms"]}
        move = max(abs(coarse.get(e, 0) - fine.coeff(e))
                   for e in set(coarse) | set(fine.exponents))
    assert float(doc["error_bound"]) >= move


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["emzv", "a", "--n", "not-a-number"])
    assert exc.value.code == 2


_Q_ORDER_LEAVES = [["emzv", "a", "--n", "3", "--tau", "0.2+1.1i"],
                   ["emzv", "b", "--n", "3", "--zeros", "1", "--tau", "0.2+1.1i"],
                   ["eisenstein", "e", "--k", "4", "--tau", "0.2+1.1i"]]


@pytest.mark.parametrize("bad", ["abc", "-3"])
@pytest.mark.parametrize("argv", _Q_ORDER_LEAVES, ids=lambda argv: " ".join(argv[:2]))
def test_bad_q_order_is_a_usage_error(argv, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--q-order", bad])
    assert exc.value.code == 2
    assert "q-order" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _Q_ORDER_LEAVES, ids=lambda argv: " ".join(argv[:2]))
def test_q_order_param_is_the_text_given(argv, capsys):
    for text in ("auto", "24"):
        rc, doc = _run_json(capsys, [*argv, "--q-order", text])
        assert rc == 0
        assert doc["params"]["q_order"] == text


def test_guard_violation_exit_code(capsys):
    rc = run(["conical", "zeta", "--matrix", "[[1]]"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 3
    assert "error" in doc and doc["error"]["type"]
    # a precision below the floor is refused, not replaced by the default
    rc, doc = _run_json(capsys, ["emzv", "a", "--n", "2", "--tau", "i", "--prec", "0"])
    assert rc == 3
    assert doc["error"]["type"] == "ValueError"
    # direct S-sums at m = 4 and the default cutoff would need ~13 GB grids
    rc, doc = _run_json(capsys, ["mgf", "s", "--m", "4", "--n", "1", "--method", "direct"])
    assert rc == 3
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("argv,floor", [
    (["conical", "integral", "--matrix", "[[1,0],[0,1],[1,1]]", "--samples", "127"],
     "samples must be >= 128"),
    (["conical", "integral", "--matrix", "[[1,0],[0,1],[1,1]]", "--samples", "135"],
     "samples must be a multiple of 8"),
    (["mgf", "dlattice", "--graph", "banana:3", "--tau", "0.1+1.1i", "--M", "0"],
     "M must be >= 1"),
    (["mgf", "r", "--m", "1", "1", "1", "--alpha", "0", "--beta", "0", "--cutoff", "0"],
     "cutoff must be >= 1"),
    (["mgf", "s", "--m", "3", "--n", "1", "--method", "direct", "--cutoff", "0"],
     "cutoff must be >= 1"),
    (["mgf", "laurent3", "--l", "2", "2", "2", "--cutoff", "0"], "cutoff must be >= 1"),
    (["mgf", "s", "--m", "2", "--n", "-2", "--method", "direct", "--cutoff", "1000"],
     "n must be >= 0, not -2"),
    (["mgf", "s", "--m", "2", "--n", "-1", "--method", "direct", "--cutoff", "1000"],
     "n must be >= 0, not -1"),
    (["mgf", "s", "--m", "2", "--n", "-3"], "n must be >= 0, not -3"),
    (["mgf", "r", "--m", "-1", "1", "1", "--alpha", "1", "--beta", "1", "--cutoff", "200"],
     "m_i, alpha, beta must be >= 0, not (-1, 1, 1, 1, 1)"),
    (["mgf", "r", "--m", "1", "-2", "1", "--alpha", "1", "--beta", "1", "--method", "direct",
      "--cutoff", "200"], "m_i, alpha, beta must be >= 0, not (1, -2, 1, 1, 1)"),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None)
def test_size_below_floor_is_refused_by_name(capsys, argv, floor):
    rc, doc = _run_json(capsys, argv)
    assert rc == 3
    assert doc["error"]["type"] == "ValueError"
    assert floor in doc["error"]["message"]


@pytest.mark.parametrize("argv, named", [
    (["emzv", "a", "--n", "3", "--zeros", "1", "--tau=0.3+0.00001i"],
     "q_order=1465872 at Im(tau)=1.0e-5"),
    (["emzv", "a", "--n", "3", "--zeros", "1", "--tau=0.3+0.00001i", "--q-order", "10000000"],
     "q_order=10000000"),
    (["eisenstein", "e", "--k", "4", "--tau", "i", "--q-order", "10000000"], "q_order=10000000"),
], ids=["emzv-auto", "emzv-given", "eisenstein-given"])
def test_q_order_above_the_term_cap_is_refused_before_any_table(capsys, argv, named):
    # refused by name before a sigma table of q_order entries is built
    t0 = time.monotonic()
    rc, doc = _run_json(capsys, argv)
    assert time.monotonic() - t0 < 0.5
    assert rc == 3
    assert doc["error"]["type"] == "ValueError"
    assert named in doc["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["emzv", "a", "--n", "3", "--zeros", "1", "--tau=0.1+1.1i", "--q-order", "0"],
    ["emzv", "b", "--n", "3", "--zeros", "1", "--tau=0.1+1.1i", "--q-order", "0"],
    ["eisenstein", "e", "--k", "4", "--tau=0.1+1.1i", "--q-order", "0"],
], ids=["emzv-a", "emzv-b", "eisenstein-e"])
def test_q_order_zero_is_guarded_by_the_terms_it_drops(capsys, argv):
    # at q_order 0 no q-term is summed; the guard counts the dropped q^1
    # terms, so a value whose head is 0 (odd n) is refused, not printed as 0
    rc, doc = _run_json(capsys, argv)
    assert rc == 3
    assert doc["error"]["type"] == "GuardError"
    assert "q_order=0 insufficient" in doc["error"]["message"]


# inputs that int() or list indexing would silently change into another
# graph or matrix
@pytest.mark.parametrize("argv,message", [
    (["mgf", "dlattice", "--graph", '{"vertices":2,"edges":[[0,-1,2]]}', "--tau", "i",
      "--M", "10"], "edge [0, -1, 2] names a vertex outside 0..1"),
    (["mgf", "dlattice", "--graph", '{"vertices":2,"edges":[[0,1,-1],[0,1,3]]}', "--tau", "i",
      "--M", "10"], "edge [0, 1, -1] has a negative multiplicity"),
    (["mgf", "dlattice", "--graph", '{"vertices":2,"edges":[[0,1,1.5]]}', "--tau", "i",
      "--M", "10"], "multiplicity [0][1] must be an integer, not 1.5"),
    (["conical", "zeta", "--matrix", "[[1.7,0],[0,1],[1,1]]", "--cutoff", "50"],
     "matrix entry [0][0] must be an integer, not 1.7"),
], ids=["negative-vertex", "negative-multiplicity", "fractional-multiplicity",
        "fractional-cone-entry"])
def test_input_that_would_change_is_refused_by_name(capsys, argv, message):
    rc, doc = _run_json(capsys, argv)
    assert rc == 3
    assert doc["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("leaf, size", [("zeta", ["--cutoff", "50"]),
                                        ("integral", ["--samples", "128"])])
def test_all_zero_cone_row_is_refused_by_name(capsys, leaf, size):
    # a form that vanishes identically has no finite sum; ConeMatrix keeps
    # accepting the row for the matrix predicates
    rc, doc = _run_json(capsys, ["conical", leaf, "--matrix", "[[0,0],[1,1]]", *size])
    assert rc == 3
    assert doc["error"] == {"type": "ValueError",
                            "message": "row 0 is zero (its linear form vanishes identically)"}
    A = conical.ConeMatrix([[0, 0], [1, 1]])
    assert conical.is_C1s(A) and conical.is_TU(A)


def test_dlattice_refuses_an_M_over_the_memory_cap_by_name(capsys):
    # banana:3 at M = 100000 would hold about 1.1e12 bytes: refused before
    # any grid is allocated
    tracemalloc.start()
    try:
        rc, doc = _run_json(capsys, ["mgf", "dlattice", "--graph", "banana:3", "--tau", "i",
                                     "--M", "100000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3 and doc["error"]["type"] == "ValueError"
    assert doc["error"]["message"].startswith("M = 100000 needs 1.13e+12 bytes")
    assert peak < 2**20
    rc, doc = _run_json(capsys, ["mgf", "dlattice", "--graph", "banana:3", "--tau", "i",
                                 "--M", "400"])
    assert rc == 0
    assert float(doc["value"]) == mgf.D_lattice(mgf.MultiGraph.banana(3), mp.mpc(0, 1), 400)


def test_float_r_route_refuses_a_cutoff_below_8_by_name(capsys):
    # below 8 a level of the extrapolation or of its estimate sits at L = 0;
    # a key with an exact reduction never takes the float route, so any
    # cutoff >= 1 stays
    message = {"type": "ValueError", "message": "cutoff must be >= 8 on the float R route, not 3"}
    rc, doc = _run_json(capsys, ["mgf", "r", "--m", "1", "3", "3", "--alpha", "0",
                                 "--beta", "0", "--cutoff", "3"])
    assert rc == 3 and doc["error"] == message
    rc, doc = _run_json(capsys, ["mgf", "laurent3", "--l", "1", "2", "3", "--cutoff", "3"])
    assert rc == 3 and doc["error"] == message
    rc, doc = _run_json(capsys, ["mgf", "r", "--m", "1", "1", "2", "--alpha", "1",
                                 "--beta", "0", "--cutoff", "3"])
    assert rc == 0 and doc["error_bound"] == "1.00000e-30"
    rc, doc = _run_json(capsys, ["mgf", "laurent3", "--l", "1", "1", "2", "--cutoff", "3"])
    assert rc == 0 and doc["error_bound"] == "1.00000e-30"
    rc, doc = _run_json(capsys, ["mgf", "r", "--m", "1", "2", "3", "--alpha", "0",
                                 "--beta", "0", "--cutoff", "3"])
    assert rc == 0 and doc["error_bound"] == "1.00000e-30"


@pytest.mark.parametrize("m", [("1", "2", "3"), ("2", "1", "3")], ids=lambda m: "".join(m))
def test_mgf_r_takes_the_exact_route_where_the_layer_rule_reaches(capsys, m):
    # the float route printed 97.89 +- 78.0 for (1,2,3;0,0) at cutoff 8;
    # (2,1,3;0,0) reaches the rule in the order (1,2,3) of equal value
    rc, doc = _run_json(capsys, ["mgf", "r", "--m", *m, "--alpha", "0", "--beta", "0",
                                 "--cutoff", "8"])
    assert rc == 0 and doc["error_bound"] == "1.00000e-30"
    assert doc["value"] == "186.173780343154192567756781151738"


@pytest.mark.parametrize("argv,named", [
    (["--m", "1", "2", "3", "--method", "direct"], "cutoff = 2000 needs 2.59e+09 bytes on the direct"),
    (["--m", "1", "3", "3", "--cutoff", "10000000"],
     "cutoff = 10000000 needs 7.87e+10 bytes on the float"),
], ids=["direct", "layered"])
def test_mgf_r_refuses_a_cutoff_over_the_memory_cap_by_name(capsys, argv, named):
    # R_direct at the default cutoff 2000 would hold about 2.6e9 bytes, the
    # layered float route at cutoff 10^7 about 7.9e10: refused before any
    # table is built
    tracemalloc.start()
    try:
        rc, doc = _run_json(capsys, ["mgf", "r", *argv, "--alpha", "1", "--beta", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3 and doc["error"]["type"] == "ValueError"
    assert doc["error"]["message"].startswith(named)
    assert peak < 2**20


_A3 = "[[1,1,0,0],[1,1,1,0],[0,1,1,1],[1,1,0,1],[1,1,0,1]]"


@pytest.mark.parametrize("argv,named", [
    (["zeta", "--matrix", _A3, "--cutoff", "100000"],
     "cutoff = 100000 needs 1.12e+12 bytes on the shell sums"),
    (["integral", "--matrix", _A3, "--samples", str(1 << 40)],
     f"samples = {1 << 40} needs 4.51e+13 bytes per batch"),
], ids=["zeta", "integral"])
def test_conical_refuses_an_input_over_the_memory_cap_by_name(capsys, argv, named):
    # zeta_A of A3 at cutoff 10^5 would hold cubes of 10^10 floats, and a
    # batch of 2^37 Halton points about 4.5e13 bytes: refused before any
    # array is built
    tracemalloc.start()
    try:
        rc, doc = _run_json(capsys, ["conical", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3 and doc["error"]["type"] == "ValueError"
    assert doc["error"]["message"].startswith(named)
    assert peak < 2**20


# One cheap argv per subcommand (plus the branches with other bounds) and the
# frozen envelope it must print: (argv, kind, error_bound).
_TAU = "0.2+1.1i"
LEAF_CASES = [
    (["emzv", "a", "--n", "3", "--zeros", "1", "--tau", _TAU], "value", "1.00000e-30"),
    (["emzv", "a", "--n", "4"], "series", None),
    (["emzv", "b", "--n", "3", "--zeros", "1", "--tau", _TAU], "value", "1.00000e-30"),
    (["emzv", "binf", "--n", "9", "--zeros", "5"], "laurent", "1.00000e-30"),
    (["emzv", "alen2", "--n1", "2", "--n2", "3", "--tau", "i"], "value", "1.00000e-30"),
    (["emzv", "hata", "--r", "4", "--tau", "i"], "value", "1.00000e-30"),
    (["mgf", "laurent2", "--l", "2"], "laurent", "1.00000e-30"),
    (["mgf", "laurent3", "--l", "1", "1", "1", "--cutoff", "100"], "laurent", "1.00000e-30"),
    (["mgf", "dlattice", "--graph", "cycle:2", "--tau", "i", "--M", "10"], "value", "0.116689"),
    (["mgf", "s", "--m", "2", "--n", "1"], "value", "1.00000e-30"),
    (["mgf", "s", "--m", "2", "--n", "1", "--method", "direct", "--cutoff", "1000"],
     "value", "0.0100000"),
    (["mgf", "r", "--m", "1", "1", "2", "--alpha", "1", "--beta", "0", "--cutoff", "200"],
     "value", "1.00000e-30"),
    (["mgf", "r", "--m", "1", "1", "1", "--alpha", "1", "--beta", "1", "--method", "direct",
      "--cutoff", "100"], "value", "0.100000"),
    (["conical", "zeta", "--matrix", "[[1,0],[1,1],[0,1]]", "--cutoff", "100"],
     "value", "0.00307951"),
    (["conical", "integral", "--matrix", "[[1,0],[1,1],[0,1]]", "--samples", "1024"],
     "value", "0.0344275"),
    (["conical", "c1s", "--matrix", "[[1,0,1],[1,1,0],[0,1,1]]"], "value", "0"),
    (["conical", "tu", "--matrix", "[[1,1,0],[0,1,1]]"], "value", "0"),
    (["genus0", "gamma1p", "--z", "0.5"], "value", "1.00000e-30"),
    (["genus0", "exponent", "--which", "open", "--order", "5"], "series", "0"),
    (["genus0", "exponent", "--which", "sv", "--order", "5", "--s", "0.05", "--t", "0.07"],
     "value", "1.00000e-30"),
    (["eisenstein", "e", "--k", "4", "--tau", "i"], "value", "1.00000e-30"),
    (["eisenstein", "e", "--k", "4"], "series", None),
    (["eisenstein", "nonholo", "--s", "2", "--tau", "i"], "value", "1.00000e-30"),
    (["eisenstein", "green1", "--xi", "0.3+0.1i", "--tau", "i"], "value", "1.00000e-30"),
    # the case above sits on a zero of the Green function; this one does not
    (["eisenstein", "green1", "--xi", "0.25+0.3i", "--tau", "i"], "value", "1.00000e-30"),
]


# The exact-value leaves of LEAF_CASES (|value| up to 7.6), and more
# inputs with |value| up to about 1e2, where printing `digits` significant
# digits would round past the absolute bound (42.6 for the hatA case), and
# two of about 1e15, whose terms outgrow the guard digits of the context.
_EXACT_VALUE_CASES = [argv for argv, kind, bound in LEAF_CASES
                      if kind == "value" and bound == "1.00000e-30"] + [
    ["emzv", "hata", "--r", "6", "--tau", "0.3+0.6i"],
    ["mgf", "s", "--m", "3", "--n", "0"],
    ["mgf", "s", "--m", "5", "--n", "1"],
    ["mgf", "r", "--m", "1", "1", "3", "--alpha", "0", "--beta", "0"],
    ["eisenstein", "nonholo", "--s", "2", "--tau", "20i"],
    ["mgf", "r", "--m", "1", "1", "14", "--alpha", "0", "--beta", "0"],
    ["mgf", "s", "--m", "14", "--n", "0"],
]


@pytest.mark.parametrize("argv", _EXACT_VALUE_CASES, ids=" ".join)
def test_printed_value_is_within_its_bound(capsys, argv):
    rc, doc = _run_json(capsys, argv)
    assert rc == 0
    rc, ref = _run_json(capsys, [*argv, "--prec", str(doc["precision_digits"] + 40)])
    assert rc == 0

    def parts(v):
        return [v["re"], v["im"]] if isinstance(v, dict) else [v]

    with mp.workdps(doc["precision_digits"] + 50):
        bound = mp.mpf(doc["error_bound"])
        for got, want in zip(parts(doc["value"]), parts(ref["value"])):
            assert abs(mp.mpf(got) - mp.mpf(want)) <= bound, (got, want)


def _leaf_name(argv):
    return tuple(itertools.takewhile(lambda tok: not tok.startswith("-"), argv))


@pytest.mark.parametrize("argv,kind,bound", LEAF_CASES,
                         ids=[" ".join(c[0]) for c in LEAF_CASES])
def test_leaf_envelope(capsys, argv, kind, bound):
    rc, doc = _run_json(capsys, argv)
    assert rc == 0
    assert list(doc) == [kind, "error_bound", "precision_digits", "params", "elapsed_ms"]
    assert doc["error_bound"] == bound


def _parser_leaves(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix}
    return {leaf for name, p in subs[0].choices.items()
            for leaf in _parser_leaves(p, prefix + (name,))}


def test_every_leaf_has_an_envelope_case():
    covered = {_leaf_name(argv) for argv, _, _ in LEAF_CASES} | {("verify",)}
    assert _parser_leaves(build_parser()) == covered


@pytest.mark.parametrize("m,n", itertools.product((2, 3, 4), range(4)))
def test_direct_s_bound_holds(capsys, m, n):
    exact = mgf.S_zagier(m, n, PrecisionCtx(20))
    for cutoff in (3, 5, 20, 100):
        rc, doc = _run_json(capsys, ["mgf", "s", "--m", str(m), "--n", str(n),
                                     "--method", "direct", "--cutoff", str(cutoff)])
        if rc == 3:  # no bound stated
            continue
        assert rc == 0
        err = abs(mp.mpf(doc["value"]) - exact)
        assert mp.mpf(doc["error_bound"]) >= err, (cutoff, err)


_R_DIRECT_SHAPES = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 3), (2, 1, 2), (1, 2, 3),
                    (2, 2, 1)]


def test_direct_r_bound_holds(capsys):
    # the printed 10/cutoff covers the exact value at alpha, beta >= 1; at
    # alpha beta = 0 it did not ((2,2,2;0,0) at cutoff 50 printed 164.079 with
    # bound 0.2 against 180.807), so the route refuses it by name
    ctx = PrecisionCtx(20)
    for m, alpha, beta in itertools.product(_R_DIRECT_SHAPES, (1, 2), (1, 2)):
        exact_value = exact.value(exact._R_exact((*m, alpha, beta)), ctx)
        for cutoff in (20, 50):
            rc, doc = _run_json(capsys, ["mgf", "r", "--m", *map(str, m), "--alpha", str(alpha),
                                         "--beta", str(beta), "--method", "direct",
                                         "--cutoff", str(cutoff)])
            assert rc == 0
            err = abs(mp.mpf(doc["value"]) - exact_value)
            assert mp.mpf(doc["error_bound"]) >= err, (m, alpha, beta, cutoff)
    for alpha, beta in [(0, 0), (0, 2), (1, 0)]:
        rc, doc = _run_json(capsys, ["mgf", "r", "--m", "2", "2", "2", "--alpha", str(alpha),
                                     "--beta", str(beta), "--method", "direct", "--cutoff", "50"])
        assert rc == 3 and doc["error"]["type"] == "ValueError"
        assert f"alpha={alpha}, beta={beta}" in doc["error"]["message"]


def test_series_json_reads_back(capsys):
    rc, doc = _run_json(capsys, ["emzv", "a", "--n", "3", "--zeros", "1"])
    assert rc == 0
    series = QTauSeries.from_json(json.dumps(doc["series"]))
    ctx = PrecisionCtx(30)
    with ctx.workprec():
        ref = A_depth1(3, 2, ctx=ctx)
    assert series.q_order == ref.q_order
    assert set(series.coeffs) == set(ref.coeffs)
    assert series.sub(ref).max_abs_coeff() < ctx.eps * ref.max_abs_coeff()


def test_verify_suite(capsys):
    rc = run(["verify", "--suite", "genus0"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 0
    assert list(doc) == ["suite", "checks", "precision_digits", "elapsed_ms"]
    assert all(chk["pass"] for chk in doc["checks"])


def test_verify_emzv_length_one_check_can_fail(monkeypatch, capsys):
    rc, doc = _run_json(capsys, ["verify", "--suite", "emzv"])
    assert rc == 0 and all(chk["pass"] for chk in doc["checks"])
    assert [c["name"] for c in doc["checks"]] == [
        "emzv: length-one constant n=4", "emzv: depth-one modularity (3,2)",
        "emzv: depth-one modularity (2,3)"]
    real = emzv.A_depth1

    def wrong(n, r, tau=None, ctx=None, q_order=None):
        value = real(n, r, tau, ctx, q_order)
        return value * (1 + mp.mpf("1e-20")) if r == 1 else value

    monkeypatch.setattr(emzv, "A_depth1", wrong)
    rc, doc = _run_json(capsys, ["verify", "--suite", "emzv"])
    assert rc == 1
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == [
        "emzv: length-one constant n=4"]


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
    # config values go through argparse: typed like the flags ...
    cfg.write_text(json.dumps({"s": "0.05", "t": "0.07"}))
    argv = ["genus0", "exponent", "--which", "open", "--order", "5"]
    rc, doc = _run_json(capsys, [*argv, "--config", str(cfg)])
    assert rc == 0
    assert set(doc["value"]) == {"re", "im"}
    value = doc["value"]
    rc, doc = _run_json(capsys, [*argv, "--s", "0.05", "--t", "0.07"])
    assert doc["value"] == value
    # ... may supply a required flag, lists included ...
    cfg.write_text(json.dumps({"tau": "1.4i", "zeros": 1}))
    rc, doc = _run_json(capsys, ["emzv", "b", "--n", "3", "--config", str(cfg)])
    assert rc == 0 and doc["params"]["zeros"] == 1
    cfg.write_text(json.dumps({"matrix": "[[1,1,0],[0,1,1]]"}))
    rc, doc = _run_json(capsys, ["conical", "tu", "--config", str(cfg)])
    assert rc == 0 and doc["value"] == {"totally_unimodular": True}
    cfg.write_text(json.dumps({"l": [1, 1, 1], "cutoff": 100}))
    rc, doc = _run_json(capsys, ["mgf", "laurent3", "--config", str(cfg)])
    assert rc == 0 and doc["params"]["l"] == [1, 1, 1]
    # ... and unknown keys are usage errors
    cfg.write_text(json.dumps({"precision": 40}))
    with pytest.raises(SystemExit) as exc:
        run(["emzv", "a", "--n", "2", "--config", str(cfg)])
    assert exc.value.code == 2
    # valid JSON that is not an object is a bad config file, not a crash
    capsys.readouterr()
    cfg.write_text(json.dumps([1, 2]))
    with pytest.raises(SystemExit) as exc:
        run(["emzv", "a", "--n", "2", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "bad config file" in capsys.readouterr().err


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


@pytest.mark.parametrize("module", ["ellipsum.cli", "ellipsum.mgf", "ellipsum.conical"])
def test_import_loads_no_scipy(module):
    proc = _fresh_python(f"import {module}\n{_PRINT_SCIPY}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_emzv_path_loads_no_numpy():
    # the q-series, Eisenstein, iterated-integral and eMZV modules and their
    # mpmath-only evaluations; numpy is for the lattice/float code alone
    proc = _fresh_python(
        "import sys\n"
        "import mpmath as mp\n"
        "from ellipsum import eisenstein, eisint, emzv, qseries\n"
        "from ellipsum.numkernel import PrecisionCtx\n"
        "ctx, tau = PrecisionCtx(30), mp.mpc('0.1', '1.1')\n"
        "xi, alpha = mp.mpc('0.3', '0.2'), mp.mpc('0.2', '0.1')\n"
        "emzv.A_depth1(3, 2, tau, ctx)\n"
        "emzv.A_len2(3, 2, tau, ctx)\n"
        "emzv.B_depth1(3, 2, tau, ctx)\n"
        "qseries.eval_at(eisenstein.eis_E(4, qseries.auto_q_order(tau, ctx)), tau, ctx)\n"
        "eisenstein.kronecker_F(xi, alpha, tau, ctx)\n"
        "eisenstein.green1(xi, tau, ctx)\n"
        "eisenstein.eis_nonholo(3, tau, ctx)\n"
        "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("module, loaded", [("ellipsum.emzv", False), ("ellipsum.exact", False),
                                            ("ellipsum.cli", True)])
def test_numpy_loads_only_with_the_lattice_code(module, loaded):
    proc = _fresh_python(f"import sys\nimport {module}\nprint('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loaded)


def test_exact_layer_evaluates_without_numpy():
    # two-point rows, an S combination and a family R-sum, built and summed
    # by the exact layer on mpmath alone
    proc = _fresh_python(
        "import sys\n"
        "from ellipsum import exact\n"
        "from ellipsum.numkernel import PrecisionCtx\n"
        "ctx = PrecisionCtx(30)\n"
        "assert exact.laurent(exact._d2pt_rows(5), ctx).exponents\n"
        "assert exact.value(exact._S_combo(3, 2), ctx) > 0\n"
        "assert exact.value(exact._R_exact((1, 1, 5, 1, 1)), ctx) > 0\n"
        "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_emzv_call_loads_no_scipy():
    proc = _fresh_python(
        "import contextlib, io\n"
        "from ellipsum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['emzv', 'binf', '--n', '9', '--zeros', '5']) == 0\n"
        + _PRINT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_conical_calls_load_no_scipy():
    # one matrix of each closed-form kind (hurwitz, psi) and the verify suite
    proc = _fresh_python(
        "import contextlib, io\n"
        "from ellipsum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['conical', 'zeta', '--matrix', '[[1,0],[1,2],[1,2]]', '--cutoff', '60'],\n"
        "                 ['conical', 'zeta', '--matrix', '[[1,0],[0,1],[1,1]]', '--cutoff', '60'],\n"
        "                 ['verify', '--suite', 'conical']):\n"
        "        assert cli.run(argv) == 0\n"
        + _PRINT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lattice_calls_load_no_scipy():
    # D_lattice at depths 1, 2 and 3 (banana:2, banana:3, K4) and an R-sum
    # without an exact reduction: every FFT is numpy's
    k4 = json.dumps({"vertices": 4, "edges": [[i, j, 1] for i in range(4) for j in range(i + 1, 4)]})
    runs = [["mgf", "dlattice", "--graph", graph, "--tau", "0.1+1.1i", "--M", M]
            for graph, M in (("banana:2", "20"), ("banana:3", "20"), (k4, "3"))]
    runs.append(["mgf", "r", "--m", "2", "2", "2", "--alpha", "1", "--beta", "1"])
    proc = _fresh_python(
        "import contextlib, io\n"
        "from ellipsum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {runs!r}:\n"
        "        assert cli.run(argv) == 0, argv\n"
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


@pytest.mark.parametrize("argv", [
    ["conical", "zeta", "--matrix", "[[1,0],[0,1],[1,1]]", "--cutoff", "1"],
    ["conical", "integral", "--matrix", "[[1,-1],[0,1]]"],
    ["mgf", "dlattice", "--graph", "banana:3", "--tau", "0.1+1.1i", "--M", "0"],
    ["mgf", "r", "--m", "1", "1", "1", "--alpha", "0", "--beta", "0", "--cutoff", "0"],
    ["mgf", "s", "--m", "4", "--n", "1", "--method", "direct", "--cutoff", "1000"],
    # malformed --graph and --matrix inputs are refused by name, not a traceback
    pytest.param(["mgf", "dlattice", "--graph", "@no-such-dir/graph.json", "--tau", "i"],
                 id="mgf dlattice missing file"),
    pytest.param(["conical", "zeta", "--matrix", "@no-such-dir/matrix.json"],
                 id="conical zeta missing file"),
    pytest.param(["mgf", "dlattice", "--graph", '{"vertices": 2}', "--tau", "i"],
                 id="mgf dlattice no edges"),
    pytest.param(["mgf", "dlattice", "--graph", "[1,2]", "--tau", "i"],
                 id="mgf dlattice not an object"),
    pytest.param(["conical", "zeta", "--matrix", "[1,2]"], id="conical zeta not rows"),
], ids=lambda argv: " ".join(argv[:2]))
def test_error_stdout_is_one_json_document(argv):
    # a fresh process: capsys cannot see what C code (LAPACK) writes to fd 1
    proc = subprocess.run([sys.executable, "-m", "ellipsum.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode in (2, 3), proc.stderr
    assert "error" in json.loads(proc.stdout)


def test_closed_pipe_exits_quietly():
    # the reader is gone before the JSON is written (``| head -c 10``)
    proc = subprocess.Popen([sys.executable, "-m", "ellipsum.cli", "mgf", "s", "--m", "2",
                             "--n", "1", "--method", "direct", "--cutoff", "5"],
                            env=dict(os.environ, PYTHONPATH=str(SRC)),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
