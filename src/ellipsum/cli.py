"""Command-line surface: evaluate any exposed quantity, emit Laurent
polynomials and series, and run the verification suites with
machine-readable JSON output.

Conventions:
  - every numeric output is a decimal string (complex values become
    {"re": ..., "im": ...} string pairs) so precision stays auditable;
  - every result object carries ``error_bound``, ``precision_digits``,
    ``params`` and ``elapsed_ms``;
  - usage errors exit 2; numeric guard violations exit 3 with a
    structured error object on stdout; ``verify`` exits 0 iff all
    checks pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

import mpmath as mp

from . import eisenstein, emzv, genus0, mgf
from .laurent import LaurentPoly
from .numkernel import PrecisionCtx
from .qseries import GuardError, QTauSeries, auto_q_order

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

_COMPLEX_RE = re.compile(
    r"(?:(?P<re>[+-]?\d+(?:\.\d+)?)(?=[+-]\d*\.?\d*i$|[+-]i$))?"
    r"(?P<im>[+-]?(?:\d+(?:\.\d+)?)?)i"
)


def parse_complex(text: str) -> mp.mpc:
    """Parse ``a+bi`` / ``bi`` / ``i`` / plain real with decimal components.

    Parsing happens before ``--prec`` takes effect, so decimals are read at
    a precision high enough for any supported working precision.
    """
    with mp.workdps(max(mp.mp.dps, 120)):
        return _parse_complex_now(text)


def _parse_complex_now(text: str) -> mp.mpc:
    t = text.strip().replace(" ", "")
    if not t.endswith("i"):
        return mp.mpc(mp.mpf(t))
    m = _COMPLEX_RE.fullmatch(t)
    if m is None:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    re_part = mp.mpf(m.group("re")) if m.group("re") else mp.mpf(0)
    im_text = m.group("im")
    if im_text in ("", "+"):
        im_part = mp.mpf(1)
    elif im_text == "-":
        im_part = mp.mpf(-1)
    else:
        im_part = mp.mpf(im_text)
    return mp.mpc(re_part, im_part)


def parse_tau(text: str) -> mp.mpc:
    """Parse a point ``a+bi`` of the upper half plane (b > 0 enforced)."""
    v = parse_complex(text)
    if not mp.im(v) > 0:
        raise argparse.ArgumentTypeError(
            f"tau must have positive imaginary part, got {text!r}"
        )
    return v


def _parse_q_order(text: str) -> str:
    """``auto`` or a nonnegative integer, kept as the text given."""
    try:
        ok = text == "auto" or int(text) >= 0
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"q-order must be 'auto' or a nonnegative integer, got {text!r}")
    return text


def _conical():
    from . import conical  # lazy: conical pulls in numpy.random (~20 ms)
    return conical


def _read_at(text: str) -> str:
    """``text``, or the contents of the file that ``@path`` names; a file
    that cannot be read is a ValueError naming it."""
    if not text.startswith("@"):
        return text
    try:
        with open(text[1:], encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {text[1:]!r}: {exc.strerror}") from exc


def parse_matrix(text: str):
    """Parse a conical matrix given inline as JSON rows or as @path."""
    return _conical().ConeMatrix(json.loads(_read_at(text)))


def parse_graph(spec: str) -> mgf.MultiGraph:
    """Parse ``cycle:N`` / ``banana:L`` / inline edge-list JSON / @path."""
    if spec.startswith("cycle:"):
        return mgf.MultiGraph.cycle(int(spec[6:]))
    if spec.startswith("banana:"):
        return mgf.MultiGraph.banana(int(spec[7:]))
    return mgf.MultiGraph.from_json(_read_at(spec))


# ---------------------------------------------------------------------------
# serialization helpers (decimal strings only, never binary floats)
# ---------------------------------------------------------------------------

def _num_str(x, digits: int) -> str:
    """``digits`` significant digits, or ``digits`` places after the point for
    an mpf of |x| >= 1, so that rounding stays inside the bound 10^-digits.
    An mpf is printed at its own precision, which may exceed the ambient one
    (the exact layer widens it for large values)."""
    if isinstance(x, (Fraction, int)):
        return str(x)
    if not isinstance(x, mp.mpf):
        x = mp.mpf(x)
    elif abs(x) >= 1:
        digits += len(str(int(abs(x))))
    return mp.nstr(x, digits, strip_zeros=False)


def _value_json(x, digits: int):
    """Real -> decimal string; complex -> {"re", "im"} string pair.  A float
    gets at most 17 significant digits, which round-trip it; more would be
    binary noise."""
    if isinstance(x, (Fraction, int)):
        return _num_str(x, digits)
    if isinstance(x, float):
        return _num_str(x, min(digits, 17))
    x = mp.mpmathify(x)
    if isinstance(x, mp.mpc):
        return {
            "re": _num_str(mp.re(x), digits),
            "im": _num_str(mp.im(x), digits),
        }
    return _num_str(x, digits)


def _laurent_json(p: LaurentPoly, digits: int):
    return {
        "variable": p.variable,
        "terms": [
            {
                "exp": e,
                "coeff_re": _num_str(mp.re(c), digits),
                "coeff_im": _num_str(mp.im(c), digits),
            }
            for e, c in sorted(p.coeffs.items())
        ],
    }


def _series_json(s: QTauSeries, digits: int):
    return {
        "q_order": s.q_order,
        "terms": [
            {
                "tau_exp": i,
                "q_exp": j,
                "coeff_re": _num_str(mp.re(c), digits),
                "coeff_im": _num_str(mp.im(c), digits),
            }
            for (i, j), c in sorted(s.coeffs.items())
        ],
    }


def _exponent_json(e: "genus0.ZetaLinExponent"):
    return {
        "order": e.order,
        "zeta_terms": [
            {
                "zeta_n": n,
                "monomials": [
                    {"s_exp": a, "t_exp": b, "coeff": str(c)}
                    for (a, b), c in sorted(poly.items())
                ],
            }
            for n, poly in sorted(e.coeffs.items())
        ],
    }


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------

def _result_json(result, digits: int):
    """``(kind, payload)`` of a handler result, chosen by its type."""
    if isinstance(result, LaurentPoly):
        return "laurent", _laurent_json(result, digits)
    if isinstance(result, QTauSeries):
        return "series", _series_json(result, digits)
    if isinstance(result, genus0.ZetaLinExponent):
        return "series", _exponent_json(result)
    if isinstance(result, dict):
        return "value", result
    return "value", _value_json(result, digits)


def _write(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): send what is left to
        # os.devnull, so that the flush at exit fails no more, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _clean_params(args: argparse.Namespace) -> dict:
    skip = {"func", "config", "output"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None:
            continue
        out[k] = str(v) if isinstance(v, (mp.mpf, mp.mpc)) else v
    return out


def _ctx(args) -> PrecisionCtx:
    return PrecisionCtx(digits=args.prec)


def _q_order_arg(args):
    return None if args.q_order in (None, "auto") else int(args.q_order)


def _compute(args) -> int:
    """Run the leaf handler and emit its result in the JSON envelope."""
    t0 = time.monotonic()
    ctx = _ctx(args)
    params = _clean_params(args)
    # the JSON conversion stays inside workprec: _num_str rounds to the
    # ambient precision
    with ctx.workprec():
        result, bound = args.func(args, ctx)
        kind, payload = _result_json(result, ctx.digits)
        doc = {
            kind: payload,
            "error_bound": _num_str(bound, 6) if bound is not None else None,
            "precision_digits": ctx.digits,
            "params": params,
            "elapsed_ms": round(1000.0 * (time.monotonic() - t0), 3),
        }
    _write(doc, args.output)
    return 0


# ---------------------------------------------------------------------------
# leaf handlers: (args, ctx) -> (result, error_bound), run under ctx.workprec()
# ---------------------------------------------------------------------------

def _emzv_a(args, ctx):
    # without tau, A_depth1 returns the q-series, which has no error bound
    val = emzv.A_depth1(args.n, args.zeros + 1, args.tau, ctx,
                        q_order=_q_order_arg(args))
    return val, ctx.eps if args.tau is not None else None


def _emzv_b(args, ctx):
    return emzv.B_depth1(args.n, args.zeros + 1, args.tau, ctx,
                         q_order=_q_order_arg(args)), ctx.eps


def _emzv_binf(args, ctx):
    return emzv.B_inf_depth1(args.n, args.zeros, ctx), ctx.eps


def _emzv_alen2(args, ctx):
    return emzv.A_len2(args.n1, args.n2, args.tau, ctx), ctx.eps


def _emzv_hata(args, ctx):
    return emzv.hatA(args.r, args.tau, ctx, form=args.form), ctx.eps


def _mgf_laurent2(args, ctx):
    return mgf.d2pt(args.l[0], ctx), ctx.eps


def _mgf_laurent3(args, ctx):
    return mgf._d3pt(args.l, ctx, args.cutoff)


def _mgf_dlattice(args, ctx):
    return mgf.D_lattice(parse_graph(args.graph), args.tau, args.M, ctx,
                         with_bound=True)


def _s_direct_tail(m: int, n: int, cutoff: int) -> float:
    """Proven bound on the (positive) terms that S_direct(m, n, cutoff) drops.

    With K = cutoff, s = n + 1, l = ln K and I_k = int_K^inf ln(x)^k x^(-s-1) dx,
    each sum over an index > K of a decreasing summand is at most its I-integral:
      - m = 2: the tail is 2^(1-n) sum_{k>K} k^(-n-2) <= 2^(1-n) I_0;
      - m = 3: a dropped term has |k1| > K or |k2| > K, at most twice the |k1| > K
        part by symmetry; at |k1| = a, sum_{k2} 1/|k2 k3| = 2(H_a + H_{a-1})/a
        <= 4(1 + ln a)/a and sum |k_i| >= 2a, so it is <= 16 2^-n (I_0 + I_1);
      - m = 4: at most three times the |a| > K part; at |a| = b,
        sum_{k1+k2+k3=-a} 1/|k1 k2 k3| <= 16(L^2 + L + 2)/b with L = 1 + ln b
        (split by the sign pattern of k1 and a + k1), so it is
        <= 96 2^-n (I_2 + 3 I_1 + 4 I_0)."""
    s, l = n + 1, math.log(cutoff)
    i0 = 1 / s
    i1 = l / s + 1 / s**2
    i2 = l**2 / s + 2 * l / s**2 + 2 / s**3
    c = {2: 2 * i0, 3: 16 * (i0 + i1), 4: 96 * (i2 + 3 * i1 + 4 * i0)}[m]
    return c / (2**n * cutoff**s)


def _mgf_s(args, ctx):
    if args.method == "zagier":
        return mgf.S_zagier(args.m, args.n, ctx), ctx.eps
    # never below the 10/cutoff the command has always printed
    value = mgf.S_direct(args.m, args.n, args.cutoff)
    return value, max(10.0 / args.cutoff, _s_direct_tail(args.m, args.n, args.cutoff))


def _mgf_r(args, ctx):
    key = (*args.m, args.alpha, args.beta)
    if args.method == "direct":
        return mgf.R_direct(*key, args.cutoff), 10.0 / args.cutoff
    return mgf._R(key, args.cutoff, ctx)


def _conical_zeta(args, ctx):
    # a float64 shell sum plus a float64 tail, added as mpf: only the float64
    # digits are real
    value, bound = _conical().zeta_A(parse_matrix(args.matrix), cutoff=args.cutoff,
                                     ctx=ctx, with_bound=True)
    return float(value), bound


def _conical_integral(args, ctx):
    return _conical().zeta_A_integral(parse_matrix(args.matrix),
                                   samples=args.samples, ctx=ctx,
                                   with_error=True)


def _conical_c1s(args, ctx):
    ok, witness = _conical().is_C1s(parse_matrix(args.matrix), with_witness=True)
    return {"c1s": bool(ok),
            "witness": list(witness) if witness is not None else None}, 0


def _conical_tu(args, ctx):
    return {"totally_unimodular": bool(_conical().is_TU(parse_matrix(args.matrix)))}, 0


def _genus0_gamma1p(args, ctx):
    return genus0.gamma1p(args.z, ctx), ctx.eps


def _genus0_exponent(args, ctx):
    if args.which == "open":
        e = genus0.veneziano_exponent(args.order)
    elif args.which == "closed":
        e = genus0.closed_exponent(args.order)
    else:
        e = genus0.sv_map_exponent(genus0.veneziano_exponent(args.order))
    if args.s is not None and args.t is not None:
        return e(args.s, args.t, ctx), ctx.eps
    return e, 0


def _eisenstein_e(args, ctx):
    q_order = _q_order_arg(args)
    if q_order is None:
        q_order = auto_q_order(args.tau, ctx) if args.tau is not None else 10
    if args.tau is None:
        return eisenstein.eis_E(args.k, q_order), None
    # summed from eis_E's own term map, without building the series
    terms, head = eisenstein._eis_E_terms(args.k)
    return eisenstein._divisor_value(terms, head, q_order, args.tau, ctx)[0], ctx.eps


def _eisenstein_nonholo(args, ctx):
    return eisenstein.eis_nonholo(args.s, args.tau, ctx), ctx.eps


def _eisenstein_green1(args, ctx):
    return eisenstein.green1(args.xi, args.tau, ctx), ctx.eps


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _verify_emzv(ctx: PrecisionCtx) -> list:
    checks = []
    tau = mp.mpc("0.2", "1.1")
    with ctx.workprec():
        # the length-one q-series at k = 2 against Euler's formula
        # B_2k/(2k)! = (-1)^(k+1) 2 zeta(2k)/(2 pi)^2k, not Bernoulli numbers
        k = 2
        lhs = emzv.A_depth1(2 * k, 1, tau, ctx)
        rhs = 2j * mp.pi * (-1) ** (k + 1) * 2 * mp.zeta(2 * k) / (2 * mp.pi) ** (2 * k)
        checks.append(("length-one constant n=4", abs(lhs - rhs), 1e-25))
        # r = 3 reaches the j = 2 row of B_depth1's double sum
        for n, r in ((3, 2), (2, 3)):
            a = emzv.A_depth1(n, r, -1 / tau, ctx)
            b = emzv.B_depth1(n, r, tau, ctx)
            checks.append((f"depth-one modularity ({n},{r})", abs(a - b), 1e-20))
    return checks


def _verify_mgf(ctx: PrecisionCtx) -> list:
    checks = []
    suite = mgf.identity_suite(mp.mpc(0, 1), 60, ctx)
    for name, (_, _, resid) in suite.items():
        checks.append((f"lattice identity {name}", float(resid), 2e-3))
    s_direct = mgf.S_direct(2, 1, 20000)
    with ctx.workprec():
        s_closed = float(mgf.S_zagier(2, 1, ctx))
    checks.append(("constrained S-sum (2,1)", abs(s_direct - s_closed), 1e-6))
    return checks


def _verify_conical(ctx: PrecisionCtx) -> list:
    conical = _conical()
    checks = []
    A = conical.ConeMatrix.mzv_staircase((1, 2))
    val = conical.zeta_A(A, cutoff=200, ctx=ctx)
    with ctx.workprec():
        checks.append(("staircase nested sum (1,2)",
                       abs(float(val) - float(mp.zeta(3))), 1e-8))
    checks.append(("staircase consecutive-ones", 0.0 if conical.is_C1s(A) else 1.0,
                   0.5))
    return checks


def _verify_genus0(ctx: PrecisionCtx) -> list:
    checks = []
    open_e = genus0.veneziano_exponent(11)
    closed_e = genus0.closed_exponent(11)
    checks.append(("sv map matches closed exponent",
                   0.0 if genus0.sv_map_exponent(open_e) == closed_e else 1.0,
                   0.5))
    st = open_e.coeff(2, 1, 1)
    checks.append(("st coefficient is -zeta(2) times 1",
                   abs(st - Fraction(-1)), 0.5))
    with ctx.workprec():
        s, t = mp.mpf("0.05"), mp.mpf("0.07")
        direct = (genus0.gamma1p(s, ctx) * genus0.gamma1p(t, ctx)
                  / genus0.gamma1p(s + t, ctx))
        via_exp = mp.exp(genus0.veneziano_exponent(40)(s, t, ctx))
        checks.append(("open-string Gamma ratio", abs(direct - via_exp), 1e-18))
    return checks


_SUITES = {
    "emzv": _verify_emzv,
    "mgf": _verify_mgf,
    "conical": _verify_conical,
    "genus0": _verify_genus0,
}


def _cmd_verify(args) -> int:
    t0 = time.monotonic()
    ctx = _ctx(args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        for label, resid, tol in _SUITES[name](ctx):
            resid = float(resid)
            checks.append({
                "name": f"{name}: {label}",
                "residual": _num_str(resid, 6),
                "tolerance": _num_str(tol, 6),
                "pass": resid <= tol,
            })
    all_pass = all(c["pass"] for c in checks)
    doc = {
        "suite": args.suite,
        "checks": checks,
        "precision_digits": ctx.digits,
        "elapsed_ms": round(1000.0 * (time.monotonic() - t0), 3),
    }
    _write(doc, args.output)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

def _leaf(subparsers, name: str, help: str, handler) -> argparse.ArgumentParser:
    """Add the subcommand ``name`` with the common flags; ``handler`` runs it."""
    q = subparsers.add_parser(name, help=help, description=help)
    q.add_argument("--prec", type=int, default=30,
                   help="target precision in decimal digits")
    q.add_argument("--output", default=None,
                   help="also write the JSON result to this path")
    q.add_argument("--config", default=None,
                   help="JSON file whose keys mirror the long flags")
    q.set_defaults(func=handler)
    return q


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsum",
        description="Elliptic multiple zeta values, modular graph functions, "
                    "conical sums and genus-zero amplitude expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # emzv -------------------------------------------------------------
    p = sub.add_parser("emzv", help="elliptic multiple zeta values")
    ps = p.add_subparsers(dest="emzv_cmd", required=True)

    q = _leaf(ps, "a", "depth-one A-value A(n, 0^zeros; tau)", _emzv_a)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--zeros", type=int, default=0)
    q.add_argument("--tau", type=parse_tau, default=None)
    q.add_argument("--q-order", dest="q_order", type=_parse_q_order, default="auto")

    q = _leaf(ps, "b", "depth-one B-value B(n, 0^zeros; tau)", _emzv_b)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--zeros", type=int, default=0)
    q.add_argument("--tau", type=parse_tau, required=True)
    q.add_argument("--q-order", dest="q_order", type=_parse_q_order, default="auto")

    q = _leaf(ps, "binf", "cusp Laurent polynomial of the depth-one "
                          "B-value (exact tau-polynomial)", _emzv_binf)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--zeros", type=int, default=0)

    q = _leaf(ps, "alen2", "length-two value A(n1, n2; tau)", _emzv_alen2)
    q.add_argument("--n1", type=int, required=True)
    q.add_argument("--n2", type=int, required=True)
    q.add_argument("--tau", type=parse_tau, required=True)

    q = _leaf(ps, "hata", "subtracted value hat-A_{1,r}(tau)", _emzv_hata)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--tau", type=parse_tau, required=True)
    q.add_argument("--form", choices=["direct", "eichler"], default="direct")

    # mgf --------------------------------------------------------------
    p = sub.add_parser("mgf", help="modular graph functions")
    ps = p.add_subparsers(dest="mgf_cmd", required=True)

    q = _leaf(ps, "laurent2", "zero-mode Laurent polynomial d_l(y) "
                              "of the two-vertex banana graph", _mgf_laurent2)
    q.add_argument("--l", type=int, nargs=1, required=True)

    q = _leaf(ps, "laurent3", "zero-mode Laurent polynomial d_{l1,l2,l3}(y) "
                              "of the three-vertex graph", _mgf_laurent3)
    q.add_argument("--l", type=int, nargs=3, required=True)
    q.add_argument("--cutoff", type=int, default=2000)

    q = _leaf(ps, "dlattice", "truncated lattice sum of a multigraph",
              _mgf_dlattice)
    q.add_argument("--graph", required=True,
                   help="cycle:N | banana:L | inline JSON | @path")
    q.add_argument("--tau", type=parse_tau, required=True)
    q.add_argument("--M", type=int, default=100)

    q = _leaf(ps, "s", "constrained two-block sum S(m, n)", _mgf_s)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--method", choices=["zagier", "direct"], default="zagier")
    q.add_argument("--cutoff", type=int, default=20000)

    q = _leaf(ps, "r", "constrained three-block sum "
                       "R(m1, m2, m3; alpha, beta)", _mgf_r)
    q.add_argument("--m", type=int, nargs=3, required=True)
    q.add_argument("--alpha", type=int, required=True)
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--method", choices=["structured", "direct"],
                   default="structured")
    q.add_argument("--cutoff", type=int, default=2000)

    # conical ----------------------------------------------------------
    p = sub.add_parser("conical", help="conical sums over linear forms")
    ps = p.add_subparsers(dest="conical_cmd", required=True)

    q = _leaf(ps, "zeta", "nested-series evaluation of zeta(A)", _conical_zeta)
    q.add_argument("--matrix", required=True, help="JSON rows or @path")
    q.add_argument("--cutoff", type=int, default=200)

    q = _leaf(ps, "integral", "quasi-Monte-Carlo integral representation of "
                              "zeta(A); its error_bound is the standard error "
                              "of 8 batch means, not a bound", _conical_integral)
    q.add_argument("--matrix", required=True, help="JSON rows or @path")
    q.add_argument("--samples", type=int, default=1 << 16)

    q = _leaf(ps, "c1s", "consecutive-ones test with witness order",
              _conical_c1s)
    q.add_argument("--matrix", required=True, help="JSON rows or @path")

    q = _leaf(ps, "tu", "total-unimodularity test", _conical_tu)
    q.add_argument("--matrix", required=True, help="JSON rows or @path")

    # genus0 -----------------------------------------------------------
    p = sub.add_parser("genus0", help="genus-zero amplitude expansions")
    ps = p.add_subparsers(dest="genus0_cmd", required=True)

    q = _leaf(ps, "gamma1p", "Gamma(1+z) from its zeta exponential",
              _genus0_gamma1p)
    q.add_argument("--z", type=parse_complex, required=True)

    q = _leaf(ps, "exponent", "open/closed/single-valued amplitude "
                              "exponent as exact zeta polynomials",
              _genus0_exponent)
    q.add_argument("--which", choices=["open", "closed", "sv"], required=True)
    q.add_argument("--order", type=int, default=11)
    q.add_argument("--s", type=parse_complex, default=None)
    q.add_argument("--t", type=parse_complex, default=None)

    # eisenstein -------------------------------------------------------
    p = sub.add_parser("eisenstein", help="Eisenstein series and Green function")
    ps = p.add_subparsers(dest="eis_cmd", required=True)

    q = _leaf(ps, "e", "normalized holomorphic Eisenstein series E_k",
              _eisenstein_e)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--tau", type=parse_tau, default=None)
    q.add_argument("--q-order", dest="q_order", type=_parse_q_order, default="auto")

    q = _leaf(ps, "nonholo", "non-holomorphic Eisenstein series E(s, tau)",
              _eisenstein_nonholo)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--tau", type=parse_tau, required=True)

    q = _leaf(ps, "green1", "torus Green function G_1(xi, tau)",
              _eisenstein_green1)
    q.add_argument("--xi", type=parse_complex, required=True)
    q.add_argument("--tau", type=parse_tau, required=True)

    # verify -----------------------------------------------------------
    q = _leaf(sub, "verify", "run the built-in verification suites", _cmd_verify)
    q.add_argument("--suite", choices=["all", *_SUITES], default="all")

    return parser


def _with_config(argv) -> list:
    """``argv`` plus, for each key of the ``--config`` JSON file that argv
    does not give, ``--key=value`` (``--key v1 v2 ...`` for a list), so
    that argparse converts, requires and rejects config keys like flags."""
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
        else:
            continue
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("the file must hold a JSON object")
        extra = []
        for key, value in config.items():
            flag = "--" + key.replace("_", "-")
            if any(t == flag or t.startswith(flag + "=") for t in argv):
                continue
            if isinstance(value, list):
                extra += [flag, *map(str, value)]
            else:
                extra.append(f"{flag}={value}")
        return [*argv, *extra]
    return list(argv)


def run(argv) -> int:
    parser = build_parser()
    try:
        argv = _with_config(argv)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        parser.error(f"bad config file: {exc}")
    args = parser.parse_args(argv)
    try:
        return _cmd_verify(args) if args.command == "verify" else _compute(args)
    except (GuardError, ValueError, ZeroDivisionError, OverflowError) as exc:
        _write({
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "params": _clean_params(args),
        }, None)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
