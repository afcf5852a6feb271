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
import dataclasses
import json
import math
import re
import sys
import time
from fractions import Fraction

import mpmath as mp

from . import eisenstein, emzv, genus0, mgf
from .laurent import LaurentPoly
from .numkernel import PrecisionCtx, bernoulli_number
from .qseries import GuardError, QTauSeries, eval_at

__all__ = ["JobSpec", "run", "main"]


@dataclasses.dataclass
class JobSpec:
    """One CLI invocation: subcommand, raw parameters, precision, series
    truncation, lattice/sum cutoff and optional output path."""

    command: str
    parameters: dict
    precision_digits: int = 30
    q_order: int | str = "auto"
    cutoff: int | None = None
    output: str | None = None


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


def parse_matrix(text: str):
    """Parse a conical matrix given inline as JSON rows or as @path."""
    from . import conical  # lazy: conical pulls in scipy.special
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    rows = json.loads(text)
    return conical.ConeMatrix(rows)


def parse_graph(spec: str) -> mgf.MultiGraph:
    """Parse ``cycle:N`` / ``banana:L`` / inline edge-list JSON / @path."""
    if spec.startswith("cycle:"):
        return mgf.MultiGraph.cycle(int(spec[6:]))
    if spec.startswith("banana:"):
        return mgf.MultiGraph.banana(int(spec[7:]))
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fh:
            spec = fh.read()
    return mgf.MultiGraph.from_json(spec)


# ---------------------------------------------------------------------------
# serialization helpers (decimal strings only, never binary floats)
# ---------------------------------------------------------------------------

def _num_str(x, digits: int) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return mp.nstr(mp.mpf(x), digits, strip_zeros=False)


def _value_json(x, digits: int):
    """Real -> decimal string; complex -> {"re", "im"} string pair."""
    if isinstance(x, (Fraction, int)):
        return _num_str(x, digits)
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

def _emit(kind: str, payload, *, error_bound, digits: int, params: dict,
          t0: float, output: str | None) -> int:
    doc = {
        kind: payload,
        "error_bound": _num_str(error_bound, 6) if error_bound is not None else None,
        "precision_digits": digits,
        "params": params,
        "elapsed_ms": round(1000.0 * (time.monotonic() - t0), 3),
    }
    text = json.dumps(doc, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _clean_params(args: argparse.Namespace) -> dict:
    skip = {"func", "config", "output"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None:
            continue
        out[k] = str(v) if isinstance(v, (mp.mpf, mp.mpc)) else v
    return out


def _ctx(args) -> PrecisionCtx:
    return PrecisionCtx(digits=getattr(args, "prec", 30) or 30)


def _q_order_arg(args):
    q = getattr(args, "q_order", "auto")
    return None if q in (None, "auto") else int(q)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_emzv(args) -> int:
    t0 = time.monotonic()
    ctx = _ctx(args)
    params = _clean_params(args)
    with ctx.workprec():
        if args.emzv_cmd == "a":
            if args.tau is None:
                val = emzv.A_depth1(args.n, args.zeros + 1)
            else:
                val = emzv.A_depth1(args.n, args.zeros + 1, args.tau, ctx,
                                    q_order=_q_order_arg(args))
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=ctx.eps, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.emzv_cmd == "b":
            val = emzv.B_depth1(args.n, args.zeros + 1, args.tau, ctx,
                                q_order=_q_order_arg(args))
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=ctx.eps, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.emzv_cmd == "binf":
            poly = emzv.B_inf_depth1(args.n, args.zeros)
            return _emit("laurent", _laurent_json(poly, ctx.digits),
                         error_bound=ctx.eps, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.emzv_cmd == "alen2":
            val = emzv.A_len2(args.n1, args.n2, args.tau, ctx)
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=ctx.eps, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.emzv_cmd == "hata":
            val = emzv.hatA(args.r, args.tau, ctx, form=args.form)
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=ctx.eps, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
    raise AssertionError("unreachable")


def _cmd_mgf(args) -> int:
    t0 = time.monotonic()
    ctx = _ctx(args)
    params = _clean_params(args)
    with ctx.workprec():
        if args.mgf_cmd == "laurent2":
            poly = mgf.d2pt(args.l[0], ctx)
            return _emit("laurent", _laurent_json(poly, ctx.digits),
                         error_bound=ctx.eps, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.mgf_cmd == "laurent3":
            l1, l2, l3 = args.l
            poly = mgf.d3pt(l1, l2, l3, ctx, cutoff=args.cutoff)
            # structured-sum truncation dominates: empirical O(cutoff^-2) scale
            bound = 10.0 / args.cutoff**2
            return _emit("laurent", _laurent_json(poly, ctx.digits),
                         error_bound=bound, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.mgf_cmd == "dlattice":
            g = parse_graph(args.graph)
            val, bound = mgf.D_lattice(g, args.tau, args.M, ctx, with_bound=True)
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=bound, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.mgf_cmd == "s":
            if args.method == "zagier":
                val = mgf.S_zagier(args.m, args.n, ctx)
                bound = ctx.eps
            else:
                val = mgf.S_direct(args.m, args.n, args.cutoff)
                bound = 10.0 / args.cutoff
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=bound, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.mgf_cmd == "r":
            m1, m2, m3 = args.m
            if args.method == "structured":
                val = mgf.R_structured(m1, m2, m3, args.alpha, args.beta,
                                       cutoff=args.cutoff, ctx=ctx)
                bound = 10.0 / args.cutoff**2
            else:
                val = mgf.R_direct(m1, m2, m3, args.alpha, args.beta, args.cutoff)
                bound = 10.0 / args.cutoff
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=bound, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
    raise AssertionError("unreachable")


def _cmd_conical(args) -> int:
    from . import conical

    t0 = time.monotonic()
    ctx = _ctx(args)
    params = _clean_params(args)
    with ctx.workprec():
        if args.conical_cmd == "zeta":
            A = parse_matrix(args.matrix)
            val, bound = conical.zeta_A(A, cutoff=args.cutoff, ctx=ctx,
                                        with_bound=True)
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=bound, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.conical_cmd == "integral":
            A = parse_matrix(args.matrix)
            val, err = conical.zeta_A_integral(A, samples=args.samples, ctx=ctx,
                                               with_error=True)
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=err, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.conical_cmd == "c1s":
            A = parse_matrix(args.matrix)
            ok, witness = conical.is_C1s(A, with_witness=True)
            payload = {"c1s": bool(ok),
                       "witness": list(witness) if witness is not None else None}
            return _emit("value", payload, error_bound=0, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.conical_cmd == "tu":
            A = parse_matrix(args.matrix)
            return _emit("value", {"totally_unimodular": bool(conical.is_TU(A))},
                         error_bound=0, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
    raise AssertionError("unreachable")


def _cmd_genus0(args) -> int:
    t0 = time.monotonic()
    ctx = _ctx(args)
    params = _clean_params(args)
    with ctx.workprec():
        if args.genus0_cmd == "gamma1p":
            val = genus0.gamma1p(args.z, ctx)
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=ctx.eps, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.genus0_cmd == "exponent":
            if args.which == "open":
                e = genus0.veneziano_exponent(args.order)
            elif args.which == "closed":
                e = genus0.closed_exponent(args.order)
            else:
                e = genus0.sv_map_exponent(genus0.veneziano_exponent(args.order))
            if args.s is not None and args.t is not None:
                val = e(args.s, args.t, ctx)
                return _emit("value", _value_json(val, ctx.digits),
                             error_bound=ctx.eps, digits=ctx.digits,
                             params=params, t0=t0, output=args.output)
            return _emit("series", _exponent_json(e), error_bound=0,
                         digits=ctx.digits, params=params, t0=t0,
                         output=args.output)
    raise AssertionError("unreachable")


def _cmd_eisenstein(args) -> int:
    t0 = time.monotonic()
    ctx = _ctx(args)
    params = _clean_params(args)
    with ctx.workprec():
        if args.eis_cmd == "e":
            q_order = _q_order_arg(args)
            if q_order is None:
                from .qseries import auto_q_order
                q_order = (auto_q_order(args.tau, ctx) if args.tau is not None
                           else 10)
            series = eisenstein.eis_E(args.k, q_order)
            if args.tau is None:
                return _emit("series", _series_json(series, ctx.digits),
                             error_bound=None, digits=ctx.digits,
                             params=params, t0=t0, output=args.output)
            val = eval_at(series, args.tau, ctx)
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=ctx.eps, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.eis_cmd == "nonholo":
            val = eisenstein.eis_nonholo(args.s, args.tau, ctx, mode=args.mode,
                                         M=args.M)
            bound = (ctx.eps if args.mode == "cusp"
                     else 8.0 * math.log(args.M + 1) / args.M ** max(2 * args.s - 2, 1))
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=bound, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
        if args.eis_cmd == "green1":
            val = eisenstein.green1(args.xi, args.tau, ctx)
            return _emit("value", _value_json(val, ctx.digits),
                         error_bound=ctx.eps, digits=ctx.digits,
                         params=params, t0=t0, output=args.output)
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _verify_emzv(ctx: PrecisionCtx) -> list:
    checks = []
    tau = mp.mpc("0.2", "1.1")
    with ctx.workprec():
        lhs = emzv.A_len1(4)
        b4 = bernoulli_number(4)
        rhs = 2j * mp.pi * mp.mpf(b4.numerator) / b4.denominator / 24
        checks.append(("length-one constant n=4", abs(lhs - rhs), 1e-25))
        a = emzv.A_depth1(3, 2, -1 / tau, ctx)
        b = emzv.B_depth1(3, 2, tau, ctx)
        checks.append(("depth-one modularity (3,2)", abs(a - b), 1e-20))
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
    from . import conical

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
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--prec", type=int, default=30,
                   help="target precision in decimal digits")
    p.add_argument("--output", default=None,
                   help="also write the JSON result to this path")
    p.add_argument("--config", default=None,
                   help="JSON file whose keys mirror the long flags")


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

    q = ps.add_parser("a", help="depth-one A-value A(n, 0^zeros; tau)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--zeros", type=int, default=0)
    q.add_argument("--tau", type=parse_tau, default=None)
    q.add_argument("--q-order", dest="q_order", default="auto")
    _add_common(q)
    q.set_defaults(func=_cmd_emzv)

    q = ps.add_parser("b", help="depth-one B-value B(n, 0^zeros; tau)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--zeros", type=int, default=0)
    q.add_argument("--tau", type=parse_tau, required=True)
    q.add_argument("--q-order", dest="q_order", default="auto")
    _add_common(q)
    q.set_defaults(func=_cmd_emzv)

    q = ps.add_parser("binf", help="cusp Laurent polynomial of the depth-one "
                                   "B-value (exact tau-polynomial)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--zeros", type=int, default=0)
    _add_common(q)
    q.set_defaults(func=_cmd_emzv)

    q = ps.add_parser("alen2", help="length-two value A(n1, n2; tau)")
    q.add_argument("--n1", type=int, required=True)
    q.add_argument("--n2", type=int, required=True)
    q.add_argument("--tau", type=parse_tau, required=True)
    _add_common(q)
    q.set_defaults(func=_cmd_emzv)

    q = ps.add_parser("hata", help="subtracted value hat-A_{1,r}(tau)")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--tau", type=parse_tau, required=True)
    q.add_argument("--form", choices=["direct", "eichler"], default="direct")
    _add_common(q)
    q.set_defaults(func=_cmd_emzv)

    # mgf --------------------------------------------------------------
    p = sub.add_parser("mgf", help="modular graph functions")
    ps = p.add_subparsers(dest="mgf_cmd", required=True)

    q = ps.add_parser("laurent2", help="zero-mode Laurent polynomial d_l(y) "
                                       "of the two-vertex banana graph")
    q.add_argument("--l", type=int, nargs=1, required=True)
    _add_common(q)
    q.set_defaults(func=_cmd_mgf)

    q = ps.add_parser("laurent3", help="zero-mode Laurent polynomial "
                                       "d_{l1,l2,l3}(y) of the three-vertex graph")
    q.add_argument("--l", type=int, nargs=3, required=True)
    q.add_argument("--cutoff", type=int, default=2000)
    _add_common(q)
    q.set_defaults(func=_cmd_mgf)

    q = ps.add_parser("dlattice", help="truncated lattice sum of a multigraph")
    q.add_argument("--graph", required=True,
                   help="cycle:N | banana:L | inline JSON | @path")
    q.add_argument("--tau", type=parse_tau, required=True)
    q.add_argument("--M", type=int, default=100)
    _add_common(q)
    q.set_defaults(func=_cmd_mgf)

    q = ps.add_parser("s", help="constrained two-block sum S(m, n)")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--method", choices=["zagier", "direct"], default="zagier")
    q.add_argument("--cutoff", type=int, default=20000)
    _add_common(q)
    q.set_defaults(func=_cmd_mgf)

    q = ps.add_parser("r", help="constrained three-block sum "
                                "R(m1, m2, m3; alpha, beta)")
    q.add_argument("--m", type=int, nargs=3, required=True)
    q.add_argument("--alpha", type=int, required=True)
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--method", choices=["structured", "direct"],
                   default="structured")
    q.add_argument("--cutoff", type=int, default=2000)
    _add_common(q)
    q.set_defaults(func=_cmd_mgf)

    # conical ----------------------------------------------------------
    p = sub.add_parser("conical", help="conical sums over linear forms")
    ps = p.add_subparsers(dest="conical_cmd", required=True)

    q = ps.add_parser("zeta", help="nested-series evaluation of zeta(A)")
    q.add_argument("--matrix", required=True, help="JSON rows or @path")
    q.add_argument("--cutoff", type=int, default=200)
    _add_common(q)
    q.set_defaults(func=_cmd_conical)

    q = ps.add_parser("integral", help="quasi-Monte-Carlo integral "
                                       "representation of zeta(A)")
    q.add_argument("--matrix", required=True, help="JSON rows or @path")
    q.add_argument("--samples", type=int, default=1 << 16)
    _add_common(q)
    q.set_defaults(func=_cmd_conical)

    q = ps.add_parser("c1s", help="consecutive-ones test with witness order")
    q.add_argument("--matrix", required=True, help="JSON rows or @path")
    _add_common(q)
    q.set_defaults(func=_cmd_conical)

    q = ps.add_parser("tu", help="total-unimodularity test")
    q.add_argument("--matrix", required=True, help="JSON rows or @path")
    _add_common(q)
    q.set_defaults(func=_cmd_conical)

    # genus0 -----------------------------------------------------------
    p = sub.add_parser("genus0", help="genus-zero amplitude expansions")
    ps = p.add_subparsers(dest="genus0_cmd", required=True)

    q = ps.add_parser("gamma1p", help="Gamma(1+z) from its zeta exponential")
    q.add_argument("--z", type=parse_complex, required=True)
    _add_common(q)
    q.set_defaults(func=_cmd_genus0)

    q = ps.add_parser("exponent", help="open/closed/single-valued amplitude "
                                       "exponent as exact zeta polynomials")
    q.add_argument("--which", choices=["open", "closed", "sv"], required=True)
    q.add_argument("--order", type=int, default=11)
    q.add_argument("--s", type=parse_complex, default=None)
    q.add_argument("--t", type=parse_complex, default=None)
    _add_common(q)
    q.set_defaults(func=_cmd_genus0)

    # eisenstein -------------------------------------------------------
    p = sub.add_parser("eisenstein", help="Eisenstein series and Green function")
    ps = p.add_subparsers(dest="eis_cmd", required=True)

    q = ps.add_parser("e", help="normalized holomorphic Eisenstein series E_k")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--tau", type=parse_tau, default=None)
    q.add_argument("--q-order", dest="q_order", default="auto")
    _add_common(q)
    q.set_defaults(func=_cmd_eisenstein)

    q = ps.add_parser("nonholo", help="non-holomorphic Eisenstein series E(s, tau)")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--tau", type=parse_tau, required=True)
    q.add_argument("--mode", choices=["cusp", "lattice"], default="cusp")
    q.add_argument("--M", type=int, default=100)
    _add_common(q)
    q.set_defaults(func=_cmd_eisenstein)

    q = ps.add_parser("green1", help="torus Green function G_1(xi, tau)")
    q.add_argument("--xi", type=parse_complex, required=True)
    q.add_argument("--tau", type=parse_tau, required=True)
    _add_common(q)
    q.set_defaults(func=_cmd_eisenstein)

    # verify -----------------------------------------------------------
    q = sub.add_parser("verify", help="run the built-in verification suites")
    q.add_argument("--suite", choices=["all", *_SUITES], default="all")
    _add_common(q)
    q.set_defaults(func=_cmd_verify)

    return parser


def _load_config(argv) -> dict:
    """Pre-scan argv for --config and return its JSON contents (flag keys
    use underscores, mirroring the long options)."""
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
        else:
            continue
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        out = {}
        for k, v in raw.items():
            k = k.replace("-", "_")
            if k == "tau":
                v = parse_tau(v)
            elif k in ("z", "s_val", "xi"):
                v = parse_complex(v)
            out[k] = v
        return out
    return {}


def run(argv) -> int:
    parser = build_parser()
    try:
        config = _load_config(argv)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"bad config file: {exc}")
    args = parser.parse_args(argv)
    for k, v in config.items():
        flag = "--" + k.replace("_", "-")
        explicit = any(tok == flag or tok.startswith(flag + "=") for tok in argv)
        if not explicit and hasattr(args, k):
            setattr(args, k, v)
    try:
        return args.func(args)
    except (GuardError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(json.dumps({
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "params": _clean_params(args),
        }, indent=2))
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
