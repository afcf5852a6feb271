"""Runners for the in-process operation families and their checks against
independent references.

``run(op)`` performs one timed library call.  ``check(op, value, values)``
runs after every operation of the pass has finished (so it warms no cache
that a timed call could use) and returns ``(error, tolerance)``.  ``values``
maps operation ids to results, for relations between operations of one
``group``.

Tolerances are the accuracy the library promises for the call: for
arbitrary-precision paths ``PrecisionCtx`` promises roughly ``digits`` correct
places, so the tolerance is 10^(1-digits) relative (one digit of slack); for
float64 paths it is the error bound that the CLI prints for the same call, or
the bound the function itself returns.  A result off by more than ``GROSS``
times its tolerance is wrong, not merely less accurate than promised.

The library modules are looked up on use, so that a worker imports only what
a user script for its workload would import (scipy stays out of the
q-series workload's set-up).
"""

from __future__ import annotations

import importlib
import itertools
from fractions import Fraction

import mpmath as mp

from ellipsum.numkernel import PrecisionCtx

from workloads import CONE_MATRICES

GROSS = 100


def _lib(name):
    return importlib.import_module(f"ellipsum.{name}")

# ---------------------------------------------------------------------------
# frozen references


def _frac(p, q=1):
    f = Fraction(p, q)
    return mp.mpf(f.numerator) / f.denominator


def _d2_goldens(z):
    """4^l d_l(y) for l = 2..7.  l = 2..6 are the criterion-04 goldens; l = 7
    was identified by PSLQ (integer relations of height <= 3e5) against
    products of odd zeta values at 90 digits."""
    return {
        2: {2: _frac(1, 45), -1: z[3]},
        3: {3: _frac(2, 945), 0: z[3], -2: _frac(3, 4) * z[5]},
        4: {4: _frac(1, 945), 1: _frac(2, 3) * z[3], -1: 10 * z[5],
            -2: -3 * z[3] ** 2, -3: _frac(9, 4) * z[7]},
        5: {5: _frac(4, 18711), 2: _frac(10, 27) * z[3], 0: _frac(95, 6) * z[5],
            -1: 10 * z[3] ** 2, -2: _frac(105, 4) * z[7],
            -3: -_frac(45, 2) * z[3] * z[5], -4: _frac(225, 16) * z[9]},
        6: {6: _frac(53, 729729), 3: _frac(5, 27) * z[3], 1: _frac(140, 9) * z[5],
            0: 25 * z[3] ** 2, -1: _frac(1005, 4) * z[7],
            -2: -135 * z[3] * z[5],
            -3: (90 * z[3] ** 3 + 405 * z[9]) / 2,
            -4: -(675 * z[5] ** 2 + 1350 * z[3] * z[7]) / 8,
            -5: _frac(4725, 32) * z[11]},
        7: {7: _frac(2, 104247), 4: _frac(7, 81) * z[3], 2: _frac(1295, 108) * z[5],
            1: _frac(280, 9) * z[3] ** 2, 0: _frac(6335, 12) * z[7],
            -1: _frac(1365, 2) * z[3] * z[5],
            -2: (22365 * z[9] - 1680 * z[3] ** 3) / 16,
            -3: -(3150 * z[3] * z[7] + 1575 * z[5] ** 2) / 2,
            -4: (86625 * z[11] + 37800 * z[3] ** 2 * z[5]) / 32,
            -5: -33075 * (z[3] * z[9] + z[5] * z[7]) / 16,
            -6: _frac(297675, 128) * z[13]},
    }


def _d3_goldens(z):
    """Criterion-05 goldens of d_{l1,l2,l3}(y)."""
    return {
        (1, 1, 1): {3: _frac(2, 945), -2: _frac(3, 4) * z[5]},
        (1, 1, 2): {4: _frac(2, 14175), 1: z[3] / 45, -1: _frac(5, 12) * z[5],
                    -2: -z[3] ** 2 / 4, -3: _frac(9, 16) * z[7]},
        (1, 2, 2): {5: _frac(8, 467775), 2: _frac(4, 945) * z[3],
                    0: _frac(13, 45) * z[5], -2: _frac(7, 8) * z[7],
                    -3: -z[3] * z[5], -4: _frac(9, 8) * z[9]},
    }


# R(m1,m2,m3; alpha, beta).  (1,1,2;1,0) is the frozen oracle of criterion 07,
# 2 sum_a (H_a + H_{a-1}) / a^4; (2,2,2;1,1) is R_direct at cutoffs 80, 160,
# 320 with the geometric-tail extrapolation of criterion 07 (independent of
# the FFT path).
_R_REFERENCE = {
    (1, 1, 2, 1, 0): 2.460060150243284,
    (2, 2, 2, 1, 1): 2.1281993997822175,
}


def _cone_golden(name):
    ln2, z2, z3, z5 = mp.log(2), mp.zeta(2), mp.zeta(3), mp.zeta(5)
    return {
        "A1": mp.pi ** 2 * ln2 / 8 - 5 * z3 / 16,
        "A2": z3 / 4,
        "A3": _frac(15, 32) * z5 - _frac(9, 4) * z2 * z3 + _frac(9, 4) * ln2 * z2 ** 2,
    }[name]


# ---------------------------------------------------------------------------
# independent mpmath references


def _zeta_k1(k):
    """Euler: zeta(k, 1) = k/2 zeta(k+1) - 1/2 sum_{j=1}^{k-2} zeta(k-j) zeta(j+1)
    (decreasing convention), i.e. the increasing-convention index (1, k)."""
    return k * mp.zeta(k + 1) / 2 - sum(mp.zeta(k - j) * mp.zeta(j + 1)
                                        for j in range(1, k - 1)) / 2


def _s_sum_reference(m, n):
    """S(m, n) for m = 2, 3 in closed form (the MZV formula of S_zagier with
    its single- and double-zeta values taken from mpmath and Euler)."""
    if m == 2:
        return mp.mpf(2) ** (1 - n) * mp.zeta(n + 2)
    if m == 3:
        return 6 * mp.mpf(2) ** (1 - n) * _zeta_k1(n + 2)
    raise ValueError("closed form only for m = 2, 3")


def _theta1(z, tau):
    return mp.jtheta(1, mp.pi * z, mp.exp(1j * mp.pi * tau))


def _kronecker_reference(xi, alpha, tau):
    nome = mp.exp(1j * mp.pi * tau)
    d0 = mp.jtheta(1, 0, nome, 1)
    return mp.pi * d0 * _theta1(xi + alpha, tau) / (_theta1(xi, tau) * _theta1(alpha, tau))


def _green1_reference(xi, tau):
    q = mp.exp(2j * mp.pi * tau)
    eta = mp.exp(2j * mp.pi * tau / 24) * mp.qp(q)
    return (-mp.log(abs(_theta1(xi, tau) / eta) ** 2) / 4
            + mp.pi * mp.im(xi) ** 2 / (2 * mp.im(tau)))


def _nonholo_reference(s, tau):
    """E(s, tau) from the Bessel-K Fourier expansion of the Epstein sum."""
    x, y = mp.re(tau), mp.im(tau)
    const = 2 * mp.zeta(2 * s) * y ** s + (2 * mp.sqrt(mp.pi) * mp.gamma(s - 0.5)
                                           / mp.gamma(s) * mp.zeta(2 * s - 1) * y ** (1 - s))
    pref = 8 * mp.pi ** s * mp.sqrt(y) / mp.gamma(s)
    eps = mp.mpf(10) ** (-mp.mp.dps)
    total = mp.mpf(0)
    for n in itertools.count(1):
        sigma = sum(mp.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
        term = (mp.mpf(n) ** (s - 0.5) * sigma * mp.besselk(s - 0.5, 2 * mp.pi * n * y)
                * mp.cos(2 * mp.pi * n * x))
        total += term
        if abs(term) < eps * abs(const) and n > 2:
            break
    return (const + pref * total) / mp.pi ** s


def _gamma_depth1_reference(n, tau):
    """Regularised primitive F of -G_n / (2 pi i)^(n-1), n = 0 or even >= 4:
    -2 zeta(n) tau / (2 pi i)^(n-1) - 2/(n-1)! sum_N sigma_{n-1}(N)/N q^N,
    and 2 pi i tau for n = 0."""
    if n == 0:
        return 2j * mp.pi * tau
    q = mp.exp(2j * mp.pi * tau)
    total = -2 * mp.zeta(n) * tau / (2j * mp.pi) ** (n - 1)
    eps = mp.mpf(10) ** (-mp.mp.dps)
    for N in itertools.count(1):
        sigma = sum(d ** (n - 1) for d in range(1, N + 1) if N % d == 0)
        term = 2 * mp.mpf(sigma) / N * q ** N / mp.factorial(n - 1)
        total -= term
        if abs(term) < eps and N > n:
            return total


def _length_one(n):
    """A(n) = 2 pi i B_n / n! for even n; odd n vanish (B_1 included)."""
    return 2j * mp.pi * mp.bernoulli(n) / mp.factorial(n) if n % 2 == 0 else mp.mpf(0)


def _eis_E_reference(k, tau):
    """-B_k/(2 k!) + sum_n n^(k-1) q^n / (1 - q^n) (Lambert series)."""
    q = mp.exp(2j * mp.pi * tau)
    total = -mp.bernoulli(k) / (2 * mp.factorial(k))
    eps = mp.mpf(10) ** (-mp.mp.dps)
    for n in itertools.count(1):
        term = mp.mpf(n) ** (k - 1) * q ** n / (1 - q ** n)
        total += term
        if abs(term) < eps and n > k:
            return total


# ---------------------------------------------------------------------------
# helpers


def _ctx(op) -> PrecisionCtx:
    return PrecisionCtx(digits=op.get("digits", 30))


def _rel_tol(op, ref) -> mp.mpf:
    return mp.mpf(10) ** (1 - op["digits"]) * max(1, abs(ref))


def _tau(op, image="tau"):
    tau = mp.mpc(mp.mpf(op["tau"][0]), mp.mpf(op["tau"][1]))
    return {"tau": tau, "T": tau + 1, "S": -1 / tau}[image]


def _pt(pair):
    return mp.mpc(mp.mpf(pair[0]), mp.mpf(pair[1]))


def _k4():
    edges = [(i, j, 1) for i, j in itertools.combinations(range(4), 2)]
    return _lib("mgf").MultiGraph.from_edges(4, edges)


def _laurent_error(poly, golden, scale=1):
    exps = set(poly.exponents) | set(golden)
    return max(abs(scale * poly.coeff(e) - golden.get(e, 0)) for e in exps)


def _genus0_exponent(which, order):
    if which == "open":
        return _lib("genus0").veneziano_exponent(order)
    if which == "closed":
        return _lib("genus0").closed_exponent(order)
    return _lib("genus0").sv_map_exponent(_lib("genus0").veneziano_exponent(order))


def _group(op, values, ops_by_group):
    return [(o, values.get(o["id"])) for o in ops_by_group[op["group"]]]


# ---------------------------------------------------------------------------
# runners: one library call each, at the operation's precision


def run(op):
    family = op["family"]
    ctx = _ctx(op)
    with ctx.workprec():
        if family == "d2pt":
            return _lib("mgf").d2pt(op["l"], ctx)
        if family == "mzv":
            return _lib("numkernel").mzv(tuple(op["idx"]), ctx)
        if family == "S_zagier":
            return _lib("mgf").S_zagier(op["m"], op["n"], ctx)
        if family == "sv_mzv":
            return _lib("numkernel").sv_mzv(tuple(op["idx"]), ctx)
        if family == "genus0":
            e = _genus0_exponent(op["which"], op["order"])
            return e(mp.mpf(op["s"]), mp.mpf(op["t"]), ctx)
        if family == "d3pt":
            return _lib("mgf").d3pt(*op["l"], ctx=ctx, cutoff=op["cutoff"])
        if family == "R_structured":
            return _lib("mgf").R_structured(*op["m"], op["alpha"], op["beta"],
                                            cutoff=op["cutoff"], ctx=ctx)
        if family == "S_direct":
            return _lib("mgf").S_direct(op["m"], op["n"], op["cutoff"])
        if family == "D_lattice":
            g = _lib("mgf").MultiGraph.banana(3) if op["graph"] == "banana:3" else _k4()
            return _lib("mgf").D_lattice(g, _tau(op, op["image"]), op["M"], ctx, with_bound=True)
        if family == "zeta_A":
            A = _lib("conical").ConeMatrix(CONE_MATRICES[op["matrix"]])
            return _lib("conical").zeta_A(A, cutoff=op["cutoff"], ctx=ctx, with_bound=True)
        if family == "zeta_A_integral":
            A = _lib("conical").ConeMatrix(CONE_MATRICES[op["matrix"]])
            return _lib("conical").zeta_A_integral(A, samples=op["samples"], ctx=ctx,
                                                   with_error=True)
        if family == "A_len1_const":
            return _lib("emzv").A_depth1(op["n"], 1, _tau(op), ctx)
        if family == "A_depth1_S":
            return _lib("emzv").A_depth1(op["n"], op["r"], _tau(op, "S"), ctx)
        if family == "B_depth1":
            return _lib("emzv").B_depth1(op["n"], op["r"], _tau(op), ctx)
        if family == "A_len2":
            return _lib("emzv").A_len2(op["n1"], op["n2"], _tau(op), ctx)
        if family == "hatA":
            return _lib("emzv").hatA(op["r"], _tau(op), ctx, form=op["form"])
        if family == "appendixB":
            return _lib("emzv").appendixB_vectors(op["which"], _tau(op, op["image"]), ctx)
        if family == "eisint_gamma":
            tau = _tau(op)
            series = _lib("eisint").gamma(op["nvec"], _lib("qseries").auto_q_order(tau, ctx))
            return _lib("qseries").eval_at(series, tau, ctx)
        if family == "eis_E":
            tau = _tau(op)
            series = _lib("eisenstein").eis_E(op["k"], _lib("qseries").auto_q_order(tau, ctx))
            return _lib("qseries").eval_at(series, tau, ctx)
        if family == "kronecker_F":
            return _lib("eisenstein").kronecker_F(_pt(op["xi"]), _pt(op["alpha"]), _tau(op),
                                                  ctx)
        if family == "green1":
            return _lib("eisenstein").green1(_pt(op["xi"]), _tau(op), ctx)
        if family == "eis_nonholo":
            return _lib("eisenstein").eis_nonholo(op["s"], _tau(op), ctx)
    raise ValueError(f"unknown operation family {family!r}")


# ---------------------------------------------------------------------------
# checks


def check(op, value, values, ops_by_group):
    """(error, tolerance) of one finished operation."""
    family = op["family"]
    digits = op.get("digits", 30)
    with mp.workdps(digits + 20):
        if family == "d2pt":
            z = {k: mp.zeta(k) for k in (3, 5, 7, 9, 11, 13)}
            golden = _d2_goldens(z)[op["l"]]
            return (_laurent_error(value, golden, 4 ** op["l"]),
                    _rel_tol(op, max(abs(c) for c in golden.values())))
        if family == "mzv":
            idx = tuple(op["idx"])
            if len(idx) == 1:
                ref = mp.zeta(idx[0])
                return abs(value - ref), _rel_tol(op, ref)
            # stuffle: zeta(a) zeta(rest) = sum over the stuffle product, with
            # this operation's value in the place of its own index
            ctx = _ctx(op)
            head, rest = idx[:1], idx[1:]
            lhs = mp.zeta(head[0]) * _lib("numkernel").mzv(rest, ctx)
            rhs = sum(c * (value if tuple(k) == idx else _lib("numkernel").mzv(k, ctx))
                      for k, c in _lib("numkernel").stuffle(head, rest).items())
            return abs(lhs - rhs), _rel_tol(op, lhs)
        if family == "S_zagier":
            ref = _s_sum_reference(op["m"], op["n"])
            return abs(value - ref), _rel_tol(op, ref)
        if family == "sv_mzv":
            idx = tuple(op["idx"])
            z3, z5 = mp.zeta(3), mp.zeta(5)
            if len(idx) == 1:
                ref = 0 if idx[0] % 2 == 0 else 2 * mp.zeta(idx[0])
            elif idx == (3, 5):
                ref = -10 * z3 * z5
            else:
                # catalogued relation; its MZVs are themselves stuffle-checked
                ctx, mzv = _ctx(op), _lib("numkernel").mzv
                ref = 2 * mzv((3, 5, 3), ctx) - 2 * z3 * mzv((3, 5), ctx) - 10 * z3 ** 2 * z5
            return abs(value - ref), _rel_tol(op, ref)
        if family == "genus0":
            s, t = mp.mpf(op["s"]), mp.mpf(op["t"])
            lg = mp.loggamma
            ref = lg(1 + s) + lg(1 + t) - lg(1 + s + t)
            if op["which"] != "open":
                ref += lg(1 - s - t) - lg(1 - s) - lg(1 - t)
            x = max(s, t, s + t)
            truncation = 6 * x ** (op["order"] + 1) / (1 - x)
            return abs(value - ref), _rel_tol(op, ref) + truncation
        if family == "d3pt":
            z = {k: mp.zeta(k) for k in (3, 5, 7, 9)}
            golden = _d3_goldens(z)[tuple(op["l"])]
            # the bound the CLI prints for laurent3
            return _laurent_error(value, golden), 10.0 / op["cutoff"] ** 2
        if family == "R_structured":
            ref = _R_REFERENCE[(*op["m"], op["alpha"], op["beta"])]
            return abs(value - ref), 10.0 / op["cutoff"] ** 2
        if family == "S_direct":
            ref = _s_sum_reference(op["m"], op["n"])
            return abs(value - ref), 10.0 / op["cutoff"]
        if family == "D_lattice":
            val, bound = value
            if op["graph"] == "banana:3":
                ref = _nonholo_reference(3, _tau(op, op["image"])) + mp.zeta(3)
                return abs(val - ref), bound
            # K4 has no closed form: modular invariance across tau, S tau, T tau
            group = _group(op, values, ops_by_group)
            base = next(v for o, v in group if o["image"] == "tau")
            if base is None:
                return None, None
            others = [v for o, v in group if o["image"] != "tau" and v is not None]
            if op["image"] != "tau":
                others = [value]
            return (max(abs(v[0] - base[0]) for v in others),
                    max(v[1] + base[1] for v in others))
        if family == "zeta_A":
            val, bound = value
            return abs(val - _cone_golden(op["matrix"])), bound
        if family == "zeta_A_integral":
            val, err = value
            # four standard errors of the batch mean
            return abs(val - _cone_golden(op["matrix"])), 4 * err
        if family == "A_len1_const":
            ref = _length_one(op["n"])
            return abs(value - ref), _rel_tol(op, ref)
        if family in ("A_depth1_S", "B_depth1", "hatA"):
            a, b = (v for _, v in _group(op, values, ops_by_group))
            if a is None or b is None:
                return None, None
            return abs(a - b), _rel_tol(op, max(abs(a), abs(b)))
        if family == "A_len2":
            (_, a), (_, b) = _group(op, values, ops_by_group)
            if a is None or b is None:
                return None, None
            n1, n2 = op["n1"], op["n2"]
            # shuffle with the length-one constants A(n) = 2 pi i B_n / n!
            # (zero for odd n)
            a1 = [_length_one(n) for n in (n1, n2)]
            lhs = a1[0] * a1[1]
            return abs(lhs - (a + b)), _rel_tol(op, max(abs(lhs), abs(a), abs(b)))
        if family == "appendixB":
            return _vector_check(op, values, ops_by_group)
        if family == "eisint_gamma":
            tau = _tau(op)
            if len(op["nvec"]) == 1:
                ref = _gamma_depth1_reference(op["nvec"][0], tau)
                return abs(value - ref), _rel_tol(op, ref)
            # shuffle: gamma(a) gamma(b) = gamma(a, b) + gamma(b, a)
            a, b = op["nvec"]
            pair = [v for o, v in _group(op, values, ops_by_group) if len(o["nvec"]) == 2]
            if any(v is None for v in pair):
                return None, None
            lhs = _gamma_depth1_reference(a, tau) * _gamma_depth1_reference(b, tau)
            return abs(lhs - sum(pair)), _rel_tol(op, max(abs(lhs), *map(abs, pair)))
        if family == "eis_E":
            ref = _eis_E_reference(op["k"], _tau(op))
            return abs(value - ref), _rel_tol(op, ref)
        if family == "kronecker_F":
            ref = _kronecker_reference(_pt(op["xi"]), _pt(op["alpha"]), _tau(op))
            return abs(value - ref), _rel_tol(op, ref)
        if family == "green1":
            ref = _green1_reference(_pt(op["xi"]), _tau(op))
            return abs(value - ref), _rel_tol(op, ref)
        if family == "eis_nonholo":
            ref = _nonholo_reference(op["s"], _tau(op))
            return abs(value - ref), _rel_tol(op, ref)
    raise ValueError(f"unknown operation family {family!r}")


def _vector_check(op, values, ops_by_group):
    """Criterion-11 relation: (c tau + d)^(-w) V(gamma tau) = M_gamma V(tau)
    for gamma = T and S."""
    by_image = {o["image"]: v for o, v in _group(op, values, ops_by_group)}
    if any(v is None for v in by_image.values()):
        return None, None
    tau = _tau(op)
    w = _lib("emzv").vector_weight(op["which"])
    worst, scale = mp.mpf(0), mp.mpf(1)
    images = [op["image"]] if op["image"] != "tau" else ["T", "S"]
    for image in images:
        jac = tau if image == "S" else mp.mpc(1)
        M = _lib("emzv").appendixB_matrices(op["which"], image)
        for i in range(6):
            rhs = sum(_frac(M[i][j].numerator, M[i][j].denominator) * by_image["tau"][j]
                      for j in range(6))
            worst = max(worst, abs(jac ** (-w) * by_image[image][i] - rhs))
            scale = max(scale, abs(rhs))
    return worst, _rel_tol(op, scale)


def digest(value) -> str:
    """A stable text form of a result, for the bit-identity check between
    passes."""
    if hasattr(value, "coeffs"):
        return repr(sorted((k, repr(v)) for k, v in value.coeffs.items()))
    return repr(value)
