"""Genus-zero four-point amplitude expansions: the log-Gamma zeta series,
the open-string (Veneziano) and closed-string exponents as exact
zeta-indexed bivariate polynomials, and the single-valued map relating them
(zeta(even) -> 0, zeta(odd) -> 2 zeta(odd))."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from .numkernel import PrecisionCtx, _fixed_cmul, _to_fixed

__all__ = [
    "ZetaLinExponent",
    "gamma1p",
    "veneziano_exponent",
    "closed_exponent",
    "sv_map_exponent",
]


class ZetaLinExponent:
    """Finite sum over n of zeta(n) times an exact rational bivariate
    polynomial in (s, t), stored as {n: {(a, b): Fraction}}."""

    def __init__(self, order: int, coeffs=None):
        self.order = int(order)
        clean: dict[int, dict[tuple, Fraction]] = {}
        for n, poly in (coeffs or {}).items():
            p = {k: v if type(v) is Fraction else Fraction(v) for k, v in poly.items() if v}
            if p:
                clean[int(n)] = p
        self.coeffs = clean

    def coeff(self, n: int, a: int, b: int) -> Fraction:
        return self.coeffs.get(n, {}).get((a, b), Fraction(0))

    def scale(self, c) -> "ZetaLinExponent":
        c = Fraction(c)
        return ZetaLinExponent(
            self.order,
            {n: {k: v * c for k, v in poly.items()} for n, poly in self.coeffs.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, ZetaLinExponent)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __call__(self, s, t, ctx: PrecisionCtx | None = None):
        """Numeric value sum_n zeta(n) * poly_n(s, t), summed in integers.

        poly_n's coefficients are integer numerators over one denominator
        per n. The powers of s and t and each zeta(n) are binary fixed-point
        integers at ``wp`` bits (complex values as (real, imaginary) pairs).
        ``wp`` is the working precision plus guard bits for the numerators'
        bit lengths, the number of terms, and the smallest possible size of a
        lowest-degree monomial when |s| or |t| < 1. The sum becomes an mpf only
        at the end.
        """
        ctx = ctx or PrecisionCtx()
        with ctx.workprec():
            s = mp.mpmathify(s)
            t = mp.mpmathify(t)
            polys = []  # (n, common denominator, monomials, integer numerators)
            for n, poly in sorted(self.coeffs.items()):
                cs = list(poly.values())
                den = math.lcm(*(c.denominator for c in cs))
                nums = [c.numerator * (den // c.denominator) for c in cs]
                polys.append((n, den, list(poly), nums))
            monomials = [k for _, _, ks, _ in polys for k in ks]
            lcm = math.lcm(*(den for _, den, _, _ in polys))
            deg = max(map(max, monomials), default=0)
            wp = mp.mp.prec + 2 * (deg + 1).bit_length() + 4 + max(
                (max(map(abs, vs)).bit_length() for _, _, _, vs in polys), default=0)
            nonzero = [abs(x) for x in (s, t) if x]
            if nonzero:
                wp += max(0, min(map(sum, monomials), default=0) * (1 - mp.mag(min(nonzero))))
            sp, tp = _fixed_powers(s, deg, wp), _fixed_powers(t, deg, wp)
            total_re = total_im = 0  # scaled by lcm * 2^(3 wp)
            for n, den, ks, vs in polys:
                acc_re = acc_im = 0
                for (a, b), v in zip(ks, vs):
                    (sr, si), (tr, ti) = sp[a], tp[b]
                    acc_re += v * (sr * tr - si * ti)
                    acc_im += v * (sr * ti + si * tr)
                z = _to_fixed(mp.zeta(n), wp)[0] * (lcm // den)
                total_re += z * acc_re
                total_im += z * acc_im

            def value(x):
                return mp.ldexp(mp.mpf(x) / lcm, -3 * wp)

            if isinstance(s, mp.mpc) or isinstance(t, mp.mpc):
                return mp.mpc(value(total_re), value(total_im))
            return value(total_re)

    def __repr__(self):
        return f"ZetaLinExponent(order={self.order}, zetas={sorted(self.coeffs)})"


def gamma1p(z, ctx: PrecisionCtx | None = None):
    """Gamma(1+z) for |z| < 1 via exp(-gamma z + sum_{n>=2} zeta(n)(-z)^n/n),
    truncated where the geometric tail bound (zeta(n) -> 1) is below the
    working epsilon."""
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        z = mp.mpmathify(z)
        az = abs(z)
        if az >= 1:
            raise ValueError("requires |z| < 1")
        if az == 0:
            return mp.mpf(1)
        # tail of sum |z|^n / n beyond N is < |z|^(N+1) / ((N+1)(1-|z|))
        N = 2
        while az ** (N + 1) / ((N + 1) * (1 - az)) > ctx.eps / 10:
            N += 1
        acc = -mp.euler * z
        for n in range(2, N + 1):
            acc += mp.zeta(n) * (-z) ** n / n
        return mp.exp(acc)


def _fixed_powers(x, deg: int, wp: int) -> list:
    """x^0..x^deg as (real, imaginary) integer pairs scaled by 2^wp; each
    step truncates by less than one unit of 2^-wp."""
    xr, xi = _to_fixed(x, wp)
    out = [(1 << wp, 0)]
    for _ in range(deg):
        out.append(_fixed_cmul(*out[-1], xr, xi, wp))
    return out


def _binomial_exponent(order: int, sign_rule) -> ZetaLinExponent:
    """sum_n (u_n / n) zeta(n) (s^n + t^n - (s+t)^n) with the integer
    u_n = sign_rule(n) (None to skip n)."""
    coeffs = {}
    for n in range(2, order + 1):
        u = sign_rule(n)
        if u is None:
            continue
        # s^n + t^n - (s+t)^n = -sum_{k=1}^{n-1} C(n,k) s^k t^(n-k)
        coeffs[n] = {(k, n - k): Fraction(-u * math.comb(n, k), n) for k in range(1, n)}
    return ZetaLinExponent(order, coeffs)


def veneziano_exponent(order: int) -> ZetaLinExponent:
    """Exponent of the open-string amplitude
    I(s,t) = Gamma(1+s)Gamma(1+t)/Gamma(1+s+t)
           = exp(sum_{n>=2} (-1)^n zeta(n)/n (s^n + t^n - (s+t)^n))."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return _binomial_exponent(order, lambda n: (-1) ** n)


def closed_exponent(order: int) -> ZetaLinExponent:
    """Exponent of st/(pi(s+t)) * B_C(s,t): only odd zetas appear,
    -2 zeta(n)/n (s^n + t^n - (s+t)^n) for odd n >= 3."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return _binomial_exponent(order, lambda n: -2 if n % 2 == 1 else None)


def sv_map_exponent(e: ZetaLinExponent) -> ZetaLinExponent:
    """Coefficient-wise single-valued map: zeta(even) -> 0,
    zeta(odd) -> 2 zeta(odd)."""
    out = {}
    for n, poly in e.coeffs.items():
        if n % 2 == 0:
            continue
        out[n] = {k: 2 * v for k, v in poly.items()}
    return ZetaLinExponent(e.order, out)
