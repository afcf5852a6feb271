"""Genus-zero four-point amplitude expansions: the log-Gamma zeta series,
the open-string (Veneziano) and closed-string exponents as exact
zeta-indexed bivariate polynomials, and the single-valued map relating them
(zeta(even) -> 0, zeta(odd) -> 2 zeta(odd))."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from .numkernel import PrecisionCtx

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
        """Numeric value sum_n zeta(n) * poly_n(s, t)."""
        ctx = ctx or PrecisionCtx()
        with ctx.workprec():
            s = mp.mpmathify(s)
            t = mp.mpmathify(t)
            deg = max((max(k) for poly in self.coeffs.values() for k in poly), default=0)
            sp = [s**a for a in range(deg + 1)]
            tp = [t**b for b in range(deg + 1)]
            total = mp.mpf(0)
            for n, poly in sorted(self.coeffs.items()):
                z = mp.zeta(n)
                total += z * sum(c * sp[a] * tp[b] for (a, b), c in poly.items())
            return total

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


def _binomial_exponent(order: int, sign_rule) -> ZetaLinExponent:
    """sum_n c_n zeta(n) (s^n + t^n - (s+t)^n) with c_n = sign_rule(n)
    (returning a Fraction or None to skip n)."""
    coeffs = {}
    for n in range(2, order + 1):
        c = sign_rule(n)
        if c is None:
            continue
        poly = {}
        # s^n + t^n - (s+t)^n = -sum_{k=1}^{n-1} C(n,k) s^k t^(n-k)
        for k in range(1, n):
            poly[(k, n - k)] = -c * math.comb(n, k)
        coeffs[n] = poly
    return ZetaLinExponent(order, coeffs)


def veneziano_exponent(order: int) -> ZetaLinExponent:
    """Exponent of the open-string amplitude
    I(s,t) = Gamma(1+s)Gamma(1+t)/Gamma(1+s+t)
           = exp(sum_{n>=2} (-1)^n zeta(n)/n (s^n + t^n - (s+t)^n))."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return _binomial_exponent(order, lambda n: Fraction((-1) ** n, n))


def closed_exponent(order: int) -> ZetaLinExponent:
    """Exponent of st/(pi(s+t)) * B_C(s,t): only odd zetas appear,
    -2 zeta(n)/n (s^n + t^n - (s+t)^n) for odd n >= 3."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return _binomial_exponent(
        order, lambda n: Fraction(-2, n) if n % 2 == 1 else None
    )


def sv_map_exponent(e: ZetaLinExponent) -> ZetaLinExponent:
    """Coefficient-wise single-valued map: zeta(even) -> 0,
    zeta(odd) -> 2 zeta(odd)."""
    out = {}
    for n, poly in e.coeffs.items():
        if n % 2 == 0:
            continue
        out[n] = {k: 2 * v for k, v in poly.items()}
    return ZetaLinExponent(e.order, out)
