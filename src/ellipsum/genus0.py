"""Genus-zero four-point amplitude expansions: the log-Gamma zeta series,
the open-string (Veneziano) and closed-string exponents as exact
zeta-indexed bivariate polynomials, and the single-valued map relating them
(zeta(even) -> 0, zeta(odd) -> 2 zeta(odd))."""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from types import MappingProxyType

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
    polynomial in (s, t).

    Stored as integer rows ``rows = {n: (den, {(a, b): numerator})}``: the
    coefficient of zeta(n) s^a t^b is numerator / den, with den > 0 and
    gcd(den, numerators) = 1, so den is the lcm of the reduced denominators
    and equal exponents have equal rows. ``coeffs`` (a read-only view) and
    ``coeff`` rebuild the coefficients as Fractions.

    The constructor takes ``{n: {(a, b): coefficient}}``, each coefficient
    an int, a Fraction or anything ``Fraction`` takes exactly; every n must
    be an integer >= 2 (zeta(n) converges) and every (a, b) a pair of
    integers >= 0, else it raises ValueError naming the entry.
    """

    def __init__(self, order: int, coeffs=None):
        rows = {}
        for n, poly in (coeffs or {}).items():
            if not isinstance(n, numbers.Integral) or n < 2:
                raise ValueError(f"zeta index must be an integer >= 2, got {n!r}")
            p = {}
            for k, v in poly.items():
                if not (isinstance(k, tuple) and len(k) == 2
                        and all(isinstance(x, numbers.Integral) and x >= 0 for x in k)):
                    raise ValueError(f"monomial exponents of zeta({n}) must be a pair of "
                                     f"integers >= 0, got {k!r}")
                if v:
                    p[int(k[0]), int(k[1])] = v if type(v) in (int, Fraction) else Fraction(v)
            if p:
                den = math.lcm(*(c.denominator for c in p.values()))
                rows[int(n)] = (den, {k: c.numerator * (den // c.denominator)
                                      for k, c in p.items()})
        self.order = int(order)
        self.rows = rows

    @classmethod
    def _from_rows(cls, order: int, rows: dict) -> "ZetaLinExponent":
        """An exponent on rows that are already reduced, without checks."""
        e = cls.__new__(cls)
        e.order, e.rows = order, rows
        return e

    @property
    def coeffs(self) -> MappingProxyType:
        """{n: {(a, b): Fraction}}, rebuilt from the rows as a read-only view:
        writing to it raises TypeError (change ``rows`` or build a new
        exponent instead)."""
        return MappingProxyType({
            n: MappingProxyType({k: Fraction(v, den) for k, v in nums.items()})
            for n, (den, nums) in self.rows.items()})

    def coeff(self, n: int, a: int, b: int) -> Fraction:
        den, nums = self.rows.get(n, (1, {}))
        return Fraction(nums.get((a, b), 0), den)

    def scale(self, c) -> "ZetaLinExponent":
        if type(c) not in (int, Fraction):
            c = Fraction(c)
        p, q = c.numerator, c.denominator
        return ZetaLinExponent._from_rows(
            self.order, _scaled_rows(self.rows.items(), p, q) if p else {})

    def __eq__(self, other):
        return (
            isinstance(other, ZetaLinExponent)
            and self.order == other.order
            and self.rows == other.rows
        )

    def __call__(self, s, t, ctx: PrecisionCtx | None = None):
        """Numeric value sum_n zeta(n) * poly_n(s, t), summed in integers.

        Each row's integer numerators over its denominator are summed against
        the powers of s and t and each zeta(n), all binary fixed-point
        integers at ``wp`` bits (complex values as (real, imaginary) pairs;
        for real s and t only the real parts are multiplied). ``wp`` is the
        working precision plus guard bits for the numerators' bit lengths,
        the number of terms, and the smallest possible size of a
        lowest-degree monomial when |s| or |t| < 1. The sum becomes an mpf
        only at the end.
        """
        ctx = ctx or PrecisionCtx()
        rows = self.rows.values()
        lcm = math.lcm(*(den for den, _ in rows))
        deg = max((max(map(max, nums)) for _, nums in rows), default=0)
        low = min((min(map(sum, nums)) for _, nums in rows), default=0)
        bits = max((max(max(nums.values()), -min(nums.values())).bit_length()
                    for _, nums in rows), default=0)
        with ctx.workprec():
            s = mp.mpmathify(s)
            t = mp.mpmathify(t)
            wp = mp.mp.prec + 2 * (deg + 1).bit_length() + 4 + bits
            nonzero = [abs(x) for x in (s, t) if x]
            if nonzero:
                wp += max(0, low * (1 - mp.mag(min(nonzero))))
            sp, tp = _fixed_powers(s, deg, wp), _fixed_powers(t, deg, wp)
            is_complex = isinstance(s, mp.mpc) or isinstance(t, mp.mpc)
            if not is_complex:
                sp, tp = [r for r, _ in sp], [r for r, _ in tp]
            total_re = total_im = 0  # scaled by lcm * 2^(3 wp)
            for n, (den, nums) in sorted(self.rows.items()):
                z = _to_fixed(mp.zeta(n), wp)[0] * (lcm // den)
                if not is_complex:
                    total_re += z * sum(v * sp[a] * tp[b] for (a, b), v in nums.items())
                    continue
                acc_re = acc_im = 0
                for (a, b), v in nums.items():
                    (sr, si), (tr, ti) = sp[a], tp[b]
                    acc_re += v * (sr * tr - si * ti)
                    acc_im += v * (sr * ti + si * tr)
                total_re += z * acc_re
                total_im += z * acc_im

            def value(x):
                return mp.ldexp(mp.mpf(x) / lcm, -3 * wp)

            if is_complex:
                return mp.mpc(value(total_re), value(total_im))
            return value(total_re)

    def __repr__(self):
        return f"ZetaLinExponent(order={self.order}, zetas={sorted(self.rows)})"


def _scaled_rows(rows, p: int, q: int) -> dict:
    """The (n, row) pairs of ``rows`` times p / q (p != 0, q > 0), each row
    reduced again so that gcd(den, numerators) = 1."""
    out = {}
    for n, (den, nums) in rows:
        den *= q
        g = math.gcd(den, p * math.gcd(*nums.values()))
        out[n] = (den // g, {k: v * p // g for k, v in nums.items()})
    return out


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
    u_n = sign_rule(n) (None to skip n), built as reduced integer rows."""
    rows = {}
    for n in range(2, order + 1):
        u = sign_rule(n)
        if u is None:
            continue
        # s^n + t^n - (s+t)^n = -sum_{k=1}^{n-1} C(n,k) s^k t^(n-k); the lcm
        # of the reduced denominators of -u C(n,k) / n is n / g with
        # g = gcd(n, u C(n,1), ..., u C(n,n-1))
        binom = [math.comb(n, k) for k in range(1, n)]
        g = math.gcd(n, u * math.gcd(*binom))
        rows[n] = (n // g, {(k, n - k): -u * c // g for k, c in enumerate(binom, 1)})
    return ZetaLinExponent._from_rows(order, rows)


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
    odd = ((n, row) for n, row in e.rows.items() if n % 2 == 1)
    return ZetaLinExponent._from_rows(e.order, _scaled_rows(odd, 2, 1))
