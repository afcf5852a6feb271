"""Iterated integrals of Eisenstein series, their q-expansions, Eichler
series, and the Eisenstein period cocycle.

``gamma((n1, ..., nr), N)`` is the length-r iterated integral from tau to the
cusp of the normalized Eisenstein series Gbb_{n1} ... Gbb_{nr} (outermost
integration first), built by the regularized-primitive recursion
``gamma(n1, rest) = reg_primitive(Gbb_{n1} * gamma(rest))`` with
``gamma(()) = 1``.  In particular ``gamma((0,)) = 2 pi i tau``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp

from .numkernel import PrecisionCtx, _bern, zeta_int
from .qseries import QTauSeries, auto_q_order, check_tau, eval_at, reg_primitive
from .eisenstein import eis_Gbb, _divisor_series

__all__ = [
    "gamma",
    "gammaL0",
    "gammaR0",
    "gamma_inf",
    "eichler_E",
    "cocycle_S",
    "b30_reference",
    "CocyclePoly",
]


@functools.lru_cache(maxsize=None)
def _gamma_cached(nvec: tuple, q_order: int, dps: int) -> QTauSeries:
    with mp.workdps(dps):
        if not nvec:
            return QTauSeries.constant(1, q_order)
        head, rest = nvec[0], nvec[1:]
        return reg_primitive(eis_Gbb(head, q_order).mul(_gamma_cached(rest, q_order, dps)))


def gamma(nvec, q_order: int) -> QTauSeries:
    """Iterated Eisenstein integral as a q-tau series."""
    nvec = tuple(int(n) for n in nvec)
    if any(n < 0 for n in nvec):
        raise ValueError("indices must be nonnegative")
    return _gamma_cached(nvec, q_order, mp.mp.dps)


def gamma_inf(nvec, q_order: int) -> QTauSeries:
    """Polynomial (cusp-asymptotic) part: prod(B_{n_i}/n_i!) (2 pi i tau)^k / k!
    for k = number of entries."""
    nvec = tuple(int(n) for n in nvec)
    k = len(nvec)
    coeff = mp.mpf(1)
    for n in nvec:
        coeff *= _bern(n) / mp.factorial(n)
    coeff *= (2j * mp.pi) ** k / mp.factorial(k)
    return QTauSeries(q_order, {(k, 0): coeff})


def gammaL0(n: int, k: int, q_order: int) -> QTauSeries:
    """Exponentially suppressed part of the left-aligned depth-one integral
    (k trailing zero-columns, Eisenstein weight n):
    -(2/(n-1)!) sum_{m,p>=1} m^{n-k-1} p^{-k} q^{mp}, whose q^N coefficient
    is -(2/(n-1)!) sigma_{n-1}(N) / N^k."""
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if n % 2 == 1:
        return QTauSeries(q_order, {})
    return _divisor_series({(0, n, k, 0): Fraction(-2, math.factorial(n - 1))}, q_order)


def gammaR0(n: int, k: int, q_order: int) -> QTauSeries:
    """Exponentially suppressed part of the right-aligned depth-one integral
    (Eisenstein column first, then k-1 zero-columns), expressed through the
    left-aligned ones:
    R0_{n,k} = sum_{i=0}^{k-1} (-1)^{(n-k)+i-1} (2 pi i tau)^i / i! L0_{n,k-i},
    one term (i, n, k-i, i) of the divisor-sum map per i.
    """
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if n % 2 == 1:
        return QTauSeries(q_order, {})
    return _divisor_series({(i, n, k - i, i): Fraction(2 * (-1) ** (n - k + i),
                                                       math.factorial(i) * math.factorial(n - 1))
                            for i in range(k)}, q_order)


def eichler_E(k: int, q_order: int) -> QTauSeries:
    """Eichler-type series of weight k (even, >= 4):
    (1/2) zeta(1-k) (2 pi i tau)^{k-1}/(k-1)! + zeta(k-1)/2
    + sum_{j>=1} sigma_{1-k}(j) q^j."""
    terms, head = _eichler_terms(k)
    return _divisor_series(terms, q_order, head)


def _eichler_terms(k: int):
    """``eichler_E(k)`` as (divisor-sum term map, head), the head's constants
    at the working precision."""
    if k < 4 or k % 2 == 1:
        raise ValueError("k must be an even integer >= 4")
    zeta_neg = -_bern(k) / k  # zeta(1-k)
    return {(0, k, k - 1, 0): 1}, {
        (k - 1, 0): zeta_neg / 2 * (2j * mp.pi) ** (k - 1) / mp.factorial(k - 1),
        (0, 0): mp.zeta(k - 1) / 2,
    }


class CocyclePoly(dict):
    """Homogeneous polynomial in (X, Y) stored as {(x_exp, y_exp): coefficient}."""

    def __call__(self, x, y):
        return sum(c * mp.mpc(x) ** i * mp.mpc(y) ** j for (i, j), c in self.items())


def cocycle_S(k: int, ctx: PrecisionCtx | None = None) -> CocyclePoly:
    """Period polynomial of the weight-k Eisenstein cocycle at the inversion:
    ((k-2)!/2) (zeta(k-1)(Y^{k-2} - X^{k-2})
      - (2 pi i)^{k-1} sum_i B_{2i} B_{k-2i}/((2i)!(k-2i)!) X^{2i-1} Y^{k-2i-1}).
    """
    if k < 4 or k % 2 == 1:
        raise ValueError("k must be an even integer >= 4")
    with (ctx or PrecisionCtx()).workprec():
        half = mp.factorial(k - 2) / 2
        out = CocyclePoly()
        z = mp.zeta(k - 1)
        out[(0, k - 2)] = half * z
        out[(k - 2, 0)] = -half * z
        for i in range(1, k // 2):
            c = _bern(2 * i) * _bern(k - 2 * i) / (mp.factorial(2 * i) * mp.factorial(k - 2 * i))
            key = (2 * i - 1, k - 2 * i - 1)
            out[key] = out.get(key, 0) - half * (2j * mp.pi) ** (k - 1) * c
        return out


def b30_reference(tau, ctx: PrecisionCtx):
    """Independent reference value for the modular image of the depth-one,
    length-two series at weight 3: explicit Laurent polynomial plus
    (3/(pi i)) times the right-aligned depth-one q-series of weight 4."""
    with ctx.workprec():
        tv = check_tau(tau)
        two_pi_i = 2j * mp.pi
        laurent = (
            -(two_pi_i**2) * tv**3 / 720
            - zeta_int(3, ctx) / two_pi_i
            - 6 * zeta_int(4, ctx) / (two_pi_i**2 * tv)
        )
        N = auto_q_order(tv, ctx)
        qpart = eval_at(gammaR0(4, 3, N), tv, ctx)
        return laurent + 3 / (mp.pi * 1j) * qpart
