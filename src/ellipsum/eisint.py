"""Iterated integrals of Eisenstein series, their q-expansions, Eichler
series, and the Eisenstein period cocycle.

``gamma((n1, ..., nr), N)`` is the length-r iterated integral from tau to the
cusp of the normalized Eisenstein series Gbb_{n1} ... Gbb_{nr} (outermost
integration first), the regularized primitive
``gamma(n1, rest) = reg_primitive(Gbb_{n1} * gamma(rest))`` with
``gamma(()) = 1``.  In particular ``gamma((0,)) = 2 pi i tau``.

It is built exactly, in T = 2 pi i tau.  Gbb_k = 2 pi i g_k(q) with g_k in
Q[[q]] (constant term -B_k/k!, and g_0 = -1), and d/dtau = 2 pi i d/dT, so
gamma(n1, rest) is minus the primitive in T of g_{n1} gamma(rest): T^i q^j
with j > 0 goes to a rational combination of T^(i-s) q^j, s = 0..i, and T^i
to -T^(i+1)/(i+1).  By induction on the length, the coefficient of
tau^i q^j is a rational r_ij times (2 pi i)^i.  The rows (r_i0, ..., r_iN)
are kept as Python integers over one common denominator and cached on
(word, N) alone; each call converts them to mpc at the working precision,
every coefficient rounded once (``qseries._constants``).  Entries carry about
1.44 N len(word) bits, so N len(word) above ``_MAX_GAMMA_SIZE`` is refused before
any row is built.  ``gammaL0``, ``gammaR0``, the Eichler series and
``cocycle_S`` are exact maps too.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import mpmath as mp

from .numkernel import PrecisionCtx, bernoulli_number
from .qseries import QTauSeries, _check_args, _constants, auto_q_order, check_tau, eval_at
from .eisenstein import _divisor_series, _sigma_table

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

_MAX_GAMMA_SIZE = 1500  # ceiling on q_order * len(nvec) of gamma's exact rows


def gamma(nvec, q_order: int) -> QTauSeries:
    """Iterated Eisenstein integral as a q-tau series at the working
    precision, each coefficient rounded once from its exact value."""
    _check_args(q_order, nvec=tuple(nvec))
    word, q_order = tuple(map(int, nvec)), int(q_order)
    if min(word, default=0) < 0:
        raise ValueError("indices must be nonnegative")
    if q_order * len(word) > _MAX_GAMMA_SIZE:
        raise ValueError(f"q_order={q_order} times the length {len(word)} of nvec exceeds "
                         f"gamma's ceiling of {_MAX_GAMMA_SIZE}")
    rows, den = _gamma_rows(word, q_order)
    return QTauSeries(q_order, _constants({((i, j), None, i): (x, den) for i, row in enumerate(rows)
                                           for j, x in enumerate(row) if x}))


@functools.lru_cache(maxsize=None)
def _gamma_rows(nvec: tuple, q_order: int):
    """(rows, den) with gamma(nvec) = sum_ij rows[i][j]/den T^i q^j, T = 2 pi i tau,
    j = 0..q_order; no rows when an index is odd (Gbb_odd = 0)."""
    if not nvec:
        return ((1,) + (0,) * q_order,), 1
    head = nvec[0]
    inner, den = _gamma_rows(nvec[1:], q_order)
    if head % 2 or not inner:
        return (), 1
    g, g_den = _g_row(head, q_order)
    m, inv = _primitive_weights(q_order, len(inner))
    out = [[0] * (q_order + 1) for _ in range(len(inner) + 1)]
    for i, row in enumerate(inner):
        prod = _convolve(g, row)
        # T^i -> -T^(i+1)/(i+1); T^i q^j -> -sum_k (-1)^k fall_k T^(i-k) q^j / j^(k+1)
        out[i + 1][0] -= prod[0] * (m // (i + 1))
        fall = 1  # i (i-1) ... (i-k+1)
        for k in range(i + 1):
            f = fall if k % 2 else -fall
            target = out[i - k]
            target[1:] = map(operator.add, target[1:],
                             map(f.__mul__, map(operator.mul, prod[1:], inv[k])))
            fall *= i - k
    den *= g_den * m
    common = math.gcd(den, *(x for row in out for x in row))
    return tuple(tuple(x // common for x in row) for row in out), den // common


@functools.lru_cache(maxsize=None)
def _g_row(n: int, q_order: int):
    """g_n = Gbb_n/(2 pi i), n even, as (integer row over q^0..q^q_order, den):
    -B_n/n! + 2/(n-1)! sum sigma_{n-1}(N) q^N, and -1 at n = 0."""
    if n == 0:
        return (-1,) + (0,) * q_order, 1
    c0 = -bernoulli_number(n) / math.factorial(n)
    fact = math.factorial(n - 1)
    den = math.lcm(c0.denominator, fact)
    scale = 2 * (den // fact)
    return (c0.numerator * (den // c0.denominator),
            *(scale * s for s in _sigma_table(n - 1, q_order)[1:])), den


@functools.lru_cache(maxsize=None)
def _primitive_weights(q_order: int, rows: int):
    """(m, inv): a multiplier m that every 1/j^(k+1), k < ``rows``, j <= q_order,
    and every 1/(i+1), i < ``rows``, turns into an integer, and
    inv[k][j-1] = m / j^(k+1)."""
    m = math.lcm(*range(1, q_order + 1)) ** rows * math.lcm(*range(1, rows + 1))
    return m, tuple(tuple(m // j ** (k + 1) for j in range(1, q_order + 1)) for k in range(rows))


def _convolve(a, b) -> list:
    """The product of two q-rows of equal length, truncated to that length."""
    n = len(a)
    out = [0] * n
    for t, x in enumerate(a):
        if x:
            out[t:] = map(operator.add, out[t:], map(x.__mul__, b[:n - t]))
    return out


def gamma_inf(nvec, q_order: int) -> QTauSeries:
    """Polynomial (cusp-asymptotic) part of ``gamma(nvec)``: its q^0 terms,
    prod(B_{n_i}/n_i!) (2 pi i tau)^k / k! for k entries (0 when an entry is
    odd: Gbb_1 = 0 too), as a series truncated at q_order."""
    return QTauSeries(q_order, gamma(nvec, 0).coeffs)


def gammaL0(n: int, k: int, q_order: int) -> QTauSeries:
    """Exponentially suppressed part of the left-aligned depth-one integral
    (k trailing zero-columns, Eisenstein weight n):
    -(2/(n-1)!) sum_{m,p>=1} m^{n-k-1} p^{-k} q^{mp}, whose q^N coefficient
    is -(2/(n-1)!) sigma_{n-1}(N) / N^k."""
    _check_args(q_order, n=n, k=k)
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if n % 2 == 1:
        return QTauSeries(q_order, {})
    return _divisor_series({(0, n, k, 0): Fraction(-2, math.factorial(n - 1))}, None, q_order)


def gammaR0(n: int, k: int, q_order: int) -> QTauSeries:
    """Exponentially suppressed part of the right-aligned depth-one integral
    (Eisenstein column first, then k-1 zero-columns), expressed through the
    left-aligned ones:
    R0_{n,k} = sum_{i=0}^{k-1} (-1)^{(n-k)+i-1} (2 pi i tau)^i / i! L0_{n,k-i},
    one term (i, n, k-i, i) of the divisor-sum map per i.
    """
    _check_args(q_order, n=n, k=k)
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    if n % 2 == 1:
        return QTauSeries(q_order, {})
    return _divisor_series({(i, n, k - i, i): Fraction(2 * (-1) ** (n - k + i),
                                                       math.factorial(i) * math.factorial(n - 1))
                            for i in range(k)}, None, q_order)


def eichler_E(k: int, q_order: int) -> QTauSeries:
    """Eichler-type series of weight k (even, >= 4):
    (1/2) zeta(1-k) (2 pi i tau)^{k-1}/(k-1)! + zeta(k-1)/2
    + sum_{j>=1} sigma_{1-k}(j) q^j."""
    _check_args(q_order, k=k)
    return _divisor_series(*_eichler_terms(k), q_order)


def _eichler_terms(k: int):
    """``eichler_E(k)`` as (divisor-sum term map, exact head); zeta(1-k) is -B_k/k."""
    if k < 4 or k % 2 == 1:
        raise ValueError("k must be an even integer >= 4")
    head = {(k - 1, None, k - 1): -bernoulli_number(k) / (2 * math.factorial(k)),
            (0, k - 1, 0): Fraction(1, 2)}
    return {(0, k, k - 1, 0): 1}, head


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
    half = Fraction(math.factorial(k - 2), 2)
    exact = {((0, k - 2), k - 1, 0): half, ((k - 2, 0), k - 1, 0): -half}
    for i in range(1, k // 2):
        exact[(2 * i - 1, k - 2 * i - 1), None, k - 1] = (
            -half * bernoulli_number(2 * i) * bernoulli_number(k - 2 * i)
            / (math.factorial(2 * i) * math.factorial(k - 2 * i)))
    return CocyclePoly(_constants(exact, ctx or PrecisionCtx()))


def b30_reference(tau, ctx: PrecisionCtx):
    """Independent reference value for the modular image of the depth-one,
    length-two series at weight 3: the explicit Laurent polynomial
    -(2 pi i)^2 tau^3/720 - zeta(3)/(2 pi i) - 6 zeta(4)/((2 pi i)^2 tau), with
    zeta(4) = (2 pi i)^4/1440, plus (3/(pi i)) times the right-aligned
    depth-one q-series of weight 4."""
    with ctx.workprec():
        tv = check_tau(tau)
        c = _constants({(3, None, 2): Fraction(-1, 720), (0, 3, -1): Fraction(-1),
                        (-1, None, 2): Fraction(-1, 240), ("q", None, -1): Fraction(6)}, ctx)
        qpart = eval_at(gammaR0(4, 3, auto_q_order(tv, ctx)), tv, ctx)
        return c[3] * tv**3 + c[0] + c[-1] / tv + c["q"] * qpart
