"""Elliptic multiple zeta values of the A- and B-cycle type: length-one and
depth-one families, length-two values, their cusp asymptotics, Eichler-type
closed forms, quadrature oracles, and the explicit weight-five vector-valued
modular forms built from them.

Word convention: ``(n1, ..., nr)`` labels the iterated integral with the
``n1`` form outermost; on the A-cycle the integration simplex is
``1 >= t1 >= ... >= tr >= 0``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from .numkernel import PrecisionCtx, _bern
from .qseries import GuardError, QTauSeries, auto_q_order, check_tau, eval_at, reg_primitive
from .eisenstein import eis_Gbb, f_n
from .eisint import eichler_E, gammaL0
from .laurent import LaurentPoly

__all__ = [
    "A_len1",
    "A_inf_depth1",
    "A_depth1",
    "A_depth1_general",
    "A_len2",
    "A_len2_cordouble",
    "expl_diff_A",
    "hatA",
    "B_inf_depth1",
    "B_depth1",
    "quadrature_oracle",
    "appendixB_vectors",
    "appendixB_matrices",
]


def _gen_binom(a: int, j: int) -> Fraction:
    """Generalized binomial C(a, j) = a (a-1) ... (a-j+1) / j! for integer a."""
    num = 1
    for t in range(j):
        num *= a - t
    return Fraction(num, math.factorial(j))


# ---------------------------------------------------------------------------
# length one


def A_len1(n: int):
    """Length-one value: 2 pi i B_n / n! (and 0 at n = 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 1:
        return mp.mpc(0)
    return 2j * mp.pi * _bern(n) / mp.factorial(n)


# ---------------------------------------------------------------------------
# depth one (single nonzero entry)


def A_inf_depth1(n: int, r: int):
    """Constant term at the cusp of the depth-one series of length r
    (word ``(n, 0^{r-1})``)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if n == 1:
        # (2 pi i)^{r-1} (i pi / (2 (r-1)!) - sum zeta(2k+1)/((r-2k-1)! (2 pi i)^{2k}))
        total = 1j * mp.pi / (2 * mp.factorial(r - 1))
        for k in range(1, r // 2):
            total -= mp.zeta(2 * k + 1) / (
                mp.factorial(r - 2 * k - 1) * (2j * mp.pi) ** (2 * k)
            )
        return (2j * mp.pi) ** (r - 1) * total
    return (2j * mp.pi) ** r * _bern(n) / (mp.factorial(r) * mp.factorial(n))


def _A_depth1_series(n: int, r: int, q_order: int) -> QTauSeries:
    """q-series of A(n, 0^{r-1}): cusp constant plus combinations of the
    left-aligned depth-one Eisenstein integrals."""
    out = QTauSeries.constant(A_inf_depth1(n, r), q_order)
    if n == 0:
        return out
    pref = (-1) ** (n - 1) / mp.factorial(n - 1)
    for j in range(1, r):
        c = pref * (2j * mp.pi) ** (r - j) * mp.factorial(n + j - 1) / mp.factorial(r - j)
        out = out.add(gammaL0(n + j, j, q_order).scale(c))
    return out


def A_depth1(n: int, r: int, tau=None, ctx: PrecisionCtx | None = None, q_order=None):
    """Depth-one A-value ``A(n, 0^{r-1}; tau)``; with ``tau=None`` the
    q-series, built at the working precision of ``ctx``, is returned instead
    of a number."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        if tau is None:
            return _A_depth1_series(n, r, q_order if q_order is not None else 30)
        tau = check_tau(tau)
        N = q_order if q_order is not None else auto_q_order(tau, ctx)
        return eval_at(_A_depth1_series(n, r, N), tau, ctx)


def A_depth1_general(s: int, n: int, r: int, tau, ctx: PrecisionCtx | None = None):
    """General depth-one word with zeros on both sides, A(0^s, n, 0^r; tau)."""
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        word = (0,) * s + (n,) + (0,) * r
        return eval_at(_A_word_series(word, auto_q_order(tau, ctx)), tau, ctx)


def _A_word_series(word, q_order: int) -> QTauSeries:
    """Series for words that are all zeros or contain one nonzero entry:
    A(0^s, n, 0^r) = sum_i (2 pi i)^{s-i} (-1)^i / (s-i)! C(r+i, r) A_{n, r+i+1}."""
    word = tuple(word)
    nonzero = [(i, n) for i, n in enumerate(word) if n != 0]
    if not word:
        return QTauSeries.constant(1, q_order)
    if not nonzero:
        k = len(word)
        return QTauSeries.constant((2j * mp.pi) ** k / mp.factorial(k), q_order)
    if len(nonzero) > 1:
        raise ValueError("series form implemented for depth-one words only")
    pos, n = nonzero[0]
    s, r = pos, len(word) - pos - 1
    out = QTauSeries(q_order, {})
    for i in range(s + 1):
        c = (
            (2j * mp.pi) ** (s - i)
            * (-1) ** i
            / mp.factorial(s - i)
            * mp.binomial(r + i, r)
        )
        out = out.add(_A_depth1_series(n, r + i + 1, q_order).scale(c))
    return out


def expl_diff_A(word, q_order: int) -> QTauSeries:
    """tau-derivative of an A-word as an explicit Eisenstein-series
    combination of shorter words (depth-one words and their neighbours)."""
    word = tuple(word)
    r = len(word)
    if r == 0:
        return QTauSeries(q_order, {})

    def A_series(w):
        return _A_word_series(w, q_order)

    out = A_series(word[:-1]).mul(eis_Gbb(word[-1] + 1, q_order)).scale(word[-1])
    out = out.sub(A_series(word[1:]).mul(eis_Gbb(word[0] + 1, q_order)).scale(word[0]))
    for i in range(r - 1):
        ni, nj = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2 :]
        out = out.add(
            A_series(head + (0,) + tail)
            .mul(eis_Gbb(ni + nj + 1, q_order))
            .scale((-1) ** ni * (ni + nj))
        )
        for j in range(ni + 2):
            c = _gen_binom(nj + j - 1, j) * (ni - j)
            if c:
                out = out.add(
                    A_series(head + (j + nj,) + tail)
                    .mul(eis_Gbb(ni - j + 1, q_order))
                    .scale(mp.mpf(c.numerator) / c.denominator)
                )
        for j in range(nj + 2):
            c = _gen_binom(ni + j - 1, j) * (nj - j)
            if c:
                out = out.sub(
                    A_series(head + (j + ni,) + tail)
                    .mul(eis_Gbb(nj - j + 1, q_order))
                    .scale(mp.mpf(c.numerator) / c.denominator)
                )
    return out


# ---------------------------------------------------------------------------
# length two


def _A_inf_len2(n1: int, n2: int):
    if n1 == 1 and n2 == 1:
        return mp.mpc(0)
    if n1 == 1 or n2 == 1:
        n = n2 if n1 == 1 else n1
        if n % 2 == 1:
            raise GuardError(f"A({n1},{n2}): cusp constant not available for (1, odd)")
        base = A_len1(n) * (1j * mp.pi / 2)
        return base if n1 == 1 else -base
    return -2 * mp.pi**2 * _bern(n1) * _bern(n2) / (mp.factorial(n1) * mp.factorial(n2))


def A_len2(n1: int, n2: int, tau, ctx: PrecisionCtx | None = None):
    """Length-two value A(n1, n2; tau).

    Even weight is the cusp constant; odd weight with both entries >= 2 uses
    the double-value reduction to depth one; (1, even) and (even, 1) use the
    differential-equation route.  (1, odd > 1) is unsupported.
    """
    if min(n1, n2) < 1:
        raise ValueError("length-two entries must be >= 1 (zeros via A_depth1_general)")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        if (n1 + n2) % 2 == 0:
            return _A_inf_len2(n1, n2)
        if n1 >= 2 and n2 >= 2:
            return A_len2_cordouble(n1, n2, tau, ctx)
        return _A_len2_ode(n1, n2, tau, ctx)


def A_len2_cordouble(n1: int, n2: int, tau, ctx: PrecisionCtx):
    """Odd-weight reduction of A(n1, n2) to depth-one values (entries >= 2)."""
    with ctx.workprec():
        def zeta_norm(k: int):
            # zeta(k) / (2 pi i)^k, an exact rational -B_k/(2 k!) for even k
            return -_bern(k) / (2 * mp.factorial(k))

        total = -((-1) ** n1) * A_depth1(n1 + n2, 2, tau, ctx)
        # A(2p+1, 2) for each p, shared by the two mirror terms
        odd = {}
        for na, nb, sign in ((n1, n2, 1), (n2, n1, -1)):
            for p in range(1, -(-(na - 3) // 2) + 1):
                if p not in odd:
                    odd[p] = A_depth1(2 * p + 1, 2, tau, ctx)
                total += (
                    sign
                    * 2
                    * mp.binomial(n1 + n2 - 2 * p - 2, nb - 1)
                    * zeta_norm(n1 + n2 - 2 * p - 1)
                    * odd[p]
                )
        return total


def _A_len2_ode(n1: int, n2: int, tau, ctx: PrecisionCtx):
    """A(n1, n2) = cusp constant - (regularized primitive of d/dtau A),
    the derivative being an explicit length-one combination."""
    with ctx.workprec():
        tau = check_tau(tau)
        N = auto_q_order(tau, ctx)
        dA = expl_diff_A((n1, n2), N)
        # the cusp-constant terms of the Eisenstein factors must cancel
        const = dA.coeff(0, 0)
        if abs(const) > mp.mpf(10) ** (-(ctx.dps - 6)) * max(1, dA.max_abs_coeff()):
            raise GuardError("derivative series has a non-vanishing cusp constant")
        dA = QTauSeries(N, {k: c for k, c in dA.coeffs.items() if k != (0, 0)})
        if any(i > 0 for (i, j) in dA.coeffs):
            raise GuardError("derivative series has unexpected tau-polynomial terms")
        return _A_inf_len2(n1, n2) - eval_at(reg_primitive(dA), tau, ctx)


# ---------------------------------------------------------------------------
# hat-A (modified weight-(1,r) values)


def hatA(r: int, tau, ctx: PrecisionCtx | None = None, form: str = "direct"):
    """hat-A_{1,r} = A_{1,r} - (2 pi i)^{r-2}/(r-1)! A_{1,2}; the "eichler"
    form evaluates the equivalent Eichler-series closed expression."""
    if r < 2:
        raise ValueError("r must be >= 2")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        if form == "direct":
            return A_depth1(1, r, tau, ctx) - (2j * mp.pi) ** (r - 2) / mp.factorial(
                r - 1
            ) * A_depth1(1, 2, tau, ctx)
        if form != "eichler":
            raise ValueError("form must be 'direct' or 'eichler'")
        N = auto_q_order(tau, ctx)
        total = mp.mpc(0)
        for j in range(1, r - 1):
            total -= (
                (2j * mp.pi) ** r
                * _bern(2 + j)
                / mp.factorial(2 + j)
                * tau ** (j + 1)
                / mp.factorial(r - j - 1)
            )
            if (2 + j) % 2 == 0:
                e_val = eval_at(eichler_E(2 + j, N), tau, ctx)
                total -= (
                    2
                    * (2j * mp.pi) ** r
                    * (2j * mp.pi) ** (-1 - j)
                    / mp.factorial(r - j - 1)
                    * e_val
                )
        return total


# ---------------------------------------------------------------------------
# B-cycle values


def B_inf_depth1(n: int, r: int) -> LaurentPoly:
    """Cusp asymptotics of the depth-one B-value for the word ``(n, 0^r)``
    (``r`` counts the zeros); a Laurent polynomial in tau with exponents in
    [-r, n]."""
    if n < 2:
        raise ValueError("n must be >= 2 (n = 1 develops a log tau term)")
    if r < 0:
        raise ValueError("r must be >= 0")
    two_pi_i = 2j * mp.pi
    coeffs: dict[int, mp.mpc] = {}
    lead = mp.mpf(0)
    for k in range(n + 1):
        lead += _bern(k) / (mp.factorial(k) * mp.factorial(n - k) * (n - k + r + 1))
    coeffs[n] = two_pi_i ** (r + 1) / mp.factorial(r) * lead
    for p in range(r):
        c = _gen_binom(n + p - 1, p)
        coeffs[-p] = coeffs.get(-p, 0) - (
            mp.mpf(1)
            / mp.factorial(r - p)
            * mp.mpf(c.numerator)
            / c.denominator
            * mp.zeta(n + p)
            / two_pi_i ** (n + p - r - 1)
        )
    c = _gen_binom(n + r - 1, r)
    coeffs[-r] = coeffs.get(-r, 0) - (
        (1 + (-1) ** (n + r))
        * mp.mpf(c.numerator)
        / c.denominator
        * mp.zeta(n + r)
        / two_pi_i ** (n - 1)
    )
    return LaurentPoly(coeffs, variable="tau")


def B_depth1(n: int, r: int, tau, ctx: PrecisionCtx | None = None, q_order=None):
    """Depth-one B-value of length r (word ``(n, 0^{r-1})``): cusp Laurent
    polynomial plus tau-weighted left-aligned Eisenstein-integral q-parts."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if r < 2:
        raise ValueError("r must be >= 2")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        N = q_order if q_order is not None else auto_q_order(tau, ctx)
        two_pi_i = 2j * mp.pi
        total = B_inf_depth1(n, r - 1)(tau)
        for j in range(1, r):
            gam = {k: eval_at(gammaL0(n + j, k, N), tau, ctx) for k in range(1, n + j)}
            inner_j = mp.mpc(0)
            for i in range(j):
                inner_i = mp.mpc(0)
                for k in range(1, n + i + 1):
                    inner_i += (
                        (-1) ** (k - 1)
                        * tau ** (n - k)
                        / (two_pi_i ** (k - 1) * mp.factorial(n + i - k))
                        * gam[k]
                    )
                inner_j += (
                    (-1) ** (j - i - 1)
                    * mp.factorial(n + i - 1)
                    / (mp.factorial(i) * mp.factorial(j - i - 1))
                    * inner_i
                )
            total += (
                two_pi_i ** (r - 1)
                / mp.factorial(n - 1)
                * mp.factorial(n + j - 1)
                / mp.factorial(r - j)
                * inner_j
            )
        return total


# ---------------------------------------------------------------------------
# quadrature oracle


def quadrature_oracle(nvec, tau, ctx: PrecisionCtx | None = None):
    """Direct numerical integration over the simplex for short words.

    Supports depth-one words ``(n, 0^{r-1})`` with n >= 2 (single integral
    against ``(2 pi i t)^{r-1}/(r-1)!``) and generic length-two words with
    both entries >= 2 (nested integral)."""
    nvec = tuple(int(n) for n in nvec)
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        if len(nvec) >= 1 and nvec[0] >= 2 and all(m == 0 for m in nvec[1:]):
            n, r = nvec[0], len(nvec)

            def integrand(x):
                return (2j * mp.pi * x) ** (r - 1) / mp.factorial(r - 1) * f_n(
                    n, mp.mpc(x), tau, ctx
                )

            return mp.quad(integrand, [0, 1])
        if len(nvec) == 2 and min(nvec) >= 2:
            n1, n2 = nvec

            def outer(x1):
                inner = mp.quad(lambda x2: f_n(n2, mp.mpc(x2), tau, ctx), [0, x1])
                return f_n(n1, mp.mpc(x1), tau, ctx) * inner

            return mp.quad(outer, [0, 1])
    raise ValueError("quadrature oracle supports depth-one or length-two words with entries >= 2")


# ---------------------------------------------------------------------------
# Appendix-style vector-valued modular forms (weight 5 family)


def appendixB_vectors(which: str, tau, ctx: PrecisionCtx | None = None):
    """Six-component vectors built from A_{3,2}, A_{2,3} and hat-A_{1,4} that
    transform as vector-valued modular forms of weights -1, -2, -3."""
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tv = check_tau(tau)
        P = 2j * mp.pi
        K = P**4 / 720
        h14 = hatA(4, tv, ctx)
        if which == "V32":
            a32 = A_depth1(3, 2, tv, ctx)
            a23 = A_depth1(2, 3, tv, ctx)
            return [
                P**2 * tv**3 * a32 + P * tv**2 * a23 + tv * h14 - K * tv**4 - 10 * K * tv**2,
                P**2 * tv**2 * a32 + 2 * P * tv / 3 * a23 + h14 / 3 - 4 * K * tv**3 / 3,
                P**2 * tv * a32 + P / 3 * a23 - 2 * K * tv**2,
                P**2 * a32,
                K * tv,
                K + 0 * tv,
            ]
        if which == "V23":
            a23 = A_depth1(2, 3, tv, ctx)
            return [
                P * tv**2 * a23 + 2 * tv * h14 + K * tv**4,
                P * tv * a23 + h14 + 2 * K * tv**3,
                P * a23,
                K * tv**2,
                K * tv,
                K + 0 * tv,
            ]
        if which == "V14":
            return [
                tv * h14 - K * tv**4,
                h14,
                K * tv**3,
                K * tv**2,
                K * tv,
                K + 0 * tv,
            ]
    raise ValueError("which must be 'V32', 'V23' or 'V14'")


_WEIGHTS = {"V32": -1, "V23": -2, "V14": -3}

_MATRICES = {
    ("V32", "T"): [
        [1, 3, 3, 1, -24, -11],
        [0, 1, 2, 1, -4, Fraction(-4, 3)],
        [0, 0, 1, 1, -4, -2],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ],
    ("V32", "S"): [
        [0, 0, 0, -1, 3, 0],
        [0, 0, 1, 0, 0, Fraction(-35, 3)],
        [0, -1, 0, 0, Fraction(35, 3), 0],
        [1, 0, 0, 0, 0, -3],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0],
    ],
    ("V23", "T"): [
        [1, 2, 1, 6, 4, 1],
        [0, 1, 1, 6, 6, 2],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 2, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ],
    ("V23", "S"): [
        [0, 0, 1, 3, 0, -5],
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 5, 0, -3],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0, 0],
    ],
    ("V14", "T"): [
        [1, 1, -4, -6, -4, -1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 3, 3, 1],
        [0, 0, 0, 1, 2, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ],
    ("V14", "S"): [
        [0, -1, 1, 0, -5, 0],
        [1, 0, 0, 5, 0, -1],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, -1, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ],
}


def appendixB_matrices(which: str, gamma: str):
    """Rational 6x6 matrix M with V|_k gamma = M V for gamma in {S, T}."""
    key = (which, gamma)
    if key not in _MATRICES:
        raise ValueError("which must be V32/V23/V14 and gamma must be 'S' or 'T'")
    return [[Fraction(x) for x in row] for row in _MATRICES[key]]


def vector_weight(which: str) -> int:
    return _WEIGHTS[which]
