"""Elliptic multiple zeta values of the A- and B-cycle type: length-one and
depth-one families, length-two values, their cusp asymptotics, Eichler-type
closed forms, quadrature oracles, and the explicit weight-five vector-valued
modular forms built from them.

Word convention: ``(n1, ..., nr)`` labels the iterated integral with the
``n1`` form outermost; on the A-cycle the integration simplex is
``1 >= t1 >= ... >= tr >= 0``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp

from .numkernel import PrecisionCtx, bernoulli_number
from .qseries import (GuardError, QTauSeries, _check_args, _combine, _constants, auto_q_order,
                      check_tau)
from .eisenstein import _divisor_series, _divisor_value, eis_Gbb, f_n
from .eisint import _eichler_terms
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


def A_len1(n: int, ctx: PrecisionCtx | None = None):
    """Length-one value 2 pi i B_n / n!, and 0 at n = 1: the value the shuffle
    checks use, A(1) A(m) = A(1, m) + A(m, 1).  The series side gives (1,)
    i pi/2 instead (see ``A_inf_depth1``)."""
    _check_args(n=n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return mp.mpc(0) if n == 1 else A_inf_depth1(n, 1, ctx)


# ---------------------------------------------------------------------------
# depth one (single nonzero entry)


def A_inf_depth1(n: int, r: int, ctx: PrecisionCtx | None = None):
    """Constant term at the cusp of the depth-one series of length r
    (word ``(n, 0^{r-1})``), at the precision of ``ctx``.  At (1, 1) it is
    i pi/2, the length-one value that ``A_depth1(1, 1, tau)`` and
    ``_A_word_terms((1,))``, hence ``expl_diff_A`` and ``A_len2``'s
    lambda_1 = 1/4, carry; ``A_len1(1)`` is 0."""
    _check_args(n=n, r=r)
    return _constants(_A_depth1_terms(n, r)[1], ctx or PrecisionCtx())[0]


def _A_depth1_terms(n: int, r: int):
    """(divisor-sum term map, exact head) of A(n, 0^{r-1}) (see
    ``eisenstein._divisor_series``).  The head is ``A_inf_depth1``: at n = 1,
    (2 pi i)^r/(4 (r-1)!) - sum_{0<k<r/2} zeta(2k+1) (2 pi i)^(r-1-2k)/(r-2k-1)!,
    else B_n/(r! n!) (2 pi i)^r.  In the terms the (n+j-1)! of the left-aligned
    integrals gammaL0(n+j, j) cancels exactly, leaving, with
    L_{m,k} = sum_N sigma_{m-1}(N) N^-k q^N,

        sum_{0 < j < r, n+j even} (-1)^n 2 (2 pi i)^{r-j} / ((n-1)! (r-j)!) L_{n+j,j}."""
    if r < 1:
        raise ValueError("r must be >= 1")
    head = {(0, None, r): (Fraction(1, 4 * math.factorial(r - 1)) if n == 1 else
                           bernoulli_number(n) / (math.factorial(r) * math.factorial(n)))}
    for k in range(1, r // 2 if n == 1 else 1):
        head[0, 2 * k + 1, r - 1 - 2 * k] = Fraction(-1, math.factorial(r - 2 * k - 1))
    return {(0, n + j, j, r - j): Fraction(2 * (-1) ** n,
                                           math.factorial(n - 1) * math.factorial(r - j))
            for j in range(1, r) if n and (n + j) % 2 == 0}, head


def A_depth1(n: int, r: int, tau=None, ctx: PrecisionCtx | None = None, q_order=None):
    """Depth-one A-value ``A(n, 0^{r-1}; tau)``; with ``tau=None`` the
    q-series, built at the working precision of ``ctx``, is returned instead
    of a number."""
    _check_args(q_order, n=n, r=r)
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        if tau is not None:
            tau = check_tau(tau)
        N = q_order if q_order is not None else (30 if tau is None else auto_q_order(tau, ctx))
        terms, head = _A_word_terms((n,) + (0,) * (r - 1))
        if tau is None:
            return _divisor_series(terms, head, N)
        return _divisor_value(terms, head, N, tau, ctx)[0]


def A_depth1_general(s: int, n: int, r: int, tau, ctx: PrecisionCtx | None = None):
    """General depth-one word with zeros on both sides, A(0^s, n, 0^r; tau)."""
    _check_args(s=s, n=n, r=r)
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        word = (0,) * s + (n,) + (0,) * r
        return _divisor_value(*_A_word_terms(word), auto_q_order(tau, ctx), tau, ctx)[0]


@functools.lru_cache(maxsize=None)
def _A_word_terms(word: tuple) -> tuple:
    """(divisor-sum term map, exact head) of A(word) for a word with at most
    one nonzero entry, cached (not to be changed):
    A(0^s, n, 0^r) = sum_i (2 pi i)^{s-i} (-1)^i / (s-i)! C(r+i, r) A_{n, r+i+1},
    the terms and heads of the A_{n, r+i+1} (``_A_depth1_terms``) summed
    exactly into one map each; an all-zero word is the case n = 0, s = 0."""
    nonzero = [i for i, n in enumerate(word) if n != 0]
    if len(nonzero) > 1:
        raise ValueError("series form implemented for depth-one words only")
    if not word:
        return {}, {(0, None, 0): 1}
    s = nonzero[0] if nonzero else 0
    n, r = word[s], len(word) - s - 1
    parts = [(_A_depth1_terms(n, r + i + 1),
              Fraction((-1) ** i * math.comb(r + i, r), math.factorial(s - i)), s - i)
             for i in range(s + 1)]
    return tuple(_combine(*((maps[t], c, shift) for maps, c, shift in parts)) for t in (0, 1))


def _diff_A_terms(word: tuple) -> list:
    """The tau-derivative of A(word) as exact terms: the returned (c, shorter, k)
    give d/dtau A(word) = sum c * A(shorter) * Gbb_k, c a nonzero Fraction."""
    terms = []
    if word:
        terms += [(Fraction(word[-1]), word[:-1], word[-1] + 1),
                  (Fraction(-word[0]), word[1:], word[0] + 1)]
    for i in range(len(word) - 1):
        ni, nj = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2 :]
        terms.append((Fraction((-1) ** ni * (ni + nj)), head + (0,) + tail, ni + nj + 1))
        terms += [(_gen_binom(nj + j - 1, j) * (ni - j), head + (j + nj,) + tail, ni - j + 1)
                  for j in range(ni + 2)]
        terms += [(-_gen_binom(ni + j - 1, j) * (nj - j), head + (j + ni,) + tail, nj - j + 1)
                  for j in range(nj + 2)]
    return [t for t in terms if t[0]]


def expl_diff_A(word, q_order: int) -> QTauSeries:
    """tau-derivative of an A-word: the explicit combination of Eisenstein
    series Gbb_k times shorter words, each shorter word taken as the q-series
    of its term map ``_A_word_terms`` (so every shorter word must have depth
    <= 1)."""
    out = QTauSeries(q_order, {})
    for c, shorter, k in _diff_A_terms(tuple(word)):
        terms, head = (_combine((part, c, 0)) for part in _A_word_terms(shorter))
        out = out.add(_divisor_series(terms, head, q_order).mul(eis_Gbb(k, q_order)))
    return out


# ---------------------------------------------------------------------------
# length two


def _len1_over_2pii(m: int) -> Fraction:
    """lambda_m = A(m) / (2 pi i) for the length-one word (m,) as the series
    of ``_A_word_terms`` holds it: B_m/m!, and 1/4 at m = 1."""
    return _A_depth1_terms(m, 1)[1][0, None, 1]


def A_len2(n1: int, n2: int, tau, ctx: PrecisionCtx | None = None):
    """Length-two value A(n1, n2; tau), integrated from its tau-derivative.

    The shorter words of the derivative are the length-one constants
    2 pi i lambda_m, so dA/dtau = 2 pi i sum_k a_k Gbb_k with rational a_k
    (even k: Gbb_k vanishes at odd k).  Gbb_k has the constant term
    -2 pi i lambda_k, so sum_k a_k lambda_k must vanish (checked exactly), and
    its q-part integrates to gammaL0(k, 1) = -2/(k-1)! L_{k,1} (see
    ``_A_depth1_terms``), so
    A(n1, n2) = cusp constant + 2 pi i sum_{k >= 2} 2 a_k/(k-1)! L_{k,1}.
    At even weight every a_k is 0 and the cusp constant is returned as it is;
    (1, odd > 1) has no cusp constant and raises GuardError.
    """
    _check_args(n1=n1, n2=n2)
    if min(n1, n2) < 1:
        raise ValueError("length-two entries must be >= 1 (zeros via A_depth1_general)")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        terms, head = _A_len2_terms(n1, n2)
        if not terms:
            return _constants(head, ctx)[0]
        return _divisor_value(terms, head, auto_q_order(tau, ctx), tau, ctx)[0]


def _A_len2_terms(n1: int, n2: int):
    """(divisor-sum term map, exact head) of A(n1, n2) (see ``A_len2``), the head
    the cusp constant: 0 at (1, 1); +-A_len1(n) i pi/2 = +-B_n/(4 n!) (2 pi i)^2 at
    (1, n) and (n, 1), n even; else -2 pi^2 B_n1 B_n2/(n1! n2!)."""
    if (n1, n2) == (1, 1):
        const = 0
    elif 1 in (n1, n2):
        n = n1 + n2 - 1
        if n % 2 == 1:
            raise GuardError(f"A({n1},{n2}): cusp constant not available for (1, odd)")
        const = (1 if n1 == 1 else -1) * bernoulli_number(n) / (4 * math.factorial(n))
    else:
        const = (bernoulli_number(n1) * bernoulli_number(n2)
                 / (2 * math.factorial(n1) * math.factorial(n2)))
    a: dict[int, Fraction] = {}
    for c, (m,), k in _diff_A_terms((n1, n2)):
        if k % 2 == 0:
            a[k] = a.get(k, 0) + c * _len1_over_2pii(m)
    if sum(c * _len1_over_2pii(k) for k, c in a.items()):
        raise GuardError("derivative series has a non-vanishing cusp constant")
    return ({(0, k, 1, 1): 2 * c / math.factorial(k - 1) for k, c in a.items() if k and c},
            {(0, None, 2): const})


def A_len2_cordouble(n1: int, n2: int, tau, ctx: PrecisionCtx):
    """Reference, not a route of ``A_len2``: the paper's odd-weight reduction of
    A(n1, n2) (entries >= 2) to the depth-one values A(n1 + n2, 0), A(2p + 1, 0),
    weighted by +-2 C(k-1, nb-1) zeta(k)/(2 pi i)^k = -+C(k-1, nb-1) B_k/k!."""
    weights: dict = {}
    for na, nb, sign in ((n1, n2, 1), (n2, n1, -1)):
        for p in range(1, -(-(na - 3) // 2) + 1):
            k = n1 + n2 - 2 * p - 1
            weights[p, None, 0] = (weights.get((p, None, 0), 0) - sign * math.comb(k - 1, nb - 1)
                                   * bernoulli_number(k) / math.factorial(k))
    with ctx.workprec():
        total = -((-1) ** n1) * A_depth1(n1 + n2, 2, tau, ctx)
        return total + sum(w * A_depth1(2 * p + 1, 2, tau, ctx)
                           for p, w in _constants(weights, ctx).items())


# ---------------------------------------------------------------------------
# hat-A (modified weight-(1,r) values)


def hatA(r: int, tau, ctx: PrecisionCtx | None = None, form: str = "direct"):
    """hat-A_{1,r} = A_{1,r} - (2 pi i)^{r-2}/(r-1)! A_{1,2}; the "eichler"
    form evaluates the equivalent Eichler-series closed expression."""
    _check_args(r=r)
    if r < 2:
        raise ValueError("r must be >= 2")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        if form == "direct":
            # one series: A_{1,2} (its one term L_{2,1}, its cusp constant (2 pi i)^2/4)
            # cancels A_{1,r}'s j = 1 term and the (2 pi i)^r part of its cusp constant
            weight = Fraction(-1, math.factorial(r - 1))
            terms, head = (_combine((a, 1, 0), (b, weight, r - 2)) for a, b in
                           zip(_A_word_terms((1,) + (0,) * (r - 1)), _A_word_terms((1, 0))))
            return _divisor_value(terms, head, auto_q_order(tau, ctx), tau, ctx)[0]
        if form != "eichler":
            raise ValueError("form must be 'direct' or 'eichler'")
        # -sum_j ((2 pi i)^r B_{2+j}/(2+j)! tau^(j+1) + 2 (2 pi i)^(r-1-j) E_{2+j})/(r-j-1)!
        # over even j: at odd j, B_{2+j} = 0 and there is no Eichler series
        N, total = auto_q_order(tau, ctx), mp.mpc(0)
        for j in range(2, r - 1, 2):
            f = math.factorial(r - j - 1)
            c = _constants({("tau", None, r): -bernoulli_number(2 + j) / math.factorial(2 + j) / f,
                            ("E", None, r - 1 - j): Fraction(-2, f)}, ctx)
            e_val = _divisor_value(*_eichler_terms(2 + j), N, tau, ctx)[0]
            total += c["tau"] * tau ** (j + 1) + c["E"] * e_val
        return total


# ---------------------------------------------------------------------------
# B-cycle values


def B_inf_depth1(n: int, r: int, ctx: PrecisionCtx | None = None) -> LaurentPoly:
    """Cusp asymptotics of the depth-one B-value for the word ``(n, 0^r)``
    (``r`` counts the zeros); a Laurent polynomial in tau with exponents in
    [-r, n], evaluated at the precision of ``ctx`` from its exact map
    (``_B_inf_terms``)."""
    _check_args(n=n, r=r)
    if n < 2:
        raise ValueError("n must be >= 2 (n = 1 develops a log tau term)")
    if r < 0:
        raise ValueError("r must be >= 0")
    return LaurentPoly(_constants(_B_inf_terms(n, r), ctx or PrecisionCtx()), variable="tau")


@functools.lru_cache(maxsize=None)
def _B_inf_terms(n: int, r: int) -> dict:
    """``B_inf_depth1(n, r)`` as the exact map {(exponent, m, p): c} of the
    coefficients of tau^exponent (shared: not to be changed), m = n + j:

        (2 pi i)^(r+1) lead/r! tau^n
        - sum_{j<r} C(m-1, j)/(r-j)! zeta(m) (2 pi i)^(r+1-m) tau^-j
        - (1 + (-1)^m) C(m-1, r) zeta(m) (2 pi i)^(r+1-m) tau^-r (j = r),

    lead = sum_k B_k/(k! (n-k)! (n-k+r+1)), an even zeta(m) as -B_m/(2 m!) (2 pi i)^m."""
    lead = sum(bernoulli_number(k) / (math.factorial(k) * math.factorial(n - k) * (n - k + r + 1))
               for k in range(n + 1))
    exact = {(n, None, r + 1): lead / math.factorial(r)}
    for j, m in enumerate(range(n, n + r + 1)):
        weight = 1 + (-1) ** m if j == r else Fraction(1, math.factorial(r - j))
        c = -_gen_binom(m - 1, j) * weight
        if m % 2:
            exact[-j, m, r + 1 - m] = c
        else:
            exact[-j, None, r + 1] = -c * bernoulli_number(m) / (2 * math.factorial(m))
    return exact


def B_depth1(n: int, r: int, tau, ctx: PrecisionCtx | None = None, q_order=None):
    """Depth-one B-value of length r (word ``(n, 0^{r-1})``): cusp Laurent
    polynomial plus tau-weighted left-aligned Eisenstein-integral q-parts,

        B_inf_depth1(n, r-1)(tau) + sum_{j=1}^{r-1} sum_{k=j}^{n+j-1}
            w_{j,k} (2 pi i)^{r-k} tau^{n-k} gammaL0(n+j, k)(tau),

        w_{j,k} = (-1)^{k-1} C(n-1, k-j) (n+j-1)! (k-1)! / ((n-1)! (r-j)! (j-1)!).

    The weights are the closed form of an inner sum over i:
    sum_{i=max(0,k-n)}^{j-1} (-1)^{j-i-1} (n+i-1)!/(i! (j-i-1)! (n+i-k)!)
    = C(n-1, k-j) (k-1)!/(j-1)!, which vanishes for k < j; gammaL0 of odd
    weight n + j is zero.  With gammaL0(m, k) = -2/(m-1)! L_{m,k}, the q-parts
    are one divisor-sum series, evaluated once: its tau powers are raised by
    r - 2 >= k - n to be nonnegative, and its value is multiplied by tau^{2-r}."""
    _check_args(q_order, n=n, r=r)
    if n < 2:
        raise ValueError("n must be >= 2")
    if r < 2:
        raise ValueError("r must be >= 2")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        N = q_order if q_order is not None else auto_q_order(tau, ctx)
        return (B_inf_depth1(n, r - 1, ctx)(tau)
                + tau ** (2 - r) * _divisor_value(_B_depth1_terms(n, r), None, N, tau, ctx)[0])


def _B_depth1_terms(n: int, r: int) -> dict:
    """Divisor-sum term map of the q-parts of ``B_depth1(n, r)`` times tau^(r-2)."""
    return {(n - k + r - 2, n + j, k, r - k):
            Fraction(2 * (-1) ** k * math.comb(n - 1, k - j) * math.factorial(k - 1),
                     math.factorial(n - 1) * math.factorial(r - j) * math.factorial(j - 1))
            for j in range(2 - n % 2, r, 2) for k in range(j, n + j)}


# ---------------------------------------------------------------------------
# quadrature oracle


_CHEB_START, _CHEB_MAX = 16, 512  # node counts of the quadrature oracle's doubling


def _cheb_cumulative(values: list) -> list:
    """Given g at the Chebyshev points x_k = (1 + cos(pi k/N))/2, k = 0..N
    (x_0 = 1, x_N = 0), the integral from 0 to x_k of g's degree-N
    interpolant at each of those points. In t = 2x - 1 the interpolant is
    sum_j c_j T_j(t), with c_j from the discrete cosine transform of the
    values, and its antiderivative sum_j b_j T_j(t) comes from
    int T_j = T_{j+1}/(2(j+1)) - T_{j-1}/(2(j-1)), b_0 making it 0 at t = -1."""
    n = len(values) - 1
    cos = [mp.cos(mp.pi * m / n) for m in range(2 * n)]
    c = [mp.fdot(values, [cos[j * k % (2 * n)] for k in range(n + 1)])
         - (values[0] + (-1) ** j * values[n]) / 2 for j in range(n + 1)]
    c = [x * 2 / n for x in c]
    c[0] /= 2
    c[n] /= 2
    c += [0, 0]
    b = [0, c[0] - c[2] / 2] + [(c[j - 1] - c[j + 1]) / (2 * j) for j in range(2, n + 2)]
    b[0] = -mp.fsum((-1) ** j * b[j] for j in range(1, n + 2))
    # dx = dt / 2
    return [mp.fdot(b, [cos[j * k % (2 * n)] for j in range(n + 2)]) / 2 for k in range(n + 1)]


def quadrature_oracle(nvec, tau, ctx: PrecisionCtx | None = None):
    """Direct numerical integration over the simplex for short words, from
    pointwise values of ``f_n`` alone (no q-series).

    Supports depth-one words ``(n, 0^{r-1})`` with n >= 2 (single integral
    against ``(2 pi i t)^{r-1}/(r-1)!``) and generic length-two words with
    both entries >= 2 (nested integral). Each f_n is sampled once per point
    of a Chebyshev grid on [0, 1] (the real line, where f_n is analytic for
    n >= 2); the inner integral is the cumulative integral of its
    interpolant (``_cheb_cumulative``) at the same points, and the outer
    integral is Clenshaw-Curtis on them. The grid doubles from 16 points,
    reusing the nested samples, until two grids agree within
    10^-(digits - 5) max(1, |value|); GuardError if they do not by 512."""
    nvec = tuple(int(n) for n in nvec)
    if len(nvec) >= 1 and nvec[0] >= 2 and all(m == 0 for m in nvec[1:]):
        outer, inner, r = nvec[0], None, len(nvec)
    elif len(nvec) == 2 and min(nvec) >= 2:
        (outer, inner), r = nvec, 1
    else:
        raise ValueError("quadrature oracle supports depth-one or length-two words "
                         "with entries >= 2")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        points: dict = {}  # k/N -> (x, {m: f_m(x)}), shared by the nested grids

        def grid(N, m):
            """The N + 1 points x_k and f_m there, each f_m(x) computed once."""
            xs, fs = [], []
            for k in range(N + 1):
                node = Fraction(k, N)
                if node not in points:
                    points[node] = (1 + mp.cos(mp.pi * node.numerator / node.denominator)) / 2, {}
                x, known = points[node]
                if m not in known:
                    known[m] = f_n(m, mp.mpc(x), tau, ctx)
                xs.append(x)
                fs.append(known[m])
            return xs, fs

        def integral(N):
            xs, fs = grid(N, outer)
            if inner is None:
                weight = [(2j * mp.pi * x) ** (r - 1) / mp.factorial(r - 1) for x in xs]
            else:
                weight = _cheb_cumulative(grid(N, inner)[1])
            return _cheb_cumulative([f * w for f, w in zip(fs, weight)])[0]

        N, tol = _CHEB_START, mp.mpf(10) ** (5 - ctx.digits)
        value = integral(N)
        while N < _CHEB_MAX:
            N *= 2
            value, last = integral(N), value
            if abs(value - last) <= tol * max(1, abs(value)):
                return value
        raise GuardError(f"quadrature oracle: {N // 2} and {N} Chebyshev points differ "
                         f"by {mp.nstr(abs(value - last), 5)}")


# ---------------------------------------------------------------------------
# Appendix-style vector-valued modular forms (weight 5 family)


# the components of appendixB_vectors: each (factor, e, p, c) adds c (2 pi i)^p tau^e
# times A_{3,2} ("a32"), A_{2,3} ("a23"), hat-A_{1,4} ("h14") or 1 (None); K = (2 pi i)^4/720
_K = Fraction(1, 720)
_VECTORS = {
    "V32": [[("a32", 3, 2, 1), ("a23", 2, 1, 1), ("h14", 1, 0, 1), (None, 4, 4, -_K),
             (None, 2, 4, -10 * _K)],
            [("a32", 2, 2, 1), ("a23", 1, 1, Fraction(2, 3)), ("h14", 0, 0, Fraction(1, 3)),
             (None, 3, 4, -4 * _K / 3)],
            [("a32", 1, 2, 1), ("a23", 0, 1, Fraction(1, 3)), (None, 2, 4, -2 * _K)],
            [("a32", 0, 2, 1)], [(None, 1, 4, _K)], [(None, 0, 4, _K)]],
    "V23": [[("a23", 2, 1, 1), ("h14", 1, 0, 2), (None, 4, 4, _K)],
            [("a23", 1, 1, 1), ("h14", 0, 0, 1), (None, 3, 4, 2 * _K)],
            [("a23", 0, 1, 1)], [(None, 2, 4, _K)], [(None, 1, 4, _K)], [(None, 0, 4, _K)]],
    "V14": [[("h14", 1, 0, 1), (None, 4, 4, -_K)], [("h14", 0, 0, 1)], [(None, 3, 4, _K)],
            [(None, 2, 4, _K)], [(None, 1, 4, _K)], [(None, 0, 4, _K)]],
}


def appendixB_vectors(which: str, tau, ctx: PrecisionCtx | None = None):
    """Six-component vectors built from A_{3,2}, A_{2,3} and hat-A_{1,4} that
    transform as vector-valued modular forms of weights -1, -2, -3, their
    exact coefficients in ``_VECTORS``."""
    if which not in _VECTORS:
        raise ValueError("which must be 'V32', 'V23' or 'V14'")
    ctx, rows = ctx or PrecisionCtx(), _VECTORS[which]
    with ctx.workprec():
        tv = check_tau(tau)
        build = {"a32": lambda: A_depth1(3, 2, tv, ctx), "a23": lambda: A_depth1(2, 3, tv, ctx),
                 "h14": lambda: hatA(4, tv, ctx), None: lambda: 1}
        factor = {f: build[f]() for f in {f for row in rows for f, *_ in row}}
        c = _constants({((i, f, e), None, p): Fraction(x) for i, row in enumerate(rows)
                        for f, e, p, x in row}, ctx)
        power = [tv**e for e in range(5)]
        return [sum(c[i, f, e] * power[e] * factor[f] for f, e, _, _ in row)
                for i, row in enumerate(rows)]


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
