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

from .numkernel import PrecisionCtx, _bern, bernoulli_number, zeta_int
from .qseries import GuardError, QTauSeries, auto_q_order, check_tau
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
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 1:
        return mp.mpc(0)
    with (ctx or PrecisionCtx()).workprec():
        return 2j * mp.pi * _bern(n) / mp.factorial(n)


# ---------------------------------------------------------------------------
# depth one (single nonzero entry)


def A_inf_depth1(n: int, r: int, ctx: PrecisionCtx | None = None):
    """Constant term at the cusp of the depth-one series of length r
    (word ``(n, 0^{r-1})``), at the precision of ``ctx``.  At (1, 1) it is
    i pi/2, the length-one value that ``A_depth1(1, 1, tau)`` and
    ``_A_word_terms((1,))``, hence ``expl_diff_A`` and ``A_len2``'s
    lambda_1 = 1/4, carry; ``A_len1(1)`` is 0."""
    with (ctx or PrecisionCtx()).workprec():
        return _A_inf_depth1(n, r)


def _A_inf_depth1(n: int, r: int):
    """``A_inf_depth1`` at the working precision, for the q-series
    constructors that build at it."""
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


def _A_depth1_terms(n: int, r: int) -> dict:
    """Divisor-sum term map (see ``eisenstein._divisor_series``) of
    A(n, 0^{r-1}) - A_inf_depth1(n, r).  The (n+j-1)! of the left-aligned
    integrals gammaL0(n+j, j) cancels exactly, leaving, with
    L_{m,k} = sum_N sigma_{m-1}(N) N^-k q^N,

        sum_{0 < j < r, n+j even} (-1)^n 2 (2 pi i)^{r-j} / ((n-1)! (r-j)!) L_{n+j,j}."""
    if n == 0:
        return {}
    return {(0, n + j, j, r - j): Fraction(2 * (-1) ** n,
                                           math.factorial(n - 1) * math.factorial(r - j))
            for j in range(1, r) if (n + j) % 2 == 0}


def A_depth1(n: int, r: int, tau=None, ctx: PrecisionCtx | None = None, q_order=None):
    """Depth-one A-value ``A(n, 0^{r-1}; tau)``; with ``tau=None`` the
    q-series, built at the working precision of ``ctx``, is returned instead
    of a number."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        if tau is not None:
            tau = check_tau(tau)
        N = q_order if q_order is not None else (30 if tau is None else auto_q_order(tau, ctx))
        terms, head = _A_word_terms((n,) + (0,) * (r - 1))
        if tau is None:
            return _divisor_series(terms, N, head)
        return _divisor_value(terms, N, tau, ctx, head)[0]


def A_depth1_general(s: int, n: int, r: int, tau, ctx: PrecisionCtx | None = None):
    """General depth-one word with zeros on both sides, A(0^s, n, 0^r; tau)."""
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        terms, head = _A_word_terms((0,) * s + (n,) + (0,) * r)
        return _divisor_value(terms, auto_q_order(tau, ctx), tau, ctx, head)[0]


def _A_word_terms(word) -> tuple:
    """(divisor-sum term map, head) of A(word) for a word with at most one
    nonzero entry, the head's constant at the working precision:
    A(0^s, n, 0^r) = sum_i (2 pi i)^{s-i} (-1)^i / (s-i)! C(r+i, r) A_{n, r+i+1},
    the terms of the A_{n, r+i+1} (``_A_depth1_terms``) summed exactly into
    one map; an all-zero word is the case n = 0, s = 0."""
    word = tuple(word)
    nonzero = [i for i, n in enumerate(word) if n != 0]
    if len(nonzero) > 1:
        raise ValueError("series form implemented for depth-one words only")
    if not word:
        return {}, {(0, 0): mp.mpc(1)}
    s = nonzero[0] if nonzero else 0
    n, r = word[s], len(word) - s - 1
    P, const, terms = 2j * mp.pi, 0, {}
    for i in range(s + 1):
        c = Fraction((-1) ** i * math.comb(r + i, r), math.factorial(s - i))
        const += c.numerator * P ** (s - i) / c.denominator * _A_inf_depth1(n, r + i + 1)
        for (t, m, k, p), d in _A_depth1_terms(n, r + i + 1).items():
            key = (t, m, k, p + s - i)
            terms[key] = terms.get(key, 0) + c * d
    return terms, {(0, 0): const}


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
        c = mp.mpf(c.numerator) / c.denominator
        terms, head = _A_word_terms(shorter)
        out = out.add(_divisor_series(terms, q_order, head).mul(eis_Gbb(k, q_order)).scale(c))
    return out


# ---------------------------------------------------------------------------
# length two


def _A_inf_len2(n1: int, n2: int, ctx: PrecisionCtx):
    if n1 == 1 and n2 == 1:
        return mp.mpc(0)
    if n1 == 1 or n2 == 1:
        n = n2 if n1 == 1 else n1
        if n % 2 == 1:
            raise GuardError(f"A({n1},{n2}): cusp constant not available for (1, odd)")
        base = A_len1(n, ctx) * (1j * mp.pi / 2)
        return base if n1 == 1 else -base
    return -2 * mp.pi**2 * _bern(n1) * _bern(n2) / (mp.factorial(n1) * mp.factorial(n2))


def _len1_over_2pii(m: int) -> Fraction:
    """lambda_m = A(m) / (2 pi i) for the length-one word (m,) as the series
    of ``_A_word_terms`` holds it: B_m/m!, and 1/4 at m = 1."""
    return Fraction(1, 4) if m == 1 else bernoulli_number(m) / math.factorial(m)


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
    if min(n1, n2) < 1:
        raise ValueError("length-two entries must be >= 1 (zeros via A_depth1_general)")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        const = _A_inf_len2(n1, n2, ctx)
        terms = _A_len2_terms(n1, n2)
        if not terms:
            return const
        return _divisor_value(terms, auto_q_order(tau, ctx), tau, ctx, {(0, 0): const})[0]


def _A_len2_terms(n1: int, n2: int) -> dict:
    """Divisor-sum term map of A(n1, n2) minus its cusp constant (see ``A_len2``)."""
    a: dict[int, Fraction] = {}
    for c, (m,), k in _diff_A_terms((n1, n2)):
        if k % 2 == 0:
            a[k] = a.get(k, 0) + c * _len1_over_2pii(m)
    if sum(c * _len1_over_2pii(k) for k, c in a.items()):
        raise GuardError("derivative series has a non-vanishing cusp constant")
    return {(0, k, 1, 1): 2 * c / math.factorial(k - 1) for k, c in a.items() if k and c}


def A_len2_cordouble(n1: int, n2: int, tau, ctx: PrecisionCtx):
    """Reference, not a route of ``A_len2``: the paper's odd-weight reduction of
    A(n1, n2) (entries >= 2) to the depth-one values A(n1 + n2, 0), A(2p + 1, 0)."""
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
            # one series: A_{1,2}'s only term, L_{2,1}, cancels the j = 1 term
            # of A_{1,r} exactly, leaving the j >= 2 terms of A_{1,r}
            const = (A_inf_depth1(1, r, ctx)
                     - (2j * mp.pi) ** (r - 2) / mp.factorial(r - 1) * A_inf_depth1(1, 2, ctx))
            terms = _A_depth1_terms(1, r)
            for (i, m, k, p), c in _A_depth1_terms(1, 2).items():
                terms[i, m, k, p + r - 2] -= c / math.factorial(r - 1)
            return _divisor_value(terms, auto_q_order(tau, ctx), tau, ctx, {(0, 0): const})[0]
        if form != "eichler":
            raise ValueError("form must be 'direct' or 'eichler'")
        N, P = auto_q_order(tau, ctx), 2j * mp.pi
        total = mp.mpc(0)
        for j in range(1, r - 1):
            total -= (P**r * _bern(2 + j) / mp.factorial(2 + j) * tau ** (j + 1)
                      / mp.factorial(r - j - 1))
            if j % 2 == 0:
                terms, head = _eichler_terms(2 + j)
                e_val = _divisor_value(terms, N, tau, ctx, head)[0]
                total -= 2 * P**r * P ** (-1 - j) / mp.factorial(r - j - 1) * e_val
        return total


# ---------------------------------------------------------------------------
# B-cycle values


def B_inf_depth1(n: int, r: int, ctx: PrecisionCtx | None = None) -> LaurentPoly:
    """Cusp asymptotics of the depth-one B-value for the word ``(n, 0^r)``
    (``r`` counts the zeros); a Laurent polynomial in tau with exponents in
    [-r, n], evaluated at the precision of ``ctx`` from its exact map
    (``_B_inf_terms``)."""
    if n < 2:
        raise ValueError("n must be >= 2 (n = 1 develops a log tau term)")
    if r < 0:
        raise ValueError("r must be >= 0")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        two_pi_i = 2j * mp.pi
        return LaurentPoly({e: mp.mpf(c.numerator) / c.denominator
                            * (zeta_int(m, ctx) if m else 1) * two_pi_i ** p
                            for e, (c, m, p) in _B_inf_terms(n, r).items() if c},
                           variable="tau")


@functools.lru_cache(maxsize=None)
def _B_inf_terms(n: int, r: int) -> dict:
    """``B_inf_depth1(n, r)`` as {exponent: (c, m, p)}: the coefficient of
    tau^exponent is c zeta(m) (2 pi i)^p, c rational, with no zeta when m is
    None.  With lead = sum_k B_k/(k! (n-k)! (n-k+r+1)),

        (2 pi i)^(r+1) lead/r! tau^n
        - sum_{p<r} C(n+p-1, p)/(r-p)! zeta(n+p) (2 pi i)^(r+1-n-p) tau^-p
        - (1 + (-1)^(n+r)) C(n+r-1, r) zeta(n+r) (2 pi i)^(1-n) tau^-r."""
    lead = sum(bernoulli_number(k) / (math.factorial(k) * math.factorial(n - k) * (n - k + r + 1))
               for k in range(n + 1))
    terms = {n: (lead / math.factorial(r), None, r + 1)}
    for p in range(r):
        terms[-p] = (-_gen_binom(n + p - 1, p) / math.factorial(r - p), n + p, r + 1 - n - p)
    terms[-r] = (-(1 + (-1) ** (n + r)) * _gen_binom(n + r - 1, r), n + r, 1 - n)
    return terms


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
    if n < 2:
        raise ValueError("n must be >= 2")
    if r < 2:
        raise ValueError("r must be >= 2")
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = check_tau(tau)
        N = q_order if q_order is not None else auto_q_order(tau, ctx)
        return (B_inf_depth1(n, r - 1, ctx)(tau)
                + tau ** (2 - r) * _divisor_value(_B_depth1_terms(n, r), N, tau, ctx)[0])


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
