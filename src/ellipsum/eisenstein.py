"""Jacobi theta, Dedekind eta, the Kronecker function and its coefficients,
holomorphic and nonholomorphic Eisenstein series, and the genus-one scalar
Green function with its single-valued lattice relatives.

Conditionally convergent lattice sums are never summed naively: every sum
here is either absolutely convergent after a fundamental-cell reduction, or
replaced by an exponentially convergent Fourier representation.  Square
cutoffs (sup-norm shells) are used wherever a cutoff appears.

The holomorphic Eisenstein series are exact: a term map and a head of constants,
rounded once per coefficient (``_divisor_series``) or summed (``_divisor_value``).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import mpmath as mp

from .numkernel import (_MAX_TERMS, PrecisionCtx, _bern, _check_args, _constants, _fixed_cmul,
                        _fixed_horner, _fixed_mpc, _to_fixed, bernoulli_number,
                        bernoulli_periodic, bernoulli_poly, zeta_int)
from .qseries import GuardError, QTauSeries, _log2_absq, _row_bits, _sum_rows, check_tau

__all__ = [
    "theta",
    "theta_prime0",
    "eta",
    "eta_multiplier",
    "kronecker_F",
    "f_n",
    "omega_n",
    "eis_G",
    "eis_Gbb",
    "eis_E",
    "eis_nonholo",
    "green1",
    "p_part",
    "e_ab",
    "d_ab_average",
]

# ---------------------------------------------------------------------------
# helpers


def _sigma_table(k: int, n_max: int) -> list[int]:
    """sigma_k(N) for N = 0..n_max (entry 0 unused) by a divisor sieve."""
    arr = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dk = d**k
        for m in range(d, n_max + 1, d):
            arr[m] += dk
    return arr


def _divisor_series(terms: dict, head, q_order: int) -> QTauSeries:
    """The q-series of the exact term map ``terms``, each ``(i, n, k, p): c``
    adding c (2 pi i)^p tau^i sum_{N <= q_order} sigma_{n-1}(N)/N^k q^N, plus the
    exact ``head``: at the working precision, each coefficient rounded once from
    its exact parts (``numkernel._constants``)."""
    sigma = {n: _sigma_table(n - 1, q_order) for n in {key[1] for key in terms}}
    exact = {((i, 0), mono, p): c for (i, mono, p), c in (head or {}).items()}
    for (i, n, k, p), c in terms.items():
        for N in range(1, q_order + 1) if c else ():
            a, b = exact.get(((i, N), (), p), (0, 1))
            a2, b2 = c.numerator * sigma[n][N], c.denominator * N**k
            exact[(i, N), (), p] = (a * b2 + a2 * b, b * b2)
    return QTauSeries(q_order, _constants(exact))


def _divisor_fixed(keys: list, sigma: dict, q_order: int, log2q: float, bits: int):
    """The q-coefficients a_N = sum over ``keys`` (n, k, C) of
    C sigma_{n-1}(N)/N^k, N = 1..q_order (a_0 = 0), as Gaussian integers scaled
    by 2^W; returns (coefficients, W). ``sigma[n]`` is ``_sigma_table(n - 1, q_order)``.

    W = bits - an upper bound on the binary magnitude of the largest term
    |C| sigma/N^k |q|^N (``log2q`` = log2|q|), from bit lengths alone: sigma
    < 2^b(sigma) and N^k >= 2^(b(N^k) - 1). Each C is taken at the scale
    2^(W+s), s being one bit more than the largest such bound on sigma/N^k plus
    the bits of the number of keys, so its truncation, times sigma/N^k, and
    each floor division by N^k move a_N by less than one unit of 2^-W in all
    after the final shift by s."""
    powers = {k: [N**k for N in range(q_order + 1)] for k in {key[1] for key in keys}}
    top, s = -math.inf, 0
    for n, k, c in keys:
        excess = [a.bit_length() - b.bit_length() for a, b in zip(sigma[n], powers[k])]
        largest = max(e + N * log2q for N, e in enumerate(excess) if N)
        top = max(top, mp.mag(c) + 1 + largest)
        s = max(s, max(excess[1:]) + 1)
    w = bits - math.ceil(top)
    s += len(keys).bit_length()
    re, im = [0] * q_order, [0] * q_order
    for n, k, c in keys:
        sig, pk = sigma[n][1:], powers[k][1:]
        for part, x in zip((re, im), _to_fixed(c, w + s)):
            if x:  # c (2 pi i)^p is real or imaginary: skip the zero part
                part[:] = map(operator.add, part, [x * t // d for t, d in zip(sig, pk)])
    return [(0, 0), *zip([x >> s for x in re], [x >> s for x in im])], w


def _divisor_value(terms: dict, head, q_order: int, tau, ctx: PrecisionCtx):
    """``eval_with_bound(_divisor_series(terms, head, q_order), tau, ctx)``,
    (value, truncation bound), without building the series: each tau power's
    q-coefficients are Gaussian integers from the exact term map
    (``_divisor_fixed``), summed with the head by the guarded summation
    ``qseries._sum_rows`` at ``qseries._row_bits(q_order + 1)`` + 2 bits (the 2
    cover the slack of the bit-length bound and the truncations of a
    coefficient).  At q_order 0 the guard still counts the dropped q^1
    coefficients, at most sum |c (2 pi i)^p| per tau power (sigma(1) = 1)."""
    with ctx.workprec():
        tau = check_tau(tau)
        _check_args(q_order, tau)
        pref = _constants({((i, n, k), (), p): c for (i, n, k, p), c in terms.items()}, ctx)
        rows: dict[int, list] = {}
        for (i, n, k), c in pref.items():
            if c:
                rows.setdefault(i, []).append((n, k, c))
        dropped = 0 if q_order else max([0, *(sum(abs(c) for *_, c in row)
                                                for row in rows.values())])
        rows = rows if q_order else {}
        sigma = {n: _sigma_table(n - 1, q_order) for n in {key[0] for row in rows.values()
                                                               for key in row}}
        log2q, bits = _log2_absq(tau), _row_bits(q_order + 1) + 2
        fixed = {i: (*_divisor_fixed(row, sigma, q_order, log2q, bits), bits)
                 for i, row in rows.items()}
        return _sum_rows(fixed, _constants(head or {}, ctx), q_order, tau, ctx, dropped)


def _series_sum(terms, ctx, what):
    """Sum ``(term, tail)`` pairs, tail bounding |sum of all later terms|, up to the
    first tail <= 10^-dps max(1, |partial sum|); GuardError after _MAX_TERMS terms."""
    eps = mp.mpf(10) ** (-ctx.dps)
    total = 0
    for _, (term, tail) in zip(range(_MAX_TERMS), terms):
        total += term
        if tail <= eps * max(1, abs(total)):
            return total
    raise GuardError(f"{what} did not converge")


def _q_product(q, xs, ctx):
    """prod_{j>=1} prod_{x in xs} (1 - x q^j), up to the first j where the later
    factors move it by at most len(xs) max(1, |x|) |q|^{j+1}/(1 - |q|) <= 10^-dps.

    The powers q^j and the running product are Gaussian integers scaled by
    2^W, W = prec + guard bits for the number of factors and for max(1, |x|):
    each step loses less than one unit of 2^-W per part, |q^j| < 1 keeps the
    error of the powers from growing, and an error in x q^j is multiplied by
    at most max(1, |x|)."""
    eps = mp.mpf(10) ** (-ctx.dps)
    absq = abs(q)
    big = max(1, *map(abs, xs))
    bound = len(xs) * big * absq / (1 - absq)
    for n_q in range(1, _MAX_TERMS + 1):
        bound *= absq
        if bound <= eps:
            break
    else:
        raise GuardError("q-product did not converge")  # pragma: no cover
    w = mp.mp.prec + (len(xs) * n_q).bit_length() + mp.mag(big) + 6
    one = 1 << w
    qr, qi = _to_fixed(q, w)
    fixed_xs = [_to_fixed(mp.mpc(x), w) for x in xs]
    pr, pi, qjr, qji = one, 0, qr, qi
    for _ in range(n_q):
        for xr, xi in fixed_xs:
            ar, ai = _fixed_cmul(xr, xi, qjr, qji, w)
            pr, pi = _fixed_cmul(pr, pi, one - ar, -ai, w)
        qjr, qji = _fixed_cmul(qjr, qji, qr, qi, w)
    return _fixed_mpc(pr, pi, w)


def _geometric_tail(b, ratio):
    """Bound on the sum of all terms after one bounded by ``b`` when each
    later term is at most ``ratio`` times the one before (inf if ratio >= 1)."""
    return b * ratio / (1 - ratio) if ratio < 1 else mp.inf


def _xi_split(xi, tau):
    """Write xi = s + r*tau with real r, s; returns (r, s)."""
    xi = mp.mpc(xi)
    tau = mp.mpc(tau)
    r = mp.im(xi) / mp.im(tau)
    s = mp.re(xi) - r * mp.re(tau)
    return r, s


def _cell_reduce(xi, tau):
    """Reduce xi to s + r*tau with 0 <= r <= 1/2 and 0 <= s < 1, using
    xi -> -xi when r lands in the top half of the cell; returns
    (r, s, flipped)."""
    r, s = _xi_split(xi, tau)
    r -= mp.floor(r)
    s -= mp.floor(s)
    if r > mp.mpf(1) / 2:
        return 1 - r, -s - mp.floor(-s), True
    return r, s, False


# ---------------------------------------------------------------------------
# theta and eta


def _theta_band(xi, tau, ctx, mode):
    """theta for |Im xi| < Im tau (no reduction), product or sum form."""
    with ctx.workprec():
        q = mp.exp(2j * mp.pi * tau)
        u = mp.exp(2j * mp.pi * xi)
        if mode == "product":
            # half-integer powers via exponentials (branch-free)
            uh = mp.exp(1j * mp.pi * xi)
            return mp.exp(1j * mp.pi * tau / 4) * (uh - 1 / uh) * _q_product(q, (1, u, 1 / u), ctx)
        # sum form: nu = n + 1/2, n >= 0, pairing +-nu; |Im xi| < Im tau gives
        # |term| <= 2 e^{pi(2 y nu - t nu^2)} with later ratios <= rho < 1
        t, y = mp.im(tau), abs(mp.im(xi))
        rho = mp.exp(2 * mp.pi * (y - t))

        def terms():
            for n in itertools.count():
                nu = n + mp.mpf(1) / 2
                term = (-1) ** n * mp.exp(1j * mp.pi * tau * nu**2) * (
                    mp.exp(2j * mp.pi * xi * nu) - mp.exp(-2j * mp.pi * xi * nu))
                yield term, _geometric_tail(2 * mp.exp(mp.pi * (2 * y * nu - t * nu**2)), rho)

        return _series_sum(terms(), ctx, "theta sum")


def theta(xi, tau, ctx: PrecisionCtx, mode: str = "product"):
    """Odd Jacobi theta function, vanishing at xi = 0, with
    theta(xi+1) = -theta(xi) and theta(xi+tau) = -q^{-1/2} e(-xi) theta(xi).

    General xi is reduced to the band |Im xi| < Im tau by quasi-periodicity.
    """
    with ctx.workprec():
        tau = check_tau(tau)
        xi = mp.mpc(xi)
        r, _ = _xi_split(xi, tau)
        m = int(mp.nint(r))
        xired = xi - m * tau
        # theta(xired + m tau) = (-1)^m q^{-m^2/2} e(-m*xired) theta(xired)
        mult = (-1) ** m * mp.exp(-1j * mp.pi * tau * m**2 - 2j * mp.pi * m * xired)
        return mult * _theta_band(xired, tau, ctx, mode)


def theta_prime0(tau, ctx: PrecisionCtx):
    """d/dxi theta at xi = 0: equals 2 pi i eta(tau)^3."""
    with ctx.workprec():
        return 2j * mp.pi * eta(tau, ctx) ** 3


def eta(tau, ctx: PrecisionCtx):
    """Dedekind eta: q^{1/24} prod_{n>=1} (1 - q^n)."""
    with ctx.workprec():
        tau = check_tau(tau)
        q = mp.exp(2j * mp.pi * tau)
        return mp.exp(1j * mp.pi * tau / 12) * _q_product(q, (1,), ctx)


def _dedekind_sum(d: int, c: int) -> Fraction:
    """s(d, c) = sum_{n=1}^{c-1} (n/c)({dn/c} - 1/2) for c > 0."""
    total = Fraction(0)
    for n in range(1, c):
        fr = Fraction(d * n, c)
        frac_part = fr - (fr.numerator // fr.denominator)
        total += Fraction(n, c) * (frac_part - Fraction(1, 2))
    return total


def eta_multiplier(gamma):
    """24th root of unity rho(gamma) with eta(gamma tau) =
    rho(gamma) (c tau + d)^{1/2} eta(tau); gamma an integer matrix of det 1."""
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("gamma must have determinant 1")
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        return mp.exp(1j * mp.pi * b / 12)
    s = _dedekind_sum(d, c)
    phase = Fraction(a + d, 12 * c) - s - Fraction(1, 4)
    return mp.exp(1j * mp.pi * phase.numerator / phase.denominator)


# ---------------------------------------------------------------------------
# Kronecker function and coefficients


def kronecker_F(xi, alpha, tau, ctx: PrecisionCtx):
    """F(xi, alpha, tau) = theta'(0) theta(xi+alpha) / (theta(xi) theta(alpha))."""
    with ctx.workprec():
        tau = check_tau(tau)
        num = theta_prime0(tau, ctx) * theta(mp.mpc(xi) + mp.mpc(alpha), tau, ctx)
        den = theta(xi, tau, ctx) * theta(alpha, tau, ctx)
        return num / den


def f_n(n: int, xi, tau, ctx: PrecisionCtx):
    """Coefficient f_n of the Kronecker function,
    F(xi, alpha) = sum_{n>=0} f_n(xi) (2 pi i alpha)^{n-1}, in the band
    0 <= Im xi < Im tau (1-periodic in Re xi): f_0 = 2 pi i and, for n >= 1,
    with u = e(xi), B_1 = -1/2 and 0^0 = 1,

        f_n = 2 pi i/(n-1)! (B_n/n - sum_{p>=0} p^{n-1} u q^p/(1 - u q^p)
                             - (-1)^n sum_{p>=1} p^{n-1} (q^p/u)/(1 - q^p/u)).

    The p = 0 term (n = 1 only) is the pi cot(pi xi) pole.  In the band |u| <= 1
    and rho = |q/u| < 1, so the p-th term is at most 2 p^{n-1} rho^p/(1 - rho),
    and the sum stops once the tail of these bounds is below 10^-dps."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    with ctx.workprec():
        tau = check_tau(tau)
        xi = mp.mpc(xi)
        band = mp.im(xi) / mp.im(tau)
        if not (0 <= band < 1):
            raise GuardError("f_n requires 0 <= Im(xi)/Im(tau) < 1")
        if n == 0:
            return mp.mpc(2j * mp.pi)
        q = mp.exp(2j * mp.pi * tau)
        u = mp.exp(2j * mp.pi * xi)
        rho = abs(q / u)

        def terms():
            qp, bp = q, 2 * rho / (1 - rho)
            for p in itertools.count(1):
                a, b = u * qp, qp / u
                term = p ** (n - 1) * (a / (1 - a) + (-1) ** n * b / (1 - b))
                # |term| <= p^{n-1} bp, bp = 2 rho^p/(1 - rho); later ratios <= (1 + 1/p)^{n-1} rho
                yield term, _geometric_tail(p ** (n - 1) * bp, ((p + 1) / p) ** (n - 1) * rho)
                qp, bp = qp * q, bp * rho

        pole = u / (1 - u) if n == 1 else 0
        acc = _bern(n) / n - pole - _series_sum(terms(), ctx, "f_n series")
        return 2j * mp.pi / mp.factorial(n - 1) * acc


def omega_n(n: int, xi, tau, ctx: PrecisionCtx):
    """Elliptic (doubly periodic) coefficient
    omega_n = sum_{k=0}^n r^k/k! * f_{n-k} with r = Im(xi)/Im(tau);
    parity (-1)^n under xi -> -xi.  Arbitrary xi via cell reduction."""
    with ctx.workprec():
        tau = check_tau(tau)
        r, s, flipped = _cell_reduce(xi, tau)
        # parity (-1)^n undoes the flip to the lower half of the cell
        sign = (-1) ** n if flipped else 1
        xired = s + r * tau
        total = mp.mpc(0)
        rk = mp.mpf(1)
        for k in range(n + 1):
            total += rk / mp.factorial(k) * f_n(n - k, xired, tau, ctx)
            rk *= r
        return sign * total


# ---------------------------------------------------------------------------
# holomorphic Eisenstein series (as q-tau series)


def eis_G(k: int, q_order: int) -> QTauSeries:
    """G_k = (1 + (-1)^k) (zeta(k) + (2 pi i)^k/(k-1)! sum sigma_{k-1}(N) q^N);
    G_0 is the constant -1, odd k give the zero series."""
    _check_args(q_order, k=k)
    return _divisor_series(*_eis_G_terms(k), q_order)


def eis_Gbb(k: int, q_order: int) -> QTauSeries:
    """Normalized series G_k / (2 pi i)^{k-1}: for even k >= 2,
    2 zeta(k) (2 pi i)^{1-k} + 2 (2 pi i)/(k-1)! sum sigma_{k-1}(N) q^N; the
    k = 0 case is -2 pi i, odd k give the zero series."""
    _check_args(q_order, k=k)
    return _divisor_series(*_eis_G_terms(k, 1 - k), q_order)


def _eis_G_terms(k: int, shift: int = 0):
    """G_k (2 pi i)^shift as (divisor-sum term map, exact head); 2 zeta(k) is
    -B_k/k! (2 pi i)^k, and G_0 = -B_0 = -1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k % 2 == 1:
        return {}, {}
    return ({(0, k, 0, k + shift): Fraction(2, math.factorial(k - 1))} if k else {},
            {(0, (), k + shift): -bernoulli_number(k) / math.factorial(k)})


def eis_E(k: int, q_order: int) -> QTauSeries:
    """Normalized Eisenstein series with constant term -B_k/(2 k!) and
    q-coefficients sigma_{k-1}(m) for even k (odd k vanish)."""
    _check_args(q_order, k=k)
    return _divisor_series(*_eis_E_terms(k), q_order)


def _eis_E_terms(k: int):
    """``eis_E(k)`` as (divisor-sum term map, exact head)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return ({(0, k, 0, 0): 1} if k % 2 == 0 else {},
            {(0, (), 0): -bernoulli_number(k) / (2 * math.factorial(k))})


# ---------------------------------------------------------------------------
# nonholomorphic Eisenstein series


def eis_nonholo(s: int, tau, ctx: PrecisionCtx):
    """E(s, tau) = (Im tau / pi)^s sum_{(m,n) != (0,0)} |m tau + n|^{-2s}, by
    the exponentially convergent expansion around the cusp (the float64
    lattice sum is mgf.D_lattice of the s-cycle): with y = pi Im tau, its
    q-part is 2 Re sum_m a_m sum_N sigma_{2s-1}(N)/N^{s+m} q^N, m < s, with
    the real a_m = 2 c_m (4y)^{-m}/(s-1)!, summed in integers
    (``_divisor_fixed``) up to an a-priori N."""
    if s < 2:
        raise ValueError("s must be >= 2")
    n = s
    with ctx.workprec():
        tau = check_tau(tau)
        y = mp.pi * mp.im(tau)
        z = zeta_int(2 * n - 1, ctx)
        lead = (-1) ** (n - 1) * _bern(2 * n) / mp.factorial(2 * n) * (4 * y) ** n
        sub = (4 * mp.factorial(2 * n - 3) / (mp.factorial(n - 2) * mp.factorial(n - 1))
               * z * (4 * y) ** (1 - n))
        coef = [mp.factorial(n + m - 1) / (mp.factorial(m) * mp.factorial(n - m - 1))
                for m in range(n)]
        # |term_N| <= K N^{n-1} |q|^N (sigma_{1-2n}(N) <= zeta(2n-1), the m-sum at N is at
        # most the one at N = 1); for N >= (n-1)/y its tail is <= C e^{-yN},
        # C = K ((n-1)/(e y))^{n-1}/(e^y - 1): summed that far, the tail is <= 10^-dps
        K = 4 * z * sum(c * (4 * y) ** (-m) for m, c in enumerate(coef)) / mp.factorial(n - 1)
        C = K * ((n - 1) / (mp.e * y)) ** (n - 1) / (mp.exp(y) - 1)
        n_max = int(max(n - 1, mp.log(C) + ctx.dps * mp.ln10) / y) + 1
        if n_max > _MAX_TERMS:
            raise GuardError("cusp expansion did not converge")
        keys = [(2 * n, n + m, 2 * c * (4 * y) ** (-m) / mp.factorial(n - 1))
                for m, c in enumerate(coef)]
        bits = _row_bits(n_max + 1) + 2
        coeffs, w = _divisor_fixed(keys, {2 * n: _sigma_table(2 * n - 1, n_max)}, n_max,
                                   _log2_absq(tau), bits)
        cusp = _fixed_mpc(*_fixed_horner(coeffs, mp.exp(2j * mp.pi * tau), bits), w)
        return lead + sub + 2 * mp.re(cusp)


# ---------------------------------------------------------------------------
# genus-one Green function


def green1(xi, tau, ctx: PrecisionCtx, mode: str = "theta"):
    """Scalar Green function on the torus.

    mode="theta":   -1/4 log|theta(xi)/eta|^2 + pi Im(xi)^2 / (2 Im tau)
    mode="fourier": (pi Im tau / 2) B2({r}) + P(xi, tau)/4
    """
    with ctx.workprec():
        tau = check_tau(tau)
        xi = mp.mpc(xi)
        if mode == "theta":
            ratio = theta(xi, tau, ctx) / eta(tau, ctx)
            return (
                -mp.log(abs(ratio) ** 2) / 4
                + mp.pi * mp.im(xi) ** 2 / (2 * mp.im(tau))
            )
        if mode != "fourier":
            raise ValueError("mode must be 'theta' or 'fourier'")
        r, _ = _xi_split(xi, tau)
        return (
            mp.pi * mp.im(tau) / 2 * bernoulli_periodic(2, r)
            + p_part(xi, tau, ctx) / 4
        )


def p_part(xi, tau, ctx: PrecisionCtx):
    """Oscillator part P of the torus propagator (Fourier representation),
    doubly periodic; the k-sum is accelerated by a dilogarithm-free closed
    form for its leading geometric layer."""
    with ctx.workprec():
        tau = check_tau(tau)
        r, s, _ = _cell_reduce(xi, tau)
        t1, t2 = mp.re(tau), mp.im(tau)
        xi1 = s + r * t1
        x = r
        # leading layer: sum_k e(k xi1) e^{-2 pi t2 |k| x} / |k| = -2 log|1-z|
        z = mp.exp(2j * mp.pi * xi1) * mp.exp(-2 * mp.pi * t2 * x)
        c = mp.exp(-2 * mp.pi * t2 * (1 - x))

        def terms():
            for k in itertools.count(1):
                a = 2 * mp.pi * t2 * k
                contrib = mp.mpf(0)
                for kk in (k, -k):
                    e_xi = mp.exp(2j * mp.pi * kk * xi1)
                    v = mp.exp(-2j * mp.pi * kk * t1) * mp.exp(-a)
                    w = mp.exp(2j * mp.pi * kk * t1) * mp.exp(-a)
                    corr = mp.exp(-a * x) * v / (1 - v) + mp.exp(a * x) * w / (1 - w)
                    contrib += mp.re(e_xi * corr) / k
                # 0 <= x <= 1/2: |contrib| <= 4 c^k/(k (1 - |q|)) <= 4 c^k/(k (1 - c)), ratios <= c
                yield contrib, _geometric_tail(4 * c**k / (k * (1 - c)), c)

        return -2 * mp.log(abs(1 - z)) + _series_sum(terms(), ctx, "propagator Fourier sum")


# ---------------------------------------------------------------------------
# single-valued elliptic polylogarithms e_{a,b}


def e_ab(a: int, b: int, xi, tau, ctx: PrecisionCtx, M: int = 1200):
    """Lattice representation Im(tau)^r/pi * sum_{w in L\\0} chi_xi(w)/(w^a wbar^b),
    r = a + b - 1, chi_xi(w) = e((wbar xi - w xibar)/(tau - taubar)).

    Requires a + b >= 3 (absolute convergence); (1,1) is routed through
    4*green1.  float64 square-cutoff evaluation with one Richardson step.
    """
    with ctx.workprec():
        tau = check_tau(tau)
        if a == 1 and b == 1:
            return mp.mpc(4 * green1(xi, tau, ctx))
    if a + b < 3:
        raise GuardError("lattice mode requires a + b >= 3")
    import numpy as np  # only this float64 lattice sum needs numpy

    def partial(cut):
        t1, t2 = float(mp.re(tau)), float(mp.im(tau))
        x1, x2 = float(mp.re(mp.mpc(xi))), float(mp.im(mp.mpc(xi)))
        rng = np.arange(-cut, cut + 1)
        mm, nn = np.meshgrid(rng, rng, indexing="ij")
        w = mm * (t1 + 1j * t2) + nn
        w[cut, cut] = 1.0
        # chi = e((wbar xi - w xibar)/(tau - taubar)) with tau - taubar = 2i t2
        chi = np.exp((np.pi / t2) * (np.conj(w) * (x1 + 1j * x2) - w * (x1 - 1j * x2)))
        vals = chi / (w**a * np.conj(w) ** b)
        vals[cut, cut] = 0.0
        return (t2 ** (a + b - 1) / np.pi) * vals.sum()

    s1 = partial(M // 2)
    s2 = partial(M)
    # error ~ C / M^{a+b-2} for the square cutoff
    p = a + b - 2
    extr = s2 + (s2 - s1) / (2**p - 1)
    return mp.mpc(extr)


def d_ab_average(a: int, b: int, xi, tau, ctx: PrecisionCtx):
    """Exponentially convergent single-valued polylog representation of
    e_{a,b}: an average of layered D_{a,b} values plus a Bernoulli term."""
    r_weight = a + b - 1
    with ctx.workprec():
        tau = check_tau(tau)
        xi = mp.mpc(xi)
        rr, _ = _xi_split(xi, tau)
        if not (0 < rr < 1):
            raise GuardError("d_ab_average requires 0 < Im(xi)/Im(tau) < 1")
        q = mp.exp(2j * mp.pi * tau)
        u = mp.exp(2j * mp.pi * xi)
        logq = mp.log(abs(q))

        def layers(z, sign):
            # |Li_k(z)| <= |z|/(1 - |z|), so a layer is at most P |z|/(1 - |z|) with
            # P = sum |c|, a degree <= r polynomial in lam = -log|z| with nonnegative
            # coefficients: later layer ratios are <= |q| (1 - log|q|/lam)^r
            for _ in itertools.count():
                az = abs(z)
                lam = -mp.log(az)
                val, P = mp.mpc(0), 0
                for aa, conj_sel in ((a, False), (b, True)):
                    for k in range(aa, r_weight + 1):
                        li = mp.polylog(k, z)
                        if conj_sel:
                            li = mp.conj(li)
                        c = ((-1) ** (aa - 1) * 2 ** (r_weight - k) * mp.binomial(k - 1, aa - 1)
                             * lam ** (r_weight - k) / mp.factorial(r_weight - k))
                        val += c * li
                        P += abs(c)
                ratio = abs(q) * (1 - logq / lam) ** r_weight
                yield sign * val, _geometric_tail(P * az / (1 - az), ratio)
                z *= q

        total = _series_sum(layers(u, 1), ctx, "d_ab layer sum") + _series_sum(
            layers(q / u, (-1) ** (r_weight - 1)), ctx, "d_ab layer sum"
        )
        total += (
            (-2 * logq) ** r_weight
            / mp.factorial(r_weight + 1)
            * bernoulli_poly(r_weight + 1, mp.log(abs(u)) / logq)
        )
        # The layered-average identity is natural in the normalization
        # (tau - taubar)^r/(2 pi i) * sum, which differs from the lattice
        # normalization Im(tau)^r/pi by (2i)^{r-1} together with a complex
        # conjugation; convert so both entry points agree.
        return mp.conj(total) / (-2j) ** (r_weight - 1)
