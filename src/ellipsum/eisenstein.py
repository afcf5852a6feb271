"""Jacobi theta, Dedekind eta, the Kronecker function and its coefficients,
holomorphic and nonholomorphic Eisenstein series, and the genus-one scalar
Green function with its single-valued lattice relatives.

Conditionally convergent lattice sums are never summed naively: every sum
here is either absolutely convergent after a fundamental-cell reduction, or
replaced by an exponentially convergent Fourier representation.  Square
cutoffs (sup-norm shells) are used wherever a cutoff appears.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import mpmath as mp
import numpy as np

from .numkernel import PrecisionCtx, _bern, bernoulli_periodic, bernoulli_poly, zeta_int
from .qseries import GuardError, QTauSeries, Tau, as_tau

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


def _check_tau(tau):
    return as_tau(tau).value


def _sigma_table(k: int, n_max: int) -> list[int]:
    """sigma_k(N) for N = 0..n_max (entry 0 unused) by a divisor sieve."""
    arr = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dk = d**k
        for m in range(d, n_max + 1, d):
            arr[m] += dk
    return arr


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
        absq = abs(q)
        eps = mp.mpf(10) ** (-ctx.dps)
        if mode == "product":
            # half-integer powers via exponentials (branch-free)
            uh = mp.exp(1j * mp.pi * xi)
            val = mp.exp(1j * mp.pi * tau / 4) * (uh - 1 / uh)
            j = 1
            while True:
                qj = q**j
                val *= (1 - qj) * (1 - qj * u) * (1 - qj / u)
                if absq**j * max(1, abs(u), abs(1 / u)) < eps and j > 3:
                    break
                j += 1
                if j > 100000:  # pragma: no cover
                    raise GuardError("theta product did not converge")
            return val
        # sum form: nu = n + 1/2, n >= 0, pairing +-nu
        total = mp.mpc(0)
        n = 0
        while True:
            nu = n + mp.mpf(1) / 2
            term = (
                (-1) ** n
                * mp.exp(1j * mp.pi * tau * nu**2)
                * (mp.exp(2j * mp.pi * xi * nu) - mp.exp(-2j * mp.pi * xi * nu))
            )
            total += term
            if abs(term) < eps * max(1, abs(total)) and n > 2:
                break
            n += 1
            if n > 10000:  # pragma: no cover
                raise GuardError("theta sum did not converge")
        return total


def theta(xi, tau, ctx: PrecisionCtx, mode: str = "product"):
    """Odd Jacobi theta function, vanishing at xi = 0, with
    theta(xi+1) = -theta(xi) and theta(xi+tau) = -q^{-1/2} e(-xi) theta(xi).

    General xi is reduced to the band |Im xi| < Im tau by quasi-periodicity.
    """
    tau = _check_tau(tau)
    with ctx.workprec():
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
    tau = _check_tau(tau)
    with ctx.workprec():
        q = mp.exp(2j * mp.pi * tau)
        absq = abs(q)
        eps = mp.mpf(10) ** (-ctx.dps)
        prod = mp.mpc(1)
        n = 1
        while absq**n > eps or n <= 3:
            prod *= 1 - q**n
            n += 1
        return mp.exp(1j * mp.pi * tau / 12) * prod


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
    tau = _check_tau(tau)
    with ctx.workprec():
        num = theta_prime0(tau, ctx) * theta(mp.mpc(xi) + mp.mpc(alpha), tau, ctx)
        den = theta(xi, tau, ctx) * theta(alpha, tau, ctx)
        return num / den


def f_n(n: int, xi, tau, ctx: PrecisionCtx):
    """Coefficient f_n of the Kronecker function,
    F(xi, alpha) = sum_{n>=0} f_n(xi) (2 pi i alpha)^{n-1} ... in the band
    0 <= Im xi < Im tau (1-periodic in Re xi)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tau = _check_tau(tau)
    with ctx.workprec():
        xi = mp.mpc(xi)
        band = mp.im(xi) / mp.im(tau)
        if not (0 <= band < 1):
            raise GuardError("f_n requires 0 <= Im(xi)/Im(tau) < 1")
        if n == 0:
            return mp.mpc(2j * mp.pi)
        q = mp.exp(2j * mp.pi * tau)
        eps = mp.mpf(10) ** (-ctx.dps)
        up = mp.exp(2j * mp.pi * xi)   # |up| = e^{-2 pi Im xi} <= 1
        um = 1 / up                    # grows, compensated by q^m
        if n == 1:
            total = mp.pi * mp.cot(mp.pi * xi)
            m = 1
            while True:
                qm = q**m
                term = (up**m - um**m) * qm / (1 - qm)
                total -= 2j * mp.pi * term
                if (abs(up) ** m + abs(um * q) ** m) * abs(qm) < eps and m > 3:
                    break
                m += 1
                if m > 200000:  # pragma: no cover
                    raise GuardError("f_1 series did not converge")
            return total
        sign = (-1) ** n
        acc = _bern(n) / n
        m = 1
        while True:
            qm = q**m
            inner = mp.polylog(1 - n, qm)  # sum_p p^{n-1} q^{mp}
            acc -= (up**m + sign * um**m) * inner
            if (abs(up) ** m + abs(um * q) ** m) * abs(qm) * 2 ** (n + 1) < eps and m > 3:
                break
            m += 1
            if m > 200000:  # pragma: no cover
                raise GuardError("f_n series did not converge")
        return 2j * mp.pi / mp.factorial(n - 1) * acc


def omega_n(n: int, xi, tau, ctx: PrecisionCtx):
    """Elliptic (doubly periodic) coefficient
    omega_n = sum_{k=0}^n r^k/k! * f_{n-k} with r = Im(xi)/Im(tau);
    parity (-1)^n under xi -> -xi.  Arbitrary xi via cell reduction."""
    tau = _check_tau(tau)
    with ctx.workprec():
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
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return QTauSeries.constant(-1, q_order)
    if k % 2 == 1:
        return QTauSeries(q_order, {})
    coeffs = {(0, 0): mp.mpc(2 * mp.zeta(k))}
    sig = _sigma_table(k - 1, q_order)
    pref = 2 * (2j * mp.pi) ** k / mp.factorial(k - 1)
    for n in range(1, q_order + 1):
        coeffs[(0, n)] = pref * sig[n]
    return QTauSeries(q_order, coeffs)


def eis_Gbb(k: int, q_order: int) -> QTauSeries:
    """Normalized series G_k / (2 pi i)^{k-1}; the k = 0 case is -2 pi i."""
    return eis_G(k, q_order).scale((2j * mp.pi) ** (1 - k))


def eis_E(k: int, q_order: int) -> QTauSeries:
    """Normalized Eisenstein series with constant term -B_k/(2 k!) and
    q-coefficients sigma_{k-1}(m) for even k (odd k vanish)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    const = -_bern(k) / (2 * mp.factorial(k))
    coeffs = {(0, 0): mp.mpc(const)}
    if k % 2 == 0:
        sig = _sigma_table(k - 1, q_order)
        for m in range(1, q_order + 1):
            coeffs[(0, m)] = mp.mpc(sig[m])
    return QTauSeries(q_order, coeffs)


# ---------------------------------------------------------------------------
# nonholomorphic Eisenstein series


def eis_nonholo(s: int, tau, ctx: PrecisionCtx, mode: str = "cusp", M: int = 100):
    """E(s, tau) = (Im tau / pi)^s sum_{(m,n) != (0,0)} |m tau + n|^{-2s}.

    mode="cusp" uses the exponentially convergent expansion around the cusp;
    mode="lattice" is a float64 square-cutoff lattice sum (oracle quality).
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    tau = _check_tau(tau)
    if mode == "lattice":
        from . import mgf

        return mp.mpf(mgf.D_lattice(mgf.MultiGraph.cycle(s), tau, M))
    if mode != "cusp":
        raise ValueError("mode must be 'cusp' or 'lattice'")
    n = s
    with ctx.workprec():
        y = mp.pi * mp.im(tau)
        q = mp.exp(2j * mp.pi * tau)
        lead = (-1) ** (n - 1) * _bern(2 * n) / mp.factorial(2 * n) * (4 * y) ** n
        sub = (
            4
            * mp.factorial(2 * n - 3)
            / (mp.factorial(n - 2) * mp.factorial(n - 1))
            * zeta_int(2 * n - 1, ctx)
            * (4 * y) ** (1 - n)
        )
        eps = mp.mpf(10) ** (-ctx.dps)
        expo = mp.mpc(0)
        N = 1
        while True:
            # exact rational sigma_{1-2n}(N) = sigma_{2n-1}(N) / N^{2n-1}
            sig_int = sum(d ** (2 * n - 1) for d in range(1, N + 1) if N % d == 0)
            sig_neg = mp.mpf(sig_int) / mp.mpf(N) ** (2 * n - 1)
            inner = mp.mpf(0)
            for m_i in range(n):
                inner += (
                    mp.factorial(n + m_i - 1)
                    / (mp.factorial(m_i) * mp.factorial(n - m_i - 1))
                    * (4 * N * y) ** (-m_i)
                )
            term = (
                2
                / mp.factorial(n - 1)
                * mp.mpf(N) ** (n - 1)
                * sig_neg
                * (q**N + mp.conj(q) ** N)
                * inner
            )
            expo += term
            if abs(term) < eps and N > 2:
                break
            N += 1
            if N > 100000:  # pragma: no cover
                raise GuardError("cusp expansion did not converge")
        return mp.re(lead + sub + expo)


# ---------------------------------------------------------------------------
# genus-one Green function


def green1(xi, tau, ctx: PrecisionCtx, mode: str = "theta"):
    """Scalar Green function on the torus.

    mode="theta":   -1/4 log|theta(xi)/eta|^2 + pi Im(xi)^2 / (2 Im tau)
    mode="fourier": (pi Im tau / 2) B2({r}) + P(xi, tau)/4
    """
    tau = _check_tau(tau)
    with ctx.workprec():
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
    tau = _check_tau(tau)
    with ctx.workprec():
        r, s, _ = _cell_reduce(xi, tau)
        t1, t2 = mp.re(tau), mp.im(tau)
        xi1 = s + r * t1
        x = r
        eps = mp.mpf(10) ** (-ctx.dps)
        # leading layer: sum_k e(k xi1) e^{-2 pi t2 |k| x} / |k| = -2 log|1-z|
        z = mp.exp(2j * mp.pi * xi1) * mp.exp(-2 * mp.pi * t2 * x)
        total = -2 * mp.log(abs(1 - z))
        k = 1
        while True:
            a = 2 * mp.pi * t2 * k
            contrib = mp.mpf(0)
            for kk in (k, -k):
                e_xi = mp.exp(2j * mp.pi * kk * xi1)
                v = mp.exp(-2j * mp.pi * kk * t1) * mp.exp(-a)
                w = mp.exp(2j * mp.pi * kk * t1) * mp.exp(-a)
                corr = mp.exp(-a * x) * v / (1 - v) + mp.exp(a * x) * w / (1 - w)
                contrib += mp.re(e_xi * corr) / k
            total += contrib
            if mp.exp(-a * (1 - x)) / k < eps and k > 2:
                break
            k += 1
            if k > 200000:  # pragma: no cover
                raise GuardError("propagator Fourier sum did not converge")
        return total


# ---------------------------------------------------------------------------
# single-valued elliptic polylogarithms e_{a,b}


def e_ab(a: int, b: int, xi, tau, ctx: PrecisionCtx, M: int = 1200):
    """Lattice representation Im(tau)^r/pi * sum_{w in L\\0} chi_xi(w)/(w^a wbar^b),
    r = a + b - 1, chi_xi(w) = e((wbar xi - w xibar)/(tau - taubar)).

    Requires a + b >= 3 (absolute convergence); (1,1) is routed through
    4*green1.  float64 square-cutoff evaluation with one Richardson step.
    """
    tau_m = _check_tau(tau)
    if a == 1 and b == 1:
        return mp.mpc(4 * green1(xi, tau_m, ctx))
    if a + b < 3:
        raise GuardError("lattice mode requires a + b >= 3")

    def partial(cut):
        t1, t2 = float(mp.re(tau_m)), float(mp.im(tau_m))
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
    tau = _check_tau(tau)
    r_weight = a + b - 1
    with ctx.workprec():
        xi = mp.mpc(xi)
        rr, _ = _xi_split(xi, tau)
        if not (0 < rr < 1):
            raise GuardError("d_ab_average requires 0 < Im(xi)/Im(tau) < 1")
        q = mp.exp(2j * mp.pi * tau)
        u = mp.exp(2j * mp.pi * xi)
        logq = mp.log(abs(q))

        def D(uu):
            logu = mp.log(abs(uu))
            total = mp.mpc(0)
            for aa, sign_sel, conj_sel in ((a, (-1) ** (a - 1), False), (b, (-1) ** (b - 1), True)):
                for k in range(aa, r_weight + 1):
                    li = mp.polylog(k, uu)
                    if conj_sel:
                        li = mp.conj(li)
                    total += (
                        sign_sel
                        * 2 ** (r_weight - k)
                        * mp.binomial(k - 1, aa - 1)
                        * (-logu) ** (r_weight - k)
                        / mp.factorial(r_weight - k)
                        * li
                    )
            return total

        eps = mp.mpf(10) ** (-ctx.dps)
        total = mp.mpc(0)
        layer = 0
        while True:
            arg = q**layer * u
            term = D(arg)
            total += term
            if abs(arg) ** 1 < eps and layer > 1:
                break
            layer += 1
        layer = 1
        while True:
            arg = q**layer / u
            term = (-1) ** (r_weight - 1) * D(arg)
            total += term
            if abs(arg) < eps and layer > 1:
                break
            layer += 1
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
