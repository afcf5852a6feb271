"""Jacobi theta / Kronecker kernel / Eisenstein series checks."""

import itertools

import mpmath as mp
import pytest

from ellipsum.eisenstein import (
    _series_sum,
    d_ab_average,
    e_ab,
    eis_E,
    eis_G,
    eis_Gbb,
    eis_nonholo,
    eta,
    eta_multiplier,
    f_n,
    green1,
    kronecker_F,
    omega_n,
    theta,
    theta_prime0,
)
from ellipsum.mgf import D_lattice, MultiGraph
from ellipsum.numkernel import PrecisionCtx
from ellipsum.qseries import GuardError

CTX = PrecisionCtx(digits=30)
TAU = mp.mpc("0.2", "1.3")
XI = mp.mpc("0.31", "0.22")


def test_theta_basics():
    with CTX.workprec():
        assert abs(theta(0, TAU, CTX)) < mp.mpf("1e-25")
        t = theta(XI, TAU, CTX)
        assert abs(theta(XI + 1, TAU, CTX) + t) < mp.mpf("1e-24")
        assert abs(theta(-XI, TAU, CTX) + t) < mp.mpf("1e-24")


def test_theta_product_vs_sum():
    with CTX.workprec():
        for k in range(10):
            xi = mp.mpc("0.1", "0.05") * (k + 1) / 3 + mp.mpf("0.07") * k
            a = theta(xi, TAU, CTX, mode="product")
            b = theta(xi, TAU, CTX, mode="sum")
            assert abs(a - b) < mp.mpf("1e-24")


def test_theta_prime0_matches_derivative():
    with CTX.workprec():
        h = mp.mpf("1e-8")
        fd = (theta(h, TAU, CTX) - theta(-h, TAU, CTX)) / (2 * h)
        assert abs(fd - theta_prime0(TAU, CTX)) < mp.mpf("1e-14")


def test_eta_transformations():
    with CTX.workprec():
        e = eta(TAU, CTX)
        assert abs(eta(TAU + 1, CTX) - mp.exp(1j * mp.pi / 12) * e) < mp.mpf("1e-24")
        assert abs(eta(-1 / TAU, CTX) - mp.sqrt(-1j * TAU) * e) < mp.mpf("1e-24")


def test_eta_multiplier_generators():
    with CTX.workprec():
        mult_T = eta_multiplier([[1, 1], [0, 1]])
        assert abs(mult_T - mp.exp(1j * mp.pi / 12)) < mp.mpf("1e-24")
        # gamma = [[2,1],[1,1]]: check against a direct evaluation
        a, b, c, d = 2, 1, 1, 1
        gtau = (a * TAU + b) / (c * TAU + d)
        mult = eta_multiplier([[a, b], [c, d]])
        ref = eta(gtau, CTX) / (mp.sqrt(c * TAU + d) * eta(TAU, CTX))
        assert abs(mult - ref) < mp.mpf("1e-22")


def test_kronecker_F_symmetry_and_pole():
    with CTX.workprec():
        al = mp.mpc("0.17", "0.11")
        assert abs(kronecker_F(XI, al, TAU, CTX)
                   - kronecker_F(al, XI, TAU, CTX)) < mp.mpf("1e-24")
        # simple pole 1/alpha at alpha -> 0
        small = mp.mpf("1e-8")
        assert abs(small * kronecker_F(XI, small, TAU, CTX) - 1) < mp.mpf("1e-6")


@pytest.mark.parametrize(
    "xi, al, n_max, tol",
    [pytest.param(XI, "0.01", 12, "1e-20", id="base")]
    # towards the band edge Im(xi) -> Im(tau), where the f_n series converges slowest
    + [pytest.param(mp.mpc("0.31", rho * mp.im(TAU)), "1e-4", 14, "1e-25", id=f"band{rho}")
       for rho in (0.5, 0.75, 0.95)],
)
def test_f_expansion_of_kernel(xi, al, n_max, tol):
    # F(xi, alpha) = sum_n f_n(xi) (2 pi i alpha)^(n-1), checked at small alpha
    with CTX.workprec():
        al = mp.mpf(al)
        partial = sum(
            f_n(n, xi, TAU, CTX) * (2j * mp.pi * al) ** (n - 1) for n in range(n_max)
        )
        assert abs(partial - kronecker_F(xi, al, TAU, CTX)) < mp.mpf(tol)


def test_series_sum_cap_names_the_series():
    with pytest.raises(GuardError, match="toy series did not converge"):
        _series_sum(itertools.repeat((0, 1)), CTX, "toy series")


def test_f_small_weights():
    with CTX.workprec():
        assert abs(f_n(0, XI, TAU, CTX) - 2j * mp.pi) < mp.mpf("1e-25")
        assert abs(f_n(1, mp.mpf("0.5"), TAU, CTX)) < mp.mpf("1e-24")


def test_f_band_guard():
    with pytest.raises(GuardError):
        f_n(1, mp.mpc(0, "1.4"), TAU, CTX)


def test_eisenstein_series_constants():
    with CTX.workprec():
        assert eis_G(5, 10).max_abs_coeff() == 0
        assert abs(eis_G(4, 10).coeff(0, 0) - 2 * mp.zeta(4)) < mp.mpf("1e-24")
        assert abs(eis_E(4, 10).coeff(0, 0) - mp.mpf(1) / 1440) < mp.mpf("1e-25")
        # normalized variants agree up to the stated prefactor
        g = eis_G(4, 10)
        gbb = eis_Gbb(4, 10)
        resid = gbb.sub(g.scale((2j * mp.pi) ** (-3))).max_abs_coeff()
        assert resid < mp.mpf("1e-24")


def test_nonholo_cusp_vs_lattice():
    with CTX.workprec():
        for s in (2, 3):
            a = eis_nonholo(s, mp.mpc(0, 1), CTX)
            b = D_lattice(MultiGraph.cycle(s), mp.mpc(0, 1), 100)
            assert abs(a - b) < mp.mpf("1e-3")


def _nonholo_bessel(s, tau, digits):
    """E(s, tau) from its Bessel-K Fourier expansion at digits + 20,
    pi^-s (2 zeta(2s) y^s + 2 sqrt(pi) Gamma(s - 1/2)/Gamma(s) zeta(2s - 1) y^(1-s)
    + 8 pi^s sqrt(y)/Gamma(s) sum_n n^(s-1/2) sigma_{1-2s}(n) K_{s-1/2}(2 pi n y) cos(2 pi n x)),
    the n-sum taken to a fixed n where e^(-2 pi n y) < 10^-(digits + 30), with no
    stop at a small term (a cosine factor can make one small long before the tail)."""
    with mp.workdps(digits + 20):
        x, y = mp.re(tau), mp.im(tau)
        nu = mp.mpf(2 * s - 1) / 2
        n_max = int((digits + 30) * mp.ln10 / (2 * mp.pi * y)) + 1
        fourier = mp.fsum(
            mp.mpf(n) ** nu * mp.fsum(mp.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1)
                                      if n % d == 0)
            * mp.besselk(nu, 2 * mp.pi * n * y) * mp.cos(2 * mp.pi * n * x)
            for n in range(1, n_max + 1))
        total = (2 * mp.zeta(2 * s) * y**s
                 + 2 * mp.sqrt(mp.pi) * mp.gamma(nu) / mp.gamma(s) * mp.zeta(2 * s - 1)
                 * y ** (1 - s)
                 + 8 * mp.pi**s * mp.sqrt(y) / mp.gamma(s) * fourier)
        return total / mp.pi**s


@pytest.mark.parametrize("s, re_tau, im_tau, digits",
                         [(s, "-0.37", "0.8", 50) for s in (2, 3, 4, 5)]
                         + [(3, "-0.03", "0.6", 70), (4, "-0.05", "0.9", 100)])
def test_nonholo_cusp_sum_matches_bessel_expansion(s, re_tau, im_tau, digits):
    # the last two cases are points where cos(2 pi n x) nearly vanishes at
    # n = 25 and n = 5, long before the Fourier tail is small
    ctx = PrecisionCtx(digits)
    with mp.workdps(digits + 20):
        tau = mp.mpc(re_tau, im_tau)
    ref = _nonholo_bessel(s, tau, digits)
    got = eis_nonholo(s, tau, ctx)
    with mp.workdps(digits + 20):
        assert abs(got - ref) <= ctx.eps * abs(ref)


def test_green1_theta_vs_fourier():
    with CTX.workprec():
        xi, tau = mp.mpc("0.3", "0.4"), mp.mpc(0, 1)
        a = green1(xi, tau, CTX, mode="theta")
        b = green1(xi, tau, CTX, mode="fourier")
        assert abs(a - b) < mp.mpf("1e-20")


def test_e11_is_four_times_green():
    with CTX.workprec():
        assert abs(e_ab(1, 1, XI, TAU, CTX) - 4 * green1(XI, TAU, CTX)) < mp.mpf(
            "1e-20"
        )


def test_e_ab_low_weight_guard():
    with pytest.raises(GuardError):
        e_ab(1, 0, XI, TAU, CTX)


def test_e22_lattice_vs_fourier_average():
    with CTX.workprec():
        a = e_ab(2, 2, XI, TAU, CTX)
        b = d_ab_average(2, 2, XI, TAU, CTX)
        assert abs(a - b) < mp.mpf("1e-6")


def test_omega_reductions():
    with CTX.workprec():
        # cell reduction: arbitrary shifts by the lattice leave omega fixed
        w = omega_n(3, XI, TAU, CTX)
        assert abs(omega_n(3, XI + 2 + 3 * TAU, TAU, CTX) - w) < mp.mpf("1e-20")
        assert abs(omega_n(3, -XI, TAU, CTX) + w) < mp.mpf("1e-20")


# Im tau in {0.6, 1, 1.5} with Re tau across [-0.5, 0.5], and one point far
# from the imaginary axis
PRODUCT_TAUS = [("-0.5", "0.6"), ("0.27", "1"), ("0.5", "1.5"), ("7.3", "0.8")]


def _xi_cases(tau):
    """Generic points, Im xi near +-Im tau and at +-Im tau / 2 (where the
    reduction to the band switches), and points near the zeros 0 and tau + 1."""
    t = mp.im(tau)
    return [mp.mpc("0.31", "0.22"), mp.mpc("0.6", t - mp.mpf("1e-3")),
            mp.mpc("-0.2", -t + mp.mpf("1e-3")), mp.mpc("0.1", t / 2),
            mp.mpc("0.4", -t / 2), mp.mpc("1e-12", "1e-13"), tau + 1 + mp.mpf("1e-9")]


def _check_against_terms(got, terms, digits):
    ref, scale = mp.fsum(terms), mp.fsum(abs(t) for t in terms)
    assert abs(got - ref) <= mp.mpf(10) ** -(digits + 5) * scale


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("re_tau, im_tau", PRODUCT_TAUS)
def test_theta_and_eta_products_match_their_sums(re_tau, im_tau, digits):
    # the fixed-point q-products against the theta and pentagonal-number sums
    # at +20 digits, within 10^-(digits+5) of the sum of |terms|
    ctx, ref_ctx = PrecisionCtx(digits), PrecisionCtx(digits + 20)
    tau = mp.mpc(re_tau, im_tau)
    got = eta(tau, ctx)
    with ref_ctx.workprec():
        # eta = sum_n (-1)^n q^{(6n-1)^2/24}
        _check_against_terms(got, [(-1) ** n * mp.exp(2j * mp.pi * tau * (6 * n - 1) ** 2 / 24)
                                   for n in range(-60, 61)], digits)
    for xi in _xi_cases(tau):
        got = theta(xi, tau, ctx)
        with ref_ctx.workprec():
            # theta = sum_{nu = n + 1/2, n >= 0} (-1)^n e^{i pi tau nu^2} (e(xi nu) - e(-xi nu))
            terms = [(-1) ** n * mp.exp(1j * mp.pi * tau * nu**2 + s * 2j * mp.pi * xi * nu) * s
                     for n in range(60) for nu in [n + mp.mpf(1) / 2] for s in (1, -1)]
            _check_against_terms(got, terms, digits)
