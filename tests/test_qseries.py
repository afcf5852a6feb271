"""Truncated q/tau series and the exact regularized primitive checks."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsum.eisint import _primitive
from ellipsum.numkernel import PrecisionCtx
from ellipsum.qseries import (
    GuardError,
    QTauSeries,
    auto_q_order,
    check_tau,
    eval_at,
    eval_with_bound,
)

CTX = PrecisionCtx(digits=30)


def _q(m, c=1, q_order=20):
    return QTauSeries(q_order, {(0, m): mp.mpc(c)})


def test_tau_guard():
    with pytest.raises(GuardError):
        check_tau(mp.mpc(1, -0.5))
    with pytest.raises(GuardError):
        check_tau(mp.mpf(2))
    assert check_tau(mp.mpc(0, 1)) == mp.mpc(0, 1)


def _primitive_terms(f: dict, q_order: int = 20) -> dict:
    """``eisint._primitive`` of f, both as {(T power, q power): Fraction}."""
    den = math.lcm(*(c.denominator for c in f.values()))
    rows = [[int(f.get((i, j), 0) * den) for j in range(q_order + 1)]
            for i in range(max(i for i, _ in f) + 1)]
    rows, den = _primitive(rows, den, q_order)
    return {(i, j): Fraction(x, den) for i, row in enumerate(rows) for j, x in enumerate(row) if x}


def _d_dT(f: dict) -> dict:
    """d/dT of {(T power, q power): Fraction}, q = exp(T): T^i q^j goes to
    i T^(i-1) q^j + j T^i q^j."""
    out = {}
    for (i, j), c in f.items():
        for key, x in (((i - 1, j), i * c), ((i, j), j * c)):
            out[key] = out.get(key, 0) + x
    return {key: x for key, x in out.items() if x}


def test_primitive_examples():
    # c goes to -c T, q^m to -q^m/m, T q^m to -T q^m/m + q^m/m^2, and T^2 q^m
    # to -T^2 q^m/m + 2 T q^m/m^2 - 2 q^m/m^3, exactly
    c = Fraction(-7, 3)
    assert _primitive_terms({(0, 0): c}) == {(1, 0): -c}
    assert _primitive_terms({(0, 4): 1}) == {(0, 4): Fraction(-1, 4)}
    assert _primitive_terms({(1, 2): 1}) == {(1, 2): Fraction(-1, 2), (0, 2): Fraction(1, 4)}
    assert _primitive_terms({(2, 3): 1}) == {(2, 3): Fraction(-1, 3), (1, 3): Fraction(2, 9),
                                             (0, 3): Fraction(-2, 27)}


def test_primitive_linear():
    f = {(0, 2): Fraction(1, 3), (2, 0): Fraction(-5), (3, 7): Fraction(2, 7)}
    g = {(1, 0): Fraction(-2), (2, 0): Fraction(5, 2), (1, 5): Fraction(9, 4)}
    a, b = Fraction(3, 5), Fraction(-2)
    combined = {key: a * f.get(key, 0) + b * g.get(key, 0) for key in f | g}
    pf, pg = _primitive_terms(f), _primitive_terms(g)
    want = {key: a * pf.get(key, 0) + b * pg.get(key, 0) for key in pf | pg}
    assert _primitive_terms(combined) == {key: x for key, x in want.items() if x}


def test_eval_respects_arithmetic():
    with CTX.workprec():
        tau = mp.mpc("0.3", "1.4")
        c = mp.mpc("-1.5", "0.25")
        f = QTauSeries(25, {(0, 1): mp.mpc(2), (1, 0): mp.mpc(0, 1)})
        g = QTauSeries(25, {(0, 2): mp.mpc(-1), (0, 0): mp.mpc(3), (1, 0): mp.mpc(1)})
        lhs = eval_at(f.sub(g.scale(c)), tau, CTX)
        rhs = eval_at(f, tau, CTX) - c * eval_at(g, tau, CTX)
        assert abs(lhs - rhs) < mp.mpf("1e-20")


def test_eval_with_bound():
    with CTX.workprec():
        tau = mp.mpc(0, 2)
        f = QTauSeries(15, {(0, j): mp.mpc(1) for j in range(16)})
        val, bound = eval_with_bound(f, tau, CTX)
        assert bound > 0
        exact = 1 / (1 - mp.exp(2j * mp.pi * tau))
        assert abs(val - exact) <= bound * 10


def test_auto_q_order_scales_with_height():
    assert auto_q_order(mp.mpc(0, 1), CTX) > auto_q_order(mp.mpc(0, 4), CTX)


def test_json_roundtrip():
    f = QTauSeries(8, {(1, 2): mp.mpc("0.25", "-3"), (0, 0): mp.mpc(7)})
    g = QTauSeries.from_json(f.to_json())
    assert g.q_order == f.q_order
    assert f.sub(g).max_abs_coeff() < mp.mpf("1e-20")


@pytest.mark.parametrize("digits", [15, 30, 100])
def test_max_abs_coeff_equals_max_of_moduli(digits):
    rng = random.Random(digits)
    assert QTauSeries(5).max_abs_coeff() == 0  # every coefficient zero

    def part(decades):
        # zero, or a value of either sign over 2 * decades + 1 decades, built
        # at up to 150 digits so that a coefficient may carry more bits than
        # the ctx
        if rng.random() < 0.3:
            return mp.mpf(0)
        with mp.workdps(rng.choice([15, 50, 150])):
            return mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** rng.randint(-decades, decades) / 3

    with mp.workdps(digits):
        for decades in [0, 1, 40] * 20:
            coeffs = {(rng.randint(0, 3), j): mp.mpc(part(decades), part(decades))
                      for j in range(rng.randint(1, 30))}
            f = QTauSeries(30, coeffs)
            ref = max((abs(c) for c in f.coeffs.values()), default=mp.mpf(0))
            assert f.max_abs_coeff() == ref
        # equal moduli: real, imaginary and complex, in either order; and a
        # largest modulus whose parts are both a binary exponent below another
        # coefficient's (|1.9 + 1.9i| = 2.69 > 2)
        for coeffs in ([5, 5j, 3 + 4j], [3 - 4j, -5j, -5], [mp.mpf(2) ** 0.5, 1 + 1j],
                       [2, 1.9 + 1.9j], [1.9 - 1.9j, -2j]):
            f = QTauSeries(5, {(0, j): c for j, c in enumerate(coeffs)})
            assert f.max_abs_coeff() == max(abs(mp.mpc(c)) for c in coeffs)
    # an inf part is never passed over
    assert QTauSeries(5, {(0, 0): 1, (0, 1): mp.mpc(mp.inf, 0)}).max_abs_coeff() == mp.inf


@st.composite
def _series(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    coeffs = {}
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=3))
        j = draw(st.integers(min_value=0, max_value=10))
        re = draw(st.floats(min_value=-4, max_value=4, allow_nan=False))
        im = draw(st.floats(min_value=-4, max_value=4, allow_nan=False))
        coeffs[(i, j)] = mp.mpc(re, im)
    return QTauSeries(12, coeffs)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 10)),
                       st.fractions(-4, 4, max_denominator=60).filter(bool),
                       min_size=1, max_size=5))
def test_primitive_inverts_dtau(f):
    # d/dT of the primitive gives back -f, with no tolerance
    assert _d_dT(_primitive_terms(f, 12)) == {key: -c for key, c in f.items()}


@settings(max_examples=25, deadline=None)
@given(_series(), _series())
def test_addition_commutes_with_eval(f, g):
    with CTX.workprec():
        tau = mp.mpc("0.1", "1.2")
        lhs = eval_at(f.add(g), tau, CTX)
        rhs = eval_at(f, tau, CTX) + eval_at(g, tau, CTX)
        assert abs(lhs - rhs) < mp.mpf("1e-15")


def test_constructor_keeps_what_it_is_given():
    c = mp.mpc(1, -1)
    f = QTauSeries(3, {(0, 0): 2, (1, 1): mp.mpf("0.5"), (2, 3): c, (0, 1): 0,
                       (1, 2): mp.mpf(0), (3, 0): mp.mpc(0), (2, 0): "0", (0, 4): 5})
    # zero coefficients (also a string "0") and q exponents above q_order are dropped
    assert f.coeffs == {(0, 0): 2, (1, 1): mp.mpf("0.5"), (2, 3): mp.mpc(1, -1)}
    # int, mpf and mpc inputs are all stored as mpc, an mpc as the same object
    assert all(type(c) is mp.mpc for c in f.coeffs.values())
    assert f.coeffs[2, 3] is c
    assert QTauSeries(3.0, {(2.0, 1.0): 2}).coeffs == {(2, 1): 2}  # integral floats are kept
    for key in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            QTauSeries(3, {key: 1})
    with pytest.raises(ValueError):
        QTauSeries(-1)


@st.composite
def _gapped_series(draw):
    """A series at q_order 20 whose tau powers are a random subset of 0..3,
    e.g. only tau**0 and tau**3."""
    coeffs = {}
    for i in draw(st.sets(st.integers(min_value=0, max_value=3), min_size=1)):
        for j in draw(st.sets(st.integers(min_value=0, max_value=20), min_size=1)):
            re = draw(st.floats(min_value=-4, max_value=4, allow_nan=False))
            im = draw(st.floats(min_value=-4, max_value=4, allow_nan=False))
            coeffs[(i, j)] = mp.mpc(re, im)
    return QTauSeries(20, coeffs)


@settings(max_examples=60, deadline=None)
@given(_gapped_series(),
       st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=1.2, max_value=1.5),
       st.sampled_from([30, 45]))
def test_eval_matches_naive_sum(f, re_tau, im_tau, digits):
    ctx = PrecisionCtx(digits=digits)
    tau = mp.mpc(re_tau, im_tau)
    with ctx.workprec():
        got = eval_at(f, tau, ctx)
    with mp.workdps(digits + 20):
        q = mp.exp(2j * mp.pi * tau)
        terms = [c * tau**i * q**j for (i, j), c in f.coeffs.items()]
        ref = mp.fsum(terms)
        # rounding errors scale with the terms, not with a cancelled sum
        scale = max(mp.fsum(abs(t) for t in terms), mp.mpf(10) ** -digits)
        assert abs(got - ref) <= mp.mpf(10) ** (5 - digits) * scale


# Im tau in {0.6, 1, 1.5} with Re tau across [-0.5, 0.5], and one point far
# from the imaginary axis
KERNEL_TAUS = [("-0.5", "0.6"), ("0.23", "0.6"), ("0.5", "1"), ("-0.31", "1"),
               ("0", "1.5"), ("0.41", "1.5"), ("7.3", "0.8")]


def _library_maps():
    """(term map, exact head) of divisor-sum values the library sums: A_depth1,
    A_len2, B_depth1 (one tau power, and four), the Eichler series of hatA's
    "eichler" form and eis_E(12)."""
    from ellipsum import eisenstein, eisint, emzv

    maps = [emzv._A_depth1_terms(n, r) for n, r in [(3, 2), (2, 5)]]
    maps += [emzv._A_len2_terms(n1, n2) for n1, n2 in [(3, 2), (1, 4)]]
    maps += [(emzv._B_depth1_terms(n, r), None) for n, r in [(3, 2), (5, 4)]]
    maps.append(eisint._eichler_terms(6))
    maps.append(eisenstein._eis_E_terms(12))
    return maps


def _library_series(tau, ctx):
    """Eisenstein, iterated-Eisenstein and eMZV series as the library builds
    them at ctx: eis_E for k = 4..24 at three times the automatic q_order (so
    the guard passes at every k), eisint.gamma of depth one and two, two of
    them scaled by 2^-300 and 2^-150 (the accuracy is relative to the terms,
    however small), and the series of the term maps that A_depth1, A_len2 and
    B_depth1 sum at tau (``_library_maps``)."""
    from ellipsum import eisenstein, eisint

    with ctx.workprec():
        N = auto_q_order(tau, ctx)
        out = [eisenstein.eis_E(k, 3 * N) for k in range(4, 25, 2)]
        out += [eisint.gamma(nvec, N) for nvec in [(4,), (8,), (0, 4), (4, 0), (4, 6)]]
        out += [out[4].scale(mp.ldexp(1, -300)), out[-1].scale(mp.ldexp(1, -150))]
        out += [eisenstein._divisor_series(terms, head, N)
                for terms, head in _library_maps()[:5]]  # A_depth1, A_len2, B_depth1(3, 2)
    return out


def _naive_sum(f, tau, ctx):
    """(sum of the terms c tau^i q^j of f, sum of their moduli) at ctx."""
    with ctx.workprec():
        q = mp.exp(2j * mp.pi * tau)
        terms = [c * tau**i * q**j for (i, j), c in f.coeffs.items()]
        return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("re_tau, im_tau", KERNEL_TAUS)
def test_fixed_point_eval_matches_naive_sum_of_library_series(re_tau, im_tau, digits):
    # the block-scaled kernel of eval_with_bound against the term-by-term sum
    # at +20 digits, within 10^-(digits+5) of the sum of |terms|
    ctx, ref_ctx = PrecisionCtx(digits), PrecisionCtx(digits + 20)
    tau = mp.mpc(re_tau, im_tau)
    for f in _library_series(tau, ctx):
        got = eval_at(f, tau, ctx)
        ref, scale = _naive_sum(f, tau, ref_ctx)
        with ref_ctx.workprec():
            assert abs(got - ref) <= mp.mpf(10) ** -(digits + 5) * scale, f


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("re_tau, im_tau", KERNEL_TAUS)
def test_divisor_value_matches_naive_sum_and_series_route(re_tau, im_tau, digits):
    # the integer route of eisenstein._divisor_value against the term-by-term
    # sum of the map's series at +20 digits, within 10^-(digits+5) of the sum of
    # |terms|, and against eval_with_bound of the series: the same value within
    # that tolerance and the same bound, or the same GuardError; at half the
    # automatic q_order every map trips the guard
    from ellipsum.eisenstein import _divisor_series, _divisor_value

    ctx, ref_ctx = PrecisionCtx(digits), PrecisionCtx(digits + 20)
    tau = mp.mpc(re_tau, im_tau)
    N = auto_q_order(tau, ctx)
    maps, trips = _library_maps(), 0
    for terms, head in maps:
        for order in (N // 2, N, 3 * N):
            with ctx.workprec():
                series = _divisor_series(terms, head, order)
            try:
                want, want_bound = eval_with_bound(series, tau, ctx)
            except GuardError as error:
                with pytest.raises(GuardError) as got_error:
                    _divisor_value(terms, head, order, tau, ctx)
                assert str(got_error.value) == str(error)
                trips += order < N
                continue
            got, bound = _divisor_value(terms, head, order, tau, ctx)
            with ref_ctx.workprec():
                ref, scale = _naive_sum(_divisor_series(terms, head, order), tau, ref_ctx)
                tol = mp.mpf(10) ** -(digits + 5) * scale
                assert abs(got - ref) <= tol, (terms, order)
                assert abs(got - want) <= tol, (terms, order)
                assert abs(bound - want_bound) <= mp.mpf("1e-20") * want_bound, (terms, order)
    assert trips == len(maps)


def _bad_arguments():
    """(call, the name its ValueError must carry) for non-integer indices and
    negative or non-integer q_orders of every q-series entry, and non-integer
    exponents and q_order of the series constructor."""
    from ellipsum import eisenstein, eisint, emzv

    tau = mp.mpc("0.1", "1.1")
    return {
        "A_depth1 q_order=-1": (lambda: emzv.A_depth1(3, 2, tau, CTX, q_order=-1), "q_order"),
        "A_depth1 q_order=2.5": (lambda: emzv.A_depth1(3, 2, tau, CTX, q_order=2.5), "q_order"),
        "A_depth1 n": (lambda: emzv.A_depth1(2.5, 2, tau, CTX), "n=2.5"),
        "A_depth1 series r": (lambda: emzv.A_depth1(2, 1.5), "r=1.5"),
        "A_depth1_general s": (lambda: emzv.A_depth1_general(0.5, 2, 1, tau, CTX), "s=0.5"),
        "A_len2 n2": (lambda: emzv.A_len2(2, 2.5, tau, CTX), "n2=2.5"),
        "B_depth1 r": (lambda: emzv.B_depth1(3, 2.5, tau, CTX), "r=2.5"),
        "B_depth1 q_order": (lambda: emzv.B_depth1(3, 2, tau, CTX, q_order=-2), "q_order"),
        "B_inf_depth1 n": (lambda: emzv.B_inf_depth1(4.5, 1), "n=4.5"),
        "A_inf_depth1 n": (lambda: emzv.A_inf_depth1(2.5, 1), "n=2.5"),
        "A_len1 n": (lambda: emzv.A_len1(2.5), "n=2.5"),
        "hatA r": (lambda: emzv.hatA(4.5, tau, CTX), "r=4.5"),
        "eis_G k": (lambda: eisenstein.eis_G(4.5, 5), "k=4.5"),
        "eis_Gbb q_order": (lambda: eisenstein.eis_Gbb(4, -1), "q_order"),
        "eis_E k": (lambda: eisenstein.eis_E(4.5, 5), "k=4.5"),
        "eis_E q_order": (lambda: eisenstein.eis_E(4, 2.5), "q_order"),
        "gammaL0 k": (lambda: eisint.gammaL0(4, 1.5, 5), "k=1.5"),
        "gammaR0 q_order": (lambda: eisint.gammaR0(4, 2, -1), "q_order"),
        "eichler_E k": (lambda: eisint.eichler_E(4.5, 5), "k=4.5"),
        "gamma index": (lambda: eisint.gamma((4, 0.5), 5), "index 0.5 of nvec"),
        "gamma q_order": (lambda: eisint.gamma((4,), 2.5), "q_order"),
        "QTauSeries q_order": (lambda: QTauSeries(2.5, {(0, 1): 1}), "q_order"),
        "QTauSeries tau exponent": (lambda: QTauSeries(3, {(1.5, 2): 1}), "tau_exp=1.5"),
        "QTauSeries q exponent": (lambda: QTauSeries(3, {(0, 1.9): 2}), "q_exp=1.9"),
    }


@pytest.mark.parametrize("case", list(_bad_arguments()))
def test_q_series_entries_refuse_bad_indices_and_orders_by_name(case):
    # one check for every entry: a non-integer index, or a negative or
    # non-integer q_order, is a ValueError naming the argument, never a value
    call, name = _bad_arguments()[case]
    with pytest.raises(ValueError) as error:
        call()
    assert type(error.value) is ValueError
    assert name in str(error.value)
