"""Every public function of tau reads tau (and xi, alpha) at the precision of
its ``ctx``: its value is the same whatever the ambient mpmath precision."""

import inspect
from fractions import Fraction

import mpmath as mp
import pytest

from ellipsum import eisenstein, eisint, emzv, mgf, qseries
from ellipsum.numkernel import PrecisionCtx

MODULES = (emzv, eisenstein, eisint, qseries, mgf)
CTX = PrecisionCtx(50)

# inputs at 80 digits, none of them exact at 15
with mp.workdps(80):
    TAU = mp.mpc(mp.mpf(1) / 7, mp.mpf(8) / 7)
    XI = mp.mpc(mp.mpf(2) / 9, mp.mpf(3) / 7)
    ALPHA = mp.mpc(mp.mpf(1) / 11, mp.mpf(1) / 13)
    H = mp.mpf(1) / 997

SERIES = eisenstein.eis_E(4, 20)

# "module.name" -> {case id: call}
CASES = {
    "qseries.auto_q_order": {"": lambda: qseries.auto_q_order(TAU, CTX)},
    "qseries.eval_at": {"": lambda: qseries.eval_at(SERIES, TAU, CTX)},
    "qseries.eval_with_bound": {"": lambda: qseries.eval_with_bound(SERIES, TAU, CTX)},
    "emzv.A_depth1": {"": lambda: emzv.A_depth1(3, 2, TAU, CTX),
                      "series": lambda: emzv.A_depth1(3, 2, ctx=CTX).coeffs},
    "emzv.A_depth1_general": {"": lambda: emzv.A_depth1_general(1, 3, 1, TAU, CTX)},
    "emzv.A_len2": {"1,4": lambda: emzv.A_len2(1, 4, TAU, CTX),
                    "2,3": lambda: emzv.A_len2(2, 3, TAU, CTX),
                    "2,4": lambda: emzv.A_len2(2, 4, TAU, CTX),
                    "1,6": lambda: emzv.A_len2(1, 6, TAU, CTX)},
    "emzv.A_len2_cordouble": {"": lambda: emzv.A_len2_cordouble(3, 2, TAU, CTX)},
    "emzv.B_depth1": {"": lambda: emzv.B_depth1(3, 2, TAU, CTX)},
    "emzv.hatA": {"direct": lambda: emzv.hatA(4, TAU, CTX),
                  "eichler": lambda: emzv.hatA(4, TAU, CTX, form="eichler")},
    "emzv.appendixB_vectors": {"": lambda: emzv.appendixB_vectors("V14", TAU, CTX)},
    "emzv.quadrature_oracle": {"": lambda: emzv.quadrature_oracle((4,), TAU, CTX)},
    "eisenstein.theta": {"product": lambda: eisenstein.theta(XI, TAU, CTX),
                         "sum": lambda: eisenstein.theta(XI, TAU, CTX, mode="sum")},
    "eisenstein.theta_prime0": {"": lambda: eisenstein.theta_prime0(TAU, CTX)},
    "eisenstein.eta": {"": lambda: eisenstein.eta(TAU, CTX)},
    "eisenstein.kronecker_F": {"": lambda: eisenstein.kronecker_F(XI, ALPHA, TAU, CTX)},
    "eisenstein.f_n": {"": lambda: eisenstein.f_n(3, XI, TAU, CTX)},
    "eisenstein.omega_n": {"": lambda: eisenstein.omega_n(2, XI, TAU, CTX)},
    "eisenstein.eis_nonholo": {"cusp": lambda: eisenstein.eis_nonholo(3, TAU, CTX)},
    "eisenstein.green1": {"theta": lambda: eisenstein.green1(XI, TAU, CTX),
                          "fourier": lambda: eisenstein.green1(XI, TAU, CTX, mode="fourier")},
    "eisenstein.p_part": {"": lambda: eisenstein.p_part(XI, TAU, CTX)},
    "eisenstein.e_ab": {"green": lambda: eisenstein.e_ab(1, 1, XI, TAU, CTX),
                        "lattice": lambda: eisenstein.e_ab(2, 1, XI, TAU, CTX, M=40)},
    "eisenstein.d_ab_average": {"": lambda: eisenstein.d_ab_average(2, 1, XI, TAU, CTX)},
    "eisint.b30_reference": {"": lambda: eisint.b30_reference(TAU, CTX)},
    "mgf.D_lattice": {"": lambda: mgf.D_lattice(mgf.MultiGraph.banana(2), TAU, 10, CTX)},
    "mgf.identity_suite": {"": lambda: mgf.identity_suite(TAU, 10, CTX)},
    "mgf.laplace_fd": {"": lambda: mgf.laplace_fd(
        lambda t: eisenstein.eis_nonholo(2, t, CTX), TAU, H, CTX)},
}


def _tau_functions():
    """"module.name" of every public function of MODULES with a tau parameter,
    but the validator, which reads tau at the working precision of its caller."""
    return {
        f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
        for mod in MODULES
        for name, obj in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
        and "tau" in inspect.signature(obj).parameters
    } - {"qseries.check_tau"}


def test_every_public_tau_function_is_covered():
    assert _tau_functions() - set(CASES) == set()
    assert set(CASES) - _tau_functions() == set()


@pytest.mark.parametrize("call", [
    pytest.param(call, id=f"{name}[{case}]" if case else name)
    for name, calls in CASES.items() for case, call in calls.items()
])
def test_value_does_not_depend_on_ambient_precision(call):
    with mp.workdps(15):
        low = call()
    with mp.workdps(CTX.dps + 20):
        high = call()
    assert low == high


# functions of no tau that compute a constant at the precision of their ctx
CONSTANT_CASES = {
    "emzv.A_len1": lambda: emzv.A_len1(4, CTX),
    "emzv.A_inf_depth1[1,5]": lambda: emzv.A_inf_depth1(1, 5, CTX),
    "emzv.A_inf_depth1[3,2]": lambda: emzv.A_inf_depth1(3, 2, CTX),
    "emzv.B_inf_depth1": lambda: emzv.B_inf_depth1(5, 3, CTX).coeffs,
    "eisint.cocycle_S": lambda: eisint.cocycle_S(6, CTX),
}


@pytest.mark.parametrize("call", list(CONSTANT_CASES.values()), ids=list(CONSTANT_CASES))
def test_constant_does_not_depend_on_ambient_precision(call):
    with mp.workdps(15):
        low = call()
    with mp.workdps(CTX.dps + 20):
        high = call()
    assert low == high


# the exact maps of the q-series layer, rebuilt on each call (past their caches)
EXACT_MAPS = {
    "emzv._A_depth1_terms": lambda: emzv._A_depth1_terms(1, 6),
    "emzv._A_word_terms": lambda: emzv._A_word_terms.__wrapped__((0, 3, 0, 0)),
    "emzv._A_len2_terms": lambda: emzv._A_len2_terms(1, 4),
    "emzv._B_inf_terms": lambda: emzv._B_inf_terms.__wrapped__(5, 3),
    "emzv._B_depth1_terms": lambda: emzv._B_depth1_terms(5, 4),
    "eisenstein._eis_G_terms": lambda: eisenstein._eis_G_terms(6, -5),
    "eisenstein._eis_E_terms": lambda: eisenstein._eis_E_terms(8),
    "eisint._eichler_terms": lambda: eisint._eichler_terms(6),
    "eisint._gamma_rows": lambda: eisint._gamma_rows.__wrapped__((4, 0), 8),
}


def _leaves(x):
    """Every key and value of nested dicts, tuples and lists."""
    if isinstance(x, dict):
        x = [*x.keys(), *x.values()]
    if isinstance(x, (tuple, list)):
        return [leaf for y in x for leaf in _leaves(y)]
    return [x]


@pytest.mark.parametrize("build", list(EXACT_MAPS.values()), ids=list(EXACT_MAPS))
def test_exact_map_holds_exact_numbers_at_any_ambient_precision(build):
    # only ints, Fractions and None: nothing in a map meets mpmath
    with mp.workdps(15):
        low = build()
    with mp.workdps(120):
        high = build()
    assert low == high
    assert {type(x) for x in _leaves(low)} <= {int, Fraction, type(None)}
