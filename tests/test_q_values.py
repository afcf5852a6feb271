"""The q-series values pinned bit for bit: every value the guarded summation
returns is compared with ``==`` against the digests in q_value_digests.txt.

Print the table (the header of the digest file says with which library) by
    PYTHONPATH=src:tests python -c "import test_q_values as t; t.print_table()"
"""

import hashlib
from pathlib import Path

import mpmath as mp
import pytest

from ellipsum import eisenstein, eisint, emzv, qseries
from ellipsum.numkernel import PrecisionCtx

_DIGESTS = Path(__file__).with_name("q_value_digests.txt")
_DIGITS = (30, 100)
_TAUS = ("0.1+1.1i", "-0.37+0.8i")


def _raw(x):
    """x's exact bits: the raw tuples of an mpf or mpc, recursively in a list."""
    if isinstance(x, (list, tuple)):
        return [_raw(y) for y in x]
    if isinstance(x, mp.mpc):
        return x._mpc_
    if isinstance(x, mp.mpf):
        return x._mpf_
    return x


def _cases(tau, ctx):
    """(label, thunk) for every pinned value at tau and ctx."""
    def series(build, times=1):
        # the q-series constructors build at the working precision
        def value():
            with ctx.workprec():
                N = times * qseries.auto_q_order(tau, ctx)
                return qseries.eval_with_bound(build(N), tau, ctx)
        return value

    out = [(f"A_depth1{n, r}", lambda n=n, r=r: emzv.A_depth1(n, r, tau, ctx))
           for n in range(7) for r in range(1, 5)]
    out += [(f"A_len2{n1, n2}", lambda n1=n1, n2=n2: emzv.A_len2(n1, n2, tau, ctx))
            for n1 in range(1, 6) for n2 in range(1, 6)]
    out += [(f"B_depth1{n, r}", lambda n=n, r=r: emzv.B_depth1(n, r, tau, ctx))
            for n in range(2, 6) for r in range(2, 5)]
    out += [(f"hatA{r, form}", lambda r=r, form=form: emzv.hatA(r, tau, ctx, form))
            for r in range(2, 7) for form in ("direct", "eichler")]
    out += [(f"appendixB_vectors({which!r})",
             lambda which=which: emzv.appendixB_vectors(which, tau, ctx))
            for which in ("V32", "V23", "V14")]
    out += [(f"eis_nonholo({s})", lambda s=s: eisenstein.eis_nonholo(s, tau, ctx))
            for s in range(2, 5)]
    out += [(f"eval_with_bound(gamma({word}))",
             series(lambda N, word=word: eisint.gamma(word, N)))
            for word in [(4,), (0, 4), (4, 0), (4, 6), (2, 0, 4)]]
    out += [(f"eval_with_bound(eis_E({k}),{times}N)",
             series(lambda N, k=k: eisenstein.eis_E(k, N), times))
            for k in (4, 6, 12, 20) for times in (1, 3)]
    return out


def _table(digits: int, tau: str) -> dict:
    """{label: digest} of the sha256 of repr(_raw(value)), or of the error's
    type and message, for every case at digits and tau."""
    ctx = PrecisionCtx(digits)
    with ctx.workprec():
        tau_value = mp.mpc(*tau[:-1].rsplit("+", 1))
    table = {}
    for label, thunk in _cases(tau_value, ctx):
        try:
            text = repr(_raw(thunk()))
        except (ValueError, ArithmeticError) as exc:
            text = f"{type(exc).__name__}: {exc}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        table[f"{digits} {tau} {label.replace(' ', '')}"] = digest
    return table


def print_table() -> None:
    for digits in _DIGITS:
        for tau in _TAUS:
            for key, digest in _table(digits, tau).items():
                print(key, digest)


def _pinned() -> dict:
    lines = _DIGESTS.read_text().splitlines()
    return dict(line.rsplit(" ", 1) for line in lines if not line.startswith("#"))


@pytest.mark.parametrize("tau", _TAUS)
@pytest.mark.parametrize("digits", _DIGITS)
def test_values_and_bounds_match_pinned_digests(digits, tau):
    got = _table(digits, tau)
    pinned = {key: d for key, d in _pinned().items() if key.startswith(f"{digits} {tau} ")}
    assert len(pinned) == len(got)
    assert [key for key in got if got[key] != pinned.get(key)] == []
