"""Exact-layer checks: the R-sum dicts against pinned digests, the a-priori
size that fixes the digits, and one MZV pass per evaluation."""

import hashlib
import itertools
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from ellipsum import exact, numkernel
from ellipsum.numkernel import PrecisionCtx

_DIGESTS = Path(__file__).with_name("r_exact_digests.txt")


def _family_keys(m_max=4, e_max=2):
    return [key for key in itertools.product(*[range(m_max + 1)] * 3, *[range(e_max + 1)] * 2)
            if exact._R_family(key)]


def test_R_exact_matches_the_pinned_digests():
    # the table holds the dicts of the per-family kernels that the layer
    # rule replaced; every family key must give the same {monomial: Fraction}
    table = {}
    for line in _DIGESTS.read_text().splitlines():
        if not line.startswith("#"):
            *key, digest = line.split()
            table[tuple(map(int, key))] = digest
    assert sorted(table) == _family_keys() and len(table) == 558
    for key, digest in table.items():
        got = hashlib.sha256(repr(sorted(exact._R_exact(key).items())).encode()).hexdigest()
        assert got == digest, key


def _rows():
    """Every row of the d2pt and criterion-05 d3pt polynomials, of S(m, n) and
    of the family R-sums."""
    rows = {("R", key): exact._R_exact(key) for key in _family_keys()}
    for l in range(2, 9):
        rows.update({("d2pt", l, e): row for e, row in exact._d2pt_rows(l).items()})
    for l in [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 1, 5)]:
        rows.update({("d3pt", l, e): row for e, row in exact._d3pt_rows(l)[0].items()})
    for m, n in itertools.product(range(2, 9), range(8)):
        rows[("S", m, n)] = exact._S_combo(m, n)
    return rows


def test_size_bound_is_at_least_the_actual_size():
    # the a-priori size fixes the digits before any MZV is evaluated, so it
    # must not fall below the absolute sum of the terms; a row of rationals
    # meets it, up to the float rounding of the bound
    rows = _rows()
    _, sizes, _ = exact._row_terms(rows, PrecisionCtx(digits=10))
    for name, row in rows.items():
        assert sizes[name] <= exact._size_bound(row) * (1 + 1e-12), name


def test_value_and_laurent_make_one_mzv_pass(monkeypatch):
    calls = []
    many = numkernel.mzv_many

    def counted(indices, ctx):
        if len(indices) > 1:  # a pass, not the read-back of one value by mzv
            calls.append(ctx)
        return many(indices, ctx)

    monkeypatch.setattr(numkernel, "mzv_many", counted)
    # an a-priori size of 1.6e12 adds ceil(12.2) - 8 = 5 digits up front
    ctx = PrecisionCtx(digits=30)
    value = exact.value({((2,),): Fraction(10**12), ((3,),): Fraction(-1)}, ctx)
    assert calls == [PrecisionCtx(digits=35)]
    with mp.workdps(60):
        assert abs(value - (10**12 * mp.zeta(2) - mp.zeta(3))) < ctx.eps
    calls.clear()
    exact.laurent(exact._d3pt_rows((1, 1, 2))[0], ctx)
    assert calls == [ctx]
