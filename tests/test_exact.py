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
_BOX = list(itertools.product(*[range(5)] * 3, *[range(3)] * 2))


def _table() -> dict:
    """{key: digest} of the digest table: the keys of _BOX that the layer rule
    reduces in their own order."""
    table = {}
    for line in _DIGESTS.read_text().splitlines():
        if not line.startswith("#"):
            *key, digest = line.split()
            table[tuple(map(int, key))] = digest
    return table


def _swaps(key) -> set:
    """The orders of key of equal value: groups 1 and 3 trade places at
    alpha = 0, groups 1 and 2 at beta = 0, and any order is equal at
    alpha = beta = 0."""
    m1, m2, m3, alpha, beta = key
    if alpha == beta == 0:
        return {(*m, 0, 0) for m in itertools.permutations(key[:3])}
    if alpha == 0:
        return {(m3, m2, m1, 0, beta)}
    return {(m2, m1, m3, alpha, 0)} if beta == 0 else set()


def test_R_exact_matches_the_pinned_digests():
    # the table holds the dicts of the per-family kernels that the layer
    # rule replaced and of the rule on 90 more keys; every key must give the
    # same {monomial: Fraction}
    table = _table()
    assert len(table) == 648
    for key, digest in table.items():
        got = hashlib.sha256(repr(sorted(exact._R_exact(key).items())).encode()).hexdigest()
        assert got == digest, key
    # the rest of the exact domain in the box: keys whose own order the rule
    # does not reach but an order of equal value does
    swapped = {key for key in _BOX if key not in table
               and any(other in table for other in _swaps(key))}
    assert len(swapped) == 32
    assert {key for key in _BOX if exact._R_exact(key) is not None} == set(table) | swapped


def test_R_exact_is_equal_on_orders_of_equal_value():
    # pairs of keys that both reduce in their own order and differ by a swap
    # of equal value; most give the same dict, the rest agree in value
    table = _table()
    pairs = {tuple(sorted((key, other))) for key in table for other in _swaps(key)
             if other in table and other != key}
    assert len(pairs) == 238
    assert sum(exact._R_exact(a) != exact._R_exact(b) for a, b in pairs) == 72
    ctx = PrecisionCtx(digits=40)
    terms, _, ctx = exact._row_terms({key: exact._R_exact(key) for pair in pairs
                                      for key in pair}, ctx)
    with ctx.workprec():
        for a, b in pairs:
            assert abs(mp.fsum(terms[a]) - mp.fsum(terms[b])) < mp.mpf("1e-35"), (a, b)


def _rows():
    """Every row of the d2pt and criterion-05 d3pt polynomials, of S(m, n) and
    of the R-sums of the digest table."""
    rows = {("R", key): exact._R_exact(key) for key in _table()}
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
