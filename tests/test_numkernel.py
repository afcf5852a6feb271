"""Exact-arithmetic and multi-zeta kernel checks."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsum import numkernel
from ellipsum.numkernel import (
    BinaryWord,
    MZVIndex,
    PrecisionCtx,
    _li_half_cached,
    _mzv_cached,
    _word_groups,
    bernoulli_number,
    bernoulli_periodic,
    bernoulli_poly,
    index_from_word,
    mzv,
    mzv_many,
    polylog,
    shuffle,
    stuffle,
    sv_mzv,
    word_from_index,
    zeta_int,
)

CTX = PrecisionCtx(digits=40)


def test_precision_guard():
    with pytest.raises(ValueError):
        PrecisionCtx(digits=5)


def test_bernoulli_small_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert all(bernoulli_number(n) == 0 for n in range(3, 31, 2))


def test_bernoulli_recurrence():
    # sum_{k=0}^{n} B_k / (k! (n-k+1)!) vanishes for n >= 1
    for n in range(1, 31):
        total = sum(
            bernoulli_number(k)
            / (math.factorial(k) * math.factorial(n - k + 1))
            for k in range(n + 1)
        )
        assert total == 0


def test_bernoulli_poly_and_periodic():
    assert bernoulli_poly(3, Fraction(1, 2)) == 0
    for n in range(7):
        assert bernoulli_poly(n, 0) == bernoulli_number(n)
    assert bernoulli_periodic(2, Fraction(5, 4)) == bernoulli_poly(2, Fraction(1, 4))


def test_even_zeta_euler_closed_form():
    with CTX.workprec():
        for k in range(1, 6):
            b = bernoulli_number(2 * k)
            ref = ((-1) ** (k + 1) * mp.mpf(b.numerator) / b.denominator
                   * (2 * mp.pi) ** (2 * k) / (2 * mp.factorial(2 * k)))
            assert abs(zeta_int(2 * k, CTX) - ref) < mp.mpf("1e-35")


def test_mzv_known_values():
    with CTX.workprec():
        assert abs(mzv((1, 2), CTX) - mp.zeta(3)) < mp.mpf("1e-35")
        assert abs(mzv((1, 3), CTX) - mp.zeta(4) / 4) < mp.mpf("1e-35")
        assert abs(mzv((2,), CTX) - mp.zeta(2)) < mp.mpf("1e-35")


def test_mzv_rejects_divergent_index():
    with pytest.raises(ValueError):
        mzv((2, 1), CTX)


def test_word_index_roundtrip():
    for idx in [(2,), (3,), (1, 2), (2, 3), (1, 1, 2)]:
        w = word_from_index(idx)
        assert isinstance(w, BinaryWord)
        assert index_from_word(w) == MZVIndex(idx)
        assert w.weight == MZVIndex(idx).weight


def test_shuffle_product_numeric():
    with CTX.workprec():
        for a, b in [((2,), (2,)), ((2,), (3,)), ((1, 2), (2,))]:
            prod = mzv(a, CTX) * mzv(b, CTX)
            total = sum(
                c * mzv(index_from_word(w), CTX)
                for w, c in shuffle(word_from_index(a), word_from_index(b)).items()
            )
            assert abs(prod - total) < mp.mpf("1e-30")


def test_stuffle_zeta_product():
    # zeta(r) zeta(s) = zeta(r,s) + zeta(s,r) + zeta(r+s)
    with CTX.workprec():
        for r in (2, 3, 4):
            for s in (2, 3, 4):
                counts = stuffle((r,), (s,))
                total = sum(c * mzv(idx, CTX) for idx, c in counts.items())
                assert abs(total - mp.zeta(r) * mp.zeta(s)) < mp.mpf("1e-30")


def test_polylog_against_mpmath():
    with CTX.workprec():
        for k in (2, 3):
            for z in (mp.mpf("0.3"), mp.mpf("-0.5"), mp.mpc("0.2", "0.4")):
                assert abs(polylog(k, z, CTX) - mp.polylog(k, z)) < mp.mpf("1e-30")


def test_polylog_monotone_on_unit_interval():
    with CTX.workprec():
        vals = [polylog(2, mp.mpf(z) / 10, CTX) for z in range(1, 10)]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_single_valued_catalogue():
    with CTX.workprec():
        for k in (1, 2, 3):
            assert abs(sv_mzv((2 * k,), CTX)) < mp.mpf("1e-35")
        for k in (3, 5, 7):
            assert abs(sv_mzv((k,), CTX) - 2 * mp.zeta(k)) < mp.mpf("1e-30")
        assert abs(sv_mzv((3, 5), CTX)
                   + 10 * mp.zeta(3) * mp.zeta(5)) < mp.mpf("1e-28")
        ref = (2 * mzv((3, 5, 3), CTX) - 2 * mp.zeta(3) * mzv((3, 5), CTX)
               - 10 * mp.zeta(3) ** 2 * mp.zeta(5))
        assert abs(sv_mzv((3, 5, 3), CTX) - ref) < mp.mpf("1e-28")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_word_roundtrip_property(entries):
    if entries[-1] < 2:
        entries = entries + [2]
    idx = MZVIndex(entries)
    assert index_from_word(word_from_index(idx)) == idx


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.booleans(), min_size=1, max_size=4),
    st.lists(st.booleans(), min_size=1, max_size=4),
)
def test_shuffle_counts_property(a, b):
    w1, w2 = BinaryWord(map(int, a)), BinaryWord(map(int, b))
    counts = shuffle(w1, w2)
    assert sum(counts.values()) == math.comb(len(w1) + len(w2), len(w1))
    assert all(len(w) == len(w1) + len(w2) for w in counts)


CTX60 = PrecisionCtx(digits=60)


def _close(value, reference, ctx):
    return abs(value - reference) <= ctx.eps * abs(reference)


def test_mzv_depth_one_matches_mpmath_zeta():
    with CTX60.workprec():
        for k in range(2, 15):
            assert _close(mzv((k,), CTX60), mp.zeta(k), CTX60), k


def test_mzv_depth_two_stuffle_against_mpmath_zeta():
    # zeta(r) zeta(s) = zeta(r,s) + zeta(s,r) + zeta(r+s) for r + s <= 12
    with CTX60.workprec():
        for r in range(2, 11):
            for s in range(2, 13 - r):
                total = sum(c * mzv(idx, CTX60) for idx, c in stuffle((r,), (s,)).items())
                assert _close(total, mp.zeta(r) * mp.zeta(s), CTX60), (r, s)


def test_mzv_duality_with_single_zeta():
    # zeta(1, ..., 1, 2) of weight n is dual to zeta(n); up to depth 11
    ctx = PrecisionCtx(digits=100)
    with ctx.workprec():
        for n in range(3, 13):
            assert _close(mzv((1,) * (n - 2) + (2,), ctx), mp.zeta(n), ctx), n


def _compositions(weight, depth):
    if depth == 1:
        yield (weight,)
        return
    for k in range(1, weight - depth + 2):
        for rest in _compositions(weight - k, depth - 1):
            yield (k,) + rest


@pytest.mark.parametrize("weight, depth", [(8, 3), (9, 4)])
def test_mzv_sum_theorem(weight, depth):
    # the admissible indices of a given weight and depth sum to zeta(weight)
    with CTX60.workprec():
        total = sum(
            mzv(idx, CTX60) for idx in _compositions(weight, depth) if idx[-1] >= 2
        )
        assert _close(total, mp.zeta(weight), CTX60)


def test_mzv_ignores_ambient_precision_and_cache_order():
    indices = [(2,), (1, 2), (3, 5, 3), (2, 2, 7), (1, 1, 1, 4), (2, 9)]

    def values(order, ambient_dps):
        _mzv_cached.clear()
        _li_half_cached.clear()
        with mp.workdps(ambient_dps):
            return {idx: mzv(idx, CTX60) for idx in order}

    low = values(indices, 15)
    high = values(list(reversed(indices)), 200)
    assert all(low[idx] == high[idx] for idx in indices)


# indices whose Hoelder splits share polylog tails: the S_zagier(4, n)
# compositions, (3,5,3) with (3,5), and (2,9) with (11,)
_SHARING = [(1, 1, 5), (2, 5), (1, 1, 8), (2, 8), (3, 5, 3), (3, 5), (2, 9), (11,)]


@pytest.mark.parametrize("digits", [32, 60, 100])
def test_mzv_many_batch_single_and_order_agree_bit_for_bit(digits):
    ctx = PrecisionCtx(digits=digits)

    def cold(fn):
        _mzv_cached.clear()
        _li_half_cached.clear()
        return fn()

    batch = cold(lambda: mzv_many(_SHARING, ctx))
    single = cold(lambda: {idx: mzv(idx, ctx) for idx in _SHARING})
    reverse = cold(lambda: mzv_many(_SHARING[::-1], ctx))
    assert list(batch) == _SHARING
    for idx in _SHARING:
        assert batch[idx]._mpf_ == single[idx]._mpf_ == reverse[idx]._mpf_, idx
    # a batch that is partly cached returns the cached values
    assert mzv_many([(2, 9), (4, 7)], ctx)[2, 9] is reverse[2, 9]
    with pytest.raises(ValueError, match=r"index \(2, 1\) is not admissible"):
        mzv_many([(2,), (2, 1)], ctx)
    with pytest.raises(ValueError, match=r"index \(2, 1\) is not admissible"):
        mzv((2, 1), ctx)


def _admissible_indices(max_weight):
    return [idx for weight in range(2, max_weight + 1) for depth in range(1, weight)
            for idx in _compositions(weight, depth) if idx[-1] >= 2]


def _li_half_reference(e, dps, rows):
    """Li_e(1/2) * 2^prec by the plain floor recursion: full-length cumulative
    rows per tail (memoised in ``rows``), each term divided by n**m at once."""
    n_terms, prec = int(3.33 * dps) + 25, int(3.33 * (dps + 10)) + 32

    def cumulative(tail):
        if not tail:
            return [1 << prec] * n_terms
        if tail not in rows:
            below, out, acc = cumulative(tail[1:]), [], 0
            for n in range(1, n_terms + 1):
                out.append(acc)
                acc += below[n - 1] // n ** tail[0]
            rows[tail] = out
        return rows[tail]

    below = cumulative(e[1:])
    return sum((below[n - 1] >> n) // n ** e[0] for n in range(1, n_terms + 1))


def _hoelder_splits_reference(idx):
    """The splits built on the binary word: the suffix w[j:] and the reversed
    complement of w[:j], each regrouped into exponents."""
    w = word_from_index(idx)
    return tuple((_word_groups(w[j:]), _word_groups(tuple(1 - a for a in reversed(w[:j]))))
                 for j in range(len(w) + 1))


def test_hoelder_splits_match_the_word_construction():
    for idx in _admissible_indices(14):
        assert numkernel._hoelder_splits.__wrapped__(idx) == _hoelder_splits_reference(idx), idx


@pytest.mark.parametrize("dps", [42, 70, 110])
def test_li_half_integers_match_the_plain_recursion(dps, monkeypatch):
    # every exponent tuple that the admissible indices of weight <= 12 reach,
    # computed in one batch from an empty memo
    tuples = {e for idx in _admissible_indices(12)
              for pair in numkernel._hoelder_splits(idx) for e in pair if e}
    monkeypatch.setattr(numkernel, "_li_half_cached", {})
    got = numkernel._li_half_many(tuples, dps)
    rows = {}
    for e in sorted(tuples):
        assert got[e] == _li_half_reference(e, dps, rows), e


@pytest.mark.parametrize("digits", [32, 60, 100])
def test_mzv_within_its_precision_of_more_digits(digits):
    ctx, ref_ctx = PrecisionCtx(digits), PrecisionCtx(digits + 30)
    indices = _admissible_indices(10)
    values, refs = mzv_many(indices, ctx), mzv_many(indices, ref_ctx)
    tol = mp.mpf(10) ** -(digits + 5)
    with ref_ctx.workprec():
        for idx in indices:
            assert abs(values[idx] - refs[idx]) <= tol * abs(refs[idx]), idx
        for k in range(2, 11):
            assert abs(values[k,] - mp.zeta(k)) <= tol * mp.zeta(k), k


def test_shuffle_and_stuffle_return_a_new_counter_each_call():
    # the products are memoised across calls; a caller that edits its
    # Counter must not change what the next call returns
    for product, x, y in [(stuffle, (2,), (3, 2)), (shuffle, (0, 1), (0, 0, 1))]:
        expected = dict(product(x, y))
        product(x, y).clear()
        assert product(x, y) == expected
        assert product(x, y) is not product(x, y)
