"""Arbitrary-precision scalar kernel: Bernoulli data, zeta values, multiple
zeta values, polylogarithms, and the word/index combinatorics they satisfy.

Conventions used throughout the package:

* ``mzv((k1, ..., kr))`` is the nested sum over strictly increasing
  ``0 < v1 < ... < vr`` of ``prod(v_i ** -k_i)``; it converges iff the *last*
  exponent is at least 2.
* Binary words encode iterated-integral representations; a convergent word
  starts with the letter 0 and ends with the letter 1.
* ``mzv_many(indices, ctx)`` is the one MZV evaluator (``mzv`` is its batch
  of one). It makes one integer pass for the multiple polylogarithms at 1/2
  of every index not yet cached. Li_e(1/2) is memoised as an integer scaled
  by a power of two, by (exponent tuple, dps); each MZV sums its products of
  those integers exactly, is rounded once and is memoised by (index, dps).
  A value depends on nothing else, so batching and call order never change
  a bit of it.
* ``shuffle`` and ``stuffle`` memoise their products across calls and
  return a new ``Counter`` on each call.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import floordiv, rshift

import mpmath as mp

__all__ = [
    "PrecisionCtx",
    "Rational",
    "MZVIndex",
    "BinaryWord",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_periodic",
    "zeta_int",
    "mzv",
    "mzv_many",
    "polylog",
    "shuffle",
    "stuffle",
    "sv_mzv",
    "word_from_index",
    "index_from_word",
]

Rational = Fraction


@dataclass(frozen=True)
class PrecisionCtx:
    """Target precision in decimal digits.

    All numeric routines compute at ``digits + 10`` decimal places (10 guard
    digits for intermediates) and are expected to be accurate to roughly
    ``digits`` places.
    """

    digits: int = 30

    def __post_init__(self) -> None:
        if self.digits < 10:
            raise ValueError("precision must be at least 10 digits")

    @property
    def dps(self) -> int:
        return self.digits + 10

    def workprec(self):
        """Context manager setting mpmath working precision."""
        return mp.workdps(self.dps)

    @property
    def eps(self):
        return mp.mpf(10) ** (-self.digits)


def _fixed_part(x: tuple, wp: int) -> int:
    """A finite mpf, given as its raw ``_mpf_`` tuple, as the integer x * 2^wp
    truncated toward zero: ``int(mp.ldexp(x, wp))``."""
    sign, man, exp, bc = x
    if bc < 0:
        raise ValueError("fixed point needs a finite number")
    shift = exp + wp
    n = man << shift if shift >= 0 else man >> -shift
    return -n if sign else n


def _to_fixed(x, wp: int) -> tuple[int, int]:
    """An mpf or mpc as the Gaussian integer (re, im) ~ x * 2^wp, each part
    truncated toward zero (``_fixed_part``)."""
    re, im = x._mpc_ if type(x) is mp.mpc else (x._mpf_, mp.libmp.fzero)
    return _fixed_part(re, wp), _fixed_part(im, wp)


def _fixed_cmul(ar: int, ai: int, br: int, bi: int, wp: int) -> tuple[int, int]:
    """(ar + i ai)(br + i bi) / 2^wp for Gaussian integers scaled by 2^wp;
    each part is floored, so it is off by less than one unit of 2^-wp."""
    return (ar * br - ai * bi) >> wp, (ar * bi + ai * br) >> wp


def _fixed_horner(coeffs: list, q, bits: int) -> tuple[int, int]:
    """sum_j coeffs[j] q^j by Horner's rule, the coefficients Gaussian integers
    (re, im) at any one scale and the mpc q taken with ``bits`` significant
    bits (scaled by 2^(bits - mag(q))); the sum is at the coefficients' scale,
    each step off by less than one unit of it per part."""
    wq = bits - mp.mag(q)
    qr, qi = _to_fixed(q, wq)
    acc_re, acc_im = coeffs[-1]
    for cr, ci in reversed(coeffs[:-1]):
        # _fixed_cmul(acc, q) inlined: this loop is the q-series kernel
        acc_re, acc_im = (((acc_re * qr - acc_im * qi) >> wq) + cr,
                          ((acc_re * qi + acc_im * qr) >> wq) + ci)
    return acc_re, acc_im


def _fixed_mpc(re: int, im: int, wp: int) -> mp.mpc:
    """The Gaussian integer re + i im scaled by 2^-wp, rounded once to the
    working precision."""
    return mp.mpc(mp.ldexp(mp.mpf(re), -wp), mp.ldexp(mp.mpf(im), -wp))


def _decimal(x) -> str:
    """An mpf as a decimal string with at least ``mp.mp.dps`` digits and
    enough for its own mantissa, so a value built at a higher precision than
    the ambient one keeps its digits."""
    return mp.nstr(x, max(mp.mp.dps, mp.libmp.prec_to_dps(x._mpf_[3])), strip_zeros=False)


class MZVIndex(tuple):
    """Exponent tuple ``(k1, ..., kr)`` of a multiple zeta sum.

    Admissible (convergent) iff every entry is a positive integer and the
    last entry is at least 2.
    """

    def __new__(cls, entries):
        entries = tuple(int(k) for k in entries)
        if not entries:
            raise ValueError("index must be nonempty")
        if any(k < 1 for k in entries):
            raise ValueError("index entries must be positive integers")
        return super().__new__(cls, entries)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def admissible(self) -> bool:
        return self[-1] >= 2


class BinaryWord(tuple):
    """Word in the letters {0, 1}; convergent words start with 0 and end with 1."""

    def __new__(cls, letters):
        letters = tuple(int(a) for a in letters)
        if any(a not in (0, 1) for a in letters):
            raise ValueError("letters must be 0 or 1")
        return super().__new__(cls, letters)

    @property
    def weight(self) -> int:
        return len(self)

    @property
    def convergent(self) -> bool:
        return bool(self) and self[0] == 0 and self[-1] == 1


def word_from_index(idx) -> BinaryWord:
    """Binary word of an admissible index: each exponent ``k`` (read from the
    outermost, i.e. last, entry inward) contributes ``0``*(k-1) followed by ``1``."""
    idx = MZVIndex(idx)
    if not idx.admissible:
        raise ValueError("index is not admissible (last entry must be >= 2)")
    letters: list[int] = []
    for k in reversed(idx):
        letters.extend([0] * (k - 1))
        letters.append(1)
    return BinaryWord(letters)


def index_from_word(w) -> MZVIndex:
    """Inverse of :func:`word_from_index` for convergent words."""
    w = BinaryWord(w)
    if not w.convergent:
        raise ValueError("word is not convergent (must start with 0, end with 1)")
    return MZVIndex(tuple(reversed(_word_groups(w))))


@functools.lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n as an exact rational, with B_1 = -1/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    p, q = mp.bernfrac(n)
    return Fraction(int(p), int(q))


@functools.lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x) in increasing powers of x."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = Fraction(math.comb(n, k)) * bernoulli_number(k)
    return tuple(coeffs)


def _bern(n: int) -> mp.mpf:
    """B_n as an mpf at the ambient precision."""
    b = bernoulli_number(n)
    return mp.mpf(b.numerator) / b.denominator


def bernoulli_poly(n: int, x):
    """Bernoulli polynomial B_n(x), evaluated by Horner on exact coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs = _bernoulli_poly_coeffs(n)
    acc = mp.mpf(0) if not isinstance(x, mp.mpc) else mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * x + mp.mpf(c.numerator) / c.denominator
    return acc


def bernoulli_periodic(n: int, x):
    """Periodized Bernoulli polynomial B_n({x}) with {x} the fractional part."""
    if isinstance(x, (int, Fraction)):
        frac = x - (Fraction(x).numerator // Fraction(x).denominator)
    else:
        frac = x - mp.floor(x)
    return bernoulli_poly(n, frac)


def zeta_int(n: int, ctx: PrecisionCtx):
    """zeta(n) for integer n >= 2; even arguments use the exact Bernoulli
    closed form, odd arguments are delegated to mpmath."""
    if n < 2:
        raise ValueError("n must be >= 2")
    with ctx.workprec():
        if n % 2 == 0:
            # zeta(2k) = -B_{2k} (2 pi i)^{2k} / (2 (2k)!)
            val = -_bern(n) * (2 * mp.pi) ** n * (-1) ** (n // 2) / (2 * mp.factorial(n))
        else:
            val = mp.zeta(n)
        return +val


# Li_e(1/2) * 2^prec as an int, by (exponent tuple, dps); see _li_half_many
_li_half_cached: dict = {}


def _li_half_scale(dps: int) -> tuple[int, int]:
    """(n_terms, prec) of the Li(1/2) sums at ``dps``: the terms n = 1..n_terms
    are kept and the values are integers scaled by 2^prec, 32 bits beyond
    ``dps + 10`` digits."""
    return int(3.33 * dps) + 25, int(3.33 * (dps + 10)) + 32


@functools.lru_cache(maxsize=None)
def _powers(d: int, n_terms: int) -> tuple:
    """(1**d, 2**d, ..., n_terms**d): the divisors of one quotient step."""
    return tuple(n**d for n in range(1, n_terms + 1))


def _quotients(row: list, exponents, n_terms: int):
    """(m, [row[i] // (i + 1)**m for each i]) for each m in ``exponents``,
    increasing. Each row is the previous one divided by (i + 1)**(m - m_prev),
    which is exact for row entries >= 0: floor(floor(a/b)/c) = floor(a/(bc))."""
    prev = 0
    for m in sorted(exponents):
        row = list(map(floordiv, row, _powers(m - prev, n_terms)))
        prev = m
        yield m, row


def _li_half_many(exponent_tuples: set, dps: int) -> dict:
    """Li_{m1,...,ms}(1/2) = sum over n1 > n2 > ... > ns >= 1 of
    (1/2)^{n1} / prod(n_i^{m_i}) for each exponent tuple, keyed by tuple, as
    an integer scaled by 2^prec (``_li_half_scale``).

    Cumulative-sum recursion on Python ints scaled by 2^prec: ``inner[tail]``
    holds, for n1 = 1..n_terms, the sum over chains below n1 of the product
    of the tail's factors. Tuples with the same tail share its array, and
    each array extends the one of its own tail by one exponent, so they are
    built shortest tail first. A tuple (m, *tail) reads its tail's array
    shifted once by the weights 2^-n1. The head exponents over one tail, and
    the first exponents of the arrays over one shorter tail, divide one
    quotient row in turn (``_quotients``), so each divisor is a small power.
    Every floor division and the ``>> n1`` weight drop less than one unit of
    2^-prec; the 32 bits beyond the working precision cover their sum over
    all terms and levels.

    The integers are memoised in ``_li_half_cached`` by (tuple, dps), and
    only the tuples not yet there are computed. This keeps results
    bit-identical whatever the batch: the integer of a tuple is the exact
    floor recursion on the tuple's own tails, a function of the tuple,
    ``n_terms`` and ``prec`` alone, and both of those depend only on ``dps``.
    Tail arrays are not kept between calls.
    """
    todo = {e for e in exponent_tuples if (e, dps) not in _li_half_cached}
    if todo:
        n_terms, prec = _li_half_scale(dps)
        heads = defaultdict(set)  # tail -> the head exponents of its todo tuples
        firsts = defaultdict(set)  # tail -> the first exponents of the longer tails on it
        for e in todo:
            heads[e[1:]].add(e[0])
            for k in range(1, len(e)):
                firsts[e[k + 1:]].add(e[k])
        inner = {(): [1 << prec] * n_terms}
        for below in sorted(firsts, key=len):
            for m, row in _quotients(inner[below][:-1], firsts[below], n_terms):
                inner[(m, *below)] = [0, *accumulate(row)]
        for tail, ms in heads.items():
            # floor(floor(a / 2^n) / b) = floor(a / (b 2^n)) = floor(floor(a / b) / 2^n)
            weighted = list(map(rshift, inner[tail], range(1, n_terms + 1)))
            for m, row in _quotients(weighted, ms, n_terms):
                _li_half_cached[(m, *tail), dps] = sum(row)
    return {e: _li_half_cached[e, dps] for e in exponent_tuples}


def _word_groups(w) -> tuple[int, ...]:
    """Group a word ending in 1 into polylog exponents (zeros-run + 1)."""
    parts: list[int] = []
    zeros = 0
    for a in w:
        if a == 0:
            zeros += 1
        else:
            parts.append(zeros + 1)
            zeros = 0
    if zeros:
        raise ValueError("word must end in 1")
    return tuple(parts)


@functools.lru_cache(maxsize=None)
def _hoelder_splits(idx: tuple) -> tuple:
    """The (suffix, dual) exponent tuples of the n + 1 splits of the weight-n
    word of ``idx``; () stands for the factor 1.

    Read off the exponents without building the word: the word is the blocks
    0^(m-1) 1 for m in reversed ``idx``. A split o letters into block m has
    the suffix (m - o, *later exponents), and its dual (the reversed
    complement of the prefix) is o ones in front of the dual at the block's
    start. A whole block puts 0 1^(m-1) in front of that dual: m - 1 more
    ones, then the 0 adds one to the first exponent.
    """
    r = idx[::-1]
    splits = []
    dual = ()
    for p, m in enumerate(r):
        rest = r[p + 1:]
        splits += [((m - o, *rest), (1,) * o + dual) for o in range(m)]
        ones = (1,) * (m - 1) + dual
        dual = (ones[0] + 1, *ones[1:])
    splits.append(((), dual))
    return tuple(splits)


def _admissible(idx) -> tuple:
    idx = MZVIndex(idx)
    if not idx.admissible:
        raise ValueError(f"index {tuple(idx)} is not admissible")
    return tuple(idx)


def mzv(idx, ctx: PrecisionCtx):
    """Multiple zeta value of an admissible index, increasing-argument
    convention: ``mzv_many([idx], ctx)[tuple(idx)]``."""
    idx = _admissible(idx)
    return mzv_many([idx], ctx)[idx]


# MZV values by (index tuple, dps)
_mzv_cached: dict = {}


def mzv_many(indices, ctx: PrecisionCtx) -> dict:
    """Multiple zeta values of admissible indices, keyed by index tuple, via
    the Hoelder convolution at 1/2: each is a sum over the n+1 splits of its
    weight-n word of products of two multiple polylogarithms at 1/2.

    The polylogarithms of every index not yet in ``_mzv_cached`` are made in
    one ``_li_half_many`` pass over the union of their exponent tuples, so
    the batch shares the cumulative sums of common tails. The products of
    each index are summed exactly on those integers and the sum is rounded
    once, at ``ctx.dps + 10`` digits. Each value depends only on its index
    and ``ctx.dps`` (never on the batch, the call order or the ambient mpmath
    precision), so a batch, single calls and any order give bit-identical
    results.
    """
    idxs = [_admissible(i) for i in indices]
    dps = ctx.dps
    todo = {idx: _hoelder_splits(idx) for idx in idxs if (idx, dps) not in _mzv_cached}
    if todo:
        li = _li_half_many({e for pairs in todo.values() for pair in pairs for e in pair if e},
                           dps)
        prec = _li_half_scale(dps)[1]
        li[()] = 1 << prec
        with mp.workdps(dps + 10):
            for idx, pairs in todo.items():
                total = sum(li[left] * li[right] for left, right in pairs)
                _mzv_cached[idx, dps] = mp.ldexp(mp.mpf(total), -2 * prec)
    return {idx: _mzv_cached[idx, dps] for idx in idxs}


def polylog(k: int, z, ctx: PrecisionCtx):
    """Classical polylogarithm Li_k(z) for positive integer k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    z = mp.mpmathify(z)
    if k == 1 and z == 1:
        raise ValueError("Li_1(1) diverges")
    with ctx.workprec():
        return +mp.polylog(k, z)


@functools.lru_cache(maxsize=None)
def _merge(a: tuple, b: tuple, collide: bool) -> tuple:
    """The merges of ``_quasi_shuffle`` as ((word, multiplicity), ...) over
    plain tuples, memoised across calls."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out: Counter = Counter()
    for word, mult in _merge(a[:-1], b, collide):
        out[word + (a[-1],)] += mult
    for word, mult in _merge(a, b[:-1], collide):
        out[word + (b[-1],)] += mult
    if collide:
        for word, mult in _merge(a[:-1], b[:-1], collide):
            out[word + (a[-1] + b[-1],)] += mult
    return tuple(out.items())


def _quasi_shuffle(kind, x, y, collide: bool) -> Counter:
    """Merge two sequences from their outermost (last) entries: the last
    entry of a merged word comes from either factor or, if ``collide``, is
    the sum of both last entries. Each call returns a new Counter."""
    merged = _merge(tuple(kind(x)), tuple(kind(y)), collide)
    return Counter({kind(word): mult for word, mult in merged})


def shuffle(w1, w2) -> Counter:
    """Shuffle product of two binary words as a multiset of words."""
    return _quasi_shuffle(BinaryWord, w1, w2, collide=False)


def stuffle(i1, i2) -> Counter:
    """Stuffle (harmonic) product of two indices as a multiset of indices."""
    return _quasi_shuffle(MZVIndex, i1, i2, collide=True)


def sv_mzv(idx, ctx: PrecisionCtx):
    """Single-valued image of the catalogued multiple zeta values.

    Covered: even single zetas (0), odd single zetas (doubled), the depth-two
    value (3,5) and the depth-three value (3,5,3).
    """
    idx = MZVIndex(idx)
    with ctx.workprec():
        if idx.depth == 1:
            n = idx[0]
            if n < 2:
                raise ValueError("single zeta argument must be >= 2")
            if n % 2 == 0:
                return mp.mpf(0)
            return 2 * zeta_int(n, ctx)
        if tuple(idx) == (3, 5):
            return -10 * zeta_int(3, ctx) * zeta_int(5, ctx)
        if tuple(idx) == (3, 5, 3):
            z3 = zeta_int(3, ctx)
            mzv_many([(3, 5, 3), (3, 5)], ctx)  # one pass; the mzv calls read its cache
            return (2 * mzv((3, 5, 3), ctx) - 2 * z3 * mzv((3, 5), ctx)
                    - 10 * z3**2 * zeta_int(5, ctx))
    raise KeyError(f"single-valued value for {tuple(idx)} is not catalogued")
