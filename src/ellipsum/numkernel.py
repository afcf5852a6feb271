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
* ``_constants(exact, ctx)`` is the one evaluator of exact constants, maps
  {(key, MZV monomial, power of 2 pi i): c}: one ``mzv_many`` pass, and one
  integer sum per key, rounded once.
* ``shuffle`` and ``stuffle`` memoise their products across calls and
  return a new ``Counter`` on each call.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import floordiv, rshift

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, fzero, round_nearest

__all__ = [
    "PrecisionCtx",
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

_MAX_TERMS = 200000  # cap on every q_order, and on every iteration count in eisenstein
# the most bytes a float64 route (mgf's lattice and R sums, conical's shell
# sums and quasi-Monte-Carlo batches) may predict before it runs
_MAX_BYTES = 2**30


def _check_args(q_order=None, tau=None, **indices) -> None:
    """Refuse by name a non-integer index (a tuple of them entry by entry), and a
    q_order that is not a nonnegative integer or exceeds _MAX_TERMS (at Im(tau)
    when given), with a ValueError; None is the automatic q_order."""
    def bad(x):
        return not (isinstance(x, numbers.Real) and math.isfinite(x) and int(x) == x)
    for name, value in indices.items():
        for x in value if isinstance(value, tuple) else (value,):
            if bad(x):
                what = f"index {x!r} of {name}" if isinstance(value, tuple) else f"{name}={x!r}"
                raise ValueError(f"{what} must be an integer")
    if q_order is not None and (bad(q_order) or q_order < 0):
        raise ValueError(f"q_order must be a nonnegative integer, not {q_order!r}")
    if q_order is not None and q_order > _MAX_TERMS:
        at = f" at Im(tau)={mp.nstr(mp.im(tau), 8)}" if tau is not None else ""
        raise ValueError(f"q_order={q_order}{at} exceeds the cap of {_MAX_TERMS} terms")


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
    return BinaryWord(_word(idx))


def index_from_word(w) -> MZVIndex:
    """Inverse of :func:`word_from_index` for convergent words."""
    w = BinaryWord(w)
    if not w.convergent:
        raise ValueError("word is not convergent (must start with 0, end with 1)")
    return MZVIndex(_index(w))


def _word(idx) -> tuple:
    """``word_from_index`` unchecked, for any entries >= 1."""
    return tuple(a for k in reversed(idx) for a in (0,) * (k - 1) + (1,))


def _index(w) -> tuple:
    """``index_from_word`` unchecked, for any word ending in 1."""
    return tuple(reversed(_word_groups(w)))


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
    """zeta(n) for integer n >= 2 by ``_constants``: for even n the exact
    -B_n (2 pi i)^n / (2 n!), for odd n the depth-one MZV."""
    if n < 2:
        raise ValueError("n must be >= 2")
    exact = ({(0, ((n,),), 0): 1} if n % 2
             else {(0, (), n): -bernoulli_number(n) / (2 * math.factorial(n))})
    return _constants(exact, ctx)[0].real


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


_GUARD_BITS = 8  # bits kept beyond the working precision before the one rounding


def _constants(exact: dict, ctx: PrecisionCtx | None = None) -> dict:
    """{key: mpc} of the exact map {(key, mono, p): c}, the sum of c mono
    (2 pi i)^p over the key's entries at the precision of ``ctx`` or the
    working one: the one evaluator of exact constants.  c is rational, or
    an integer pair (a, b), b > 0, for a/b; mono is an MZV monomial, a
    sorted tuple of admissible indices (() for 1).

    The MZVs come from one ``mzv_many`` pass (at the working precision's
    digits without ``ctx``), each read back through ``mzv`` and rounded to
    wp = prec + _GUARD_BITS bits.  Each term a/b mono (2 pi)^p, the factor
    taken at wp, is floored in integers to wp bits below its top bit (an
    integer is kept whole) and signed by i^p; the terms of each part (real
    for even p) are added exactly and rounded once."""
    prec = dps_to_prec(ctx.dps) if ctx else mp.mp.prec
    wp, factors, sums = prec + _GUARD_BITS, {}, {}
    zctx = ctx or PrecisionCtx(max(mp.mp.dps - 10, 10))
    if len(indices := {idx for _, mono, _ in exact for idx in mono}) > 1:
        mzv_many(indices, zctx)  # the pass; mzv reads each value back (one index: its pass)
    with mp.workprec(wp):
        zeta = {idx: +mzv(idx, zctx) for idx in indices}
        for (key, mono, p), c in exact.items():
            a, b = c if type(c) is tuple else (c.numerator, c.denominator)
            if (factor := factors.get((mono, p))) is None:
                factor = factors[mono, p] = math.prod(map(zeta.get, mono),
                                                      start=(2 * mp.pi) ** p)._mpf_[1:3]
            x = a * factor[0]
            sh = (min(wp + 2 - x.bit_length(), 0) if b == 1
                  else wp + 1 + b.bit_length() - x.bit_length())
            y, low = (x << sh) // b if sh >= 0 else x // (b << -sh), factor[1] - sh
            parts, i = sums.setdefault(key, [0, 0, 0, 0]), 2 * (p % 2)
            y = -y if p % 4 >= 2 else y
            if parts[i]:  # a further term of the part, added at the finer scale
                new = min(parts[i + 1], low)
                y, low = (parts[i] << parts[i + 1] - new) + (y << low - new), new
            parts[i:i + 2] = y, low
    return {key: mp.make_mpc((from_man_exp(yr, lr, prec, round_nearest) if yr else fzero,
                              from_man_exp(yi, li, prec, round_nearest) if yi else fzero))
            for key, (yr, lr, yi, li) in sums.items()}


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


# single-valued images {MZV monomial: c} (Brown, arXiv:1309.5309) of the
# catalogued MZVs of depth > 1; _sv_exact holds the rule at depth one
_SV_CATALOGUE = {
    (3, 5): {((3,), (5,)): -10},
    (3, 5, 3): {((3, 5, 3),): 2, ((3,), (3, 5)): -2, ((3,), (3,), (5,)): -10},
}


def _sv_exact(idx) -> dict:
    """The single-valued image of zeta(idx) as {MZV monomial: c}: 2 zeta(n)
    for odd n, 0 ({}) for even n, else the catalogue's entry."""
    idx = _admissible(idx)
    if len(idx) == 1:
        return {(idx,): 2} if idx[0] % 2 else {}
    if idx not in _SV_CATALOGUE:
        raise KeyError(f"single-valued value for {idx} is not catalogued")
    return _SV_CATALOGUE[idx]


def sv_mzv(idx, ctx: PrecisionCtx):
    """Single-valued image of a catalogued multiple zeta value (``_sv_exact``:
    single zetas, (3,5) and (3,5,3)), evaluated by ``_constants``."""
    values = _constants({(0, mono, 0): c for mono, c in _sv_exact(idx).items()}, ctx)
    return values[0].real if values else mp.mpf(0)
