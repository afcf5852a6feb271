"""Arbitrary-precision scalar kernel: Bernoulli data, zeta values, multiple
zeta values, polylogarithms, and the word/index combinatorics they satisfy.

Conventions used throughout the package:

* ``mzv((k1, ..., kr))`` is the nested sum over strictly increasing
  ``0 < v1 < ... < vr`` of ``prod(v_i ** -k_i)``; it converges iff the *last*
  exponent is at least 2.
* Binary words encode iterated-integral representations; a convergent word
  starts with the letter 0 and ends with the letter 1.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

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


def _li_half_many(exponent_tuples: set, dps: int) -> dict:
    """Li_{m1,...,ms}(1/2) = sum over n1 > n2 > ... > ns >= 1 of
    (1/2)^{n1} / prod(n_i^{m_i}) for each exponent tuple, keyed by tuple.

    Cumulative-sum recursion on Python ints scaled by 2^prec: ``inner[tail]``
    holds, for n1 = 1..n_terms, the sum over chains below n1 of the product
    of the tail's factors. Tuples with the same tail share its array, and
    each array extends the one of its own tail by one exponent, so they are
    built shortest tail first. Every floor division and the ``>> n1`` weight
    drop less than one unit of 2^-prec; the 32 bits beyond the working
    precision cover their sum over all terms and levels.
    """
    n_terms = int(3.33 * dps) + 25
    prec = int(3.33 * (dps + 10)) + 32
    # powers[m][i] = (i + 1) ** m, the divisor at index n = i + 1
    powers = {
        m: [j**m for j in range(1, n_terms + 1)]
        for m in {m for e in exponent_tuples for m in e}
    }
    tails = {e[k:] for e in exponent_tuples for k in range(1, len(e))}
    inner = {(): [1 << prec] * n_terms}
    for tail in sorted(tails, key=len):
        below = inner[tail[1:]]
        inner[tail] = [
            0,
            *accumulate(a // b for a, b in zip(below[:-1], powers[tail[0]])),
        ]
    values = {}
    with mp.workdps(dps + 10):
        for e in exponent_tuples:
            total = sum(
                (a // b) >> n
                for n, a, b in zip(range(1, n_terms + 1), inner[e[1:]], powers[e[0]])
            )
            values[e] = mp.ldexp(mp.mpf(total), -prec)
    return values


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


def mzv(idx, ctx: PrecisionCtx):
    """Multiple zeta value of an admissible index, increasing-argument
    convention, via the Hoelder convolution at 1/2 (every factor is a rapidly
    convergent multiple polylogarithm at 1/2).

    All 2(n+1) polylogarithms of a weight-n word are computed in one pass in
    binary fixed point, sharing the cumulative sums of common exponent tails;
    the result depends only on the index and ``ctx.dps``, never on the
    ambient mpmath precision.
    """
    idx = MZVIndex(idx)
    if not idx.admissible:
        raise ValueError(f"index {tuple(idx)} is not admissible")
    return _mzv_cached(tuple(idx), ctx.dps)


@functools.lru_cache(maxsize=None)
def _mzv_cached(idx: tuple, dps: int):
    w = word_from_index(idx)
    # (suffix, dual) exponent tuples of each split; () stands for the factor 1
    pairs = [
        (
            _word_groups(w[j:]),
            _word_groups(tuple(1 - a for a in reversed(w[:j]))),
        )
        for j in range(len(w) + 1)
    ]
    li = _li_half_many({e for pair in pairs for e in pair if e}, dps)
    with mp.workdps(dps + 10):
        li[()] = mp.mpf(1)
        total = mp.mpf(0)
        for left, right in pairs:
            total += li[left] * li[right]
        return +total


def polylog(k: int, z, ctx: PrecisionCtx):
    """Classical polylogarithm Li_k(z) for positive integer k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    z = mp.mpmathify(z)
    if k == 1 and z == 1:
        raise ValueError("Li_1(1) diverges")
    with ctx.workprec():
        return +mp.polylog(k, z)


def _quasi_shuffle(kind, x, y, collide: bool) -> Counter:
    """Merge two sequences from their outermost (last) entries: the last
    entry of a merged word comes from either factor or, if ``collide``, is
    the sum of both last entries."""

    @functools.lru_cache(maxsize=None)
    def rec(a: tuple, b: tuple) -> tuple:
        if not a:
            return ((b, 1),)
        if not b:
            return ((a, 1),)
        out: Counter = Counter()
        for word, mult in rec(a[:-1], b):
            out[word + (a[-1],)] += mult
        for word, mult in rec(a, b[:-1]):
            out[word + (b[-1],)] += mult
        if collide:
            for word, mult in rec(a[:-1], b[:-1]):
                out[word + (a[-1] + b[-1],)] += mult
        return tuple(out.items())

    return Counter({kind(word): mult for word, mult in rec(tuple(kind(x)), tuple(kind(y)))})


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
            return (
                2 * mzv((3, 5, 3), ctx)
                - 2 * z3 * mzv((3, 5), ctx)
                - 10 * z3**2 * zeta_int(5, ctx)
            )
    raise KeyError(f"single-valued value for {tuple(idx)} is not catalogued")
