"""Exact results as {MZV monomial: Fraction}, a monomial being a sorted tuple of
MZV indices (their product): S-sums, R-sums with an exact reduction and the
Laurent polynomials, built without numpy and summed by ``value``/``laurent``."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp

from . import numkernel
from .laurent import LaurentPoly
from .numkernel import PrecisionCtx, _word_groups, shuffle, stuffle

__all__: list[str] = []


# ---------------------------------------------------------------------------
# evaluation


def _zeta(indices: set, ctx: PrecisionCtx) -> dict:
    """The MZVs of ``indices`` from one ``mzv_many`` pass, each read back through
    ``mzv`` (a cache hit): a trace of mzv (bench/tracer.py) sees one call per MZV."""
    numkernel.mzv_many(indices, ctx)
    return {idx: numkernel.mzv(idx, ctx) for idx in indices}


def _terms(combo: dict, zeta: dict) -> list:
    """c * prod(zeta[I] for I in mono) of each term, multiplied left to right."""
    return [mp.fprod([mp.mpf(c.numerator) / c.denominator, *map(zeta.get, mono)])
            for mono, c in combo.items()]


# Terms carry a relative error of a few units in 10^-ctx.dps, so the ten guard
# digits of PrecisionCtx hold the absolute error of a sum of terms of total
# size up to 10^_GUARD below ctx.eps; larger sums take the difference in digits.
_GUARD = 8


def _row_terms(rows: dict, ctx: PrecisionCtx):
    """The terms of each row {key: combination}; the absolute sum of each
    row's terms; and the context they were made at: ``ctx``, or ctx with
    ceil(log10 size) - _GUARD more digits when a row's absolute sum exceeds
    10^_GUARD."""
    def made(ctx):
        zeta = _zeta({idx for row in rows.values() for mono in row for idx in mono}, ctx)
        with ctx.workprec():
            terms = {e: _terms(row, zeta) for e, row in rows.items()}
            return terms, {e: mp.fsum(ts, absolute=True) for e, ts in terms.items()}

    terms, sizes = made(ctx)
    size = max(sizes.values(), default=0)
    if size > 10 ** _GUARD:
        with ctx.workprec():
            ctx = PrecisionCtx(ctx.digits + int(mp.ceil(mp.log10(size))) - _GUARD)
        terms, sizes = made(ctx)
    return terms, sizes, ctx


def value(combo: dict, ctx: PrecisionCtx):
    """The combination summed by one ``fsum``, within the absolute bound
    ctx.eps (at more digits than ``ctx`` for large terms, see _row_terms)."""
    terms, _, ctx = _row_terms({0: combo}, ctx)
    with ctx.workprec():
        return mp.fsum(terms[0])


def laurent(rows: dict, ctx: PrecisionCtx) -> LaurentPoly:
    """The polynomial in y with ``rows[e]`` at y^e, each coefficient within
    the absolute bound ctx.eps; a coefficient within rounding of 0 is 0."""
    terms, sizes, ctx = _row_terms(rows, ctx)
    with ctx.workprec():
        coeffs = {e: mp.fsum(ts) for e, ts in terms.items()}
        return LaurentPoly({e: c for e, c in coeffs.items() if abs(c) > ctx.eps * sizes[e]}, "y")


# ---------------------------------------------------------------------------
# exact R sums
#
# Every R-sum of a key with a group of size 0, two groups of size 1, one
# group of size 1 beside two of size 2, or three groups of size 2 reduces to
# an exact Q-combination of MZV monomials.  Write Z(n; k_1, ..., k_r) for the
# nested sum over 0 < v_1 < ... < v_{r-1} < n of prod v_i^-k_i, times n^-k_r
# (the top index is n; the increasing convention of mzv).  Only the top
# exponent may be 0: Z(n; K, 0) = sum_{m < n} Z(m; K) and Z(n; (0,)) = 1.
# A sequence is a dict {(monomial, K): Fraction} for sum c prod(zeta(I) for
# I in monomial) Z(n; K); an exact value is a dict {monomial: Fraction}.
# S_r(n) = r! Z(n; 1^r).
#
# For a >= 1 a group of size m with momentum a and l negative units has
# weight c_m(l + a, l); a group of size 1 forces l = 0 and weight 1/a, an
# empty group forces a = l = 0, and c_2(l + a, l) = [l = 0] S_2(a) +
# 2 [l >= 1] / (l (l + a)).  So 2^(alpha + beta) R is
#   (a) one group empty: a product of two sums, or, when the empty group
#       sits in a denominator, a sum over n of n^-e times a convolution;
#   (b) two groups of size 1: 2 F_m(p, q), with F_m(p, q) = sum_{n >= 1}
#       sum_r C(m, r) S_r(n) n^-q [x^n] Li_p(x) (-log(1 - x))^(m - r);
#   (c) (1, 2, 2): 2 sum_a a^-1 T_alpha(a) T_beta(a), T_e(a) = sum_l
#       c_2(l + a, l) (l + a)^-e; (2, 1, 2) and (2, 2, 1): see _R_212;
#   (d) (2, 2, 2): the layer a = 0, where c_2(l, l) = 2 l^-2, plus twice the
#       layers a >= 1, split at l1 = 0; see _R_222.


def _acc(out: dict, key, c) -> None:
    c += out.get(key, 0)
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def _seq(*K, mono=()) -> dict:
    """The sequence prod(zeta(I) for I in mono) * Z(n; K)."""
    return {(mono, K): Fraction(1)}


def _lin(*terms) -> dict:
    """sum of c * f over the (c, f) pairs."""
    out = {}
    for c, f in terms:
        for key, v in f.items():
            _acc(out, key, c * v)
    return out


def _mono(m1, m2) -> tuple:
    return tuple(sorted(m1 + m2))


def _seq_mul(f: dict, g: dict) -> dict:
    """Pointwise product: Z(n; A, a) Z(n; B, b) is the stuffle of A and B
    below the common top index n, with top exponent a + b."""
    out = {}
    for (m1, K1), c1 in f.items():
        for (m2, K2), c2 in g.items():
            lo1, lo2, top = K1[:-1], K2[:-1], (K1[-1] + K2[-1],)
            merged = (stuffle(lo1, lo2).items() if lo1 and lo2
                      else [(lo1 or lo2, 1)])
            for lo, c in merged:
                _acc(out, (_mono(m1, m2), tuple(lo) + top), c1 * c2 * c)
    return out


def _seq_pow(f: dict, k: int) -> dict:
    """n^-k times f(n)."""
    return {(m, K[:-1] + (K[-1] + k,)): c for (m, K), c in f.items()}


def _word(K) -> tuple:
    """Binary word of Li_K(x) = sum_n Z(n; K) x^n (entries >= 1)."""
    return tuple(a for k in reversed(K) for a in (0,) * (k - 1) + (1,))


def _seq_conv(f: dict, g: dict) -> dict:
    """sum over a + b = n, a, b >= 1, of f(a) g(b): the coefficient of x^n
    in the product of the generating polylogarithms, a shuffle of words."""
    out = {}
    for (m1, K1), c1 in f.items():
        for (m2, K2), c2 in g.items():
            for w, c in shuffle(_word(K1), _word(K2)).items():
                K = tuple(reversed(_word_groups(w)))
                _acc(out, (_mono(m1, m2), K), c1 * c2 * c)
    return out


def _seq_total(f: dict) -> dict:
    """sum over n >= 1 of f(n): Z(n; K) sums to zeta(K)."""
    out = {}
    for (m, K), c in f.items():
        if K[-1] < 2 or 0 in K:
            raise ValueError(f"divergent nested sum Z(n; {K})")
        _acc(out, _mono(m, (K,)), c)
    return out


def _S_seq(r: int) -> dict:
    """S_r(n) = [x^n] (-log(1 - x))^r for n >= 1."""
    return {((), (1,) * r): Fraction(math.factorial(r))} if r else {}


def _tail_seq(j: int) -> dict:
    """sum_{v > n} v^-j, regularised to -H_n at j = 1."""
    head = [(1, _seq(0, mono=((j,),)))] if j > 1 else []
    return _lin(*head, (-1, _seq(j, 0)), (-1, _seq(j)))


def _diag_seq(m: int) -> dict:
    """c_m(l, l) for l >= 1 (the only layer of a key with an empty group)."""
    return _lin(*((math.comb(m, r), _seq_mul(_S_seq(r), _S_seq(m - r)))
                  for r in range(1, m)))


def _T2_seq(e: int) -> dict:
    """T_e(a) = S_2(a) a^-e + 2 sum_{l >= 1} l^-1 (l + a)^-(e + 1), by
    partial fractions in l: the sum is -sum_{i=1..e+1} tail_i(a) a^(i-e-2)."""
    return _lin((1, _seq_pow(_S_seq(2), e)),
                *((-2, _seq_pow(_tail_seq(i), e + 2 - i)) for i in range(1, e + 2)))


def _F(m: int, p: int, q: int) -> dict:
    """F_m(p, q) = sum_{a >= 1, l >= 0} c_m(l + a, l) / (a^p (l + a)^q)."""
    terms = []
    for r in range(1, m + 1):
        inner = _seq(p) if r == m else _seq_conv(_S_seq(m - r), _seq(p))
        terms.append((math.comb(m, r), _seq_mul(_seq_pow(_S_seq(r), q), inner)))
    return _seq_total(_lin(*terms))


def _R_212(alpha: int, beta: int) -> dict:
    """2^(alpha+beta-1) R(2, 1, 2; alpha, beta) = sum_{a >= 1} a^-1 sum_{l1,
    l3} c(l1) c(l3) b^-alpha (b + l3)^-beta with b = a + l1 and c(l) =
    c_2(l + a, l).  The l1 = 0 layer is a^-alpha S_2(a) T_beta(a); for
    l1 >= 1 the l3 = 0 term is one convolution, and partial fractions in l3
    turn sum_{l3 >= 1} 1 / (l3 (l3 + a) (l3 + b)^beta) into
    a^-1 [l1^-beta H_a + sum_{j=1..beta} (l1^(j-beta-1) - b^(j-beta-1)) tail_j(b)]."""
    one, two = _seq(1), _seq(2)
    terms = [
        (1, _seq_pow(_seq_mul(_S_seq(2), _T2_seq(beta)), 1 + alpha)),
        (2, _seq_pow(_seq_conv(_seq_pow(_S_seq(2), 1), one), 1 + alpha + beta)),
        (4, _seq_pow(_seq_conv(_lin((1, _seq(1, 2)), (1, _seq(3))), _seq(1 + beta)),
                     1 + alpha)),
    ]
    for j in range(1, beta + 1):
        kernel = _lin((1, _seq_pow(_seq_conv(two, _seq(beta - j + 2)), 1 + alpha)),
                      (-1, _seq_pow(_seq_conv(two, one), 2 + alpha + beta - j)))
        terms.append((4, _seq_mul(kernel, _tail_seq(j))))
    return _seq_total(_lin(*terms))


def _U2_seq(e: int) -> dict:
    """U_e(n) = sum_{l >= 1} c_2(l, l) (n + l)^-e = 2 sum_l l^-2 (n + l)^-e, by
    partial fractions in l: 2 zeta(2) n^-e + 2 sum_{j=1..e} (e + 1 - j)
    n^(j-e-2) tail_j(n) (the l^-1 part has regularised sum 0)."""
    return _lin((2, _seq(e, mono=((2,),))),
                *((2 * (e + 1 - j), _seq_pow(_tail_seq(j), e + 2 - j)) for j in range(1, e + 1)))


def _T2_split(e: int) -> list:
    """T_e(a, l1) = sum_l c_2(l + a, l) (l + b)^-e for l1 >= 1, b = a + l1:
    S_2(a) b^-e + 2 a^-1 H_a l1^-e + 2 a^-1 sum_{j=1..e} (l1^(j-e-1) -
    b^(j-e-1)) tail_j(b) by _R_212's partial fractions, as (f, k, g) triples
    for the terms f(a) l1^-k g(b); f names the sequence in a, "S" for
    S_2(a), "H" for 2 a^-1 H_a and "1" for 2 a^-1."""
    out = [("S", 0, _seq(e)), ("H", e, _seq(0))]
    for j in range(1, e + 1):
        out += [("1", e + 1 - j, _tail_seq(j)),
                ("1", 0, _lin((-1, _seq_pow(_tail_seq(j), e + 1 - j))))]
    return out


def _R_222(alpha: int, beta: int) -> dict:
    """2^(alpha+beta) R(2, 2, 2; alpha, beta) = sum_{l1} 2 l1^-2 U_alpha(l1)
    U_beta(l1) (layer a = 0) + 2 sum_{a >= 1} [S_2(a) T_alpha(a) T_beta(a)
    + sum_{l1 >= 1} 2 l1^-1 b^-1 T_alpha(a, l1) T_beta(a, l1)].  Each product
    of two _T2_split triples is f1 f2(a) l1^-(k1+k2+1) times g1 g2(b); the
    sum over a + l1 = b is one convolution per (f1 f2, k), which multiplies
    the sum of its g1 g2.  Every nested sum converges: the convolution has a
    top exponent >= 1 and b^-1 adds one."""
    f = {"S": _S_seq(2), "H": _lin((-2, _seq_pow(_tail_seq(1), 1))), "1": _lin((2, _seq(1)))}
    terms = [(2, _seq_pow(_seq_mul(_U2_seq(alpha), _U2_seq(beta)), 2)),
             (2, _seq_mul(_S_seq(2), _seq_mul(_T2_seq(alpha), _T2_seq(beta))))]
    tails: dict = {}
    for f1, k1, g1 in _T2_split(alpha):
        for f2, k2, g2 in _T2_split(beta):
            tails.setdefault((*sorted((f1, f2)), k1 + k2 + 1), []).append((4, _seq_mul(g1, g2)))
    for (f1, f2, k), gs in tails.items():
        conv = _seq_conv(_seq_mul(f[f1], f[f2]), _seq(k))
        terms.append((1, _seq_mul(conv, _seq_pow(_lin(*gs), 1))))
    return _seq_total(_lin(*terms))


def _R_family(key) -> str | None:
    """'a', 'b', 'c' or 'd' for a key with an exact reduction (any alpha,
    beta >= 0), else None."""
    m, alpha, beta = sorted(key[:3]), key[3], key[4]
    if min(alpha, beta) < 0:
        return None
    if m[0] == 0 and m[1] > 0:
        return "a"
    if m[:2] == [1, 1]:
        return "b"
    if m == [1, 2, 2]:
        return "c"
    if m == [2, 2, 2]:
        return "d"
    return None


@functools.lru_cache(maxsize=None)
def _R_exact(key) -> dict:
    """R(key) as {MZV monomial: Fraction}, for a key of one of the families;
    cached, so the caller must not change it."""
    m1, m2, m3, alpha, beta = key
    family = _R_family(key)
    if family == "a":
        if m1 == 0:
            left = _seq_total(_seq_pow(_diag_seq(m2), alpha))
            right = _seq_total(_seq_pow(_diag_seq(m3), beta))
            value = {}
            for u, cu in left.items():
                for v, cv in right.items():
                    _acc(value, _mono(u, v), cu * cv)
        elif m2 == 0:  # denominators l1^alpha (l1 + l3)^beta
            value = _seq_total(_seq_pow(_seq_conv(_seq_pow(_diag_seq(m1), alpha),
                                                  _diag_seq(m3)), beta))
        else:  # denominators (l1 + l2)^alpha l1^beta
            value = _seq_total(_seq_pow(_seq_conv(_seq_pow(_diag_seq(m1), beta),
                                                  _diag_seq(m2)), alpha))
        scale = Fraction(1, 2 ** (alpha + beta))
    elif family == "b":
        if m2 == m3 == 1:
            value = _F(m1, 2, alpha + beta)
        elif m2 == 1:
            value = _F(m3, 2 + alpha, beta)
        else:
            value = _F(m2, 2 + beta, alpha)
        scale = Fraction(2, 2 ** (alpha + beta))
    elif family == "c":
        if m1 == 1:
            value = _seq_total(_seq_pow(_seq_mul(_T2_seq(alpha), _T2_seq(beta)), 1))
        else:
            value = _R_212(alpha, beta) if m2 == 1 else _R_212(beta, alpha)
        scale = Fraction(2, 2 ** (alpha + beta))
    elif family == "d":
        value = _R_222(alpha, beta)
        scale = Fraction(1, 2 ** (alpha + beta))
    else:
        raise ValueError(f"R{tuple(key)} has no exact reduction")
    return {mono: c * scale for mono, c in value.items()}


# ---------------------------------------------------------------------------
# S sums


def _compositions_12(total: int):
    """All compositions of `total` into parts 1 and 2."""
    if total == 0:
        yield ()
        return
    for first in (1, 2):
        if first <= total:
            for rest in _compositions_12(total - first):
                yield (first,) + rest


def _S_combo(m: int, n: int) -> dict:
    """S(m, n) = m! sum over {1,2}-compositions (a_1, ..., a_r) of m - 2 of
    2^(2(r+1)-m-n) zeta(a_1, ..., a_r, n + 2)."""
    return {(comp + (n + 2,),): math.factorial(m) * Fraction(2) ** (2 * (len(comp) + 1) - m - n)
            for comp in _compositions_12(m - 2)}


# ---------------------------------------------------------------------------
# Laurent polynomials


@functools.lru_cache(maxsize=None)
def _vec_compositions(l, parts) -> tuple:
    """All tuples of `parts` nonnegative vectors summing to l componentwise."""
    def comps(n, k):
        if k == 1:
            yield (n,)
            return
        for first in range(n + 1):
            for rest in comps(n - first, k - 1):
                yield (first,) + rest

    return tuple(tuple(zip(*per_coord))
                 for per_coord in itertools.product(*(comps(li, parts) for li in l)))


def _fact_vec(v):
    out = 1
    for x in v:
        out *= math.factorial(x)
    return out


def _multinomial_base(l, a, b, c, m=()) -> Fraction:
    """l! / (a! b! c! m!) (-1)^|b| / 6^|c|, the factor every three-point
    term carries."""
    return Fraction((-1) ** sum(b) * _fact_vec(l),
                    _fact_vec(a) * _fact_vec(b) * _fact_vec(c) * _fact_vec(m) * 6 ** sum(c))


def _dA(l) -> Fraction:
    """The no-loop contribution: the coefficient of y^|l|."""
    f = math.factorial
    total = Fraction(0)
    for a, b, c in _vec_compositions(l, 3):
        lam = 2 * sum(a) + sum(b) + 1
        total += (_multinomial_base(l, a, b, c) * f(2 * a[1] + b[1]) * f(2 * a[2] + b[2])
                  / (f(2 * (a[1] + a[2]) + b[1] + b[2] + 1) * (lam + 1)))
    return 2 * 2 ** sum(l) * total


def _m_ok_B(m) -> bool:
    pos = [x for x in m if x > 0]
    if len(pos) < 2:
        return False
    if len(pos) == 2 and min(pos) < 2:
        return False  # one zero entry forces the others >= 2
    return True


def _dB_terms(l):
    """(e_pow, coefficient, R key) of each coupled term; the term adds
    coefficient * R(key) * 2^e_pow at y^e_pow."""
    f = math.factorial
    for a, b, c, m in _vec_compositions(l, 4):
        if not _m_ok_B(m):
            continue
        base = 2 * _multinomial_base(l, a, b, c, m)
        e_pow = sum(c) - sum(a) - 2
        for u in range(2 * a[2] + b[2] + 1):
            v = 2 * a[2] + b[2] - u
            for e in range(2 * a[0] + b[0] + u + 1):
                g = 2 * a[0] + b[0] + u - e
                alpha = 2 * a[1] + b[1] + v + g + 1
                beta = e + 1
                # (2a2 + b2)! (2a0 + b0 + u)! (alpha - 1)! / (u! v! g!), an integer
                ratio = (math.comb(2 * a[2] + b[2], u) * f(2 * a[0] + b[0] + u) // f(g)
                         * f(alpha - 1))
                yield e_pow, base * (-1) ** v * ratio, (m[0], m[1], m[2], alpha, beta)


def _dB_all(l):
    """_dB_terms of the three orderings that d3pt sums."""
    for perm in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
        yield from _dB_terms(tuple(l[i] for i in perm))


def _dC_terms(l):
    """(e, coefficient, (m1, n)) of each single-group term of one ordering;
    the term adds coefficient * S(m1, n) * 2^e at y^e."""
    f = math.factorial
    for a, b, c, m in _vec_compositions(l, 4):
        if m[1] or m[2] or m[0] < 2:
            continue
        base = 2 * _multinomial_base(l, a, b, c, m)
        e_pow = sum(c) - sum(a) - 2
        lam = 2 * sum(a) + sum(b) + 1
        for u in range(2 * a[2] + b[2] + 1):
            v = 2 * a[2] + b[2] - u
            pref = base * Fraction((-1) ** v * math.comb(2 * a[2] + b[2], u) * f(lam),
                                   2 * a[1] + b[1] + v + 1)
            # constant-in-y piece S(m1, lam + 1) at power e_pow
            yield e_pow, pref, (m[0], lam + 1)
            for j in range(lam + 1):
                yield e_pow + lam - j, pref * Fraction((-1) ** j, f(lam - j)), (m[0], j + 1)


def _d3pt_rows(l) -> tuple[dict, list]:
    """d_{l1,l2,l3}(y) as {y power: combination}, and the (y power,
    coefficient, R key) of each term whose R-sum has no exact reduction."""
    # {(y power, R key or S pair (m1, n)): coefficient / 2^power} over all orderings
    sums: dict = {}
    for e, coef, key in itertools.chain(
            _dB_all(l), *(_dC_terms(tuple(l[i] for i in perm))
                          for perm in [(0, 1, 2), (1, 0, 2), (2, 0, 1)])):
        _acc(sums, (e, key), coef)
    rows = {sum(l): {(): _dA(l)}}
    fallback = []
    for (e, key), coef in sums.items():
        coef *= Fraction(2) ** e
        if len(key) == 2:
            combo = _S_combo(*key)
        elif _R_family(key):
            combo = _R_exact(key)
        else:
            fallback.append((e, coef, key))
            continue
        row = rows.setdefault(e, {})
        for mono, c in combo.items():
            _acc(row, mono, coef * c)
    return rows, fallback


def _d2pt_rows(l: int) -> dict:
    """d_l(y) as {y power: combination}: at y^l the no-loop term of d_{l,0,0},
    and at y^(c - a - 1) S(m, 2a + b + 1) (2a + b)! 2^(c-a) times the
    multinomial factor for each a + b + c + m = l with m >= 2, all over 4^l."""
    rows = {l: {(): _dA((l, 0, 0)) / 4 ** l}}
    for (a,), (b,), (c,), (m,) in _vec_compositions((l,), 4):
        if m >= 2:
            coef = (_multinomial_base((l,), (a,), (b,), (c,), (m,)) * math.factorial(2 * a + b)
                    * Fraction(2) ** (c - a) / 4 ** l)
            row = rows.setdefault(c - a - 1, {})
            for mono, s in _S_combo(m, 2 * a + b + 1).items():
                _acc(row, mono, coef * s)
    return rows
