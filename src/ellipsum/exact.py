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


def _size_bound(combo: dict) -> float:
    """sum |c| zeta(2)^len(mono), at least the absolute sum of the terms: no
    admissible MZV exceeds zeta(2)."""
    zeta2 = math.pi**2 / 6
    return sum(abs(c.numerator) / c.denominator * zeta2 ** len(mono) for mono, c in combo.items())


def _row_terms(rows: dict, ctx: PrecisionCtx):
    """The terms of each row {key: combination}; the absolute sum of each
    row's terms; and the context they were made at: ``ctx``, or ctx with
    ceil(log10 size) - _GUARD more digits when a row's _size_bound exceeds
    10^_GUARD, fixed before one mzv_many pass."""
    size = max(map(_size_bound, rows.values()), default=0)
    if size > 10 ** _GUARD:
        ctx = PrecisionCtx(ctx.digits + math.ceil(math.log10(size)) - _GUARD)
    zeta = _zeta({idx for row in rows.values() for mono in row for idx in mono}, ctx)
    with ctx.workprec():
        terms = {e: _terms(row, zeta) for e, row in rows.items()}
        return terms, {e: mp.fsum(ts, absolute=True) for e, ts in terms.items()}, ctx


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
# Write Z(n; k_1, ..., k_r) for the nested sum over 0 < v_1 < ... < v_{r-1} <
# n of prod v_i^-k_i, times n^-k_r (the top index is n; the increasing
# convention of mzv).  Only the top exponent may be 0: Z(n; K, 0) = sum_{m <
# n} Z(m; K) and Z(n; (0,)) = 1.  A sequence is a dict {(monomial, K):
# Fraction} for sum c prod(zeta(I) for I in monomial) Z(n; K); an exact value
# is a dict {monomial: Fraction}.  S_r(n) = r! Z(n; 1^r), S_0(n) = [n = 0].
#
# A group of size m with momentum a and l negative units weighs c_m(l + a, l)
# = sum_r C(m, r) S_r(l + a) S_{m-r}(l).  Group 1, with l1, sits in both
# denominators (b + l2)^alpha and (b + l3)^beta, b = a + l1.  The layer rule
# (_layer_rule) writes 2^(alpha + beta) R as points p(n), summed directly,
# and triples f(x) h(y) g(x + y), one convolution per distinct (f, h):
#   - a = 0: every group on its diagonal c_m(l, l) (_diag_seq; 0 for m = 1).
#     m1 = 0 pins l1 = 0, a product of two sums; m2 or m3 = 0 pins its own
#     l, l1^-e c_m1(l1) convolved with the other group; groups 2 and 3 of
#     size 2 sum over their l in closed form (_U2_seq);
#   - a >= 1, twice: a group of size 0 vanishes, and a pivot group splits
#     into S_m(a) at l = 0 and C(m, r) S_r(b) S_{m-r}(l), 0 < r < m, at
#     l >= 1 (_pivot_layers).  The pivot is group 1, whose partners of size
#     1 and 2 are closed forms in a at l1 = 0 and triples f(a) l1^-k g(b) at
#     l1 >= 1 (_closed); m1 = 1 leaves l1 = 0 alone, and the larger of
#     unequal groups 2 and 3 is then the pivot instead.
# The rule's reach is the exact domain (_R_exact, which also tries the
# orders of equal value at a zero exponent).  It does not reach a group of
# size >= 3 beside a pivot of size >= 2, as in (2, 1, 3); equal partners of
# size >= 3, as in (1, 3, 3); or, with no group of size 1, a diagonal beside
# sizes other than (2, 2), as in (2, 2, 3).


class _NoClosedForm(ValueError):
    """The layer rule needs a group in a closed form it does not have."""


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
    """c_m(l, l) for l >= 1."""
    return _lin(*((math.comb(m, r), _seq_mul(_S_seq(r), _S_seq(m - r)))
                  for r in range(1, m)))


def _T2_seq(e: int) -> dict:
    """T_e(a) = S_2(a) a^-e + 2 sum_{l >= 1} l^-1 (l + a)^-(e + 1), by
    partial fractions in l: the sum is -sum_{i=1..e+1} tail_i(a) a^(i-e-2)."""
    return _lin((1, _seq_pow(_S_seq(2), e)),
                *((-2, _seq_pow(_tail_seq(i), e + 2 - i)) for i in range(1, e + 2)))


def _U2_seq(e: int) -> dict:
    """U_e(n) = sum_{l >= 1} c_2(l, l) (n + l)^-e = 2 sum_l l^-2 (n + l)^-e, by
    partial fractions in l: 2 zeta(2) n^-e + 2 sum_{j=1..e} (e + 1 - j)
    n^(j-e-2) tail_j(n) (the l^-1 part has regularised sum 0)."""
    return _lin((2, _seq(e, mono=((2,),))),
                *((2 * (e + 1 - j), _seq_pow(_tail_seq(j), e + 2 - j)) for j in range(1, e + 1)))


def _T2_split(e: int) -> list:
    """T_e(a, l1) = sum_l c_2(l + a, l) (l + b)^-e for l1 >= 1, b = a + l1:
    S_2(a) b^-e + 2 a^-1 H_a l1^-e + 2 a^-1 sum_{j=1..e} (l1^(j-e-1) -
    b^(j-e-1)) tail_j(b), by partial fractions in l, as (f, k, g) triples
    for the terms f(a) l1^-k g(b)."""
    two = _lin((2, _seq(1)))
    out = [(_S_seq(2), 0, _seq(e)), (_lin((-2, _seq_pow(_tail_seq(1), 1))), e, _seq(0))]
    for j in range(1, e + 1):
        out += [(two, e + 1 - j, _tail_seq(j)),
                (two, 0, _lin((-1, _seq_pow(_tail_seq(j), e + 1 - j))))]
    return out


def _closed(m: int, e: int, split: bool):
    """A partner of size 1 or 2 of pivot group 1: T_e(a) at l1 = 0, or with
    ``split`` the (f, k, g) triples of T_e(a, l1) at l1 >= 1."""
    if m == 1:
        return [(_seq(1), 0, _seq(e))] if split else _seq(1 + e)
    if m == 2:
        return _T2_split(e) if split else _T2_seq(e)
    raise _NoClosedForm(f"a group of size {m} has no closed form")


def _pivot_layers(m: int, e: int, point: dict, triples: list):
    """Twice the layers a >= 1 summed over the l units of a pivot group of
    size m, with b = a + l and the factor b^-e, given the rest of the summand
    as ``point`` (a sequence in a) at l = 0 and as ``triples`` f(a) l^-k g(b)
    at l >= 1.  Returns the point 2 S_m(a) a^-e point(a) and, for 0 < r < m,
    the triples (f, S_{m-r} l^-k, 2 C(m, r) S_r b^-e g), the g of each (f, k)
    summed first."""
    sums: dict = {}
    for f, k, g in triples:
        sums.setdefault((frozenset(f.items()), k), (f, []))[1].append((1, g))
    out = []
    for r in range(1, m):
        g0 = _lin((2 * math.comb(m, r), _seq_pow(_S_seq(r), e)))
        out += [(f, _seq_pow(_S_seq(m - r), k), _seq_mul(g0, _lin(*gs)))
                for (_, k), (f, gs) in sums.items()]
    return _lin((2, _seq_mul(_seq_pow(_S_seq(m), e), point))), out


def _layer_rule(m1: int, m2: int, m3: int, alpha: int, beta: int) -> dict:
    """2^(alpha + beta) R(m1, m2, m3; alpha, beta) for a key with at most one
    group of size 0; _NoClosedForm where a group the rule needs in closed form
    has none."""
    if m1 == 0:  # l1 = 0: a product of two sums
        left, right = (_seq_total(_seq_pow(_diag_seq(m), e)) for m, e in ((m2, alpha), (m3, beta)))
        out: dict = {}
        for u, cu in left.items():
            for v, cv in right.items():
                _acc(out, _mono(u, v), cu * cv)
        return out
    points, triples = [], []
    (mi, ei), (m, e) = sorted(((m2, alpha), (m3, beta)))
    if mi == 0:  # the layer a = 0 alone, l2 or l3 = 0
        triples.append((_seq_pow(_diag_seq(m1), ei), _diag_seq(m), _seq(e)))
    elif m1 == 1 and mi != m:
        rest = _seq_mul(_S_seq(1), _closed(mi, ei, False))
        point, triples = _pivot_layers(m, e, rest, [(rest, 0, _seq(0))])
        points.append(point)
    else:
        if 1 not in (m1, m2, m3):
            if (m2, m3) != (2, 2):
                raise _NoClosedForm(f"groups of sizes {(m2, m3)} have no closed diagonal")
            points.append(_seq_mul(_diag_seq(m1), _seq_mul(_U2_seq(alpha), _U2_seq(beta))))
        pairs = [(_seq_mul(f2, f3), k2 + k3, _seq_mul(g2, g3))
                 for f2, k2, g2 in _closed(m2, alpha, True)
                 for f3, k3, g3 in _closed(m3, beta, True)] if m1 > 1 else []
        point, triples = _pivot_layers(
            m1, 0, _seq_mul(_closed(m2, alpha, False), _closed(m3, beta, False)), pairs)
        points.append(point)
    return _seq_total(_lin(*((1, p) for p in points),
                           *((1, _seq_mul(_seq_conv(f, h), g)) for f, h, g in triples)))


@functools.lru_cache(maxsize=None)
def _R_exact(key) -> dict | None:
    """R(key) as {MZV monomial: Fraction} where the layer rule reduces the key
    in its own order of groups or in one of equal value (alpha = 0: groups 1
    and 3 trade places; beta = 0: groups 1 and 2; both 0: any order), else
    None, as for a negative entry or two empty groups.  Both outcomes are
    cached, so the caller must not change the dict."""
    m, alpha, beta = key[:3], key[3], key[4]
    if min(key) < 0 or m.count(0) > 1:
        return None
    # the rule treats groups 2 and 3 alike, so at alpha = beta = 0 these
    # three orders reach every pivot
    orders = [m] + [(m[2], m[1], m[0])] * (alpha == 0) + [(m[1], m[0], m[2])] * (beta == 0)
    for order in orders:
        try:
            combo = _layer_rule(*order, alpha, beta)
        except _NoClosedForm:
            continue
        return {mono: c / 2 ** (alpha + beta) for mono, c in combo.items()}
    return None


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
        elif (combo := _R_exact(key)) is None:
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
