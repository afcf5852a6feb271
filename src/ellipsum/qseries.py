"""Truncated series in q = exp(2 pi i tau) with polynomial tau-dependence.

A :class:`QTauSeries` stores finitely many terms ``c * tau**i * q**j`` with
``0 <= j <= q_order`` and arbitrary-precision complex coefficients.  The class
supports ring arithmetic, differentiation in tau, the regularized primitive
(antiderivative toward ``i*infinity`` with the boundary constant discarded),
and guarded numerical evaluation.

Every constant of the q-series layer is an exact map {(key, m, p): c}, worth
c zeta(m) (2 pi i)^p summed per key, c rational, m None or odd: ``_constants``
rounds it, and every library series, once.
"""

from __future__ import annotations

import json
import math
import numbers

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, fzero, round_nearest

from .numkernel import PrecisionCtx, _decimal, _fixed_horner, _fixed_mpc, _to_fixed

__all__ = [
    "QTauSeries",
    "GuardError",
    "reg_primitive",
    "eval_at",
    "eval_with_bound",
    "auto_q_order",
]


class GuardError(ValueError):
    """A numeric guard (convergence/precision precondition) was violated."""


_MAX_TERMS = 200000  # cap on every q_order, and on every iteration count in eisenstein
_GUARD_BITS = 8  # bits kept beyond the working precision before the one rounding


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


def _combine(*parts) -> dict:
    """The sum of c (2 pi i)^shift times each exact map of the (map, c, shift)
    ``parts``: term maps or heads, whose keys end in the power of 2 pi i."""
    out: dict = {}
    for exact, c, shift in parts:
        for (*key, p), x in exact.items():
            out[(*key, p + shift)] = out.get((*key, p + shift), 0) + c * x
    return out


def _constants(exact: dict, ctx: PrecisionCtx | None = None) -> dict:
    """{key: mpc} of the exact map {(key, m, p): c}, the sum of c zeta(m)
    (2 pi i)^p over the key's entries (c rational, or an integer pair (a, b),
    b > 0, for a/b) at the precision of ``ctx`` or the working one.  Each term
    a/b zeta(m) (2 pi)^p, the factor taken at wp = prec + _GUARD_BITS bits, is
    floored in integers to wp bits below its top bit (an integer is kept
    whole) and signed by i^p; the terms of each part (real for even p) are
    added exactly and rounded once."""
    prec = dps_to_prec(ctx.dps) if ctx else mp.mp.prec
    wp, factors, sums = prec + _GUARD_BITS, {}, {}
    for (key, m, p), c in exact.items():
        a, b = c if type(c) is tuple else (c.numerator, c.denominator)
        factor = factors.get((m, p))
        if factor is None:
            with mp.workprec(wp):
                factor = factors[m, p] = ((mp.zeta(m) if m else 1) * (2 * mp.pi) ** p)._mpf_[1:3]
        x = a * factor[0]
        sh = min(wp + 2 - x.bit_length(), 0) if b == 1 else wp + 1 + b.bit_length() - x.bit_length()
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


def check_tau(tau) -> mp.mpc:
    """tau as an mpc at the working precision; GuardError unless Im(tau) > 0.
    Callers read tau inside their ``ctx.workprec()`` block."""
    tau = mp.mpc(tau)
    if not mp.im(tau) > 0:
        raise GuardError("tau must have positive imaginary part")
    return tau


class QTauSeries:
    """Finite sum of ``c * tau**i * q**j`` terms, truncated at ``q**q_order``."""

    __slots__ = ("q_order", "coeffs")

    def __init__(self, q_order: int, coeffs=None):
        if q_order < 0:
            raise ValueError("q_order must be nonnegative")
        self.q_order = q_order = int(q_order)
        self.coeffs = {}
        for (i, j), c in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError("tau and q exponents must be nonnegative")
            if j > q_order:
                continue
            if type(c) is not mp.mpc:
                c = mp.mpc(c)
            if c:
                self.coeffs[int(i), int(j)] = c

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, c, q_order: int) -> "QTauSeries":
        return cls(q_order, {(0, 0): c})

    @classmethod
    def tau_power(cls, i: int, q_order: int, c=1) -> "QTauSeries":
        return cls(q_order, {(i, 0): c})

    # -- ring operations ----------------------------------------------------
    def add(self, other: "QTauSeries") -> "QTauSeries":
        order = min(self.q_order, other.q_order)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return QTauSeries(order, out)

    def sub(self, other: "QTauSeries") -> "QTauSeries":
        return self.add(other.scale(-1))

    def mul(self, other: "QTauSeries") -> "QTauSeries":
        order = min(self.q_order, other.q_order)
        out: dict = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                j = j1 + j2
                if j > order:
                    continue
                key = (i1 + i2, j)
                out[key] = out.get(key, 0) + c1 * c2
        return QTauSeries(order, out)

    def scale(self, c) -> "QTauSeries":
        c = mp.mpc(c)
        return QTauSeries(self.q_order, {k: v * c for k, v in self.coeffs.items()})

    __add__ = add
    __sub__ = sub
    __mul__ = mul

    def dtau(self) -> "QTauSeries":
        """Derivative d/dtau: tau-power rule plus q**j -> 2 pi i j q**j."""
        out: dict = {}
        two_pi_i = 2j * mp.pi
        for (i, j), c in self.coeffs.items():
            if i > 0:
                key = (i - 1, j)
                out[key] = out.get(key, 0) + c * i
            if j > 0:
                key = (i, j)
                out[key] = out.get(key, 0) + c * two_pi_i * j
        return QTauSeries(self.q_order, out)

    def truncate(self, q_order: int) -> "QTauSeries":
        return QTauSeries(min(q_order, self.q_order), self.coeffs)

    def max_abs_coeff(self) -> mp.mpf:
        """max |c| over the coefficients, 0 for the zero series."""
        return max(map(abs, self.coeffs.values()), default=mp.mpf(0))

    def coeff(self, tau_exp: int, q_exp: int) -> mp.mpc:
        return self.coeffs.get((tau_exp, q_exp), mp.mpc(0))

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        terms = [
            {
                "tau_exp": i,
                "q_exp": j,
                "coeff_re": _decimal(mp.re(c)),
                "coeff_im": _decimal(mp.im(c)),
            }
            for (i, j), c in sorted(self.coeffs.items())
        ]
        return json.dumps({"q_order": self.q_order, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "QTauSeries":
        data = json.loads(text)
        coeffs = {
            (t["tau_exp"], t["q_exp"]): mp.mpc(mp.mpf(t["coeff_re"]), mp.mpf(t["coeff_im"]))
            for t in data["terms"]
        }
        return cls(data["q_order"], coeffs)

    def __repr__(self) -> str:
        return f"QTauSeries(q_order={self.q_order}, nterms={len(self.coeffs)})"


def reg_primitive(f: QTauSeries) -> QTauSeries:
    """Regularized primitive toward i*infinity: the unique antiderivative F
    with d/dtau F = -f whose tau-polynomial part has no constant of
    integration and whose q-part decays at the cusp."""
    out: dict = {}
    two_pi_i = 2j * mp.pi

    def put(key, c):
        out[key] = out.get(key, 0) + c

    for (i, j), c in f.coeffs.items():
        if j == 0:
            put((i + 1, 0), -c / (i + 1))
        else:
            denom = two_pi_i * j
            fall = mp.mpc(1)  # falling factorial i*(i-1)*...*(i-s+1)
            sign = 1
            for s in range(i + 1):
                put((i - s, j), -c * sign * fall / denom ** (s + 1))
                fall *= i - s
                sign = -sign
                if fall == 0:
                    break
    return QTauSeries(f.q_order, out)


def auto_q_order(tau, ctx: PrecisionCtx) -> int:
    """Smallest N with |q|**(N+1) <= 10**-dps."""
    with ctx.workprec():
        decay = 2 * mp.pi * mp.im(check_tau(tau)) / mp.log(10)  # digits gained per power
        return max(1, int(mp.ceil(ctx.dps / decay)) )


def _row_bits(length: int) -> int:
    """Bits a q-series row of ``length`` coefficients keeps below its largest
    term: the working precision plus 2 log2(length) + 6 guard bits."""
    return mp.mp.prec + 2 * length.bit_length() + 6


def _fixed_row(row: dict, log2q: float):
    """A q-series row {j: c} as (coefficients, W, bits): the Gaussian integers
    c_j 2^W, j = 0..max(row), for Horner's rule at ``bits`` (``_sum_rows``).

    With bits = ``_row_bits(max(row) + 1)``, W = bits - the binary magnitude of
    the largest term |row[j]| |q|^j (``log2q`` = log2|q|), so the sum keeps the
    working precision relative to that term however large or small the row is.
    q is scaled by 2^Wq, Wq = bits - mag(q), so it has as many significant bits
    (``numkernel._fixed_horner``). Each conversion and step loses less than one
    unit of 2^-W per part, and q's own error moves the j-th term by at most
    about 4 j 2^-bits of itself, so the integer sum is within 2^-prec of the
    largest term; the one rounding to the working precision adds 2^-prec of
    the sum."""
    top_j = max(row)
    bits = _row_bits(top_j + 1)
    w = bits - math.ceil(max(mp.mag(c) + j * log2q for j, c in row.items()))
    return [_to_fixed(row[j], w) if j in row else (0, 0) for j in range(top_j + 1)], w, bits


def _truncation_bound(q_order: int, maxc, tau, ctx: PrecisionCtx):
    """The truncation bound |q|^(q_order+1)/(1 - |q|) max|c| of a series whose
    coefficients are at most ``maxc``, at the working precision and tau already
    checked; GuardError if it exceeds the context's target error."""
    absq = mp.exp(-2 * mp.pi * mp.im(tau))
    bound = absq ** (q_order + 1) / (1 - absq) * maxc
    if maxc > 0 and bound > ctx.eps:
        raise GuardError(
            f"q_order={q_order} insufficient at Im(tau)={mp.nstr(mp.im(tau), 8)}: "
            f"truncation bound {mp.nstr(bound, 5)} exceeds target {mp.nstr(ctx.eps, 5)}"
        )
    return bound


def _log2_absq(tau) -> float:
    """log2|q| = -2 pi Im(tau)/log 2 as a float."""
    return -2 * math.pi / math.log(2) * float(mp.im(tau))


def _sum_rows(rows: dict, head: dict, q_order: int, tau, ctx: PrecisionCtx, dropped=0):
    """(value, truncation bound) of sum_i tau^i (head[i] + sum_j c_ij q^j): the
    one guarded summation of a q-series, at the working precision and tau
    already checked. ``rows`` maps i to (coefficients, W, bits), the c_ij
    (j = 0, 1, ...) as Gaussian integers scaled by 2^W, summed by Horner's rule
    with q at ``bits`` (``numkernel._fixed_horner``); ``head`` maps i to an mpc
    constant. The guard ``_truncation_bound`` takes max|c| over the head, the
    integers and ``dropped`` (coefficients the rows leave out); the
    tau-polynomial of the row sums is evaluated in mpc."""
    maxc = max([dropped, *map(abs, head.values())])
    if rows:
        square = max(mp.ldexp(max(re * re + im * im for re, im in coeffs), -2 * w)
                     for coeffs, w, _ in rows.values())
        maxc = max(maxc, mp.sqrt(square))
    bound = _truncation_bound(q_order, maxc, tau, ctx)
    q = mp.exp(2j * mp.pi * tau)
    in_q = {i: _fixed_mpc(*_fixed_horner(coeffs, q, bits), w)
            for i, (coeffs, w, bits) in rows.items()}
    for i, c in head.items():
        in_q[i] = in_q[i] + c if i in in_q else c
    total = mp.polyval([in_q.get(i, 0) for i in range(max(in_q, default=0), -1, -1)], tau)
    return +mp.mpc(total), +bound


def eval_with_bound(f: QTauSeries, tau, ctx: PrecisionCtx):
    """Evaluate the series at tau; returns ``(value, truncation_bound)``.

    Raises :class:`GuardError` if the truncation bound is not below the
    context's target error (``_truncation_bound``). Each tau power's q-series
    is summed in block-scaled fixed point (``_fixed_row``), within a few units
    of 2^-prec of its largest term, by the guarded summation ``_sum_rows``.
    """
    with ctx.workprec():
        tau = check_tau(tau)
        rows: dict[int, dict[int, mp.mpc]] = {}
        for (i, j), c in f.coeffs.items():
            rows.setdefault(i, {})[j] = c
        log2q = _log2_absq(tau)
        return _sum_rows({i: _fixed_row(row, log2q) for i, row in rows.items()}, {},
                         f.q_order, tau, ctx)


def eval_at(f: QTauSeries, tau, ctx: PrecisionCtx):
    """Evaluate the series at tau under the truncation guard."""
    return eval_with_bound(f, tau, ctx)[0]
