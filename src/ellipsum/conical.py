"""Conical sums over nonnegative-integer matrices: direct evaluation with
tail extrapolation, a quasi-Monte-Carlo integral-representation cross-check,
and the consecutive-ones / total-unimodularity matrix predicates.

``zeta_A`` evaluates sums of the form sum over x in N^n (x_i >= 1) of
1/prod_i l_i(x), where row i of the matrix gives the coefficients of the
linear form l_i.
"""

from __future__ import annotations

import itertools
import json
import math

import mpmath as mp
import numpy as np
from numpy.random import default_rng

from .numkernel import _MAX_BYTES, PrecisionCtx, bernoulli_number

__all__ = [
    "ConeMatrix",
    "zeta_A",
    "zeta_A_integral",
    "is_C1s",
    "is_TU",
]


class ConeMatrix:
    """r x n matrix of nonnegative integers; row i is the linear form l_i."""

    def __init__(self, data):
        try:
            data = [list(row) for row in data]
            for i, row in enumerate(data):
                for j, x in enumerate(row):
                    row[j] = int(x)
                    if row[j] != x:
                        raise ValueError(f"matrix entry [{i}][{j}] must be an integer, not {x!r}")
        except TypeError as exc:
            raise ValueError(f"matrix must be a list of rows of integers, not {data!r}") from exc
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        n = len(data[0])
        if any(len(row) != n for row in data):
            raise ValueError("rows must have equal length")
        if any(x < 0 for row in data for x in row):
            raise ValueError("entries must be nonnegative")
        for j in range(n):
            if all(row[j] == 0 for row in data):
                raise ValueError(f"column {j} is zero (variable never appears)")
        self.data = data
        self.r = len(data)
        self.n = n

    def row_sums(self):
        return [sum(row) for row in self.data]

    def to_json(self) -> str:
        return json.dumps({"rows": self.r, "cols": self.n, "data": self.data})

    @classmethod
    def from_json(cls, text: str) -> "ConeMatrix":
        obj = json.loads(text)
        m = cls(obj["data"])
        if m.r != obj["rows"] or m.n != obj["cols"]:
            raise ValueError("inconsistent matrix JSON")
        return m

    @classmethod
    def mzv_staircase(cls, index) -> "ConeMatrix":
        """Matrix of the nested sum with exponents ``index`` on the partial
        sums x_1, x_1+x_2, ...; its value is the corresponding nested zeta."""
        index = [int(k) for k in index]
        rows = []
        for i, k in enumerate(index):
            form = [1] * (i + 1) + [0] * (len(index) - i - 1)
            rows.extend([form] * k)
        return cls(rows)

    def __repr__(self):
        return f"ConeMatrix({self.data})"


# ---------------------------------------------------------------------------
# direct evaluation


def _grouped_forms(A: ConeMatrix):
    """Distinct rows with multiplicities, as (coeff tuple, mult)."""
    groups: dict[tuple, int] = {}
    for row in A.data:
        groups[tuple(row)] = groups.get(tuple(row), 0) + 1
    return list(groups.items())


def _pick_elimination(groups, n):
    """Choose a variable analytically summable in closed form.

    Returns (kind, var, payload) with kind in {"hurwitz", "psi"} or None.
    hurwitz: the variable occurs in exactly one distinct form, with total
    multiplicity >= 2 there.  psi: the variable occurs with unit coefficient
    in exactly two distinct multiplicity-1 forms."""
    for j in range(n):
        occ = [(f, m) for f, m in groups if f[j] != 0]
        if len(occ) == 1:
            f, m = occ[0]
            if m >= 2:
                return ("hurwitz", j, occ)
        if len(occ) == 2 and all(m == 1 and f[j] == 1 for f, m in occ):
            return ("psi", j, occ)
    return None


def _form(f, cols):
    """sum_j f[j] x_j over the nonzero coefficients of f, where cols maps each
    coordinate j to x_j; the arrays broadcast against each other.  A
    coordinate missing from cols counts as 0."""
    return sum(x if f[j] == 1 else f[j] * x for j, x in cols.items() if f[j])


def _offset(f, ints) -> np.ndarray:
    """_form over integer coordinates as an int64 array (0-d when f has none
    of them)."""
    return np.asarray(_form(f, ints), dtype=np.int64)


def _rest_product(groups, cols):
    """prod of form**m over ``groups`` at float coordinates ``cols``."""
    den = 1.0
    for f, m in groups:
        form = _form(f, cols)
        den = den * (form if m == 1 else form**m)
    return den


def _shell_sums(keep, rest_groups, closed, cutoff: int) -> list:
    """The shell sums s_k, k = 1..cutoff: the sum over the points of the
    coordinates ``keep`` with max coordinate k of closed(x) / prod of the
    powers of ``rest_groups``' forms (``closed`` None: 1).

    d = 1 is one pass over the axis.  For d >= 2 the points are taken in
    slabs x_z = 1..cutoff of the kept coordinate z that occurs in the fewest
    forms; the others span the cube [1, cutoff]^(d-1).  Everything free of
    z is built once on that cube: the product of the z-free forms' powers
    and the integer z-free part u of every other form, whose power on slab z
    is a gather at u from a table of t^-m shifted by f[z] z.  A running sum
    C of the slabs gives the shells without binning: s_z is slab z over the
    points with inner max <= z plus C over the points with inner max == z."""
    d = len(keep)
    forms = closed.forms if closed is not None else ()
    axis = np.arange(1, cutoff + 1, dtype=np.int64)
    if d == 1:
        ints = {keep[0]: axis}
        num = closed(ints) if closed is not None else 1.0
        return (num / _rest_product(rest_groups, {keep[0]: axis.astype(float)})).tolist()

    z = min(keep, key=lambda j: sum(1 for f, _ in rest_groups if f[j])
            + sum(1 for f in forms if f[j]))
    e = d - 1
    ints = {j: axis.reshape((1,) * t + (-1,) + (1,) * (e - 1 - t))
            for t, j in enumerate(j for j in keep if j != z)}
    fixed = 1.0 / _rest_product([(f, m) for f, m in rest_groups if not f[z]],
                                {j: x.astype(float) for j, x in ints.items()})
    per_slab = []
    if any(f[z] for f in forms):
        per_slab.append(closed.slab(ints, z))
    elif closed is not None:
        fixed = fixed * closed(ints)
    top = cutoff * max((sum(f[j] for j in keep) for f, _ in rest_groups), default=0)
    powers = {}
    for f, m in rest_groups:
        if f[z]:
            if m not in powers:
                powers[m] = np.zeros(top + 1)
                powers[m][1:] = np.arange(1, top + 1, dtype=float) ** -m
            per_slab.append(lambda s, T=powers[m], a=f[z], u=_offset(f, ints):
                            T[a * s:].take(u))

    C = np.zeros((cutoff,) * e)
    slab = np.empty_like(C)
    sums = []
    for s in range(1, cutoff + 1):
        np.multiply(fixed, per_slab[0](s), out=slab)
        for factor in per_slab[1:]:
            slab *= factor(s)
        total = slab[(slice(0, s),) * e].sum()
        for i in range(e):  # C over its points with inner max s, face by face
            total += C[(slice(0, s - 1),) * i + (s - 1,) + (slice(0, s),) * (e - 1 - i)].sum()
        C += slab
        sums.append(float(total))
    return sums


# B_2j / (2j)! for j = 1..12, the Euler-Maclaurin corrections of _power_tails
_EM_COEFFS = [float(bernoulli_number(2 * j) / math.factorial(2 * j)) for j in range(1, 13)]


def _power_tails(K: int, m: int) -> tuple[float, float]:
    """(sum_{k>K} k^-m, sum_{k>K} log k k^-m) in float64, by Euler-Maclaurin
    at K: sum_{k>K} f(k) = int_K^inf f - f(K)/2 - sum_j B_2j/(2j)! f^(2j-1)(K),
    where f = log x x^-m has f^(r) = (-1)^r (m)_r x^(-m-r) (log x - sum_{i<r}
    1/(m+i)).  The twelve Bernoulli terms leave under 1e-17 relative for
    K >= 12 and m = 2, 3, 4."""
    log_k = math.log(K)
    head = K ** (1 - m) / (m - 1)
    plain, logs = 0.0, 0.0
    rising, harmonic, power = 1.0, 0.0, float(K) ** -m
    for r in range(1, 2 * len(_EM_COEFFS)):
        rising *= m + r - 1
        harmonic += 1.0 / (m + r - 1)
        power /= K
        if r % 2:  # odd r: -B_r+1/(r+1)! f^(r)(K), with (-1)^r = -1
            term = _EM_COEFFS[r // 2] * rising * power
            plain += term
            logs += term * (log_k - harmonic)
    half = float(K) ** -m / 2
    return (head - half + plain,
            head * (log_k + 1.0 / (m - 1)) - half * log_k + logs)


def _tail_extrapolate(ks, shells, K):
    """Fit shell sums on the window to sum_{m=2..4} (a_m log k + b_m) k^-m and
    return the analytically summed tail beyond K (plus the fit residual as a
    crude error estimate), both float64."""
    ks = np.asarray(ks, dtype=float)
    shells = np.asarray(shells, dtype=float)
    basis = []
    for mdeg in (2, 3, 4):
        basis.append(np.log(ks) * ks ** (-mdeg))
        basis.append(ks ** (-mdeg))
    B = np.stack(basis, axis=1)
    coef, *_ = np.linalg.lstsq(B, shells, rcond=None)
    tail = 0.0
    for i, mdeg in enumerate((2, 3, 4)):
        plain, logs = _power_tails(K, mdeg)
        tail += coef[2 * i] * logs + coef[2 * i + 1] * plain
    resid = float(np.abs(shells - B @ coef).max())
    return float(tail), resid


def _harmonic_table(top: int) -> np.ndarray:
    """H[o] = sum_{k=1..o} 1/k for o = 0..top, so that
    psi(o1 + 1) - psi(o2 + 1) = H[o1] - H[o2]."""
    return np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, top + 1))))


def _hurwitz_table(m: int, c: int, top: int, ctx: PrecisionCtx) -> np.ndarray:
    """Z[t] = sum_{j>=0} (t + c j)^-m for t = 1..top (Z[0] = inf), so that
    c^-m zeta(m, o/c + 1) = Z[o + c]; with c = 1, m = 2, psi'(o + 1) = Z[o + 1].

    Each residue class mod c is summed from the top down, smallest terms
    first, onto a seed c^-m zeta(m, t/c) at its top entry t > top - c."""
    Z = np.full(top + 1, np.inf)
    with ctx.workprec():
        for start in range(1, min(c, top) + 1):
            t = np.arange(start, top + 1, c)
            terms = t.astype(float) ** -m
            terms[-1] = float(mp.zeta(m, mp.mpf(int(t[-1])) / c) / mp.mpf(c) ** m)
            Z[t] = np.cumsum(terms[::-1])[::-1]
    return Z


class _HurwitzFactor:
    """c^-m zeta(m, o/c + 1) = Z[o + c] at the offset o of the one form f."""

    def __init__(self, f, m: int, c: int, top: int, ctx: PrecisionCtx):
        self.forms = (f,)
        self.c = c
        self.Z = _hurwitz_table(m, c, top + c, ctx)

    def __call__(self, ints):
        return self.Z[_form(self.forms[0], ints) + self.c]

    def slab(self, ints, z):
        (f,) = self.forms
        u, a = _offset(f, ints), f[z]
        return lambda s: self.Z[a * s + self.c:].take(u)


class _PsiFactor:
    """(psi(o1 + 1) - psi(o2 + 1)) / (o1 - o2) = (H[o1] - H[o2]) / (o1 - o2),
    or psi'(o1 + 1) = trigamma[o1 + 1] at o1 = o2, at the offsets of the two
    forms."""

    def __init__(self, f1, f2, top: int, cutoff: int, ctx: PrecisionCtx):
        self.forms = (f1, f2)
        self.cutoff = cutoff
        self.H = _harmonic_table(top)
        self.trigamma = _hurwitz_table(2, 1, top + 1, ctx)

    def __call__(self, ints):
        f1, f2 = self.forms
        o1, o2 = _form(f1, ints), _form(f2, ints)
        den = _form([a - b for a, b in zip(f1, f2)], ints)
        eq = den == 0
        out = self.H.take(o1) - self.H.take(o2)
        out /= np.where(eq, 1, den)
        np.copyto(out, self.trigamma.take(o1 + 1), where=eq)
        return out

    def slab(self, ints, z):
        (f1, f2), H, trigamma = self.forms, self.H, self.trigamma
        u1, u2 = _offset(f1, ints), _offset(f2, ints)
        a1, a2 = f1[z], f2[z]
        shape = np.broadcast_shapes(u1.shape, u2.shape)
        h1 = H.take(u1) if not a1 else None
        h2 = H.take(u2) if not a2 else None
        du, da = _offset([a - b for a, b in zip(f1, f2)], ints), a1 - a2
        # the points with o1 = o2 on slab s are those with du = -da s: sorted
        # once by du, each slab's set is one run of that order
        flat = np.broadcast_to(du, shape).ravel()
        order = np.argsort(flat, kind="stable")
        sorted_du, u1_sorted = flat[order], np.broadcast_to(u1, shape).ravel()[order]
        # 1 / (o1 - o2) = 1 / (du + da s) from a table over its range, 0 at 0,
        # read at du - base from the view that starts at base + da s
        base = int(du.min())
        low = base + min(da, da * self.cutoff)
        t = np.arange(low, int(du.max()) + max(da, da * self.cutoff) + 1, dtype=float)
        recip = np.divide(1.0, t, out=np.zeros_like(t), where=t != 0)
        du = du - base

        def factor(s):
            out = np.empty(shape)
            np.subtract(h1 if h1 is not None else H[a1 * s:].take(u1),
                        h2 if h2 is not None else H[a2 * s:].take(u2), out=out)
            out *= recip[base - low + da * s:].take(du)
            i, j = sorted_du.searchsorted([-da * s, 1 - da * s])
            if j > i:
                out.reshape(-1)[order[i:j]] = trigamma[a1 * s + 1:].take(u1_sorted[i:j])
            return out

        return factor


def _closed_form(elim, keep, cutoff: int, ctx: PrecisionCtx):
    """The factor left by summing out variable ``elim[1]`` in closed form, as a
    function of the other integer coordinates (dict var -> int64 arrays that
    broadcast against each other), each in [1, cutoff]; its ``forms`` are the
    forms whose offsets sum_j f[j] x_j it reads.  Every offset is a
    nonnegative integer, so the closed forms are gathers from tables sized to
    the largest offset the cutoff reaches.  ``slab(ints, z)`` gives the
    factor on the slab x_z = s as a function of s, over the other
    coordinates ``ints``, with its z-free gathers made once."""
    kind, jvar, occ = elim
    top = cutoff * max(sum(f[j] for j in keep) for f, _ in occ)
    if kind == "hurwitz":
        (f, m), = occ
        return _HurwitzFactor(f, m, f[jvar], top, ctx)
    (f1, _), (f2, _) = occ
    return _PsiFactor(f1, f2, top, cutoff, ctx)


def _check_rows(A: ConeMatrix) -> None:
    """ValueError naming the first all-zero row of A: its form vanishes
    identically, so the sum (and the integral) has no finite value.
    ``ConeMatrix`` itself accepts such rows, for the matrix predicates."""
    for i, row in enumerate(A.data):
        if not any(row):
            raise ValueError(f"row {i} is zero (its linear form vanishes identically)")


def _shell_bytes(groups, elim, keep, cutoff: int) -> int:
    """Bytes zeta_A holds at ``cutoff`` with the coordinates ``keep`` left
    after the elimination ``elim``: on the cube of cutoff^(d-1) points (the
    axis at d = 1), the running sum, the slab, the slab-free product, one
    factor and an offset per form, and six more for a digamma factor's
    sorted offsets; tables of t^-m per power and three of the closed form,
    each up to the largest offset; and three lists of cutoff Python numbers
    (the shells), 128 bytes a shell."""
    d = len(keep)
    cube = cutoff ** max(d - 1, 1) if d else 0
    arrays = 4 + len(groups) + (6 if elim is not None and elim[0] == "psi" else 0)
    top = cutoff * max(sum(f[j] for j in keep) for f, _ in groups) + 2
    return 8 * (arrays * cube + (len({m for _, m in groups}) + 3) * top) + 128 * cutoff


def zeta_A(A: ConeMatrix, cutoff: int = 200, ctx: PrecisionCtx | None = None,
           with_bound: bool = False):
    """Direct evaluation of the conical sum of A.

    One variable is eliminated in closed form when possible (Hurwitz zeta for
    a variable confined to a single repeated form; a digamma difference for a
    variable shared by exactly two simple forms); the remaining nested sum is
    accumulated over max-coordinate shells up to ``cutoff``, with the shell
    tail extrapolated from a (log k)/k^m fit.  Raises if the empirical shell
    decay is slower than k^-1.2 (divergence guard), and for cutoff < 12, where
    the fit's window of cutoff // 2 shells is shorter than its 6 basis
    functions, and for a cutoff whose arrays would hold more than _MAX_BYTES
    (_shell_bytes), before any is built.

    The shells are summed slab by slab (see ``_shell_sums``): every factor
    free of the slab coordinate is built once on the cube of the others, and
    each slab gathers the rest from tables shifted by its coordinate.

    The closed forms are read from float64 tables at the integer offsets o
    (see ``_closed_form``): psi(o1+1) - psi(o2+1) = H_o1 - H_o2 with H the
    harmonic numbers, psi'(o+1) = sum_{j>=1} (o+j)^-2 and c^-m zeta(m, o/c+1)
    = sum_{j>=0} (o + c + c j)^-m.  Values agree with the former
    ``scipy.special`` psi/polygamma/zeta evaluation to 5e-13 relative.

    ``with_bound`` also returns 0.05 |tail| + (fit residual) * cutoff, an
    estimate from the tail fit, not a rigorous bound; when the elimination
    leaves no variable, 4 ulps of the one float64 table entry (no truncation).
    The tail fit and its power sums are float64 (``_power_tails``); the
    table seeds and the final sum of the shells and the tail run at ``ctx``
    precision."""
    _check_rows(A)
    if A.n > 5:
        raise ValueError("cost guard: at most 5 variables")
    if cutoff < 12:
        raise ValueError("cutoff must be >= 12: the tail fit needs its 6 basis "
                         "functions on the last cutoff // 2 shells")
    ctx = ctx or PrecisionCtx()
    groups = _grouped_forms(A)
    elim = _pick_elimination(groups, A.n)
    keep = [j for j in range(A.n) if elim is None or j != elim[1]]
    if (nbytes := _shell_bytes(groups, elim, keep, cutoff)) > _MAX_BYTES:
        raise ValueError(f"cutoff = {cutoff} needs {nbytes:.3g} bytes on the shell sums, "
                         f"over the cap of {_MAX_BYTES} bytes")
    if elim is not None:
        jvar = elim[1]
        rest_groups = [(f, m) for f, m in groups if f[jvar] == 0]
        closed = _closed_form(elim, keep, cutoff, ctx)
    else:
        rest_groups = groups
        closed = None
    d = len(keep)

    if d == 0:
        # fully eliminated: one table entry, an mp seed rounded once to float64
        value = float(closed({}))
        with ctx.workprec():
            value, bound = mp.mpf(value), mp.mpf(4 * math.ulp(value))
        return (value, bound) if with_bound else value

    sums = _shell_sums(keep, rest_groups, closed, cutoff)
    total = math.fsum(sums)
    ks, shells = list(range(1, cutoff + 1)), [abs(s) for s in sums]
    # divergence guard: decay exponent over the last decade of shells
    w = max(len(ks) // 2, 2)
    lk = np.log(np.asarray(ks[-w:], dtype=float))
    ls = np.log(np.asarray(shells[-w:], dtype=float) + 1e-300)
    slope = np.polyfit(lk, ls, 1)[0]
    if slope > -1.2:
        raise ValueError(
            f"shell sums decay like k^{slope:.2f}; slower than the k^-1.2 "
            "divergence guard"
        )
    tail, resid = _tail_extrapolate(ks[-w:], shells[-w:], cutoff)
    with ctx.workprec():
        value = mp.mpf(total) + tail
        bound = abs(mp.mpf(tail)) * mp.mpf(0.05) + resid * cutoff
    return (value, bound) if with_bound else value


# ---------------------------------------------------------------------------
# integral representation


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """First n points of the Owen-scrambled Halton sequence in [0,1)^d
    (Owen, arXiv:1706.02808, Algorithm 1), bit-identical to
    ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(n)``.

    Base b (the i-th prime) gets ceil(54/log2 b) - 1 digit permutations, as
    many as a float64 point can resolve, drawn in base order from one
    ``default_rng(seed)`` stream."""
    rng = default_rng(seed)
    bases = []
    k = 2
    while len(bases) < d:
        if all(k % p for p in bases):
            bases.append(k)
        k += 1
    out = np.empty((n, d))
    for i, b in enumerate(bases):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        col = np.zeros(n)
        scale = 1.0 / b
        for perm in perms:  # every digit, leading zeros included
            if q[-1]:
                q, digit = np.divmod(q, b)
                col += perm[digit] * scale
            else:  # every index has run out of digits: digit 0 from here on
                col += perm[0] * scale
            scale /= b
        out[:, i] = col
    return out


def zeta_A_integral(A: ConeMatrix, samples: int = 1 << 16,
                    ctx: PrecisionCtx | None = None, with_error: bool = False):
    """Quasi-Monte-Carlo estimate of the integral representation

    integral over [0,1]^r of prod_i y_i^(s_i - 1) / prod_j (1 - prod_i
    y_i^(a_ij)), with s_i the i-th row sum.  The substitution
    y = 1 - (1-u)^2 concentrates points near the singular corner and its
    Jacobian tames the boundary divergence.  Eight scrambled Halton batches
    give the reported error: the standard error of the batch mean, a
    statistical estimate and not a bound (at small ``samples`` the true error
    can be several standard errors).  The mean is a float64.  Raises for
    samples < 128, below the floor of 8 batches of 16 points, for samples
    that the 8 batches cannot share equally, and for samples whose batch
    would hold more than _MAX_BYTES: samples/8 points of 5 r + 2 n + 8
    floats (the Halton columns, the substituted points and their logarithms,
    the products of the n forms, and the per-point factors)."""
    _check_rows(A)
    nbatch = 8
    if samples < nbatch * 16:
        raise ValueError(f"samples must be >= 128 (8 batches of at least 16 points), "
                         f"not {samples}")
    if samples % nbatch:
        raise ValueError(f"samples must be a multiple of 8 (8 equal batches), not {samples}")
    r, n = A.r, A.n
    if (nbytes := 8 * (samples // nbatch) * (5 * r + 2 * n + 8)) > _MAX_BYTES:
        raise ValueError(f"samples = {samples} needs {nbytes:.3g} bytes per batch, "
                         f"over the cap of {_MAX_BYTES} bytes")
    srow = np.array(A.row_sums(), dtype=float)
    a = np.array(A.data, dtype=float)  # (r, n)
    per = samples // nbatch
    means = []
    for b in range(nbatch):
        u = _halton(r, per, 1234 + b)
        u = np.clip(u, 1e-12, 1 - 1e-9)
        y = 1.0 - (1.0 - u) ** 2
        jac = np.prod(2.0 * (1.0 - u), axis=1)
        logy = np.log(y)
        num = np.exp(logy @ (srow - 1.0))
        t = np.exp(logy @ a)  # (per, n)
        den = np.prod(1.0 - t, axis=1)
        vals = num * jac / den
        means.append(float(np.mean(vals)))
    means = np.array(means)
    value = float(means.mean())
    err = float(means.std(ddof=1) / math.sqrt(nbatch))
    return (value, err) if with_error else value


# ---------------------------------------------------------------------------
# matrix predicates


def is_C1s(A, with_witness: bool = False):
    """True iff some row permutation makes the ones consecutive in every
    column (backtracking over row orders; rows limited to 10)."""
    data = A.data if isinstance(A, ConeMatrix) else [list(r) for r in A]
    r = len(data)
    n = len(data[0])
    if r > 10:
        raise ValueError("brute force guard: at most 10 rows")
    if any(x not in (0, 1) for row in data for x in row):
        raise ValueError("matrix must have only 0/1 entries")

    # column states: 0 = not started, 1 = running, 2 = finished
    def backtrack(order, used, state):
        if len(order) == r:
            return tuple(order)
        for i in range(r):
            if used[i]:
                continue
            new_state = list(state)
            ok = True
            for j in range(n):
                if data[i][j] == 1:
                    if new_state[j] == 2:
                        ok = False
                        break
                    new_state[j] = 1
                else:
                    if new_state[j] == 1:
                        new_state[j] = 2
            if not ok:
                continue
            used[i] = True
            res = backtrack(order + [i], used, new_state)
            used[i] = False
            if res is not None:
                return res
        return None

    witness = backtrack([], [False] * r, [0] * n)
    if with_witness:
        return (witness is not None, witness)
    return witness is not None


def _int_det(rows):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in rows]
    k = len(m)
    sign = 1
    prev = 1
    for i in range(k - 1):
        if m[i][i] == 0:
            for p in range(i + 1, k):
                if m[p][i] != 0:
                    m[i], m[p] = m[p], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for p in range(i + 1, k):
            for q in range(i + 1, k):
                m[p][q] = (m[p][q] * m[i][i] - m[p][i] * m[i][q]) // prev
            m[p][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def is_TU(A) -> bool:
    """True iff every square minor is -1, 0, or 1 (exhaustive enumeration;
    dimensions limited to 8x8)."""
    data = A.data if isinstance(A, ConeMatrix) else [list(r) for r in A]
    r = len(data)
    n = len(data[0])
    if r > 8 or n > 8:
        raise ValueError("minor enumeration guard: dimensions at most 8x8")
    for k in range(1, min(r, n) + 1):
        for rows in itertools.combinations(range(r), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[data[i][j] for j in cols] for i in rows]
                if abs(_int_det(sub)) > 1:
                    return False
    return True
