"""Modular graph functions: lattice-sum evaluation for multigraphs, the
two- and three-point Laurent-polynomial parts via nested lattice sums (S- and
R-sums, built and summed exactly in ``exact`` but for the float R route),
identity checks, and finite-difference Laplacians.

Conventions: a multigraph on N vertices with edge multiplicities l_ij has
weight l = sum of multiplicities; each edge carries a propagator
(tau2/pi)/|m tau + n|^2 and the graph value sums over all momentum
assignments conserving momentum at vertices with no zero edge-momentum.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath as mp
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exact import _d2pt_rows, _d3pt_rows, _R_exact, _S_combo, laurent, value
from .laurent import LaurentPoly
from .numkernel import _MAX_BYTES, PrecisionCtx, zeta_int

__all__ = [
    "MultiGraph",
    "D_lattice",
    "S_direct",
    "S_zagier",
    "R_direct",
    "R_structured",
    "d2pt",
    "d3pt",
    "identity_suite",
    "laplace_fd",
]


@functools.lru_cache(maxsize=None)
def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (the real-input length scipy.fft picks)."""
    best = 2 * n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def fftconvolve(a: np.ndarray, b: np.ndarray, axes=None) -> np.ndarray:
    """Full linear convolution of two real arrays of equal rank via numpy.fft
    over `axes` (default all), each zero-padded to a 5-smooth length; the
    other axes are batched, as in scipy.signal.fftconvolve."""
    axes = tuple(range(a.ndim)) if axes is None else tuple(axes)
    shape = [a.shape[ax] + b.shape[ax] - 1 for ax in axes]
    fshape = [_next_fast_len(s) for s in shape]
    spec = np.fft.rfftn(a, fshape, axes)
    spec *= np.fft.rfftn(b, fshape, axes)
    out = np.fft.irfftn(spec, fshape, axes)
    keep = [slice(None)] * out.ndim
    for ax, s in zip(axes, shape):
        keep[ax] = slice(0, s)
    return out[tuple(keep)]


# ---------------------------------------------------------------------------
# graphs


class MultiGraph:
    """Undirected multigraph given by a symmetric multiplicity matrix."""

    def __init__(self, mult):
        mult = [list(row) for row in mult]
        for i, row in enumerate(mult):
            for j, x in enumerate(row):
                row[j] = int(x)
                if row[j] != x:
                    raise ValueError(f"multiplicity [{i}][{j}] must be an integer, not {x!r}")
        n = len(mult)
        if any(len(row) != n for row in mult):
            raise ValueError("multiplicity matrix must be square")
        for i in range(n):
            if mult[i][i] != 0:
                raise ValueError("no self-loops allowed")
            for j in range(n):
                if mult[i][j] != mult[j][i] or mult[i][j] < 0:
                    raise ValueError("multiplicity matrix must be symmetric nonnegative")
        self.N = n
        self.mult = mult

    @classmethod
    def from_edges(cls, n: int, edges) -> "MultiGraph":
        mult = [[0] * n for _ in range(n)]
        for i, j, m in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge [{i}, {j}, {m}] names a vertex outside 0..{n - 1}")
            if m < 0:
                raise ValueError(f"edge [{i}, {j}, {m}] has a negative multiplicity")
            mult[i][j] += m
            mult[j][i] += m
        return cls(mult)

    @classmethod
    def cycle(cls, n: int) -> "MultiGraph":
        return cls.from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])

    @classmethod
    def banana(cls, l: int) -> "MultiGraph":
        """Two vertices joined by l parallel edges (the D_l graph)."""
        return cls.from_edges(2, [(0, 1, l)])

    @property
    def edge_list(self):
        """Individual edges (i, j) with i < j, parallel edges repeated."""
        out = []
        for i in range(self.N):
            for j in range(i + 1, self.N):
                out.extend([(i, j)] * self.mult[i][j])
        return out

    @property
    def weight(self) -> int:
        return len(self.edge_list)

    def is_connected(self) -> bool:
        return self._component_count() <= 1

    @property
    def depth(self) -> int:
        comps = self._component_count()
        return self.weight - self.N + comps

    def _component_count(self) -> int:
        seen = set()
        comps = 0
        for s in range(self.N):
            if s in seen:
                continue
            comps += 1
            stack = [s]
            seen.add(s)
            while stack:
                u = stack.pop()
                for v in range(self.N):
                    if self.mult[u][v] and v not in seen:
                        seen.add(v)
                        stack.append(v)
        return comps

    def blocks(self):
        """Biconnected components as lists of edge indices (into edge_list).

        Parallel edges are distinct edges, so a doubled edge forms a
        2-edge block and is not a bridge."""
        edges = self.edge_list
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(self.N)}
        for idx, (i, j) in enumerate(edges):
            adj[i].append((j, idx))
            adj[j].append((i, idx))
        disc: dict[int, int] = {}
        low: dict[int, int] = {}
        stack: list[int] = []
        out: list[list[int]] = []
        counter = [0]

        def dfs(u: int, parent_edge: int):
            disc[u] = low[u] = counter[0]
            counter[0] += 1
            for v, eidx in adj[u]:
                if eidx == parent_edge:
                    continue
                if v not in disc:
                    stack.append(eidx)
                    dfs(v, eidx)
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        block = []
                        while True:
                            e = stack.pop()
                            block.append(e)
                            if e == eidx:
                                break
                        out.append(block)
                elif disc[v] < disc[u]:
                    stack.append(eidx)
                    low[u] = min(low[u], disc[v])

        for s in range(self.N):
            if s not in disc:
                dfs(s, -1)
        return out

    def has_bridge(self) -> bool:
        return any(len(b) == 1 for b in self.blocks())

    def to_json(self) -> str:
        edges = []
        for i in range(self.N):
            for j in range(i + 1, self.N):
                if self.mult[i][j]:
                    edges.append([i, j, self.mult[i][j]])
        return json.dumps({"vertices": self.N, "edges": edges})

    @classmethod
    def from_json(cls, text: str) -> "MultiGraph":
        """The graph of {"vertices": n, "edges": [[i, j, multiplicity], ...]};
        other JSON is a ValueError naming the text."""
        data = json.loads(text)
        try:
            return cls.from_edges(data["vertices"], data["edges"])
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError('graph JSON must be {"vertices": n, "edges": [[i, j, m], ...]}, '
                             f"not {text!r}") from exc

    def __repr__(self):
        return f"MultiGraph(N={self.N}, weight={self.weight}, depth={self.depth})"


# ---------------------------------------------------------------------------
# lattice evaluation


def _norm2(t1: float, t2: float, m0: int, R: int, out: np.ndarray) -> np.ndarray:
    """|m tau + n|^2, tau = t1 + i t2, into ``out`` on its rows m = m0, m0 + 1,
    ... and columns n = -R..R, inf at the origin (whose weight is 0)."""
    m = np.arange(m0, m0 + out.shape[0])[:, None]
    n = np.arange(-R, R + 1)[None, :]
    np.add(m * t1, n, out=out)
    np.square(out, out=out)
    out += (m * t2) ** 2
    if 0 <= -m0 < out.shape[0]:
        out[-m0, R] = np.inf
    return out


def _weights(tau, R: int, counts, half: bool = False) -> dict:
    """|m tau + n|^(-2k) on the square |m|, |n| <= R (origin at the center,
    where the weight is 0), one grid per k in counts.  With ``half`` only the
    rows m = 0..R are built, so the origin sits at row 0, column R."""
    t1, t2 = float(mp.re(tau)), float(mp.im(tau))
    m0 = 0 if half else -R
    # one full-size grid, squared and summed in place; the last k takes it over
    norm2 = _norm2(t1, t2, m0, R, np.empty((R + 1 - m0, 2 * R + 1)))
    *ks, last = sorted(set(counts))
    out = {k: norm2 ** (-k) for k in ks}
    norm2 **= -last
    out[last] = norm2
    return out


def _signatures(edges, block):
    """Loop-momentum signatures for the edges of a biconnected block.

    Returns (groups, depth): groups is a list of (signature tuple, edge count)
    with signatures canonicalized up to overall sign (propagators are even)."""
    verts = sorted({v for e in block for v in edges[e]})
    # spanning tree on the block, lowest edge index first
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    loops = []
    for e in sorted(block):
        i, j = edges[e]
        ri, rj = find(i), find(j)
        if ri == rj:
            loops.append(e)
        else:
            parent[ri] = rj
            tree.append(e)
    d = len(loops)
    # adjacency over tree edges for path finding
    tadj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in verts}
    for e in tree:
        i, j = edges[e]
        tadj[i].append((j, e, +1))
        tadj[j].append((i, e, -1))

    def tree_path(u, v):
        # list of (edge, direction) along the tree path u -> v
        prev = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y, e, s in tadj[x]:
                if y not in prev:
                    prev[y] = (x, e, s)
                    stack.append(y)
        path = []
        x = v
        while prev[x] is not None:
            px, e, s = prev[x]
            path.append((e, s))
            x = px
        return path

    sig = {e: [0] * d for e in block}
    for k, e in enumerate(loops):
        i, j = edges[e]
        sig[e][k] = 1
        for te, s in tree_path(j, i):
            sig[te][k] += s
    groups: dict[tuple, int] = {}
    for e in block:
        s = tuple(sig[e])
        # canonical sign: first nonzero entry positive
        for x in s:
            if x:
                if x < 0:
                    s = tuple(-y for y in s)
                break
        groups[s] = groups.get(s, 0) + 1
    return list(groups.items()), d


def _shifted(ext, delta, M):
    """(2M+1)^2 window of a larger odd square grid, centered at +delta from
    the grid's center."""
    c = (ext.shape[0] - 1) // 2
    dm, dn = delta
    return ext[c + dm - M : c + dm + M + 1, c + dn - M : c + dn + M + 1]


def _row_transforms(w: np.ndarray, N: int) -> np.ndarray:
    """Row transforms G(m, k_n), m = 0..M and k_n = 0..N/2, of a
    centrosymmetric (2M+1)^2 grid from its rows m = 0..M (origin at column
    M): the length-N rfft of each row at its own width, times the phase
    e^(2 pi i k_n M / N) that moves the origin to x_n = 0.  Rows m < 0 would
    be their conjugates."""
    M = w.shape[0] - 1
    f = np.fft.rfft(w, N, axis=1)
    f *= np.exp(2j * np.pi * M / N * np.arange(f.shape[1]))
    return f


# rows per block of the two middle stages of a depth-2 sum
_D2_BLOCK = 32


def _lattice_bytes(groups, d: int, M: int) -> int:
    """Bytes a block of depth d <= 2 holds at cutoff M: the (2M+1)^2 grid at
    depth 1; at depth 2 the half weight grids, (M+1)(2M+1) floats per
    distinct loop-edge count, plus F and H (see _block_sum)."""
    if d == 1:
        return 8 * (2 * M + 1) ** 2
    cnt = dict(groups)
    K = _next_fast_len(4 * M + 1) // 2 + 1
    return (len({cnt[1, 0], cnt[0, 1]}) * (8 * (M + 1) * (2 * M + 1) + 16 * (M + 1) * K)
            + 16 * K * (2 * M + 1))


def _block_sum(groups, d: int, tau, M: int) -> float:
    """Sum over loop momenta p_1..p_d, each with |p_k|_inf <= M, of the
    product over groups (s, cnt) of |s . p|^(-2 cnt), a zero edge momentum
    contributing 0.

    A block of depth 2, and each point r of the third momentum of a depth-3
    block, is sum_{p,q} A(p) B(q) C(p + sigma q): each group multiplies its
    weight window, shifted by s_3 r, into the factor of its first two
    signature entries (1, 0) -> A, (0, 1) -> B, (1, sigma) -> C, with the
    scalar of (0, 0) taken into B, and the sum is the convolution A * B
    dotted with C.

    At depth 2 each factor is one centred grid |m tau + n|^(-2 cnt), real and
    even (x -> -x), so B needs no reversal for sigma = -1 and its spectrum
    on an N x N torus, N >= 4M + 1, is real.  Three stages:

    - F: each distinct count's row transforms G(m, k_n) from its rows
      m = 0..M alone (_row_transforms), (M+1) x (N/2+1) complex;
    - k_n blocks: one unscaled irfft along k_m of a block of F's columns sums
      the Hermitian series G(0, k_n) + 2 Re sum_{m > 0} G(m, k_n)
      e^(2 pi i k_m m / N), the rows k_n of the real spectrum mirrored in
      k_m; the product (squared when the two counts agree) is real and even,
      so its rfft along k_m returns the rows x_m = 0..N/2, of which the
      2M + 1 rows x_m >= 0 go into H, (N/2+1) x (2M+1) complex (the rfft's
      own sign undoes the mirror);
    - x_m blocks: the irfft along k_n of a block of H's columns gives rows of
      A * B, dotted with the same rows of the radius-2M grid C, built there:
      the sum is row x_m = 0 plus twice the rows x_m > 0, read from the
      wrapped columns x_n = 0..2M and N-2M..N-1.

    Only F and H are full size: 16 (N/2+1)(3M+2) bytes, plus
    16 (M+1)(N/2+1) when the counts differ, and buffers of _D2_BLOCK rows
    (about 16 MB for banana:3 at M = 400).

    At depth 3 the windows are shifted, hence not even; the 2M + 1 points
    r_n of each row r_m are stacked into one batched fftconvolve, so a row
    bounds the memory; D_lattice keeps it to M <= 16."""
    if d == 1:
        ((_, cnt),) = groups
        return float(_weights(tau, M, {cnt})[cnt].sum())
    # The loop edges give (1, 0) and (0, 1).  A tree edge has (1, 1) or
    # (1, -1) when it lies on both fundamental cycles; two fundamental cycles
    # share one tree path, traversed in one relative orientation, so at most
    # one of the two occurs, and it fixes sigma.
    sigma = next((s[1] for s, _ in groups if s[0] and s[1]), 1)
    if d == 2:
        cnt = dict(groups)
        N = _next_fast_len(4 * M + 1)
        w = _weights(tau, M, {cnt[1, 0], cnt[0, 1]}, half=True)
        F = [_row_transforms(w.pop(cnt[1, 0]), N)]
        if w:
            F.append(_row_transforms(w.pop(cnt[0, 1]), N))
        del w
        K, X, B = N // 2 + 1, 2 * M + 1, _D2_BLOCK
        H = np.empty((K, X), complex)
        # block buffers, allocated once for both stages
        real = np.empty((len(F), B, N))
        spec = np.empty((B, K), complex)
        for a in range(0, K, B):
            r = min(B, K - a)
            for f, s in zip(F, real):
                np.fft.irfft(f[:, a : a + r].T, N, axis=1, norm="forward", out=s[:r])
            prod = real[0, :r]
            prod *= prod if len(F) == 1 else real[1, :r]
            np.fft.rfft(prod, axis=1, norm="forward", out=spec[:r])
            H[a : a + r] = spec[:r, :X]
        del F, f  # f holds the last factor
        t1, t2 = float(mp.re(tau)), float(mp.im(tau))
        conv, c = real[0], np.empty((B, 4 * M + 1))
        rows = np.empty(X)
        for a in range(0, X, B):
            r = min(B, X - a)
            np.fft.irfft(H[:, a : a + r].T, N, axis=1, out=conv[:r])
            cr = _norm2(t1, t2, a, 2 * M, c[:r])
            cr **= -cnt[1, sigma]
            rows[a : a + r] = (np.einsum("ij,ij->i", conv[:r, :X], cr[:, 2 * M :])
                               + np.einsum("ij,ij->i", conv[:r, N - 2 * M :], cr[:, : 2 * M]))
        return float(rows[0] + 2.0 * rows[1:].sum())
    weight = _weights(tau, 3 * M, {cnt for _, cnt in groups})
    radius = {(0, 0): 0, (1, 0): M, (0, 1): M, (1, sigma): 2 * M}
    total = 0.0
    for rm in range(-M, M + 1):
        f = {}
        for s, cnt in groups:
            key, c = s[:2], s[2]
            w = np.stack([_shifted(weight[cnt], (c * rm, c * rn), radius[key])
                          for rn in range(-M, M + 1)])
            f[key] = f[key] * w if key in f else w
        B = f[0, 1] * f.get((0, 0), 1.0)
        if sigma == -1:
            B = B[:, ::-1, ::-1]
        row = fftconvolve(f[1, 0], B, axes=(1, 2)) * f.get((1, sigma), 1.0)
        for term in row.sum(axis=(1, 2)):  # point by point: batching moves no bit
            total += term
    return float(total)


def D_lattice(g: MultiGraph, tau, M: int, ctx: PrecisionCtx | None = None,
              with_bound: bool = False):
    """Lattice-sum value of the modular graph function of g at cutoff M.

    The truncation: each biconnected block has one loop momentum per
    non-tree edge of its lowest-index spanning tree, each edge carries the
    signed sum of the momenta of the fundamental cycles through it, and every
    loop momentum (m, n) runs over |m|, |n| <= M.  Blocks of depth 2 and 3
    are summed as one FFT loop sum (see _block_sum).  A depth-2 block holds
    16 (N/2+1)(3M+2) bytes, N the 5-smooth length >= 4M + 1, plus
    16 (M+1)(N/2+1) when its two loop edges differ in multiplicity: 15.6 MB
    at M = 400, 97 MB at M = 1000.  An M whose block would hold more than
    _MAX_BYTES (_lattice_bytes), or M > 16 at depth 3, is refused
    before any block runs.
    Graphs with a bridge evaluate to exactly 0; values factorize over
    biconnected blocks."""
    if M < 1:
        raise ValueError(f"M must be >= 1, not {M}")
    if not g.is_connected():
        raise ValueError("graph must be connected")
    edges = g.edge_list
    blocks = g.blocks()
    if any(len(b) == 1 for b in blocks):
        return (0.0, 0.0) if with_bound else 0.0
    signatures = [_signatures(edges, b) for b in blocks]
    for groups, d in signatures:
        if d > 3:
            raise ValueError("block depth exceeds the cost guard (3)")
        if d == 3 and M > 16:
            raise ValueError("depth-3 lattice sums limited to M <= 16")
        if d < 3 and (nbytes := _lattice_bytes(groups, d, M)) > _MAX_BYTES:
            raise ValueError(f"M = {M} needs {nbytes:.3g} bytes for a depth-{d} block, "
                             f"over the cap of {_MAX_BYTES} bytes")
    t2 = float(mp.im(tau))
    value = (t2 / math.pi) ** g.weight
    bound_rel = 0.0
    for groups, d in signatures:
        value *= _block_sum(groups, d, tau, M)
        # slowest-decaying tail: the lightest group on the block
        kmin = min(cnt for _, cnt in groups)
        bound_rel += 8.0 * math.log(M + 1) / (M ** max(2 * kmin - 2, 1))
    if with_bound:
        return value, abs(value) * bound_rel
    return value


# ---------------------------------------------------------------------------
# S sums


def S_direct(m: int, n: int, cutoff: int) -> float:
    """Truncated direct evaluation of the constrained sum over (Z*)^m: |k_i| <=
    cutoff for i < m, k_m = -(k_1 + ... + k_{m-1}) != 0.  m = 3 sums slices of
    harmonic numbers in O(cutoff); m = 4 needs cutoff <= 300."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if n < 0:
        raise ValueError(f"n must be >= 0, not {n}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, not {cutoff}")
    if m == 2:
        k = np.arange(1, cutoff + 1, dtype=float)
        return float(2.0 * np.sum(1.0 / (k**2 * (2 * k) ** n)))
    if m > 4:
        raise ValueError("direct mode supports m <= 4 (use S_zagier)")
    if m == 4 and cutoff > 300:  # row4 sums 2 cutoff grids of (2 cutoff)^2 entries each
        raise ValueError(f"direct mode at m = 4 needs cutoff <= 300, not {cutoff} (use S_zagier)")
    if m == 3:
        # k1 = a > 0, doubled for k1 < 0.  k2 = -b < 0 (b != a) gives 1/(a b |a - b|)
        # at sum |k| = 2 max(a, b): b < a and b > a each sum to 2 H_{a-1} / (a^2 (2a)^n)
        # over the larger index a.  k2 > 0 gives 1/(a k2 s) at sum |k| = 2s, s = a + k2:
        # the slice a in [lo, s - lo], lo = max(1, s - cutoff), sums to
        # 2 (H_{s-lo} - H_{lo-1}) / s.
        H = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, cutoff + 1))))
        a, s = np.arange(1, cutoff + 1), np.arange(2, 2 * cutoff + 1)
        lo = np.maximum(1, s - cutoff)
        af, sf = a.astype(float), s.astype(float)
        unlike = np.sum(2.0 * H[a - 1] / (af**2 * (2 * af) ** n))
        like = np.sum(2.0 * (H[s - lo] - H[lo - 1]) / (sf**2 * (2 * sf) ** n))
        return 2.0 * float(2.0 * unlike + like)
    ks = np.arange(-cutoff, cutoff + 1)
    ks = ks[ks != 0]

    def row4(a):
        k1 = ks[:, None]
        k2 = ks[None, :]
        k3 = -a - k1 - k2
        mask = k3 != 0
        vals = np.zeros_like(k1 + k2, dtype=float)
        vals[mask] = 1.0 / (
            np.abs(a * k1 * k2 * k3)[mask]
            * (abs(a) + np.abs(k1) + np.abs(k2) + np.abs(k3))[mask] ** n
        )
        return vals.sum()

    return float(sum(row4(a) for a in ks))


def S_zagier(m: int, n: int, ctx: PrecisionCtx | None = None):
    """MZV evaluation: m! sum over {1,2}-compositions a of m-2 of
    2^{2(r+1)-m-n} zeta(a_1, ..., a_r, n+2)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if n < 0:
        raise ValueError(f"n must be >= 0, not {n}")
    return value(_S_combo(m, n), ctx or PrecisionCtx())




# ---------------------------------------------------------------------------
# R sums


def _shat_table(m: int, L: int) -> np.ndarray:
    """Rows r = 0..m of [x^l] Li_1(x)^r = (-log(1-x))^r for l = 0..L."""
    out = np.zeros((m + 1, L + 1))
    out[0, 0] = 1.0
    inv = np.zeros(L + 1)
    inv[1:] = 1.0 / np.arange(1, L + 1)
    for r in range(1, m + 1):
        prev = out[r - 1]
        cur = np.convolve(prev, inv)[: L + 1]
        out[r] = cur
    return out


_R_BLOCK = 64


def _c_rows(m: int, a0: int, a1: int, shat: np.ndarray) -> np.ndarray:
    """c_m(l + a, l) for layers a = a0..a1-1 (rows) and l = 0..L (columns),
    where c_m(u, v) = sum_r C(m,r) S_r(u) S_{m-r}(v); ``shat`` covers
    columns 0..2L and rows 0..m."""
    L = (shat.shape[1] - 1) // 2
    out = np.zeros((a1 - a0, L + 1))
    for r in range(m + 1):
        window = sliding_window_view(shat[r], L + 1)[a0:a1]
        out += math.comb(m, r) * window * shat[m - r, : L + 1]
    return out


def _R_layers(keys, L: int) -> dict:
    """Layered sums R_L = sum_{a=0..L} w_a sum_l c1 T2 T3 / 2^(alpha+beta),
    w_0 = 1 and w_a = 2, for many keys (m1, m2, m3, alpha, beta) at once.

    T(a, l1) = sum_{l2} c_m(l2 + a, l2) K[a + l1 + l2] with K[s] = s^-e
    (K[0] = 0), or the row sum when e = 0.  Layers are taken in blocks of
    _R_BLOCK rows; in each block K[a0 : a1 + 2L] is transformed once per
    exponent, and each distinct (m, e) correlation is one rfft/irfft pair
    of the reversed c rows, shared by every key that uses it.  The circular
    length 2L + rows leaves the gathered outputs free of aliasing."""
    keys = list(dict.fromkeys(keys))
    shat = _shat_table(max(max(k[:3]) for k in keys), 2 * L)
    groups = sorted({m for k in keys for m in k[:3]})
    corrs = sorted({(k[1], k[3]) for k in keys} | {(k[2], k[4]) for k in keys})
    kernel = {}
    s = np.arange(1, 3 * L + 1, dtype=float)
    for e in {e for _, e in corrs if e}:
        kernel[e] = np.zeros(3 * L + 1)
        np.power(s, -float(e), out=kernel[e][1:])
    totals = dict.fromkeys(keys, 0.0)
    for a0 in range(0, L + 1, _R_BLOCK):
        a1 = min(a0 + _R_BLOCK, L + 1)
        rows = a1 - a0
        n = _next_fast_len(2 * L + rows)
        gather = np.arange(rows)[:, None] + np.arange(L, 2 * L + 1)
        C = {m: _c_rows(m, a0, a1, shat) for m in groups}
        kf = {e: np.fft.rfft(K[a0 : a1 + 2 * L], n) for e, K in kernel.items()}
        cf = {}
        T = {}
        for m, e in corrs:
            if e == 0:
                T[m, e] = C[m].sum(axis=1, keepdims=True)
                continue
            if m not in cf:
                cf[m] = np.fft.rfft(C[m][:, ::-1], n, axis=1)
            G = np.fft.irfft(cf[m] * kf[e], n, axis=1)
            T[m, e] = np.take_along_axis(G, gather, axis=1)
        w = np.full(rows, 2.0)
        if a0 == 0:
            w[0] = 1.0
        for key in keys:
            m1, m2, m3, alpha, beta = key
            totals[key] += float(w @ (C[m1] * T[m2, alpha] * T[m3, beta]).sum(axis=1))
    return {k: t / 2.0 ** (k[3] + k[4]) for k, t in totals.items()}


def _layers_bytes(keys, L: int) -> int:
    """Bytes _R_layers(keys, L) holds: per block of rows, the c rows of each
    group twice (the block's and the last one's), the correlation T of each
    (m, e) with e > 0 and four more rows of L + 1 floats; the spectrum of
    each correlated group and two more rows of n/2 + 1 complex; and the S
    and kernel tables."""
    rows = min(_R_BLOCK, L + 1)
    n = _next_fast_len(2 * L + rows)
    corrs = {(k[1], k[3]) for k in keys if k[3]} | {(k[2], k[4]) for k in keys if k[4]}
    groups = {m for k in keys for m in k[:3]}
    spectra = {m for m, _ in corrs}
    return (8 * rows * (L + 1) * (2 * len(groups) + len(corrs) + 4)
            + 16 * rows * (n // 2 + 1) * (len(spectra) + 2 * bool(spectra))
            + 8 * (3 * L + 1) * (max(groups) + 1 + 3 * len({e for _, e in corrs})))


def _R_extrapolate(keys, cutoff: int, layers) -> dict:
    """Extrapolated R for each key from the layered sums ``layers(keys, L)``.

    Every key is evaluated at L/4, L/2 and L.  A key with alpha*beta = 0
    whose observed ratio d2/d1 lies in (3/8, 1) has a 1/L tail: it gets one
    more level at L/8 and a fit of value + log L/L + 1/L + 1/L^2 over the
    four cutoffs.  Every other key takes the geometric-ratio Richardson
    step."""
    cuts = (cutoff // 4, cutoff // 2, cutoff)
    levels = [layers(keys, L) for L in cuts]
    out = {}
    slow = []
    for key in keys:
        v0, v1, v2 = (lv[key] for lv in levels)
        d1, d2 = v1 - v0, v2 - v1
        ratio = d2 / d1 if d1 else 0.0
        if key[3] * key[4] == 0 and 3 / 8 < ratio < 1 and cutoff >= 8:
            slow.append(key)
        elif not 0 < ratio < 1:
            out[key] = v2
        else:
            out[key] = v2 + d2 * ratio / (1.0 - ratio)
    if slow:
        eighth = layers(slow, cutoff // 8)
        c = np.array([cutoff // 8, *cuts], dtype=float)
        design = np.stack([np.ones(4), -np.log(c) / c, -1 / c, -1 / c**2], axis=1)
        for key in slow:
            vals = [eighth[key]] + [lv[key] for lv in levels]
            out[key] = float(np.linalg.solve(design, vals)[0])
    return out


def _R_values(keys, cutoff: int):
    """Extrapolated R for each key (see _R_extrapolate) at L = 8 floor(cutoff/8),
    so that the levels stand in the exact ratios the Richardson step assumes,
    one _R_layers call per level, and each key's convergence estimate: twice
    the move of its extrapolated value from L/2 to L.  That second
    extrapolation reuses the levels L/4 and L/2 (and L/8 for a 1/L tail) and
    adds one level below them.  A cutoff below 8 is refused: it would put a
    level of the value or of its estimate at L = 0; so is one whose level L
    would hold more than _MAX_BYTES (_layers_bytes)."""
    if cutoff < 8:
        raise ValueError(f"cutoff must be >= 8 on the float R route, not {cutoff}")
    cutoff -= cutoff % 8
    keys = list(dict.fromkeys(keys))
    if (nbytes := _layers_bytes(keys, cutoff)) > _MAX_BYTES:
        raise ValueError(f"cutoff = {cutoff} needs {nbytes:.3g} bytes on the float R route, "
                         f"over the cap of {_MAX_BYTES} bytes")
    done: dict = {}

    def layers(todo, L):
        level = done.setdefault(L, {})
        missing = [key for key in todo if key not in level]
        if missing:
            level.update(_R_layers(missing, L))
        return level

    out = _R_extrapolate(keys, cutoff, layers)
    half = _R_extrapolate(keys, cutoff // 2, layers)
    return out, {key: 2.0 * abs(out[key] - half[key]) for key in keys}


def _check_R(m1: int, m2: int, m3: int, alpha: int, beta: int, cutoff: int) -> None:
    if min(m1, m2, m3, alpha, beta) < 0:
        raise ValueError(f"m_i, alpha, beta must be >= 0, not {(m1, m2, m3, alpha, beta)}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, not {cutoff}")


def _float_bound(error: float, cutoff: int) -> float:
    """A float-route R value's bound: its convergence estimate, never below
    10/cutoff^2, the empirical scale of its truncation error."""
    return max(10.0 / cutoff**2, error)


def _R(key, cutoff: int, ctx: PrecisionCtx):
    """R(key) and its error bound.  A key with an exact reduction
    (exact._R_exact) is its value at ``ctx``, within ctx.eps; ``cutoff`` is
    then unused.  Every other key, such as (2,1,3;1,1) or (1,3,3;0,0), takes
    the float route _R_values: the layered sum R = R_0 + 2 R_{>0} over the
    coefficients c_m(l+a, l) at L/4, L/2 and L, L = 8 floor(cutoff/8),
    extrapolated (see _R_extrapolate)."""
    _check_R(*key, cutoff)
    if (combo := _R_exact(key)) is not None:
        return value(combo, ctx), ctx.eps
    values, errors = _R_values([key], cutoff)
    return values[key], _float_bound(errors[key], cutoff)


def R_structured(m1: int, m2: int, m3: int, alpha: int, beta: int,
                 cutoff: int = 2000, ctx: PrecisionCtx | None = None) -> float:
    """R(m1, m2, m3; alpha, beta) as a float: the value of _R at ``ctx``
    (default ``PrecisionCtx()``), rounded to float64."""
    return float(_R((m1, m2, m3, alpha, beta), cutoff, ctx or PrecisionCtx())[0])


def _k_table(m: int, C: int) -> np.ndarray:
    """T[a + mC, s] = sum of 1/|k_1 ... k_m| over k in (Z*)^m with
    |k_i| <= C, sum k = a and sum |k| = s; one pass per factor, each adding
    the table shifted by (k, |k|) and divided by |k| for k = +-1..+-C."""
    n = m * C
    T = np.zeros((2 * n + 1, n + 1))
    T[n, 0] = 1.0
    for j in range(m):
        # support after j passes: |a| <= jC, s <= jC
        src = T[n - j * C : n + j * C + 1, : j * C + 1]
        new = np.zeros_like(T)
        for k in range(1, C + 1):
            w = src / k
            for a in (k, -k):
                new[n - j * C + a : n + j * C + a + 1, k : j * C + k + 1] += w
        T = new
    return T


def _direct_bytes(m1: int, m2: int, m3: int, C: int) -> int:
    """Bytes R_direct holds at cutoff C: each group's _k_table, (2mC+1)(mC+1)
    floats, two more tables of the largest group while one is built, and
    the grids of width m1 C + 1 that couple the groups."""
    tables = [8 * (2 * m * C + 1) * (m * C + 1) for m in {m1, m2, m3}]
    rows = 2 * min(m1, m2, m3) * C + 1
    return sum(tables) + 2 * max(tables) + 8 * (m1 * C + 1) * (3 * (max(m2, m3) * C + 1) + 4 * rows)


def R_direct(m1: int, m2: int, m3: int, alpha: int, beta: int, cutoff: int) -> float:
    """Direct triple-constrained sum, truncated at |k_i| <= cutoff; grouped by
    (common momentum a, per-group absolute-value sums):
    sum_a sum_{s1} T1[a, s1] (T2[a] @ H_alpha[s1]) (T3[a] @ H_beta[s1]) with
    H_e[s1, s2] = (s1 + s2)^-e (0 at s1 + s2 = 0; row sums for e = 0).  A
    cutoff that would hold more than _MAX_BYTES (_direct_bytes) is refused
    before any table is built."""
    _check_R(m1, m2, m3, alpha, beta, cutoff)
    if (nbytes := _direct_bytes(m1, m2, m3, cutoff)) > _MAX_BYTES:
        raise ValueError(f"cutoff = {cutoff} needs {nbytes:.3g} bytes on the direct R route, "
                         f"over the cap of {_MAX_BYTES} bytes")
    C = cutoff
    A = min(m1, m2, m3) * C
    # a copy of the used rows, so that the whole table is freed
    tables = {m: _k_table(m, C)[m * C - A : m * C + A + 1].copy() for m in {m1, m2, m3}}
    T1 = tables[m1]

    def coupled(T, e):
        if e == 0:
            return T.sum(axis=1, keepdims=True)
        s = (np.arange(T1.shape[1])[:, None] + np.arange(T.shape[1])).astype(float)
        H = np.zeros_like(s)
        np.power(s, -float(e), out=H, where=s > 0)
        return T @ H.T

    return float(np.sum(T1 * coupled(tables[m2], alpha) * coupled(tables[m3], beta)))


# ---------------------------------------------------------------------------
# Laurent polynomials


def d2pt(l: int, ctx: PrecisionCtx | None = None) -> LaurentPoly:
    """Laurent-polynomial (zero-mode) part d_l(y) of the two-vertex graph with
    l parallel edges; a coefficient that cancels to within the rounding of
    its terms is 0 (no single-valued MZV has weight l - e = 1, 2 or 4)."""
    if l < 2:
        raise ValueError("l must be >= 2")
    return laurent(_d2pt_rows(l), ctx or PrecisionCtx())


def _d3pt(l, ctx: PrecisionCtx, cutoff: int):
    """d_{l1,l2,l3}(y) and its error bound: the exact rows of
    exact._d3pt_rows, within ctx.eps, plus each fallback term c R(key) with R
    from the float route at 8 floor(cutoff/8) (_R_values); the bound is then
    the largest over the powers of y of the sum of |c| _float_bound over the
    power's terms.  The first graphs with fallback terms are (1,2,3) and its
    permutations."""
    if min(l) < 1:
        raise ValueError("l_i must be >= 1")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, not {cutoff}")
    rows, fallback = _d3pt_rows(tuple(l))
    if not fallback:
        return laurent(rows, ctx), ctx.eps
    values, errors = _R_values(sorted({key for _, _, key in fallback}), cutoff)
    poly = laurent(rows, ctx)
    terms: dict = {}
    bounds: dict = {}
    with ctx.workprec():
        for e, c, key in fallback:
            terms.setdefault(e, []).append(mp.mpf(c.numerator) / c.denominator * values[key])
            bounds[e] = bounds.get(e, 0.0) + abs(c) * _float_bound(errors[key], cutoff)
        poly += LaurentPoly({e: mp.fsum(ts) for e, ts in terms.items()}, "y")
    return poly, float(max(bounds.values()))


def d3pt(l1: int, l2: int, l3: int, ctx: PrecisionCtx | None = None,
         cutoff: int = 2000) -> LaurentPoly:
    """Laurent-polynomial part d_{l1,l2,l3}(y) of the three-vertex graph (see
    _d3pt)."""
    return _d3pt((l1, l2, l3), ctx or PrecisionCtx(), cutoff)[0]


# ---------------------------------------------------------------------------
# identities and Laplacians


def laplace_fd(f, tau, h, ctx: PrecisionCtx | None = None):
    """Finite-difference hyperbolic Laplacian tau2^2 (d^2/dtau1^2 + d^2/dtau2^2)
    with a 5-point stencil of spacing h, built at ``ctx`` precision."""
    ctx = ctx or PrecisionCtx()
    with ctx.workprec():
        tau = mp.mpc(tau)
        h = mp.mpf(h)
        if mp.im(tau) - h <= 0:
            raise ValueError("stencil leaves the upper half-plane")
        t2 = mp.im(tau)
        return t2**2 * (
            f(tau + h) + f(tau - h) + f(tau + 1j * h) + f(tau - 1j * h) - 4 * f(tau)
        ) / h**2


def identity_suite(tau, M: int, ctx: PrecisionCtx | None = None) -> dict:
    """Residuals of the classical lattice identities relating small graph
    values to non-holomorphic Eisenstein series."""
    from .eisenstein import eis_nonholo

    ctx = ctx or PrecisionCtx()
    E2 = float(mp.re(eis_nonholo(2, tau, ctx)))
    E3 = float(mp.re(eis_nonholo(3, tau, ctx)))
    E4 = float(mp.re(eis_nonholo(4, tau, ctx)))
    z3 = float(zeta_int(3, ctx))
    # Green-function normalization: 1/4 per edge relative to the bare
    # lattice sum (D_lattice(cycle of N) equals E(N) exactly)
    D2 = D_lattice(MultiGraph.banana(2), tau, M) / 4**2
    D3 = D_lattice(MultiGraph.banana(3), tau, M) / 4**3
    D111 = D_lattice(MultiGraph.cycle(3), tau, M) / 4**3
    D1111 = D_lattice(MultiGraph.cycle(4), tau, M) / 4**4
    report = {
        "D2=E2/16": (D2, E2 / 16, abs(D2 - E2 / 16)),
        "D111=E3/64": (D111, E3 / 64, abs(D111 - E3 / 64)),
        "D3=(E3+z3)/64": (D3, (E3 + z3) / 64, abs(D3 - (E3 + z3) / 64)),
        "D1111=E4/256": (D1111, E4 / 256, abs(D1111 - E4 / 256)),
    }
    return report
