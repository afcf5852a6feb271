"""Modular graph function checks: lattice sums, constrained sums, Laurent
polynomials."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from ellipsum import exact, mgf, numkernel
from ellipsum.eisenstein import eis_nonholo
from ellipsum.mgf import (
    D_lattice,
    MultiGraph,
    R_direct,
    R_structured,
    S_direct,
    S_zagier,
    d2pt,
    d3pt,
    identity_suite,
    laplace_fd,
)
from ellipsum.numkernel import PrecisionCtx, mzv

CTX = PrecisionCtx(digits=30)


def test_multigraph_builders():
    c3 = MultiGraph.cycle(3)
    assert c3.weight == 3 and c3.is_connected() and not c3.has_bridge()
    b4 = MultiGraph.banana(4)
    assert b4.weight == 4 and b4.depth == 3
    g = MultiGraph.from_json(c3.to_json())
    assert g.edge_list == c3.edge_list


def test_bridge_graph_vanishes():
    # a graph with a bridge has a factor averaging to zero
    g = MultiGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
    assert g.has_bridge()
    assert D_lattice(g, mp.mpc(0, 1), 40) == 0.0


def test_cycle_equals_nonholo_eisenstein():
    with CTX.workprec():
        tau = mp.mpc("0.3", "1.7")
        for n in (2, 3):
            d = D_lattice(MultiGraph.cycle(n), tau, 120, CTX, with_bound=True)
            e = eis_nonholo(n, tau, CTX)
            val, bound = d
            assert abs(val - float(e)) < max(float(abs(e)) * bound, 1e-4)


def test_modular_invariance_of_lattice_sum():
    g = MultiGraph.cycle(3)
    tau = mp.mpc("0.37", "1.21")
    a = D_lattice(g, tau, 80)
    b = D_lattice(g, -1 / tau, 80)
    c = D_lattice(g, tau + 1, 80)
    # the square momentum cutoff is not exactly lattice-symmetric, so both
    # transforms agree only up to the truncation error
    assert abs(a - b) < 1e-4
    assert abs(a - c) < 1e-4


def test_block_factorization():
    # two triple-edge blocks joined at a vertex factorize into a product
    tau = mp.mpc("0.1", "1.3")
    g = MultiGraph.from_edges(3, [(0, 1, 3), (1, 2, 3)])
    banana = D_lattice(MultiGraph.banana(3), tau, 30)
    assert abs(D_lattice(g, tau, 30) - banana**2) < 1e-12 * (1 + banana**2)


def test_depth3_guard():
    with pytest.raises(ValueError):
        D_lattice(MultiGraph.banana(4), mp.mpc(0, 1), 40)


def test_S_direct_guards_and_monotone_tail():
    with pytest.raises(ValueError):
        S_direct(5, 0, 100)
    vals = [S_direct(2, 1, c) for c in (500, 1000, 2000)]
    assert vals[0] < vals[1] < vals[2]


def _S3_by_rows(n, cutoff):
    """S_direct(3, n, cutoff) one row of k2 per k1 > 0, doubled for k1 < 0."""
    ks = np.arange(-cutoff, cutoff + 1)
    k2 = ks[ks != 0].astype(float)

    def row3(k1):
        k3 = -k1 - k2
        mask = k3 != 0
        return np.sum(1.0 / (k1 * np.abs(k2[mask] * k3[mask])
                             * (k1 + np.abs(k2[mask]) + np.abs(k3[mask])) ** n))

    return 2.0 * float(sum(row3(k1) for k1 in range(1, cutoff + 1)))


@pytest.mark.parametrize("cutoff", [1, 2, 3, 17, 300])
def test_S_direct_three_point_matches_row_sum(cutoff):
    for n in range(4):
        ref = _S3_by_rows(n, cutoff)
        assert abs(S_direct(3, n, cutoff) - ref) <= 1e-13 * ref, n


def test_S_direct_four_point():
    with CTX.workprec():
        closed = float(S_zagier(4, 2, CTX))
    assert abs(S_direct(4, 2, 100) - closed) < 2e-4


def test_S_direct_four_point_refuses_large_cutoff():
    # the cost grows like cutoff^3: the default CLI cutoff 20000 would build
    # 40000 x 40000 grids, so it is refused before any work
    start = time.perf_counter()
    with pytest.raises(ValueError):
        S_direct(4, 1, 20000)
    assert time.perf_counter() - start < 1


def _graphs_up_to_4_vertices():
    """Connected, bridgeless multigraphs on 2-4 labelled vertices with
    multiplicities <= 2 whose blocks have depth <= 3."""
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for mults in itertools.product(range(3), repeat=len(pairs)):
            g = MultiGraph.from_edges(n, [(i, j, m) for (i, j), m in zip(pairs, mults)])
            if not g.is_connected() or g.has_bridge():
                continue
            depth = max(mgf._signatures(g.edge_list, b)[1] for b in g.blocks())
            if depth <= 3:
                yield g, depth


def _loop_momentum_sum(g, tau, M):
    """The truncated graph value as a plain sum over every loop-momentum
    tuple of each block, each loop momentum in |m|, |n| <= M."""
    t1, t2 = float(mp.re(tau)), float(mp.im(tau))
    value = (t2 / math.pi) ** g.weight
    for block in g.blocks():
        groups, d = mgf._signatures(g.edge_list, block)
        axis = np.arange(-M, M + 1)
        p = np.stack(np.meshgrid(*[axis] * (2 * d), indexing="ij"), -1).reshape(-1, d, 2)
        term = np.ones(len(p))
        for s, cnt in groups:
            km, kn = np.einsum("ndc,d->cn", p, np.array(s))
            zero = (km == 0) & (kn == 0)
            norm2 = np.where(zero, 1.0, (km * t1 + kn) ** 2 + (km * t2) ** 2)
            term *= np.where(zero, 0.0, norm2 ** -cnt)
        value *= term.sum()
    return value


def _block_branches(g):
    """(depth, sigma, has a (0, 0) factor) of each block of g."""
    for block in g.blocks():
        groups, d = mgf._signatures(g.edge_list, block)
        sigma = next((s[1] for s, _ in groups if d > 1 and s[0] and s[1]), 1)
        yield d, sigma, any(d == 3 and s[:2] == (0, 0) for s, _ in groups)


def _k4():
    return MultiGraph.from_edges(4, [(i, j, 1) for i, j in itertools.combinations(range(4), 2)])


def test_D_lattice_matches_loop_momentum_brute_force():
    tau = mp.mpc("0.13", "1.05")
    graphs = list(_graphs_up_to_4_vertices())
    assert [sum(d == k for _, d in graphs) for k in (1, 2, 3)] == [36, 57, 88]
    # every _block_sum branch: sigma = +-1 at depth 2 and 3; the third loop
    # edge, signature (0, 0, 1), gives every depth-3 block a (0, 0) factor
    branches = {b for g, _ in graphs for b in _block_branches(g)}
    assert branches == {(1, 1, False), (2, 1, False), (2, -1, False), (3, 1, True), (3, -1, True)}
    misses = []
    for g, _ in graphs:
        ref = _loop_momentum_sum(g, tau, 2)
        got = D_lattice(g, tau, 2)
        if abs(got - ref) > 1e-13 * abs(ref):
            misses.append((g.to_json(), got, ref))
    assert not misses


def test_D_lattice_K4_matches_loop_momentum_brute_force():
    # 9 batched rows of 9 points of the third momentum
    tau = mp.mpc("0.13", "1.05")
    ref = _loop_momentum_sum(_k4(), tau, 4)
    assert abs(D_lattice(_k4(), tau, 4) - ref) <= 1e-13 * abs(ref)


def test_D_lattice_refuses_a_depth3_M_before_any_block_runs(monkeypatch):
    # a depth-1 block (two edges) and a depth-3 block (four edges) at M = 17
    g = MultiGraph.from_edges(3, [(0, 1, 2), (1, 2, 4)])
    runs = []
    monkeypatch.setattr(mgf, "_block_sum", lambda *args: runs.append(args) or 1.0)
    with pytest.raises(ValueError, match="depth-3 lattice sums limited to M <= 16"):
        D_lattice(g, mp.mpc(0, 1), 17)
    assert not runs
    assert D_lattice(g, mp.mpc(0, 1), 16) and len(runs) == 2


# depth-2 blocks: sigma = +1 with equal counts, sigma = -1 with unequal
# counts (the triangle with one doubled edge) and with equal ones (theta)
DEPTH2_GRAPHS = {
    "banana3": MultiGraph.banana(3),
    "triangle211": MultiGraph.from_edges(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)]),
    "theta": MultiGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1)]),
}


@pytest.mark.parametrize("M", [2, 5])
def test_block_sum_makes_one_fftconvolve_call_per_row(monkeypatch, M):
    calls, transforms, spectra = [], [], []
    real, row_transforms = mgf.fftconvolve, mgf._row_transforms

    def counted(a, b, axes=None):
        calls.append(axes)
        return real(a, b, axes)

    def counted_spectrum(w, N):
        spectra.append(w.shape)
        return row_transforms(w, N)

    def counted_nd(name):
        transform = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            transforms.append(name)
            return transform(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mgf, "fftconvolve", counted)
    monkeypatch.setattr(mgf, "_row_transforms", counted_spectrum)
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, counted_nd(name))
    tau = mp.mpc("0.13", "1.05")
    # depth 2 transforms its factors itself, by 1-D transforms only: one
    # set of row transforms per distinct edge count of A and B, squared when
    # the two agree (banana:3, theta), one per factor when they differ
    # (triangle)
    for g, n in [(MultiGraph.banana(3), 1), (DEPTH2_GRAPHS["theta"], 1),
                 (DEPTH2_GRAPHS["triangle211"], 2)]:
        spectra.clear()
        D_lattice(g, tau, M)
        assert calls == [] and transforms == []
        assert spectra == [(M + 1, 2 * M + 1)] * n
    D_lattice(_k4(), tau, M)
    assert calls == [(1, 2)] * (2 * M + 1)


# M = 1 and 2: the odd tori N = 5 and 9, whose N/2 + 1 rows only just hold
# the 2M + 1 rows x_m >= 0 of the convolution; M = 47: N = 192, so neither
# the 95 rows x_m >= 0 nor the 97 columns k_n fill whole blocks
@pytest.mark.parametrize("M", [1, 2, 3, 40, 47, 400])
@pytest.mark.parametrize("name", DEPTH2_GRAPHS)
def test_depth2_block_sum_matches_full_plane(name, M):
    g = DEPTH2_GRAPHS[name]
    (block,) = g.blocks()
    groups, d = mgf._signatures(g.edge_list, block)
    cnt = dict(groups)
    sigma = next(s[1] for s, _ in groups if s[0] and s[1])
    assert d == 2 and (sigma, cnt[1, 0] == cnt[0, 1]) == {
        "banana3": (1, True), "triangle211": (-1, False), "theta": (-1, True)}[name]
    tau = mp.mpc("0.13", "1.1")
    # tau and its S and T images: Re tau of either sign, Im tau below 1
    for t in (tau, -1 / tau, tau + 1):
        # full plane: sum over x of (A * B)(x) C(x), C the radius-2M grid
        w = mgf._weights(t, M, {cnt[1, 0], cnt[0, 1]})
        conv = mgf.fftconvolve(w[cnt[1, 0]], w[cnt[0, 1]])
        ref = float((conv * mgf._weights(t, 2 * M, {cnt[1, sigma]})[cnt[1, sigma]]).sum())
        got = mgf._block_sum(groups, d, t, M)
        assert abs(got - ref) <= 1e-14 * abs(ref), t


def test_depth2_block_sum_values_are_frozen():
    # banana:3 at M = 400, at tau and its S and T images, as the kernel gave
    # them before its middle stages ran in blocks: the blocks change no
    # transform and no row sum, so the values agree bit for bit
    g = MultiGraph.banana(3)
    (block,) = g.blocks()
    groups, d = mgf._signatures(g.edge_list, block)
    tau = mp.mpc("0.13", "1.1")
    got = [mgf._block_sum(groups, d, t, 400) for t in (tau, -1 / tau, tau + 1)]
    assert got == [31.600147916106135, 58.36017894731076, 31.59942873799361]


@pytest.mark.parametrize("name", ["banana3", "triangle211"])
def test_depth2_block_sum_memory_is_F_plus_H(name):
    # only the row transforms F of each distinct factor and the half
    # spectrum H are full size; the block buffers stay within a quarter
    g, M = DEPTH2_GRAPHS[name], 200
    (block,) = g.blocks()
    groups, d = mgf._signatures(g.edge_list, block)
    cnt = dict(groups)
    N = mgf._next_fast_len(4 * M + 1)
    factors = len({cnt[1, 0], cnt[0, 1]})
    f_and_h = 16 * (N // 2 + 1) * (factors * (M + 1) + 2 * M + 1)
    tau = mp.mpc("0.13", "1.1")
    mgf._block_sum(groups, d, tau, M)  # caches and plans outside the trace
    tracemalloc.start()
    try:
        mgf._block_sum(groups, d, tau, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * f_and_h, (peak, f_and_h)


@pytest.mark.parametrize("half", [False, True])
def test_weights_are_bit_identical_to_the_broadcast_expression(half):
    for tau in (mp.mpc("0.13", "1.1"), mp.mpc("-0.41", "0.93"), mp.mpc("0.5", "0.8660254")):
        t1, t2 = float(mp.re(tau)), float(mp.im(tau))
        for R in (1, 7, 60):
            m = np.arange(0 if half else -R, R + 1)[:, None]
            n = np.arange(-R, R + 1)[None, :]
            norm2 = (m * t1 + n) ** 2 + (m * t2) ** 2
            norm2[0 if half else R, R] = np.inf
            for counts in ({1}, {2, 1}, [3, 3], {1, 2, 3}):
                got = mgf._weights(tau, R, counts, half)
                assert set(got) == set(counts)
                for k in counts:
                    assert np.array_equal(got[k], norm2 ** (-k)), (tau, R, k)


def test_S_zagier_matches_direct():
    with CTX.workprec():
        for m, n in [(2, 1), (3, 2)]:
            closed = float(S_zagier(m, n, CTX))
            direct = S_direct(m, n, 4000)
            assert abs(closed - direct) < 1e-6


def test_R_oracle_values():
    with CTX.workprec():
        # R(1,1,1; a, b) = 2^(1-a-b) zeta(3+a+b)
        for a, b in [(1, 1), (2, 0)]:
            ref = float(2 ** (1 - a - b) * mp.zeta(3 + a + b))
            assert abs(R_structured(1, 1, 1, a, b, cutoff=800) - ref) < 1e-6
            assert abs(R_direct(1, 1, 1, a, b, 400) - ref) < 1e-3


def _R_direct_by_tuples(m1, m2, m3, alpha, beta, C):
    """R_direct by recursion over every momentum tuple of each group."""
    def table(m):
        tab = {}

        def rec(depth, s, a, prod):
            if depth == m:
                row = tab.setdefault(a, {})
                row[s] = row.get(s, 0.0) + 1.0 / prod
                return
            for k in range(-C, C + 1):
                if k:
                    rec(depth + 1, s + abs(k), a + k, prod * abs(k))

        rec(0, 0, 0, 1.0)
        return tab

    def coupled(row, s1, e):
        return sum(w / (s1 + s) ** e if e else w for s, w in row.items() if s1 + s or not e)

    T1, T2, T3 = table(m1), table(m2), table(m3)
    return sum(w1 * coupled(T2[a], s1, alpha) * coupled(T3[a], s1, beta)
               for a, row in T1.items() if a in T2 and a in T3
               for s1, w1 in row.items())


@pytest.mark.parametrize("m", [(1, 1, 1), (0, 1, 1), (1, 1, 2), (2, 2, 2)])
def test_R_direct_matches_tuple_recursion(m):
    for cutoff in (1, 3, 6):
        for alpha, beta in [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1)]:
            ref = _R_direct_by_tuples(*m, alpha, beta, cutoff)
            got = R_direct(*m, alpha, beta, cutoff)
            assert abs(got - ref) <= 1e-13 * abs(ref), (cutoff, alpha, beta)


def _R_closed_form(m, alpha, beta):
    w = alpha + beta
    if m == (1, 1, 1):
        return 2 ** (1 - w) * mp.zeta(3 + w)
    if m == (0, 2, 2):
        return mp.mpf(2) ** (2 - w) * mp.zeta(alpha + 2) * mp.zeta(beta + 2)
    if m == (2, 1, 1):
        # repo mzv convention (increasing arguments)
        return mp.mpf(2) ** (2 - w) * (3 * mzv((1, 3 + w), CTX) + mzv((2, 2 + w), CTX))
    assert (m, alpha, beta) == ((1, 1, 2), 1, 0)
    return 10 * mp.zeta(5) - 4 * mp.zeta(2) * mp.zeta(3)


# the float route: geometric tails to 1e-8; the alpha*beta = 0 shapes with a
# 1/L tail to 2e-6
_R_CLOSED_CASES = [
    ((1, 1, 1), 1, 1, 1e-8), ((1, 1, 1), 1, 2, 1e-8), ((1, 1, 1), 2, 2, 1e-8),
    ((0, 2, 2), 1, 1, 1e-8), ((0, 2, 2), 2, 1, 1e-8),
    ((2, 1, 1), 1, 1, 1e-8), ((2, 1, 1), 1, 2, 1e-8), ((2, 1, 1), 2, 2, 1e-8),
    # alpha * beta = 0
    ((1, 1, 1), 2, 0, 1e-8), ((1, 1, 1), 0, 1, 1e-8),
    ((0, 2, 2), 2, 0, 2e-6), ((0, 2, 2), 0, 1, 2e-6), ((0, 2, 2), 0, 0, 2e-6),
    ((2, 1, 1), 3, 0, 1e-8), ((2, 1, 1), 0, 1, 1e-8),
    ((1, 1, 2), 1, 0, 2e-6),
]


@pytest.mark.parametrize("m,alpha,beta,tol", _R_CLOSED_CASES,
                         ids=[f"{m[0]}{m[1]}{m[2]};{a}{b}" for m, a, b, _ in _R_CLOSED_CASES])
def test_R_structured_closed_forms(m, alpha, beta, tol):
    with CTX.workprec():
        ref = float(_R_closed_form(m, alpha, beta))
    key = (*m, alpha, beta)
    assert abs(mgf._R_values([key], 1000)[0][key] - ref) < tol


@pytest.mark.parametrize("m,alpha,beta", [(m, a, b) for m, a, b, _ in _R_CLOSED_CASES])
def test_R_exact_closed_forms(m, alpha, beta):
    key = (*m, alpha, beta)
    value = exact.value(exact._R_exact(key), CTX)
    with CTX.workprec():
        assert abs(value - _R_closed_form(m, alpha, beta)) < mp.mpf("1e-28")
    assert R_structured(*key) == float(value)


# exact keys with alpha = 0, beta = 0 or both, of the shapes (0,m,m'), (1,1,m),
# (1,2,2) and (2,2,2) in their orders; (2,2,2;0,0) is left to
# test_R_222_at_zero_exponents_matches_its_row_sums, because the float route
# misses it by more than its own move from cutoff 1000 to 2000
_R_ZERO_EXPONENT_KEYS = [
    (0, 2, 2, 0, 1), (2, 0, 2, 0, 1), (2, 0, 3, 0, 2), (0, 3, 2, 1, 0),
    (0, 2, 2, 0, 0), (2, 2, 0, 0, 0),
    (1, 1, 2, 0, 1), (1, 3, 1, 0, 2), (2, 1, 1, 1, 0), (1, 1, 3, 1, 0),
    (1, 2, 1, 2, 0), (1, 1, 1, 0, 0), (3, 1, 1, 0, 0),
    (1, 2, 2, 0, 1), (2, 1, 2, 0, 1), (2, 1, 2, 0, 2), (2, 1, 2, 1, 0),
    (2, 2, 1, 2, 0), (1, 2, 2, 0, 0), (2, 2, 1, 0, 0),
    (2, 2, 2, 1, 0), (2, 2, 2, 0, 2), (2, 2, 2, 0, 3),
]


def test_exact_R_sums_with_a_zero_exponent_match_the_float_route():
    assert all(exact._R_exact(key) is not None for key in _R_ZERO_EXPONENT_KEYS)
    # errors[key] / 2 is the move of the value from cutoff 1000 to 2000
    fine, errors = mgf._R_values(_R_ZERO_EXPONENT_KEYS, 2000)
    for key in _R_ZERO_EXPONENT_KEYS:
        value = float(exact.value(exact._R_exact(key), CTX))
        assert value > 0, key
        # the allowance of test_exact_R_sums_match_the_float_route
        assert abs(value - fine[key]) <= 1e-8 + errors[key] / 2, key


def test_keys_that_left_the_float_route_lie_within_its_bound():
    # the keys of the box m_i <= 4, alpha, beta <= 2 with an exact reduction
    # outside the shapes (0,m,m'), (1,1,m), (1,2,2) and (2,2,2), which took
    # the float route before the layer rule decided its own domain
    def old_shape(m):
        return m[0] == 0 or m[:2] == [1, 1] or m in ([1, 2, 2], [2, 2, 2])

    keys = [key for key in itertools.product(*[range(5)] * 3, *[range(3)] * 2)
            if not old_shape(sorted(key[:3])) and exact._R_exact(key) is not None]
    assert len(keys) == 122
    values, errors = mgf._R_values(keys, 1000)
    exact_values, _ = exact._row_values({key: exact._R_exact(key) for key in keys}, CTX)
    for key in keys:
        error = abs(float(exact_values[key]) - values[key])
        assert error <= mgf._float_bound(errors[key], 1000), key


@pytest.mark.parametrize("l, cutoffs", [((1, 2, 4), (21, 29, 37, 45, 53, 61)), ((1, 3, 3), (21,))],
                         ids=["124", "133"])
def test_float_route_bound_covers_the_move_at_cutoffs_off_multiples_of_8(l, cutoffs):
    # the Richardson step assumes levels in the ratio 1:2:4, which hold
    # exactly at L = 8 floor(cutoff/8); at cutoff/4, /2, /1 the bound of these
    # cutoffs fell short of the move of a coefficient to cutoff 1000
    fine = mgf.d3pt(*l, ctx=CTX, cutoff=1000)
    for cutoff in cutoffs:
        coarse, bound = mgf._d3pt(l, CTX, cutoff)
        with CTX.workprec():
            move = max(abs(coarse.coeff(e) - fine.coeff(e))
                       for e in set(coarse.exponents) | set(fine.exponents))
        assert bound >= move, cutoff


def test_R_memory_predictions_hold_the_traced_peak():
    # the bytes each float route predicts before it runs (and refuses over
    # mgf._MAX_BYTES) are at least what it then holds
    def peak(f, *args):
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for key, cutoff in itertools.product([(1, 2, 3, 1, 1), (1, 3, 3, 1, 1)], (100, 200)):
        assert mgf._direct_bytes(*key[:3], cutoff) >= peak(R_direct, *key, cutoff), key
    float_keys = sorted({k for _, _, k in exact._d3pt_rows((1, 3, 3))[1]})
    for keys, cutoff in (([(2, 1, 3, 1, 1)], 2000), (float_keys, 1000)):
        assert mgf._layers_bytes(keys, cutoff) >= peak(mgf._R_values, keys, cutoff)


def test_R_structured_never_reaches_the_float_route_on_a_family_key(monkeypatch):
    def refuse(keys, L):
        raise AssertionError(f"float R route reached for {keys}")

    monkeypatch.setattr(mgf, "_R_layers", refuse)
    for key in [(1, 1, 2, 1, 0), (0, 2, 2, 0, 0), (2, 1, 2, 0, 1), (1, 1, 5, 1, 1),
                *((2, 2, 2, a, b) for a in range(4) for b in range(4))]:
        assert R_structured(*key, cutoff=1000) > 0


def test_R_222_family():
    for a, b in itertools.product(range(5), repeat=2):
        assert exact._R_exact((2, 2, 2, a, b)) is not None
    assert not exact._d3pt_rows((2, 2, 2))[1]
    assert exact._R_exact((2, 2, 2, 1, 2)) == exact._R_exact((2, 2, 2, 2, 1))
    # the extrapolation of the float route at cutoffs 1000-8000
    assert abs(R_structured(2, 2, 2, 1, 1) - 2.12820121456) < 1e-9


def _geom_extrapolate(vals):
    """The last of three values plus the geometric tail of their differences."""
    v1, v2, v3 = vals
    r = (v3 - v2) / (v2 - v1)
    assert 0 < r < 1
    return v3 + (v3 - v2) * r / (1 - r)


def _log_fit(cuts, vals):
    """Criterion 07's fit of value + log(c)/c + 1/c + 1/c^2 to four cutoffs."""
    c = np.array(cuts, dtype=float)
    design = np.stack([np.ones(4), -np.log(c) / c, -1 / c, -1 / c**2], axis=1)
    return np.linalg.solve(design, vals)[0]


@pytest.mark.parametrize("alpha,beta", [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
def test_R_222_lies_within_the_error_of_the_extrapolated_direct_sum(alpha, beta):
    # R(2,2,2) is symmetric in alpha, beta (see test_R_222_family).  The error
    # of an extrapolation is its move when the finest cutoff is dropped.
    if alpha * beta:
        cuts = (20, 40, 80, 160)
        vals = [R_direct(2, 2, 2, alpha, beta, c) for c in cuts]
        fine, coarse = _geom_extrapolate(vals[1:]), _geom_extrapolate(vals[:3])
    else:
        cuts = (20, 40, 80, 160, 320)
        vals = [R_direct(2, 2, 2, alpha, beta, c) for c in cuts]
        fine, coarse = _log_fit(cuts[1:], vals[1:]), _log_fit(cuts[:4], vals[:4])
    value = R_structured(2, 2, 2, alpha, beta)
    assert abs(value - fine) <= abs(fine - coarse), (value, fine, coarse)


def test_R_222_at_zero_exponents_matches_its_row_sums():
    # With alpha = beta = 0 the layers factorise: R = 8 zeta(2)^3 + 2 sum_a
    # r(a)^3 with the row sum r(a) = sum_l c_2(l + a, l) = 2 (2 H_a - 1/a) / a.
    # A decreasing bound r(a) <= 4 (ln a + 1) / a puts the terms a > N below
    # 128 int_N^inf (ln x + 1)^3 x^-3 dx.  (Criterion 07's log fit does not
    # model this tail, which has log^2 c / c terms.)
    N = 10**6
    a = np.arange(1, N + 1, dtype=float)
    r = 2 * (2 * np.cumsum(1 / a) - 1 / a) / a
    head = 8 * (math.pi**2 / 6) ** 3 + 2 * math.fsum(r**3)
    L = math.log(N) + 1
    tail = 128 * (L**3 / 2 + 3 * L**2 / 4 + 3 * L / 4 + 3 / 8) / N**2
    value = R_structured(2, 2, 2, 0, 0)
    assert 0 < value - head <= tail


def test_d3pt_222_is_within_the_float_route_bound(monkeypatch):
    # the polynomial with R(2,2,2;1,1) from the float route, as laurent3 had
    # it, and its printed bound 10/cutoff^2
    cutoff = 2000
    exact_poly = d3pt(2, 2, 2, ctx=CTX, cutoff=cutoff)
    reduce = exact._R_exact
    monkeypatch.setattr(exact, "_R_exact",
                        lambda key: None if sorted(key[:3]) == [2, 2, 2] else reduce(key))
    assert {key for _, _, key in exact._d3pt_rows((2, 2, 2))[1]} == {(2, 2, 2, 1, 1)}
    float_poly = d3pt(2, 2, 2, ctx=CTX, cutoff=cutoff)
    assert set(exact_poly.exponents) == set(float_poly.exponents)
    with CTX.workprec():
        for e in exact_poly.exponents:
            assert abs(exact_poly.coeff(e) - float_poly.coeff(e)) <= 10 / cutoff**2, e


def _R_layers_reference(key, L):
    """The truncated layered sum, one layer at a time, with the coupled
    denominators as explicit Hankel matrix products."""
    m1, m2, m3, alpha, beta = key
    # S_r(u) = [x^u] (-log(1-x))^r for u = 0..2L
    S = [[1.0] + [0.0] * (2 * L)]
    for _ in range(max(key[:3])):
        prev = S[-1]
        S.append([sum(prev[v] / (u - v) for v in range(u)) for u in range(2 * L + 1)])
    l = np.arange(L + 1)

    def c(m, a):
        return sum(math.comb(m, r) * np.array(S[r])[l + a] * np.array(S[m - r])[l]
                   for r in range(m + 1))

    def T(vec, a, e):
        if e == 0:
            return np.full(L + 1, vec.sum())
        s = (a + l[:, None] + l[None, :]).astype(float)
        K = np.zeros_like(s)
        K[s > 0] = s[s > 0] ** -e
        return K @ vec

    total = 0.0
    for a in range(L + 1):
        layer = np.sum(c(m1, a) * T(c(m2, a), a, alpha) * T(c(m3, a), a, beta))
        total += layer if a == 0 else 2 * layer
    return total / 2 ** (alpha + beta)


@pytest.mark.parametrize("L", [1, 2, 63, 64, 65, 130])
def test_R_layers_matches_per_layer_reference(L):
    # empty groups, zero exponents and shared (m, e) correlations in one batch
    keys = [(1, 1, 1, 1, 1), (2, 1, 1, 0, 2), (0, 2, 2, 1, 0), (2, 2, 0, 1, 1),
            (1, 2, 3, 2, 0), (2, 2, 2, 0, 0), (1, 2, 2, 1, 1), (0, 2, 2, 3, 1)]
    got = mgf._R_layers(keys, L)
    for key in keys:
        ref = _R_layers_reference(key, L)
        assert abs(got[key] - ref) <= 1e-13 * abs(ref), key


def test_R_value_independent_of_batch_and_cache():
    cutoff = 120
    keys = [(1, 1, 2, 1, 0), (0, 2, 2, 2, 0), (2, 1, 1, 1, 2), (1, 2, 1, 2, 1)]
    alone = {key: mgf._R_values([key], cutoff) for key in keys}
    for batch in (keys, keys[::-1] + [(2, 2, 2, 1, 1), (0, 2, 2, 0, 1)]):
        values, errors = mgf._R_values(batch, cutoff)
        assert all((values[key], errors[key]) == (alone[key][0][key], alone[key][1][key])
                   for key in keys)


@pytest.mark.parametrize("L", [250, 500, 1000, 1010])
def test_fftconvolve_1d_bit_identical_to_scipy(L):
    # the shapes of a length-(L+1) by length-(2L+1) correlation; L = 1010 gives
    # full length 3031 = 7*433, which pads to the 5-smooth 3072
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(L)
    a, b = rng.random(L + 1), rng.random(2 * L + 1)
    assert np.array_equal(mgf.fftconvolve(a, b), signal.fftconvolve(a, b))


@pytest.mark.parametrize("M", [6, 100, 400])
def test_fftconvolve_2d_matches_scipy(M):
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(M)
    a, b = rng.random((2 * M + 1,) * 2), rng.random((2 * M + 1,) * 2)
    ref = signal.fftconvolve(a, b)
    got = mgf.fftconvolve(a, b)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("M", [6, 16])
def test_fftconvolve_batched_axes_match_scipy(M):
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(M)
    a, b = rng.random((2, 5, 2 * M + 1, 2 * M + 1))
    ref = signal.fftconvolve(a, b, axes=(1, 2))
    got = mgf.fftconvolve(a, b, axes=(1, 2))
    assert got.shape == ref.shape == (5, 4 * M + 1, 4 * M + 1)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    assert all(np.array_equal(got[i], mgf.fftconvolve(a[i], b[i])) for i in range(5))


def test_d2pt_weight_two():
    with CTX.workprec():
        poly = d2pt(2, CTX)
        y = mp.mpf("1.7")
        ref = (y**2 / 45 + mp.zeta(3) / y) / 16
        assert abs(poly(y) - ref) < mp.mpf("1e-22")


def test_d2pt_leading_term_is_the_terminating_2F1():
    # d2pt takes its y^l term from d3pt's no-loop term of (l, 0, 0) over 4^l;
    # the two-point formula is 2F1(1, -l; 3/2; 3/2) (y/12)^l
    for l in range(2, 13):
        hyp, term = Fraction(0), Fraction(1)
        for k in range(l + 1):
            hyp += term
            term *= Fraction(-(l - k)) * Fraction(3, 2) / (Fraction(3, 2) + k)
        assert exact._d2pt_rows(l)[l] == {(): hyp / 12**l}, l


def test_lattice_sum_meets_the_laurent_polynomial():
    # at tau = iT, D_lattice(banana:l) / 4^l is d_l(y = pi T) up to
    # O(exp(-2 pi T)) and the lattice truncation, which shrinks with M
    tau = mp.mpc(0, 3)
    with CTX.workprec():
        laurent = {l: mp.re(d2pt(l, CTX)(3 * mp.pi)) for l in (2, 3)}

    def gap(l, M):
        return abs(D_lattice(MultiGraph.banana(l), tau, M) / 4**l - laurent[l]) / laurent[l]

    assert gap(2, 400) <= 1e-5
    assert gap(3, 400) <= 1e-4
    assert gap(3, 400) < gap(3, 200)


def test_triangle_lattice_sums_meet_d3pt():
    # at tau = iT the triangle with edge counts (l1, l2, l3) is
    # d3pt(l1, l2, l3) at y = pi T; d3pt carries the normalisation of the
    # lattice sum itself, so no 4^w division as for d2pt's 4^l.  At M = 400
    # the one-loop cycle:3 is off by its e^(-2 pi T) = e^(-6 pi) mode, not
    # by the truncation; the depth-2 triangle (2, 1, 1) converges in M
    tau = mp.mpc(0, 3)
    with CTX.workprec():
        laurent = {l: mp.re(d3pt(*l, ctx=CTX)(3 * mp.pi)) for l in [(1, 1, 1), (1, 1, 2)]}
    cycle = D_lattice(MultiGraph.cycle(3), tau, 400)
    assert abs(cycle - laurent[1, 1, 1]) <= 2e-8 * laurent[1, 1, 1]

    def gap(M):
        return abs(D_lattice(DEPTH2_GRAPHS["triangle211"], tau, M) - laurent[1, 1, 2]) / laurent[1, 1, 2]

    assert gap(400) <= 1e-5
    assert gap(400) < gap(200)


def test_d2pt_drops_coefficients_of_empty_sv_weights():
    # no single-valued MZV has weight 1, 2 or 4, so y^e with l - e among them
    # cancels to a rounding residue (2.2e-44 at y^1 of d_5, 30 digits)
    for digits in (10, 30, 100):
        ctx = PrecisionCtx(digits=digits)
        for l in range(2, 10):
            weights = {l - e for e in d2pt(l, ctx).exponents}
            assert not weights & {1, 2, 4}, (digits, l, weights)


def test_mzv_built_values_ignore_cache_state(monkeypatch):
    # every value computed alone from empty caches equals the one computed
    # after the batches of the others have filled them
    ctx = PrecisionCtx(digits=32)
    calls = {f"d2pt({l})": (lambda l=l: d2pt(l, ctx)) for l in range(7, 1, -1)}
    calls["d3pt(1,1,2)"] = lambda: d3pt(1, 1, 2, ctx=ctx, cutoff=100)
    calls.update({f"S({m},{n})": (lambda m=m, n=n: S_zagier(m, n, ctx))
                  for m in range(2, 7) for n in range(0, 9)})

    def cleared():
        monkeypatch.setattr(numkernel, "_mzv_cached", {})
        monkeypatch.setattr(numkernel, "_li_half_cached", {})

    def key(v):
        return v.coeffs if hasattr(v, "coeffs") else v

    cleared()
    warm = {name: key(call()) for name, call in calls.items()}
    for name, call in calls.items():
        cleared()
        assert key(call()) == warm[name], name


def test_d3pt_permutation_symmetry():
    ctx = PrecisionCtx(digits=20)
    with ctx.workprec():
        a = d3pt(1, 1, 2, ctx=ctx, cutoff=50)
        b = d3pt(2, 1, 1, ctx=ctx, cutoff=50)
        for e in set(a.exponents) | set(b.exponents):
            assert abs(a.coeff(e) - b.coeff(e)) < mp.mpf("1e-16")


def test_d3pt_guard():
    with pytest.raises(ValueError):
        d3pt(0, 1, 1)
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        d3pt(2, 2, 2, cutoff=0)


def test_laplace_fd_power_law():
    # the hyperbolic Laplacian acts on y^s with eigenvalue s(s-1)
    with CTX.workprec():
        lap = laplace_fd(lambda t: mp.im(t) ** 3, mp.mpc(0, 1), mp.mpf("1e-4"), CTX)
        assert abs(lap - 6) < mp.mpf("1e-5")


def test_identity_suite_keys_and_residuals():
    suite = identity_suite(mp.mpc(0, 1), 60, CTX)
    assert set(suite) == {"D2=E2/16", "D111=E3/64", "D3=(E3+z3)/64",
                          "D1111=E4/256"}
    for _, (_, _, resid) in suite.items():
        assert resid < 5e-3
