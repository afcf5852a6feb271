"""Seeded operation sequences for the four benchmark workloads.

Only the standard library is used here, so the orchestrator and the tests can
generate inputs without importing the package under test.

Every workload is a fixed script: the same operations in the same order, with
the same cost-determining parameters (precision, Im(tau), cutoff, lattice
size).  The seed chooses only parameters that cost nothing extra (Re(tau),
points xi and alpha, small integer arguments).  Two seeds therefore ask for about the same amount of work, so
run-to-run spread measures the program and the machine rather than the draw.
The order is fixed because it changes cost: later operations reuse what the
caches of earlier ones hold.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli_cold", "laurent_exact", "lattice_float", "emzv_series")

WHY = {
    "cli_cold": "README subcommands as fresh CLI processes; import and start-up "
                "dominate, so kernel speed-ups should leave it unchanged",
    "laurent_exact": "exact zeta-valued Laurent and MZV requests at 30-100 digits; "
                     "time is in numkernel.mzv, no numpy or FFT work",
    "lattice_float": "float64 lattice, FFT-correlation and conical shell sums at "
                     "seconds-scale cutoffs; no MZV work",
    "emzv_series": "many short q-series requests at Im(tau) 0.6-1.5 and 30-100 "
                   "digits; time is in qseries ring arithmetic and eisint.gamma",
}

# The criterion-10 conical matrices (tests/test_acceptance.py); the goldens
# live in ops.py.
CONE_MATRICES = {
    "A1": [[1, 0], [1, 2], [1, 2]],
    "A2": [[1, 1], [1, 1], [2, 1]],
    "A3": [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 0, 1]],
}

# 0/1 matrices for the CLI matrix predicates (c1s rejects other entries).
_PREDICATE_MATRICES = [
    [[1, 1, 0], [0, 1, 1]],
    [[1, 0, 1], [1, 1, 0], [0, 1, 1]],
    [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]],
    [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0]],
]


def generate(workload: str, seed: int) -> list[dict]:
    """The operation sequence of one workload for one seed.

    Each operation is a JSON-serialisable dict with an ``id`` (its position),
    a ``family`` and its arguments.  Operations that are checked against each
    other carry a common ``group`` key.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    ops = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def _tau(rng: random.Random, im: float, re_range: float = 0.5) -> list[str]:
    """A point of the upper half plane as decimal strings [re, im]."""
    return [f"{rng.uniform(-re_range, re_range):.4f}", f"{im:.4f}"]


# ---------------------------------------------------------------------------
# cli_cold


def _cli_cold(rng: random.Random) -> list[dict]:
    def tau() -> str:
        re_part, im_part = _tau(rng, rng.uniform(0.85, 1.45))
        # "=" keeps argparse from reading a negative real part as a flag
        return f"--tau={re_part}+{im_part}i"

    def prec() -> str:
        return str(rng.choice((30, 40, 50, 60)))

    cone = rng.choice(("A1", "A2"))
    pred = rng.choice(_PREDICATE_MATRICES)
    emzv_n = rng.randint(2, 6)
    argvs = [
        ["emzv", "a", "--n", str(emzv_n), "--zeros", str(rng.randint(0, 2)),
         tau(), "--prec", prec()],
        ["emzv", "b", "--n", str(rng.randint(2, 5)), "--zeros", str(rng.randint(1, 2)),
         tau(), "--prec", prec()],
        ["emzv", "binf", "--n", str(rng.randint(3, 15)), "--zeros", str(rng.randint(0, 5))],
        ["emzv", "alen2", *rng.choice((["--n1", "3", "--n2", "2"], ["--n1", "2", "--n2", "3"],
                                       ["--n1", "1", "--n2", "4"], ["--n1", "4", "--n2", "1"])),
         tau()],
        ["emzv", "hata", "--r", str(rng.randint(3, 5)), tau(),
         "--form", rng.choice(("direct", "eichler"))],
        ["mgf", "laurent2", "--l", "3"],
        ["mgf", "dlattice", "--graph", "banana:3", tau(), "--M", "100"],
        ["mgf", "s", "--m", str(rng.randint(2, 4)), "--n", str(rng.randint(0, 3))],
        ["conical", "zeta", "--matrix", str(CONE_MATRICES[cone]).replace(" ", ""),
         "--cutoff", "150"],
        ["conical", "c1s", "--matrix", str(pred).replace(" ", "")],
        ["conical", "tu", "--matrix", str(pred).replace(" ", "")],
        ["genus0", "exponent", "--order", "11", "--which", rng.choice(("open", "closed", "sv"))],
        # large k at Im(tau) = 1: the automatic q_order trips the guard today
        ["eisenstein", "e", "--k", str(rng.choice((20, 22, 24))),
         f"--tau={rng.uniform(-0.5, 0.5):.4f}+1i"],
        ["eisenstein", "nonholo", "--s", str(rng.randint(2, 4)), tau()],
        ["eisenstein", "green1", f"--xi={rng.uniform(0.1, 0.9):.3f}+{rng.uniform(0.05, 0.3):.3f}i",
         tau()],
        ["verify", "--suite", "all"],
    ]
    return [{"family": f"cli.{a[0]}.{a[1]}" if not a[1].startswith("--") else f"cli.{a[0]}",
             "argv": a} for a in argvs]


# ---------------------------------------------------------------------------
# laurent_exact


def _laurent_exact(rng: random.Random) -> list[dict]:
    # the two-point polynomials in order at a common precision, so their
    # S-sums and MZVs share the caches as in one session
    ops = [{"family": "d2pt", "l": ell, "digits": 32} for ell in range(2, 8)]
    # eight weight-11 MZVs at 60 digits, of about one cost, so the median
    # operation is one of them rather than a jump between cost classes; the
    # indices are fixed because their shape changes the cost
    for idx in ((11,), (2, 9), (4, 7), (6, 5), (2, 7, 2), (3, 5, 3), (4, 2, 5), (2, 2, 7)):
        ops.append({"family": "mzv", "idx": list(idx), "digits": 60})
    for m, n, digits in [(2, 3, 40), (2, 10, 100), (3, 2, 50), (3, 8, 100)]:
        ops.append({"family": "S_zagier", "m": m, "n": n, "digits": digits})
    for idx, digits in [([rng.choice((3, 5, 7, 9, 11))], 60),
                        ([rng.choice((4, 6, 8, 10))], 60),
                        ([3, 5], 80), ([3, 5, 3], 100)]:
        ops.append({"family": "sv_mzv", "idx": idx, "digits": digits})
    for which in ("open", "closed", "sv"):
        ops.append({"family": "genus0", "which": which, "order": 60,
                    "s": f"{rng.uniform(0.02, 0.08):.4f}", "t": f"{rng.uniform(0.02, 0.08):.4f}",
                    "digits": 35})
    return ops


# ---------------------------------------------------------------------------
# lattice_float


def _lattice_float(rng: random.Random) -> list[dict]:
    # the three-point polynomials at a common cutoff: the later ones reuse
    # the R-sums cached by the earlier ones
    ops = [{"family": "d3pt", "l": l, "cutoff": 250} for l in ([1, 1, 1], [1, 1, 2], [1, 2, 2])]
    ops += [
        {"family": "d3pt", "l": [1, 1, 1], "cutoff": 1000},
        # beta = 0: the slow tail; then the geometric-tail family at two cutoffs
        {"family": "R_structured", "m": [1, 1, 2], "alpha": 1, "beta": 0, "cutoff": 1000},
        {"family": "R_structured", "m": [2, 2, 2], "alpha": 1, "beta": 1, "cutoff": 1000},
        {"family": "R_structured", "m": [2, 2, 2], "alpha": 1, "beta": 1, "cutoff": 500},
        {"family": "S_direct", "m": 2, "n": rng.randint(1, 3), "cutoff": 20000},
        {"family": "S_direct", "m": 3, "n": rng.randint(1, 3), "cutoff": 1800},
    ]
    # six lattice sums of about one cost, for the same reason as the MZVs
    # of laurent_exact
    for graph, M in (("banana:3", 400), ("K4", 6)):
        tau = _tau(rng, rng.uniform(0.95, 1.25), 0.3)
        for image in ("tau", "S", "T"):
            ops.append({"family": "D_lattice", "graph": graph, "tau": tau, "image": image,
                        "M": M, "group": graph})
    for name, cutoff in (("A1", 225), ("A2", 225), ("A3", 175)):
        ops.append({"family": "zeta_A", "matrix": name, "cutoff": cutoff})
    for name in ("A1", "A2"):
        ops.append({"family": "zeta_A_integral", "matrix": name, "samples": 1 << 15})
    return ops


# ---------------------------------------------------------------------------
# emzv_series

# (digits, Im tau) strata; every family cycles through them in the same order
_DIGITS = (30, 50, 70, 100)
_IM_TAU = (0.6, 0.9, 1.2, 1.5)


def _emzv_series(rng: random.Random) -> list[dict]:
    ops: list[dict] = []
    slot = 0

    def stratum() -> tuple[int, list[str]]:
        nonlocal slot
        digits = _DIGITS[slot % 4]
        tau = _tau(rng, _IM_TAU[(slot // 4 + slot) % 4])
        slot += 1
        return digits, tau

    def point(tau: list[str], frac_lo: float, frac_hi: float) -> list[str]:
        """A point xi with 0 < Im xi < Im tau."""
        return [f"{rng.uniform(0.05, 0.95):.4f}",
                f"{rng.uniform(frac_lo, frac_hi) * float(tau[1]):.4f}"]

    for n in (0, 2, 4, 6, 8, 3, 5, 7):
        digits, tau = stratum()
        ops.append({"family": "A_len1_const", "n": n, "digits": digits, "tau": tau})
    for n, r in ((3, 2), (2, 3), (5, 2), (2, 5), (4, 3), (3, 4)):
        digits, tau = stratum()
        group = f"mod{n},{r}"
        ops.append({"family": "A_depth1_S", "n": n, "r": r, "digits": digits, "tau": tau,
                    "group": group})
        ops.append({"family": "B_depth1", "n": n, "r": r, "digits": digits, "tau": tau,
                    "group": group})
    for n1, n2 in ((3, 2), (1, 4), (2, 5)):
        digits, tau = stratum()
        group = f"shuffle{n1},{n2}"
        for a, b in ((n1, n2), (n2, n1)):
            ops.append({"family": "A_len2", "n1": a, "n2": b, "digits": digits, "tau": tau,
                        "group": group})
    for r in (3, 4, 5, 6):
        digits, tau = stratum()
        for form in ("direct", "eichler"):
            ops.append({"family": "hatA", "r": r, "form": form, "digits": digits, "tau": tau,
                        "group": f"hatA{r}"})
    for which in ("V32", "V23", "V14"):
        digits, tau = stratum()
        for image in ("tau", "T", "S"):
            ops.append({"family": "appendixB", "which": which, "image": image,
                        "digits": digits, "tau": tau, "group": f"vec{which}"})
    # iterated Eisenstein integrals: both depth-one factors and both
    # depth-two orderings, for the shuffle relation
    for a, b in ((4, 0), (4, 6), (0, 8)):
        digits, tau = stratum()
        for nvec in ([a], [b], [a, b], [b, a]):
            ops.append({"family": "eisint_gamma", "nvec": nvec, "digits": digits, "tau": tau,
                        "group": f"gamma{a},{b}"})
    for k in (4, 8, 12, 16, 20, 24):
        digits, tau = stratum()
        ops.append({"family": "eis_E", "k": k, "digits": digits, "tau": tau})
    for _ in range(4):
        digits, tau = stratum()
        ops.append({"family": "kronecker_F", "xi": point(tau, 0.1, 0.4),
                    "alpha": point(tau, 0.1, 0.3), "digits": digits, "tau": tau})
    for _ in range(4):
        digits, tau = stratum()
        ops.append({"family": "green1", "xi": point(tau, 0.1, 0.6), "digits": digits,
                    "tau": tau})
    for s in (2, 3, 4, 5):
        digits, tau = stratum()
        ops.append({"family": "eis_nonholo", "s": s, "digits": digits, "tau": tau})
    return ops


_GENERATORS = {
    "cli_cold": _cli_cold,
    "laurent_exact": _laurent_exact,
    "lattice_float": _lattice_float,
    "emzv_series": _emzv_series,
}
