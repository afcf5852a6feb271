"""Tour of the elliptic multiple zeta value machinery.

Run with ``python3 demos/01_elliptic_values.py``.  Everything is computed
from scratch at 30 decimal digits; expect a runtime of a few seconds.
"""

import mpmath as mp

from ellipsum.emzv import A_depth1, A_len1, A_len2, B_depth1, B_inf_depth1
from ellipsum.numkernel import PrecisionCtx

ctx = PrecisionCtx(digits=30)
tau = mp.mpc("0.2", "1.1")

with ctx.workprec():
    print("== length-one values are Bernoulli constants ==")
    for n in (0, 2, 4):
        print(f"  A({n}) = {mp.nstr(A_len1(n), 10)}")

    print("\n== length-two values satisfy the shuffle relation ==")
    # even weight: both words are constant in tau; odd weight: each word is
    # its cusp constant minus integrated Eisenstein series, A(1) = 0
    for n, m in ((2, 4), (1, 4)):
        lhs = A_len1(n) * A_len1(m)
        a, b = A_len2(n, m, tau, ctx), A_len2(m, n, tau, ctx)
        print(f"  A({n},{m})              = {mp.nstr(a, 10)}")
        print(f"  A({n})A({m}) - A({n},{m}) - A({m},{n}) = {mp.nstr(abs(lhs - a - b), 3)}")

    print("\n== the modular transform maps A-values to B-values ==")
    a = A_depth1(3, 2, -1 / tau, ctx)
    b = B_depth1(3, 2, tau, ctx)
    print(f"  A(3,0)(-1/tau) = {mp.nstr(a, 12)}")
    print(f"  B(3,0)(tau)    = {mp.nstr(b, 12)}")
    print(f"  difference     = {mp.nstr(abs(a - b), 3)}")

    print("\n== cusp asymptotics of B-values are Laurent polynomials ==")
    poly = B_inf_depth1(3, 1)
    for e in reversed(poly.exponents):
        print(f"  tau^{e:>2}: {mp.nstr(poly.coeff(e), 10)}")
    high = mp.mpc(0, 25)
    print(f"  B(3,0) at tau = 25i      : {mp.nstr(B_depth1(3, 2, high, ctx), 10)}")
    print(f"  Laurent part at tau = 25i: {mp.nstr(poly(high), 10)}")
