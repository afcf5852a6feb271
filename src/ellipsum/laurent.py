"""Laurent polynomials in one variable with arbitrary-precision complex
coefficients (finitely many integer exponents of either sign)."""

from __future__ import annotations

import json

import mpmath as mp

from .numkernel import _decimal

__all__ = ["LaurentPoly"]


class LaurentPoly:
    """Finite sum of ``c * x**e`` terms, ``e`` any integer."""

    __slots__ = ("variable", "coeffs")

    def __init__(self, coeffs=None, variable: str = "x"):
        self.variable = variable
        self.coeffs = {}
        for e, c in (coeffs or {}).items():
            if type(c) is not mp.mpc:
                c = mp.mpc(c)
            if c:
                self.coeffs[int(e)] = c

    def coeff(self, e: int) -> mp.mpc:
        return self.coeffs.get(e, mp.mpc(0))

    @property
    def exponents(self) -> list[int]:
        return sorted(self.coeffs)

    def add(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out, self.variable)

    def scale(self, c) -> "LaurentPoly":
        c = mp.mpc(c)
        return LaurentPoly({e: v * c for e, v in self.coeffs.items()}, self.variable)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x**k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()}, self.variable)

    __add__ = add

    def __call__(self, x):
        x = mp.mpmathify(x)
        return sum(c * x**e for e, c in self.coeffs.items())

    def to_json(self) -> str:
        terms = [
            {
                "exp": e,
                "coeff_re": _decimal(mp.re(c)),
                "coeff_im": _decimal(mp.im(c)),
            }
            for e, c in sorted(self.coeffs.items())
        ]
        return json.dumps({"variable": self.variable, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        data = json.loads(text)
        return cls(
            {
                t["exp"]: mp.mpc(mp.mpf(t["coeff_re"]), mp.mpf(t["coeff_im"]))
                for t in data["terms"]
            },
            data["variable"],
        )

    def __repr__(self) -> str:
        return f"LaurentPoly({self.variable}; exps={self.exponents})"
