"""Exponential polynomials in x, y, z with rational coefficients: the
reference for the closed-form bracket of `trilie.symfun`.

Elements are finite sums of terms ``c * x^a y^b z^c e^{k z}`` with
natural powers a, b, c and integer frequency k.  This ring is closed
under products, partial derivatives and the Jacobian determinant
bracket, which `jacobian_bracket` takes from nine partial derivatives
and the cofactor expansion, for any sums of terms.  The program builds
its function-space bundles from the closed form on monic monomials;
the tests compare that form with this one.
"""

from __future__ import annotations

from trilie.exactq import Q, qnorm, qparse, qstr
from trilie.symfun import Key


class ExpPoly:
    """Immutable finite sum of monomials x^a y^b z^c e^{kz}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Q] | None = None):
        clean: dict[Key, Q] = {}
        if terms:
            for key, coeff in terms.items():
                a, b, c, k = key
                if a < 0 or b < 0 or c < 0:
                    raise ValueError(f"negative power in term key {key}")
                coeff = qnorm(coeff)
                if coeff != 0:
                    clean[(int(a), int(b), int(c), int(k))] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly({})

    @staticmethod
    def const(value) -> "ExpPoly":
        return ExpPoly({(0, 0, 0, 0): qparse(value)})

    @staticmethod
    def var(name: str) -> "ExpPoly":
        try:
            pos = "xyz".index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None
        key = [0, 0, 0, 0]
        key[pos] = 1
        return ExpPoly({tuple(key): 1})

    @staticmethod
    def exp(k: int) -> "ExpPoly":
        """e^{kz}."""
        return ExpPoly({(0, 0, 0, int(k)): 1})

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = qnorm(out.get(key, 0) + coeff)
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
        return ExpPoly(out)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly({key: -coeff for key, coeff in self.terms.items()})

    def scale(self, scalar) -> "ExpPoly":
        scalar = qparse(scalar)
        if scalar == 0:
            return ExpPoly.zero()
        return ExpPoly({key: coeff * scalar for key, coeff in self.terms.items()})

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out: dict[Key, Q] = {}
        for (a1, b1, c1, k1), q1 in self.terms.items():
            for (a2, b2, c2, k2), q2 in other.terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2, k1 + k2)
                acc = qnorm(out.get(key, 0) + q1 * q2)
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
        return ExpPoly(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"ExpPoly({self.to_text()})"

    # -- calculus ----------------------------------------------------

    def partial(self, var: str) -> "ExpPoly":
        """Exact partial derivative with respect to x, y or z.

        d/dz hits both the z power and the exponential:
        d/dz (z^c e^{kz}) = c z^{c-1} e^{kz} + k z^c e^{kz}.
        """
        out: dict[Key, Q] = {}

        def bump(key: Key, coeff) -> None:
            acc = qnorm(out.get(key, 0) + coeff)
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc

        if var == "x":
            for (a, b, c, k), q in self.terms.items():
                if a:
                    bump((a - 1, b, c, k), a * q)
        elif var == "y":
            for (a, b, c, k), q in self.terms.items():
                if b:
                    bump((a, b - 1, c, k), b * q)
        elif var == "z":
            for (a, b, c, k), q in self.terms.items():
                if c:
                    bump((a, b, c - 1, k), c * q)
                if k:
                    bump((a, b, c, k), k * q)
        else:
            raise ValueError(f"unknown variable {var!r}")
        return ExpPoly(out)

    # -- text form ----------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b, c, k) in sorted(self.terms):
            coeff = self.terms[(a, b, c, k)]
            factors = []
            for power, letter in ((a, "x"), (b, "y"), (c, "z")):
                if power == 1:
                    factors.append(letter)
                elif power:
                    factors.append(f"{letter}^{power}")
            if k:
                factors.append(f"e^{{{k} z}}")
            if factors:
                parts.append(f"{qstr(coeff)} * " + " ".join(factors))
            else:
                parts.append(qstr(coeff))
        return " + ".join(parts)


# -- the Jacobian bracket ---------------------------------------------


def jacobian_bracket(f: ExpPoly, g: ExpPoly, h: ExpPoly) -> ExpPoly:
    """det d(f,g,h)/d(x,y,z), the ternary bracket of the function examples."""
    fx, fy, fz = f.partial("x"), f.partial("y"), f.partial("z")
    gx, gy, gz = g.partial("x"), g.partial("y"), g.partial("z")
    hx, hy, hz = h.partial("x"), h.partial("y"), h.partial("z")
    return (
        fx * (gy * hz - gz * hy)
        - fy * (gx * hz - gz * hx)
        + fz * (gx * hy - gy * hx)
    )
