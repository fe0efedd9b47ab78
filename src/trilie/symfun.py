"""Monic monomials x^a y^b z^c e^{kz} and the Jacobian bracket on them.

A monomial is its exponent key (a, b, c, k): natural powers a, b, c
and an integer frequency k.  Every basis element of the function-space
examples is such a monomial, and so is every product of two of them:
their keys add.

The ternary bracket is the Jacobian determinant det d(f,g,h)/d(x,y,z)
(Filippov's 3-Lie algebra on functions).  On monomials it has a closed
form.  With f_i = x^{a_i} y^{b_i} z^{c_i} e^{k_i z}, d/dx f_i = a_i f_i/x,
d/dy f_i = b_i f_i/y and d/dz f_i = (c_i/z + k_i) f_i, so with A, B, C,
K the sums of the a_i, b_i, c_i, k_i

    J(f_1, f_2, f_3) = det[a b c] x^{A-1} y^{B-1} z^{C-1} e^{Kz}
                     + det[a b k] x^{A-1} y^{B-1} z^{C} e^{Kz}.

A zero sum A, B or C is a zero column, whose determinant is 0, so no
term with a negative power is ever produced.  The general bracket on
sums of monomials is kept in the tests as the reference for this one.
"""

from __future__ import annotations

# term key: (a, b, c, k) standing for x^a y^b z^c e^{kz}
Key = tuple[int, int, int, int]


def key_product(f: Key, g: Key) -> Key:
    """The key of the product of two monomials."""
    return (f[0] + g[0], f[1] + g[1], f[2] + g[2], f[3] + g[3])


def key_text(key: Key) -> str:
    """A monic monomial as text: "x^2 y z e^{-1 z}", "1" for the unit."""
    a, b, c, k = key
    factors = []
    for power, letter in ((a, "x"), (b, "y"), (c, "z")):
        if power == 1:
            factors.append(letter)
        elif power:
            factors.append(f"{letter}^{power}")
    if k:
        factors.append(f"e^{{{k} z}}")
    return " ".join(factors) or "1"


def jacobian_terms(f: Key, g: Key, h: Key) -> list[tuple[Key, int]]:
    """The Jacobian bracket of three monic monomials as (key, integer
    coefficient) terms: at most two, none with a zero coefficient."""
    a1, b1, c1, k1 = f
    a2, b2, c2, k2 = g
    a3, b3, c3, k3 = h
    A, B = a1 + a2 + a3, b1 + b2 + b3
    if not A or not B:
        return []
    # the cross product a x b: det[a b v] is its dot product with v
    p1, p2, p3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    C, K = c1 + c2 + c3, k1 + k2 + k3
    terms = []
    d_c = p1 * c1 + p2 * c2 + p3 * c3
    if d_c:
        terms.append(((A - 1, B - 1, C - 1, K), d_c))
    d_k = p1 * k1 + p2 * k2 + p3 * k3
    if d_k:
        terms.append(((A - 1, B - 1, C, K), d_k))
    return terms
