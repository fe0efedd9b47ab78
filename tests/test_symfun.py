"""The Jacobian bracket: the general one on exponential polynomials,
kept here as the reference, and the closed form on monic monomial keys
that the corpus builds from."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from trilie.corpus import _exp_bases, _poly_monomials
from trilie.symfun import jacobian_terms, key_product, key_text

from expoly import ExpPoly, jacobian_bracket

X, Y, Z = ExpPoly.var("x"), ExpPoly.var("y"), ExpPoly.var("z")


def mono(a, b, c, k, coeff=1):
    """coeff * x^a y^b z^c e^{kz}."""
    return ExpPoly({(a, b, c, k): coeff})


def _random_poly(rng, nterms=3):
    p = ExpPoly.zero()
    for _ in range(nterms):
        p = p + mono(rng.randint(0, 2), rng.randint(0, 2),
                     rng.randint(0, 2), rng.randint(-1, 1),
                     rng.randint(-3, 3))
    return p


def test_ring_laws_random():
    rng = random.Random(41)
    for _ in range(20):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_partial_product_rule():
    rng = random.Random(42)
    for _ in range(20):
        p, q = _random_poly(rng), _random_poly(rng)
        for var in ("x", "y", "z"):
            lhs = (p * q).partial(var)
            rhs = p.partial(var) * q + p * q.partial(var)
            assert lhs == rhs


def test_partial_z_sees_frequencies():
    p = mono(2, 0, 0, 2)  # x^2 e^{2z}
    assert p.partial("z") == mono(2, 0, 0, 2, 2)
    q = mono(0, 0, 1, -1)  # z e^{-z}
    assert q.partial("z") == ExpPoly.exp(-1) + mono(0, 0, 1, -1, -1)


def test_jacobian_bracket_frozen():
    assert jacobian_bracket(X, Y, Z) == ExpPoly.const(1)
    assert jacobian_bracket(X, Y, ExpPoly.exp(1)) == ExpPoly.exp(1)
    # swapping two arguments flips the sign
    assert jacobian_bracket(Y, X, Z) == -ExpPoly.const(1)


def test_jacobian_bracket_alternating_random():
    rng = random.Random(43)
    for _ in range(12):
        f, g, h = (_random_poly(rng, 2) for _ in range(3))
        assert jacobian_bracket(f, g, h) == -jacobian_bracket(g, f, h)
        assert jacobian_bracket(f, g, h) == -jacobian_bracket(f, h, g)
        assert jacobian_bracket(f, f, h).is_zero()


def to_sympy(p: ExpPoly, x, y, z):
    """coeff * x^a y^b z^c e^{kz} as a sympy expression, e^{kz} as exp(k*z)."""
    import sympy
    return sum((sympy.Rational(q.numerator, q.denominator)
                * x**a * y**b * z**c * sympy.exp(k * z)
                for (a, b, c, k), q in p.terms.items()), sympy.Integer(0))


EXP_POLYS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
              st.integers(-2, 2),
              st.fractions(min_value=-3, max_value=3, max_denominator=3)),
    max_size=3).map(lambda terms: sum(
        (mono(a, b, c, k, coeff) for a, b, c, k, coeff in terms),
        ExpPoly.zero()))


@settings(max_examples=60, deadline=None)
@given(EXP_POLYS, EXP_POLYS, EXP_POLYS)
def test_jacobian_bracket_matches_sympy(f, g, h):
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    fs, gs, hs = (to_sympy(p, x, y, z) for p in (f, g, h))
    want = sympy.Matrix([fs, gs, hs]).jacobian([x, y, z]).det()
    got = to_sympy(jacobian_bracket(f, g, h), x, y, z)
    assert sympy.expand(got - want) == 0


def test_jacobian_bracket_trilinear():
    rng = random.Random(44)
    for _ in range(10):
        f, g, h, k = (_random_poly(rng, 2) for _ in range(4))
        lhs = jacobian_bracket(f + k, g, h)
        rhs = jacobian_bracket(f, g, h) + jacobian_bracket(k, g, h)
        assert lhs == rhs


def test_text_roundtrip():
    """The samples the text parser round-tripped, now written by to_text
    alone: terms in key order, coefficients as "p/q" (corpus labels are
    read from this form)."""
    assert ExpPoly.zero().to_text() == "0"
    assert ExpPoly.const(1).to_text() == "1"
    p = X * Y * ExpPoly.exp(-1).scale(3) + Z * Z.scale(Fraction(1, 2))
    assert p.to_text() == "1/2 * z^2 + 3 * x y e^{-1 z}"
    q = X * X.scale(-2) + ExpPoly.exp(3)
    assert q.to_text() == "1 * e^{3 z} + -2 * x^2"


# -- the closed form on keys against the reference ---------------------------


def closed_form(triple, sign=1) -> ExpPoly:
    """sign times the closed-form bracket of three keys; its terms must
    carry distinct keys and nonzero integer coefficients."""
    terms = jacobian_terms(*triple)
    assert len({key for key, _ in terms}) == len(terms) <= 2
    assert all(type(c) is int and c for _, c in terms)
    return ExpPoly({key: sign * c for key, c in terms})


def reference(triple, sign=1) -> ExpPoly:
    return jacobian_bracket(*(mono(*key) for key in triple)).scale(sign)


KEYS = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
                 st.integers(-6, 6))


@st.composite
def key_triples(draw):
    """Three keys; often one power column (x, y or z) is zero in all
    three, the case where a determinant vanishes by its zero sum."""
    keys = [list(draw(KEYS)) for _ in range(3)]
    column = draw(st.sampled_from((None, 0, 1, 2)))
    if column is not None:
        for key in keys:
            key[column] = 0
    return tuple(tuple(key) for key in keys)


@settings(max_examples=400, deadline=None)
@given(key_triples(), st.sampled_from((1, -1)))
def test_closed_form_matches_the_general_bracket(triple, sign):
    assert closed_form(triple, sign) == reference(triple, sign)


BASES = {
    "jacobian-weak-d2": _poly_monomials(2),
    # L and A of tprime-split window 2 together
    "tprime-split-w2": sorted({(0, 0, 0, 0), *_exp_bases(2)[0],
                               *_exp_bases(2)[1]}),
}


@pytest.mark.parametrize("name", sorted(BASES))
def test_closed_form_matches_on_every_basis_triple(name):
    """Every ordered triple of basis keys: the bracket triples and the
    anchor's (L, L, A) triples are among them."""
    for triple in product(BASES[name], repeat=3):
        assert closed_form(triple) == reference(triple), triple


@settings(max_examples=200, deadline=None)
@given(KEYS, KEYS)
def test_key_product_and_text_match_the_reference(f, g):
    assert mono(*key_product(f, g)) == mono(*f) * mono(*g)
    # a corpus label is the text of its monic monomial, "1 * " dropped
    assert key_text(f) == mono(*f).to_text().removeprefix("1 * ")
