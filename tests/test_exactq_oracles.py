"""exactq against sympy on small random rational matrices and polynomials.

sympy is a test-only oracle; trilie itself depends on nothing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trilie.exactq import MatrixQ, char_poly, kernel_basis, rational_roots, rref

sympy = pytest.importorskip("sympy")

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    # sparse entries, so that rank deficiency and zero columns are common
    entry = st.one_of(st.just(Fraction(0)), RATIONALS)
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in row] for row in rows])


def from_sympy(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_sympy(rows):
    red, pivots = rref(rows)
    want, want_pivots = to_sympy(rows).rref()
    assert pivots == list(want_pivots)
    assert [list(r) for r in red] == [
        [from_sympy(want[i, j]) for j in range(want.cols)]
        for i in range(len(want_pivots))]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_basis_matches_sympy(rows):
    ncols = len(rows[0])
    got = kernel_basis(rows, ncols)
    want = [[from_sympy(c) for c in vec]
            for vec in to_sympy(rows).nullspace()]
    assert [list(v) for v in got] == want


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_char_poly_matches_sympy(rows):
    t = sympy.Symbol("t")
    want = sympy.Poly(to_sympy(rows).charpoly(t).as_expr(), t).all_coeffs()
    assert list(char_poly(MatrixQ(rows))) == [from_sympy(c) for c in want]


@st.composite
def polynomials(draw):
    """Descending coefficients: rational linear factors times a random
    factor, so that repeated and absent rational roots both occur."""
    t = sympy.Symbol("t")
    poly = sympy.Poly(draw(RATIONALS.filter(bool)), t)
    for root in draw(st.lists(RATIONALS, max_size=3)):
        poly *= sympy.Poly(t - sympy.Rational(root.numerator,
                                              root.denominator), t)
    extra = draw(st.lists(st.integers(-4, 4), max_size=4))
    if extra and extra[0]:
        poly *= sympy.Poly(extra, t)
    return [from_sympy(c) for c in poly.all_coeffs()]


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_rational_roots_match_sympy(coeffs):
    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in coeffs], t)
    want = {from_sympy(root): mult
            for root, mult in sympy.roots(poly, filter="Q").items()}
    assert rational_roots(coeffs) == want
