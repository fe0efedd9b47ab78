"""exactq against sympy on small random rational matrices and polynomials.

sympy is a test-only oracle; trilie itself depends on nothing.  The
matrices are dense random, signed permutations or block-sparse, with
integral entries given both as int and as Fraction(n, 1), since the
kernels skip zero entries and must still return integral values as
int.  The characteristic polynomial is also checked against dense
Faddeev-LeVerrier on the whole matrix, which `char_poly` runs only on
the diagonal blocks of its block-triangular form.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trilie.exactq import MatrixQ, char_poly, kernel_basis, rational_roots, rref

sympy = pytest.importorskip("sympy")

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


# Fraction(n, 1) entries, which every result must give back as int n
INTEGRAL_FRACTIONS = st.integers(-3, 3).map(Fraction)


@st.composite
def random_rows(draw, nrows, ncols):
    # sparse entries, so that rank deficiency and zero columns are common
    entry = st.one_of(st.just(Fraction(0)), RATIONALS, INTEGRAL_FRACTIONS)
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def signed_permutation_rows(draw, nrows, ncols):
    """At most one nonzero entry per row and column, +-1 or an integral
    Fraction, at shuffled positions."""
    rows = [[0] * ncols for _ in range(nrows)]
    cols = draw(st.permutations(range(ncols)))
    sign = st.sampled_from([1, -1, Fraction(1), Fraction(-2)])
    for i, j in zip(draw(st.permutations(range(nrows))), cols):
        rows[i][j] = draw(sign)
    return rows


@st.composite
def block_sparse_rows(draw, nrows, ncols):
    """Nonzero entries only in diagonal blocks of a random block
    partition of the rows and of the columns."""
    def cuts(n):
        return sorted(draw(st.sets(st.integers(1, max(1, n - 1)),
                                   max_size=2)) & set(range(1, n)))
    row_cuts, col_cuts = cuts(nrows), cuts(ncols)
    row_block = [sum(i >= c for c in row_cuts) for i in range(nrows)]
    col_block = [sum(j >= c for c in col_cuts) for j in range(ncols)]
    entry = st.one_of(RATIONALS, INTEGRAL_FRACTIONS)
    return [[draw(entry) if row_block[i] == col_block[j] else 0
             for j in range(ncols)] for i in range(nrows)]


SHAPES = (random_rows, signed_permutation_rows, block_sparse_rows)


@st.composite
def matrices(draw, square=False, nrows=None, ncols=None):
    nrows = nrows or draw(st.integers(1, 4))
    ncols = ncols or (nrows if square else draw(st.integers(1, 5)))
    return draw(draw(st.sampled_from(SHAPES))(nrows, ncols))


def assert_integral_is_int(values):
    for x in values:
        assert type(x) is int or x.denominator != 1, x


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in row] for row in rows])


def sympy_rows(mat):
    return [[from_sympy(mat[i, j]) for j in range(mat.cols)]
            for i in range(mat.rows)]


def from_sympy(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def dense_char_poly(mat):
    """det(tI - M) by Faddeev-LeVerrier on the whole matrix: n dense
    products, division only by 1..n."""
    n = mat.nrows
    coeffs = [1]
    acc = MatrixQ.identity(n)
    for k in range(1, n + 1):
        acc = mat @ acc
        ck = Fraction(-acc.trace(), k)
        coeffs.append(ck)
        if k < n:
            acc = acc + MatrixQ.identity(n).scale(ck)
    return coeffs


def sympy_char_poly(rows):
    t = sympy.Symbol("t")
    want = sympy.Poly(to_sympy(rows).charpoly(t).as_expr(), t).all_coeffs()
    return [from_sympy(c) for c in want]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_sympy(rows):
    red, pivots = rref(rows)
    want, want_pivots = to_sympy(rows).rref()
    assert pivots == list(want_pivots)
    assert [list(r) for r in red] == sympy_rows(want)[:len(want_pivots)]
    for row in red:
        assert_integral_is_int(row)


@st.composite
def products(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(matrices(nrows=n, ncols=k)), draw(matrices(nrows=k, ncols=m))


@settings(max_examples=200, deadline=None)
@given(products())
def test_matmul_matches_sympy(pair):
    left, right = pair
    got = MatrixQ(left) @ MatrixQ(right)
    assert [list(r) for r in got.rows] == sympy_rows(
        to_sympy(left) * to_sympy(right))
    for row in got.rows:
        assert_integral_is_int(row)


@st.composite
def matrix_and_vector(draw):
    rows = draw(matrices())
    vec = draw(matrices(nrows=len(rows[0]), ncols=1))
    return rows, [r[0] for r in vec]


@settings(max_examples=200, deadline=None)
@given(matrix_and_vector())
def test_apply_matches_sympy(case):
    rows, vec = case
    got = MatrixQ(rows).apply(vec)
    want = to_sympy(rows) * to_sympy([[x] for x in vec])
    assert list(got) == [row[0] for row in sympy_rows(want)]
    assert_integral_is_int(got)


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
    assert list(char_poly(MatrixQ(rows))) == sympy_char_poly(rows)


@st.composite
def block_triangular(draw):
    """Block upper-triangular matrices up to 10 x 10 with blocks of size
    1-4, conjugated by a random permutation so the blocks are hidden."""
    n = draw(st.integers(1, 10))
    block_of = []
    while len(block_of) < n:
        size = draw(st.integers(1, min(4, n - len(block_of))))
        block_of.extend([block_of[-1] + 1 if block_of else 0] * size)
    entry = st.one_of(st.just(Fraction(0)), RATIONALS)
    rows = [[draw(entry) if block_of[i] <= block_of[j] else Fraction(0)
             for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


@settings(max_examples=60, deadline=None)
@given(block_triangular())
def test_char_poly_of_hidden_blocks_matches_the_oracles(rows):
    got = list(char_poly(MatrixQ(rows)))
    assert got == dense_char_poly(MatrixQ(rows))
    assert got == sympy_char_poly(rows)


@pytest.mark.parametrize("rows, want", [
    # zero matrix: every vertex its own block, t^n
    ([[0] * 4 for _ in range(4)], [1, 0, 0, 0, 0]),
    # 3-cycle 0 -> 1 -> 2 -> 0 with diagonal 2, 3, 5: one block,
    # (t - 2)(t - 3)(t - 5) - 1
    ([[2, 1, 0], [0, 3, 1], [1, 0, 5]], [1, -10, 31, -31]),
    # the same cycle feeding a fourth vertex, which adds the factor t - 7
    ([[2, 1, 0, 4], [0, 3, 1, 0], [1, 0, 5, 0], [0, 0, 0, 7]],
     [1, -17, 101, -248, 217]),
])
def test_char_poly_frozen(rows, want):
    assert list(char_poly(MatrixQ(rows))) == want
    assert dense_char_poly(MatrixQ(rows)) == want


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


def _expanded(*factors):
    """Descending coefficients of a product of factors in t."""
    t = sympy.Symbol("t")
    poly = sympy.Poly(sympy.Mul(*factors), t)
    return [from_sympy(c) for c in poly.all_coeffs()]


_T = sympy.Symbol("t")
LARGE_CONSTANTS = {
    # the characteristic polynomial of the nonzero root operators on
    # two-block and tprime-split at window 6, whose constant 720^4 =
    # 268,738,560,000 has 765 divisors, with the t^3 of tprime-split
    "root-operators-w6": _expanded(
        _T ** 3, *[(_T ** 2 - k * k) ** 2 for k in range(1, 7)]),
    # no rational root and a prime constant
    "t^2 - p": _expanded(_T ** 2 - 1000000007),
    # a root at its bound's scale, next to a small one
    "large root": _expanded(_T - 999983, _T + 1),
    # non-monic, with fractional roots and a large irreducible factor
    "non-monic": _expanded(3 * _T - 2, 2 * _T + 5, _T - 7,
                           _T ** 2 + 1000000007),
    "non-monic, large fraction": _expanded(7 * _T - 600011, _T ** 2 - 2),
}


@pytest.mark.parametrize("name", sorted(LARGE_CONSTANTS))
def test_rational_roots_with_large_constants_match_sympy(name):
    coeffs = LARGE_CONSTANTS[name]
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in map(Fraction, coeffs)], _T)
    want = {from_sympy(root): mult
            for root, mult in sympy.roots(poly, filter="Q").items()}
    assert rational_roots(coeffs) == want
    assert want or name == "t^2 - p"
