"""Exact rational linear algebra: frozen values and random laws."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from trilie.exactq import (
    MatrixQ,
    SubspaceQ,
    bits,
    char_poly,
    eigenspace,
    kernel_basis,
    masks,
    mat_apply_sv,
    mat_columns_sv,
    ones,
    operand,
    qnorm,
    qparse,
    qstr,
    rational_spectrum,
    rref,
    sv_axpy,
    sv_from_seq,
    sv_to_tuple,
)


def test_qnorm_collapses_integral_fractions():
    assert qnorm(Fraction(4, 2)) == 2
    assert isinstance(qnorm(Fraction(4, 2)), int)
    assert qnorm(Fraction(1, 3)) == Fraction(1, 3)
    assert isinstance(qnorm(Fraction(1, 3)), Fraction)


def test_qparse_qstr_roundtrip():
    for text in ("0", "7", "-12", "5/3", "-5/7"):
        assert qstr(qparse(text)) == text
    assert qparse(4) == 4
    assert qparse(Fraction(6, 4)) == Fraction(3, 2)


def test_rref_frozen():
    rows, pivots = rref([[1, 2], [2, 4]])
    assert rows == [(1, 2)]
    assert pivots == [0]


def test_kernel_basis_frozen():
    assert kernel_basis([[1, 2], [2, 4]], 2) == [(-2, 1)]


def test_kernel_orthogonal_to_rows():
    rng = random.Random(11)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        ker = kernel_basis(rows, m)
        r, pivots = rref(rows)
        assert len(ker) == m - len(pivots)
        for v in ker:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_matrix_inverse_frozen():
    inv = MatrixQ([[1, 2], [3, 4]]).inverse()
    assert inv.rows == ((-2, 1), (Fraction(3, 2), Fraction(-1, 2)))


def test_matrix_inverse_random():
    rng = random.Random(23)
    found = 0
    while found < 15:
        n = rng.randint(1, 4)
        mat = MatrixQ([[rng.randint(-3, 3) for _ in range(n)]
                       for _ in range(n)])
        if not mat.is_invertible():
            continue
        found += 1
        assert mat @ mat.inverse() == MatrixQ.identity(n)
        assert mat.inverse() @ mat == MatrixQ.identity(n)


def test_singular_matrix_refuses_inverse():
    mat = MatrixQ([[1, 2], [2, 4]])
    assert not mat.is_invertible()
    assert len(rref(mat.rows)[1]) == 1
    with pytest.raises(ValueError):
        mat.inverse()


def test_empty_inner_dimension_product_is_zero():
    # an n x 0 matrix times a 0 x m one is the n x m zero matrix
    assert MatrixQ([[], []]) @ MatrixQ([], ncols=3) == MatrixQ.zeros(2, 3)
    assert MatrixQ([], ncols=0) @ MatrixQ([], ncols=2) == MatrixQ.zeros(0, 2)


def test_char_poly_frozen():
    assert char_poly(MatrixQ([[2, 0], [0, 3]])) == (1, -5, 6)


def test_char_poly_matches_trace_and_det():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(1, 4)
        mat = MatrixQ([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(n)] for _ in range(n)])
        coeffs = char_poly(mat)
        assert coeffs[0] == 1
        assert coeffs[1] == -mat.trace()


def test_rational_spectrum_frozen():
    assert rational_spectrum(MatrixQ.diagonal([2, 2, 3])) == {2: 2, 3: 1}
    # rotation has no rational eigenvalues
    assert rational_spectrum(MatrixQ([[0, -1], [1, 0]])) == {}
    half = MatrixQ.diagonal([Fraction(1, 2), 3])
    assert rational_spectrum(half) == {Fraction(1, 2): 1, 3: 1}


def test_eigenspace_dimensions():
    mat = MatrixQ([[0, 1], [1, 0]])
    assert rational_spectrum(mat) == {1: 1, -1: 1}
    plus = eigenspace(mat, 1)
    minus = eigenspace(mat, -1)
    assert plus.dim == minus.dim == 1
    assert plus.contains((1, 1))
    assert minus.contains((1, -1))


def test_subspace_canonical_equality():
    s = SubspaceQ(3, [(1, 1, 0), (0, 0, 2)])
    t = SubspaceQ(3, [(2, 2, 2), (0, 0, 1)])
    assert s == t
    assert hash(s) == hash(t)
    assert s.basis == ((1, 1, 0), (0, 0, 1))


def test_subspace_coordinates_roundtrip():
    s = SubspaceQ(3, [(1, 2, 0), (0, 1, 1)])
    v = (2, 5, 1)
    coord = s.coordinates(v)
    assert coord is not None
    rebuilt = [sum(c * b[i] for c, b in zip(coord, s.basis))
               for i in range(3)]
    assert tuple(rebuilt) == v
    assert s.coordinates((0, 0, 1)) is None


def test_subspace_rejects_wrong_length_vectors_zero_or_not():
    for vecs in ([(0, 0)], [(1, 0)], [(1, 0, 0), (0, 0)]):
        with pytest.raises(ValueError):
            SubspaceQ(3, vecs)
    assert SubspaceQ(3, [(0, 0, 0)]) == SubspaceQ.zero(3)


def dense_coordinates(space, v):
    """The dense residual that membership used before it went sparse:
    read the coefficients off the pivots, subtract the expansion from
    the whole of v and test every coordinate of what is left."""
    if len(v) != space.ambient:
        raise ValueError("vector length does not match ambient dimension")
    pivots = [next(j for j, x in enumerate(row) if x) for row in space.basis]
    coeffs = tuple(v[p] for p in pivots)
    residual = list(v)
    for c, row in zip(coeffs, space.basis):
        if c != 0:
            residual = [qnorm(a - c * b) for a, b in zip(residual, row)]
    if any(a != 0 for a in residual):
        return None
    return coeffs


SCALARS = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4))


@st.composite
def spaces_and_vectors(draw):
    """A subspace spanned by random rational vectors, and a vector that is
    a combination of them (inside) or drawn freely (mostly outside)."""
    n = draw(st.integers(0, 6))
    vec = st.lists(SCALARS, min_size=n, max_size=n).map(tuple)
    spanning = draw(st.lists(vec, max_size=4))
    if spanning and draw(st.booleans()):
        coeffs = draw(st.lists(SCALARS, min_size=len(spanning),
                               max_size=len(spanning)))
        v = tuple(sum(c * u[i] for c, u in zip(coeffs, spanning))
                  for i in range(n))
    else:
        v = draw(vec)
    return SubspaceQ(n, spanning), v


@settings(max_examples=300, deadline=None)
@given(spaces_and_vectors())
def test_sparse_membership_matches_the_dense_residual(case):
    space, v = case
    want = dense_coordinates(space, v)
    assert space.coordinates(v) == want
    assert space.contains(v) == (want is not None)
    assert space.contains_sv(sv_from_seq(v)) == (want is not None)
    assert space.contains_sv({})
    for bad in (v + (0,), v[:-1]) if v else (v + (0,),):
        with pytest.raises(ValueError):
            space.coordinates(bad)
        with pytest.raises(ValueError):
            space.contains(bad)


def test_membership_of_the_empty_vector():
    for space in (SubspaceQ(0), SubspaceQ.zero(3), SubspaceQ.full(3)):
        assert space.contains_sv({})
    assert SubspaceQ(0).coordinates(()) == ()
    assert SubspaceQ.zero(3).coordinates((0, 0, 0)) == ()
    assert SubspaceQ.full(3).coordinates((0, 0, 0)) == (0, 0, 0)


def test_subspace_dimension_formula():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(2, 5)
        u = SubspaceQ(n, [tuple(rng.randint(-2, 2) for _ in range(n))
                          for _ in range(rng.randint(1, 3))])
        v = SubspaceQ(n, [tuple(rng.randint(-2, 2) for _ in range(n))
                          for _ in range(rng.randint(1, 3))])
        s = u.sum_with(v)
        i = u.intersect(v)
        assert s.dim + i.dim == u.dim + v.dim
        assert s.contains_space(u) and s.contains_space(v)
        assert u.contains_space(i) and v.contains_space(i)


@given(st.sets(st.integers(0, 3000)))
# single bits and 2^k - 1 on both sides of byte and machine-word edges,
# which the byte walk of ones must join, and four and five set bits,
# on either side of its walk from the lowest bit
@example(set())
@example({0})
@example({7})
@example({8})
@example({63})
@example({64})
@example({65})
@example({0, 7, 8, 63, 64, 65})
@example({7, 8, 63, 64})
@example({7, 8, 63, 64, 65})
@example({2999})
@example(set(range(7)))
@example(set(range(8)))
@example(set(range(9)))
@example(set(range(63)))
@example(set(range(64)))
@example(set(range(65)))
@example(set(range(2556)))
def test_bits_and_ones_are_inverse(indices):
    mask = bits(indices)
    assert mask == sum(1 << i for i in indices)
    assert list(ones(mask)) == sorted(indices)


@st.composite
def column_lists(draw):
    """Columns each None, {} or a sparse vector over 0..dim-1 with int
    and Fraction coefficients, and the dim of their module."""
    dim = draw(st.integers(1, 5))
    column = (st.none() | st.just({})
              | st.dictionaries(st.integers(0, dim - 1),
                                SCALARS.filter(bool), min_size=1))
    return draw(st.lists(column, max_size=8)), dim


@settings(max_examples=300, deadline=None)
@given(column_lists(), st.booleans(), st.sampled_from((1, -1)))
def test_mask_helpers_match_the_set_definitions(case, with_has, sign):
    cols, dim = case
    dim = dim if with_has else 0
    before = copy.deepcopy(cols)
    none, nonzero, has = masks(cols, dim)
    assert set(ones(none)) == {k for k, c in enumerate(cols) if c is None}
    assert set(ones(nonzero)) == {k for k, c in enumerate(cols)
                                  if c is not None and c != {}}
    assert len(has) == dim
    for r, mask in enumerate(has):
        assert set(ones(mask)) == {k for k, c in enumerate(cols)
                                   if c is not None and r in c}
    signed, o_none, o_nonzero = operand(cols, sign)
    assert cols == before
    assert (o_none, o_nonzero) == (none, nonzero)
    assert signed == [None if c is None else
                      {i: sign * x for i, x in c.items()} for c in cols]


def test_sparse_vector_helpers():
    acc = {0: 1, 2: 3}
    sv_axpy(acc, -1, {0: 1, 1: 2})
    assert acc == {1: -2, 2: 3}
    assert sv_to_tuple({1: 5}, 3) == (0, 5, 0)
    assert sv_from_seq((0, 5, 0)) == {1: 5}


def test_sparse_matrix_apply_agrees_with_dense():
    rng = random.Random(97)
    for _ in range(15):
        n = rng.randint(1, 5)
        mat = MatrixQ([[rng.randint(-3, 3) for _ in range(n)]
                       for _ in range(n)])
        cols = mat_columns_sv(mat)
        vec = tuple(rng.randint(-2, 2) for _ in range(n))
        sparse = mat_apply_sv(cols, sv_from_seq(vec))
        assert sv_to_tuple(sparse, n) == mat.apply(vec)
