"""Structure-constant brackets, twisted Jacobi checks, centers."""

import itertools

from center_oracles import center
from trilie.core3lie import (
    Hom3Lie,
    StructureConstants3,
    ad_columns,
    check_hom_jacobi,
    check_jacobi,
    check_multiplicative,
    sort3,
)
from trilie.corpus import d4_structure, toy_split
from trilie.exactq import (
    MatrixQ,
    mat_apply_sv,
    mat_columns_sv,
    mat_from_columns_sv,
)


def d4():
    return Hom3Lie(StructureConstants3(4, d4_structure()),
                   MatrixQ.identity(4))


def test_sort3_signs():
    assert sort3(0, 1, 2) == ((0, 1, 2), 1)
    assert sort3(1, 0, 2) == ((0, 1, 2), -1)
    assert sort3(2, 0, 1) == ((0, 1, 2), 1)
    assert sort3(0, 0, 1) == (None, 0)


def test_lookup_antisymmetry():
    sc = StructureConstants3(4, d4_structure())
    vec, sign = sc.lookup(2, 1, 0)
    ref, _ = sc.lookup(0, 1, 2)
    assert sign == -1 and vec == ref
    repeated, _ = sc.lookup(1, 1, 3)
    assert repeated == {}


def test_d4_bracket_frozen():
    sc = d4().sc
    assert sc.trilinear({0: 1}, {1: 1}, {2: 1}) == {3: 1}
    assert sc.trilinear({1: 1}, {2: 1}, {3: 1}) == {0: 1}
    # linear combinations expand trilinearly
    out = sc.trilinear({0: 2}, {1: 1}, {2: 3, 3: 1})
    assert out == {3: 6, 2: 2}


def test_d4_satisfies_jacobi():
    rep = check_jacobi(d4())
    assert rep.passed is True
    assert rep.checked > 0


def brute_force_jacobi(alg):
    """Literal expansion of the fundamental identity on basis tuples.

    Independent of the check implementation: brackets are expanded
    with the trilinear extension of the table only, and both sides are
    compared per tuple.
    """
    n = alg.n
    bracket = alg.sc.trilinear
    acols = mat_columns_sv(alg.alpha)

    def alpha(v):
        return mat_apply_sv(acols, v)

    bad = []
    for x1, x2 in itertools.combinations(range(n), 2):
        for y1, y2, y3 in itertools.combinations(range(n), 3):
            inner = bracket({y1: 1}, {y2: 1}, {y3: 1})
            lhs = bracket(alpha({x1: 1}), alpha({x2: 1}), inner)
            rhs = {}
            for slot in range(3):
                ys = [{y1: 1}, {y2: 1}, {y3: 1}]
                moved = bracket({x1: 1}, {x2: 1}, ys[slot])
                args = [alpha(v) for v in ys]
                args[slot] = moved
                term = bracket(*args)
                for key, val in term.items():
                    new = rhs.get(key, 0) + val
                    if new:
                        rhs[key] = new
                    else:
                        rhs.pop(key, None)
            if lhs != rhs:
                bad.append(((x1, x2), (y1, y2, y3)))
    return bad


def test_hom_jacobi_matches_brute_force_on_d4():
    alg = d4()
    assert check_hom_jacobi(alg).passed is True
    assert brute_force_jacobi(alg) == []


def test_hom_jacobi_matches_brute_force_on_toy():
    B = toy_split(0)
    assert check_hom_jacobi(B.L).passed is True
    assert brute_force_jacobi(B.L) == []


def test_broken_table_fails_both_checks():
    table = dict(d4_structure())
    table[(0, 1, 2)] = {3: 1, 0: 1}  # spoil one entry
    alg = Hom3Lie(StructureConstants3(4, table), MatrixQ.identity(4))
    rep = check_jacobi(alg)
    assert rep.passed is False
    assert rep.failures
    assert brute_force_jacobi(alg) != []


def test_sign_twist_is_multiplicative():
    alg = Hom3Lie(StructureConstants3(4, d4_structure()),
                  MatrixQ.diagonal([-1, -1, -1, -1]))
    assert check_multiplicative(alg).passed is True
    assert check_hom_jacobi(alg).passed is True
    # regular: multiplicative with invertible alpha
    assert alg.alpha.is_invertible()


def test_non_multiplicative_twist_detected():
    alg = Hom3Lie(StructureConstants3(4, d4_structure()),
                  MatrixQ.diagonal([2, 1, 1, 1]))
    rep = check_multiplicative(alg)
    assert rep.passed is False


def test_center_of_d4_is_zero():
    space, excluded = center(d4())
    assert space.dim == 0
    assert excluded == 0


def test_center_of_toy():
    # [h1, h2, u] = u is the only bracket, so nothing is central
    B = toy_split(0)
    space, excluded = center(B.L)
    assert space.dim == 0


def test_abelian_padding_is_central():
    table = {k: dict(v) for k, v in d4_structure().items()}
    alg = Hom3Lie(StructureConstants3(6, table), MatrixQ.identity(6))
    space, excluded = center(alg)
    assert space.dim == 2
    assert space.contains((0, 0, 0, 0, 1, 0))
    assert space.contains((0, 0, 0, 0, 0, 1))


def test_ad_matrix_frozen():
    mat = mat_from_columns_sv(ad_columns(d4(), {0: 1}, {1: 1}), 4)
    # e2 -> e3 and e3 -> e2 under [e0, e1, -]
    assert mat.apply((0, 0, 1, 0)) == (0, 0, 0, 1)
    assert mat.apply((0, 0, 0, 1)) == (0, 0, 1, 0)
    assert mat.apply((1, 0, 0, 0)) == (0, 0, 0, 0)


def test_missing_entries_propagate_none():
    sc = StructureConstants3(3, {(0, 1, 2): {0: 1}}, missing=[])
    incomplete = StructureConstants3(3, {}, missing=[(0, 1, 2)])
    alg = Hom3Lie(incomplete, MatrixQ.identity(3))
    assert alg.sc.trilinear({0: 1}, {1: 1}, {2: 1}) is None
    assert incomplete.missing
    assert not sc.missing
    rep = check_jacobi(alg)
    assert rep.passed is not False
    assert rep.skipped > 0
