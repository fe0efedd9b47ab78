"""Twist and tensor constructors: contracts, refusals, and an
independent expansion oracle for the tensor bracket."""

from itertools import combinations

import pytest

from trilie.construct import (
    ConstructionError,
    TwistInput,
    bundle_direct_sum,
    change_basis,
    tensor_extension,
    tensor_preconditions,
    twist,
    twist_preconditions,
)
from trilie.core3lie import Hom3Lie, StructureConstants3, check_hom_jacobi
from trilie.corpus import (
    _phi_matrix,
    _truncated_poly_algebra,
    d4_bundle,
    d4_structure,
    tb_rinehart,
    tensor_family,
    toy_split,
    twist_family,
)
from trilie.exactq import MatrixQ, sv_axpy, sv_scale
from trilie.repmod import HomRepresentation, PairAction
from trilie.rinehart import check_full_rinehart, check_identity_suite


def trunc(m, coeffs=(1,)):
    return _truncated_poly_algebra(m, _phi_matrix(m, list(coeffs)))


def test_identity_twist_returns_the_same_structure():
    base = d4_bundle(2)
    out = twist(TwistInput(base, MatrixQ.identity(base.L.n),
                           MatrixQ.identity(base.A.dim)))
    assert out.L.sc == base.L.sc
    assert out.L.alpha == base.L.alpha
    assert out.A.phi == base.A.phi
    assert out.rho == base.rho
    assert out.act.table == base.act.table


def test_twist_refuses_non_endomorphism():
    base = d4_bundle(1)
    bad = MatrixQ.diagonal([2, 1, 1, 1])
    with pytest.raises(ConstructionError) as err:
        twist(TwistInput(base, bad, MatrixQ.identity(base.A.dim)))
    failed = [c.name for c in err.value.report.checks if c.passed is False]
    assert "alpha-bracket-endo" in failed


def test_twist_refuses_already_twisted_base():
    base = d4_bundle(1)
    once = twist(TwistInput(base, MatrixQ.diagonal([-1, -1, 1, 1]),
                            MatrixQ.identity(base.A.dim)))
    suite = twist_preconditions(
        TwistInput(once, MatrixQ.identity(4),
                   MatrixQ.identity(base.A.dim)))
    assert suite.find("base-untwisted").passed is False


def test_twist_family_outputs_pass_full_suite():
    for seed in range(0, 12):
        base, inp = twist_family(seed)
        out = twist(inp)
        assert check_full_rinehart(out).passed is True, seed


def test_basis_swap_undoes_the_sign_twist():
    """Swapping x z^i and y z^i in the (-Id)-twisted tb bundle gives back
    the plain bracket table, with alpha = -Id and the anchor negated."""
    tb = tb_rinehart(2)
    n, m = tb.L.n, tb.A.dim
    neg = MatrixQ.identity(n).scale(-1)
    tw = twist(TwistInput(tb, neg, MatrixQ.identity(m)))
    # basis order x, y, x z, y z, ...: partners differ in the lowest bit
    swap = MatrixQ([[1 if c == r ^ 1 else 0 for c in range(n)]
                    for r in range(n)])
    out = change_basis(tw, swap)
    assert out.L.sc == tb.L.sc
    assert out.L.alpha == neg
    negated = {key: [None if c is None else sv_scale(c, -1) for c in cols]
               for key, cols in tb.rho.ops.items()}
    assert out.rho == PairAction(n, m, negated)
    assert out.act == tb.act


def test_twist_composition_matches_composite():
    base = d4_bundle(1)
    a1 = MatrixQ.diagonal([-1, -1, 1, 1])
    a2 = MatrixQ.diagonal([1, -1, -1, 1])
    ident = MatrixQ.identity(base.A.dim)
    once = twist(TwistInput(base, a1, ident))
    # the composite twist applied to the untwisted base
    direct = twist(TwistInput(base, a2 @ a1, ident))
    assert (a2 @ a1) == (a1 @ a2)
    assert direct.L.alpha == a2 @ a1
    # twisting the twisted bundle is refused (base must be untwisted),
    # so composition is expressed through the composite map
    suite = twist_preconditions(TwistInput(once, a2, ident))
    assert suite.find("base-untwisted").passed is False


def test_tensor_refuses_shift_action_on_simple_algebra():
    alg = Hom3Lie(StructureConstants3(4, d4_structure()),
                  MatrixQ.identity(4))
    A = trunc(3)
    # d/dz columns: not a derivation of the quotient, and the simple
    # bracket makes hr3 unsatisfiable for a single nonzero pair
    rho = PairAction(4, 3, {(1, 2): [{}, {0: 1}, {1: 2}]})
    pre = tensor_preconditions(alg, A, HomRepresentation(rho, A.phi))
    failed = {c.name for c in pre.checks if c.passed is False}
    assert "rho-derivation" in failed
    assert failed & {"hr2", "hr3"}
    with pytest.raises(ConstructionError):
        tensor_extension(alg, A, HomRepresentation(rho, A.phi))


def test_tensor_with_euler_anchor():
    """Abelian <u, v> over Q[z]/(z^4) with rho(u, v) = z d/dz, which
    descends to the quotient (d/dz does not): every bracket comes from
    the anchor term, as in [1 u, 1 v, z u] = rho(u, v)(z) u = z u."""
    L = Hom3Lie(StructureConstants3(2, {}), MatrixQ.identity(2))
    rho = PairAction(2, 4, {(0, 1): [{}, {1: 1}, {2: 2}, {3: 3}]})
    A = trunc(4)
    rep = HomRepresentation(rho, A.phi)
    assert tensor_preconditions(L, A, rep).passed is True
    G = tensor_extension(L, A, rep)
    assert check_full_rinehart(G).passed is True
    assert check_identity_suite(G).passed is True
    # basis index a * dim L + x: 1 u, 1 v, z u are 0, 1, 2
    assert G.L.sc.lookup(0, 1, 2) == ({2: 1}, 1)


def test_tensor_of_d4_passes_full_and_identity_suites():
    L = Hom3Lie(StructureConstants3(4, d4_structure()),
                MatrixQ.identity(4).scale(-1))
    A = trunc(3)
    G = tensor_extension(L, A, HomRepresentation(PairAction(4, 3, {}),
                                                A.phi))
    assert G.L.n == 12
    assert check_full_rinehart(G).passed is True
    assert check_identity_suite(G).passed is True


def test_tensor_rejects_shape_mismatch():
    alg = Hom3Lie(StructureConstants3(3, {}), MatrixQ.identity(3))
    A = trunc(2)
    with pytest.raises(ValueError):
        tensor_extension(alg, A, HomRepresentation(PairAction(4, 2, {}),
                                                   A.phi))
    # the representation must carry the twist of A
    with pytest.raises(ValueError, match="phi"):
        tensor_extension(alg, A, HomRepresentation(PairAction(3, 2, {}),
                                                   A.phi.scale(2)))


def literal_tensor_bracket(L, A, rho, g1, g2, g3):
    """Expand the four-term bracket directly from the definition.

    Independent of tensor_extension: indices are unpacked by hand and
    every term is assembled with scalar loops only.
    """
    nL = L.n
    (a1, x1), (a2, x2), (a3, x3) = (divmod(g, nL) for g in (g1, g2, g3))

    def tensor(avec, lvec):
        out = {}
        for b, cb in avec.items():
            for y, cy in lvec.items():
                key = b * nL + y
                val = out.get(key, 0) + cb * cy
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
        return out

    def alpha_of(x):
        return {y: c for y, c in
                ((y, L.alpha.rows[y][x]) for y in range(nL)) if c}

    total = {}
    vec, sign = L.sc.lookup(x1, x2, x3)
    if vec is None:
        return None
    prod = A.product(A.basis_product(a1, a2), {a3: 1})
    if prod is None:
        return None
    sv_axpy(total, sign, tensor(A.phi_apply(prod), vec))
    for (ai, xi), (aj, xj), (ak, xk) in (
            ((a1, x1), (a2, x2), (a3, x3)),
            ((a2, x2), (a3, x3), (a1, x1)),
            ((a3, x3), (a1, x1), (a2, x2))):
        cols, s = rho.pair(xi, xj)
        col = cols[ak]
        if col is None:
            return None
        fij = A.phi_apply(A.basis_product(ai, aj))
        coeff = A.product(fij, col)
        if coeff is None:
            return None
        sv_axpy(total, s, tensor(coeff, alpha_of(xk)))
    return total


@pytest.mark.parametrize("seed", [0, 3, 7, 12, 15])
def test_tensor_bracket_matches_literal_expansion(seed):
    alg, A, rho, _ = tensor_family(seed)
    B = tensor_extension(alg, A, HomRepresentation(rho, A.phi))
    nG = B.L.n
    for g1, g2, g3 in combinations(range(nG), 3):
        vec, sign = B.L.sc.lookup(g1, g2, g3)
        want = literal_tensor_bracket(alg, A, rho, g1, g2, g3)
        if vec is None:
            assert want is None
            continue
        got = {k: sign * c for k, c in vec.items()} if sign != 1 else vec
        assert got == (want or {}), (g1, g2, g3)


def test_tensor_gap_regression():
    """Valid representation inputs whose output is not Hom-Jacobi.

    The stated hypotheses (hr1..hr3 plus derivation values) admit a
    bracket-anchor feedback: the anchor of an abelian pair multiplies
    a coefficient and the alpha-image re-enters the simple bracket.
    The constructor applies the definition as stated, so the defect
    belongs to the output and the caller's suite must catch it.
    """
    table = dict(d4_structure())
    alg = Hom3Lie(StructureConstants3(6, table),
                  MatrixQ.diagonal([-1] * 6))
    A = trunc(2)
    rho = PairAction(6, 2, {(4, 5): [{}, {1: 1}]})
    pre = tensor_preconditions(alg, A, HomRepresentation(rho, A.phi))
    assert pre.passed is True
    out = tensor_extension(alg, A, HomRepresentation(rho, A.phi))
    rep = check_hom_jacobi(out.L)
    assert rep.passed is False
    assert {"x": [5, 8], "triple": [0, 1, 4],
            "residual_support": [9]} in rep.failures


def test_change_basis_round_trip():
    B = toy_split(2)
    n = B.L.n
    rows = [[0] * n for _ in range(n)]
    order = list(range(n))
    order[0], order[1] = order[1], order[0]
    for i, j in enumerate(order):
        rows[j][i] = 1
    S = MatrixQ(rows)
    moved = change_basis(B, S)
    back = change_basis(moved, S.inverse())
    assert back.L.sc == B.L.sc
    assert back.L.alpha == B.L.alpha
    assert back.rho == B.rho
    assert check_full_rinehart(moved).passed is True


def test_change_basis_requires_invertible():
    B = toy_split(0)
    with pytest.raises(ValueError):
        change_basis(B, MatrixQ.zeros(B.L.n, B.L.n))


def test_direct_sum_blocks_do_not_interact():
    B = toy_split(1)
    S = bundle_direct_sum(B, B)
    n1 = B.L.n
    assert S.L.n == 2 * n1
    assert S.meta["split"] == [n1, n1]
    # mixed brackets vanish
    for i in range(n1):
        for j in range(n1, 2 * n1):
            for k in range(n1, 2 * n1):
                if j < k:
                    vec, _ = S.L.sc.lookup(i, j, k)
                    assert vec == {}
    assert check_hom_jacobi(S.L).passed is True


def test_direct_sum_requires_shared_coefficients():
    with pytest.raises(ValueError):
        bundle_direct_sum(toy_split(1), toy_split(2))
