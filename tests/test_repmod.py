"""Pair actions, representation laws, and the six-term identity."""

import random
from fractions import Fraction
from itertools import combinations

from trilie.core3lie import Hom3Lie, StructureConstants3, ad_columns
from trilie.corpus import d4_structure
from trilie.exactq import (
    MatrixQ,
    mat_apply_sv,
    mat_columns_sv,
    sv_scale,
    sv_to_tuple,
)
from trilie.repmod import (
    HomRepresentation,
    PairAction,
    check_hom_rep,
    check_hr4,
    check_hr4_equivalence,
    op_compose,
    op_zero,
)

from center_oracles import kernel_of_rep
from families import rep_family


def euler_cols(m, q0=1):
    return [{k: k * q0} if k else {} for k in range(m)]


def test_op_helpers_match_dense():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = MatrixQ([[rng.randint(-2, 2) for _ in range(n)]
                     for _ in range(n)])
        b = MatrixQ([[rng.randint(-2, 2) for _ in range(n)]
                     for _ in range(n)])
        ca, cb = mat_columns_sv(a), mat_columns_sv(b)
        comp = op_compose(ca, cb)
        vec = tuple(rng.randint(-2, 2) for _ in range(n))
        sparse = {i: c for i, c in enumerate(vec) if c}
        assert sv_to_tuple(mat_apply_sv(comp, sparse), n) == (a @ b).apply(vec)
    assert mat_apply_sv(op_zero(3), {0: 1}) == {}


def test_pair_action_antisymmetry():
    act = PairAction(3, 2, {(0, 1): euler_cols(2)})
    fwd, sf = act.pair(0, 1)
    bwd, sb = act.pair(1, 0)
    assert fwd is bwd and sf == -sb
    same, s0 = act.pair(1, 1)
    assert all(col == {} for col in same)
    assert sv_scale(mat_apply_sv(bwd, {1: 1}), sb) == {1: -1}


def test_pair_action_bilinear_expansion():
    act = PairAction(3, 2, {(0, 1): euler_cols(2), (1, 2): euler_cols(2, 3)})
    cols = act.bilinear({0: 1, 2: 2}, {1: 1})
    # rho(e0 + 2 e2, e1) = rho(0,1) - 2 rho(1,2)
    assert mat_apply_sv(cols, {1: 1}) == {1: 1 - 6}


def test_explicit_zeros_are_dropped():
    # as exactq.sv_table stores a table: an all-zero operator is not kept
    assert PairAction(2, 1, {(0, 1): [{0: 0}]}) == PairAction(2, 1, {})
    assert PairAction(2, 1, {(0, 1): [{0: 0}]}).ops == {}
    act = PairAction(2, 2, {(0, 1): [{0: Fraction(4, 2), 1: 0}, None]})
    assert act.ops == {(0, 1): [{0: 2}, None]}
    assert type(act.ops[(0, 1)][0][0]) is int


def adjoint_action(alg):
    n = alg.n
    ops = {}
    for i, j in combinations(range(n), 2):
        cols = ad_columns(alg, {i: 1}, {j: 1})
        if any(col for col in cols):
            ops[(i, j)] = cols
    return PairAction(n, n, ops)


def test_adjoint_is_classical_rep():
    """With alpha = Id and phi = Id, hr2 is the classical mod2 law and
    hr3 the classical mod1 law (hr1 holds trivially)."""
    alg = Hom3Lie(StructureConstants3(4, d4_structure()),
                  MatrixQ.identity(4))
    rep = HomRepresentation(adjoint_action(alg), MatrixQ.identity(4))
    suite = check_hom_rep(alg, rep)
    assert suite.passed is True
    assert all(c.passed is not None for c in suite.checks)


def test_adjoint_kernel_is_center():
    alg = Hom3Lie(StructureConstants3(4, d4_structure()),
                  MatrixQ.identity(4))
    kernel, excluded = kernel_of_rep(alg, adjoint_action(alg))
    assert kernel.dim == 0 and excluded == 0


def test_hom_rep_family_samples():
    for seed in (0, 4, 9, 105):
        alg, rep = rep_family(seed)
        suite = check_hom_rep(alg, rep)
        assert suite.passed is True, seed
        assert check_hr4(alg, rep).passed is True


def test_adversarial_twist_fails_hr1_only():
    alg, rep = rep_family(19)
    suite = check_hom_rep(alg, rep)
    assert suite.find("hr1").passed is False
    assert suite.find("hr2").passed is True
    assert suite.find("hr3").passed is True


def test_hr4_equivalence_observed():
    for seed in range(0, 30, 3):
        alg, rep = rep_family(seed)
        out = check_hr4_equivalence(alg, rep)
        suite = check_hom_rep(alg, rep)
        if suite.find("hr2").passed is True:
            assert out.passed is True
        else:
            assert out.passed is None


def test_hr4_reuses_the_table_of_hom_rep(monkeypatch):
    """rho(alpha e_i, alpha e_j) is built once per (algebra,
    representation): hr4 after hr1-hr3 evaluates no anchor pair."""
    alg, rep = rep_family(0)
    check_hom_rep(alg, rep)
    calls = []
    bilinear = PairAction.bilinear
    monkeypatch.setattr(PairAction, "bilinear",
                        lambda *args: calls.append(args) or bilinear(*args))
    check_hr4(alg, rep)
    assert calls == []
    other = Hom3Lie(alg.sc, alg.alpha)
    check_hr4(other, rep)
    assert len(calls) == len(list(combinations(range(other.n), 2)))


def test_hr4_equivalence_blocked_without_hr2():
    # two independent scaled Euler pairs break hr2
    alg = Hom3Lie(StructureConstants3(4, {}), MatrixQ.diagonal([-1] * 4))
    act = PairAction(4, 2, {(0, 1): euler_cols(2), (2, 3): euler_cols(2, 2)})
    rep = HomRepresentation(act, MatrixQ.identity(2))
    suite = check_hom_rep(alg, rep)
    assert suite.find("hr2").passed is False
    out = check_hr4_equivalence(alg, rep)
    assert out.passed is None
    assert "hr2" in out.detail


def test_windowed_action_excluded_from_kernel():
    act = PairAction(3, 2, {(0, 1): [None, {1: 1}]})
    alg = Hom3Lie(StructureConstants3(3, {}), MatrixQ.identity(3))
    kernel, excluded = kernel_of_rep(alg, act)
    assert excluded > 0
