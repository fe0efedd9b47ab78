"""Coefficient algebras, module actions, and the bundle check suites."""

import pytest

from trilie.corpus import (
    _phi_matrix,
    _truncated_poly_algebra,
    jacobian_weak,
    rho_prime,
    tb_rinehart,
    tensor_family,
    tprime_split,
)
from trilie.construct import tensor_extension
from trilie.core3lie import Hom3Lie
from trilie.exactq import MatrixQ
from trilie.repmod import check_hom_rep
from trilie.rinehart import (
    _HO1_TERMS,
    _HO3_TERMS,
    CommAlgebra,
    ModuleAction,
    _check_ho_bracket,
    _IdentityContext,
    centers,
    check_anchor_derivations,
    check_commutative_associative,
    check_full_rinehart,
    check_identity_suite,
    check_phi_derivation,
    check_phi_multiplicative,
    check_unit,
    check_weak_rinehart,
    ker_rho_ideal,
)


def trunc(m, coeffs=(1,)):
    return _truncated_poly_algebra(m, _phi_matrix(m, list(coeffs)))


def test_truncated_algebra_laws():
    A = trunc(3)
    assert check_commutative_associative(A).passed is True
    assert check_phi_multiplicative(A).passed is True
    assert check_unit(A).passed is True


def test_broken_product_table_detected():
    # z*z = 1 is not associative with the truncation
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
             (1, 1): {0: 1}, (1, 2): {}, (2, 2): {}}
    A = CommAlgebra(3, table, MatrixQ.identity(3), unit=0)
    rep = check_commutative_associative(A)
    assert rep.passed is False


def test_tables_reject_out_of_range_output_coordinates():
    with pytest.raises(ValueError):
        CommAlgebra(2, {(0, 0): {5: 1}})
    with pytest.raises(ValueError):
        ModuleAction(1, 2, {(0, 0): {5: 1}})


def test_scaled_euler_is_phi_derivation():
    A = trunc(3)
    good = check_phi_derivation(A, [{}, {1: 1}, {2: 2}])
    assert good.passed is True


def test_plain_shift_is_not_a_derivation_of_the_quotient():
    A = trunc(3)
    bad = check_phi_derivation(A, [{}, {0: 1}, {1: 2}])
    hd1 = bad.find("hd1")
    assert hd1.passed is False
    assert {"i": 1, "j": 2} in hd1.failures


def test_twisted_euler_tracks_phi():
    # with phi(z) = 2z the plain Euler fails, the rescaled one passes
    A = trunc(3, coeffs=(2,))
    assert check_phi_derivation(A, [{}, {1: 1}, {2: 2}]).passed is False
    assert check_phi_derivation(A, [{}, {1: 1}, {2: 4}]).passed is True


def test_tb_bundle_passes_everything():
    B = tb_rinehart(3)
    assert check_weak_rinehart(B).passed is True
    assert check_full_rinehart(B).passed is True
    assert check_identity_suite(B).passed is True
    assert check_anchor_derivations(B).passed is True


def test_printed_identity_indices_fail():
    """Negative control: the paper prints (x2, x4, x1) as the last bracket
    of identity 1 and the third of identity 3; with those term lists
    tb-rinehart(2) fails, with the corrected ones it passes."""
    ctx = _IdentityContext(tb_rinehart(2))
    misprint = ((1, 4), (1, 3, 0))
    printed1 = _HO1_TERMS[:5] + (misprint,)
    printed3 = _HO3_TERMS[:2] + (misprint,) + _HO3_TERMS[3:]
    for terms, printed, outer, failures in ((_HO1_TERMS, printed1, False, 27),
                                            (_HO3_TERMS, printed3, True, 31)):
        assert _check_ho_bracket(ctx, "ho", terms, outer).passed is True
        rep = _check_ho_bracket(ctx, "ho", printed, outer)
        assert rep.passed is False
        assert rep.failure_count == failures


def test_weak_full_separation():
    B = jacobian_weak(3)
    assert check_weak_rinehart(B).passed is True
    full = check_full_rinehart(B)
    assert full.passed is False
    compat = full.find("action-rho-compat")
    assert compat.passed is False
    assert compat.failures[0]["leg"].startswith("rho(a*x,y)")


def test_full_suite_leaves_the_stored_weak_suite_alone():
    B = jacobian_weak(2)
    full = check_full_rinehart(B)
    weak = check_weak_rinehart(B)
    assert full.name == "full-rinehart"
    assert weak.name == "weak-rinehart"
    assert "action-rho-compat" not in [c.name for c in weak.checks]
    assert full.checks[:-1] == weak.checks
    assert check_weak_rinehart(B) is weak
    assert check_full_rinehart(B) is full


def test_representation_reports_are_kept_per_algebra():
    """check_hom_rep stores its report on the representation together
    with the algebra it ran against; another algebra is checked anew."""
    B = tb_rinehart(1)
    doubled = Hom3Lie(B.L.sc, MatrixQ.diagonal([2] * B.L.n))
    first = check_hom_rep(B.L, B.rep)
    assert first.passed is True
    assert check_hom_rep(doubled, B.rep).find("hr1").passed is False
    assert check_hom_rep(B.L, B.rep).passed is True


def test_weak_witness_is_the_scaling_defect():
    # rho(x*x, y) doubles the x coefficient while x rho(x, y) does not
    B = jacobian_weak(3)
    lx = B.L_labels.index("x")
    ly = B.L_labels.index("y")
    ax = B.A_labels.index("x")
    prod = B.act.act({ax: 1}, {lx: 1})
    assert prod is not None
    lhs = B.rho.bilinear(prod, {ly: 1})
    rhs_cols = B.rho.bilinear({lx: 1}, {ly: 1})
    # compare on the constant column: d/dz of z
    lz = B.A_labels.index("z")
    lhs_col = lhs[lz]
    rhs_scaled = B.A.product({ax: 1}, rhs_cols[lz])
    assert lhs_col == {ax: 2}
    assert rhs_scaled == {ax: 1}


def test_rho_prime_kernel_is_constants():
    B = rho_prime(3, window=None)
    kernel, suite = ker_rho_ideal(B)
    assert kernel.dim == 1
    one = B.L_labels.index("1")
    vec = [0] * B.L.n
    vec[one] = 1
    assert kernel.contains(tuple(vec))
    laws = {c.name: c.passed for c in suite.checks}
    assert laws["bracket-absorb"] is True
    assert laws["twist-stable"] is True
    assert laws["anchor-closed"] is True
    # a*1 = a leaves the kernel: the module law needs the full axiom
    assert laws["module-closed"] is False


def test_rho_prime_window_variant_is_full():
    B = rho_prime(3, window=2)
    assert check_full_rinehart(B).passed is True
    kernel, suite = ker_rho_ideal(B)
    assert kernel.dim == 0
    assert suite.passed is True


def test_tensor_output_ideal_laws_positive_control():
    alg, A, rho, variant = tensor_family(0)
    assert variant == "anchored"
    B = tensor_extension(alg, A, rho)
    kernel, suite = ker_rho_ideal(B)
    assert kernel.dim == 4
    assert all(c.passed is True for c in suite.checks)


def test_identity_suite_on_tensor_output():
    alg, A, rho, _ = tensor_family(1)
    B = tensor_extension(alg, A, rho)
    ids = check_identity_suite(B)
    assert ids.passed is True
    assert ids.all_ran


def test_centers_of_tprime():
    B = tprime_split(3)
    zc = centers(B)
    assert zc["Z_L_A"].dim == 0
    z = zc["Z_rho_L"]
    assert z.dim == 1
    one = B.L_labels.index("1")
    vec = [0] * B.L.n
    vec[one] = 1
    assert z.contains(tuple(vec))
    # windowed data: the consistency law is reported, not asserted
    assert zc["excluded_L_pairs"] > 0


def test_windowed_checks_skip_and_count():
    B = tprime_split(2)
    suite = check_weak_rinehart(B)
    assert suite.passed is True
    assert any(c.skipped > 0 for c in suite.checks)


def test_full_suite_check_names_stable():
    B = tb_rinehart(2)
    names = [c.name for c in check_full_rinehart(B).checks]
    assert names == [
        "multiplicative", "hom-jacobi", "assoc", "phi-hom", "unit",
        "rho-derivation", "hr1", "hr2", "hr3", "action-assoc",
        "action-unital", "action-twist", "bracket-action-leibniz",
        "action-rho-compat",
    ]
