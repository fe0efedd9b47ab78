"""Coefficient algebras, module actions, and the bundle check suites."""

from collections import Counter

import pytest

from center_oracles import center, kernel_of_rep
from families import rep_family
from test_basis_laws import SEEDS, perturbed
from test_identities import (
    _HO1_TERMS,
    _HO3_TERMS,
    _ReferenceContext,
    _check_ho_bracket,
)
from test_law_kernels import CORPUS_CASES, rho_on_vec_left
from trilie.corpus import (
    _phi_matrix,
    _truncated_poly_algebra,
    d4_bundle,
    generate,
    jacobian_weak,
    rho_prime,
    tb_rinehart,
    tensor_family,
    toy_split,
    tprime_split,
    twist_family,
)
from trilie.construct import ConstructionError, tensor_extension, twist
from trilie.core3lie import Hom3Lie
from trilie.exactq import (
    MatrixQ,
    SubspaceQ,
    mat_apply_sv,
    mat_columns_sv,
    sv_to_tuple,
)
from trilie.repmod import (
    HomRepresentation,
    PairAction,
    check_hom_rep,
)
from trilie.report import CheckReport, SuiteReport
from trilie.rinehart import (
    CommAlgebra,
    ModuleAction,
    RinehartBundle,
    centers,
    check_anchor_derivations,
    check_commutative_associative,
    check_full_rinehart,
    check_identity_suite,
    check_phi_multiplicative,
    check_rho_derivations,
    check_unit,
    check_weak_rinehart,
    suite_verdicts,
)


def trunc(m, coeffs=(1,)):
    return _truncated_poly_algebra(m, _phi_matrix(m, list(coeffs)))


def derivation_check(A, cols):
    """hd1 and hd2 for one operator on A, as the anchor of one pair."""
    rho = PairAction(2, A.dim, {(0, 1): cols})
    return check_rho_derivations(A, HomRepresentation(rho, A.phi))


# -- the ideal-law oracle ----------------------------------------------------


def _space_generators(space: SubspaceQ):
    for row in space.basis:
        yield {i: c for i, c in enumerate(row) if c != 0}


def rinehart_ideal_check(B: RinehartBundle, space: SubspaceQ) -> SuiteReport:
    """The four closure laws an ideal of the bundle must satisfy.

    An oracle for `kernel_of_rep`, the kernel of the anchor that
    `centers` uses: each law is checked on the generators of the space
    by plain evaluation.
    """
    if space.ambient != B.L.n:
        raise ValueError("subspace lives in the wrong ambient space")
    suite = SuiteReport("ideal")
    gens = list(_space_generators(space))
    n = B.L.n
    sc = B.L.sc

    bracket = suite.add(CheckReport("bracket-absorb"))
    for g in gens:
        for i in range(n):
            for j in range(i + 1, n):
                w = sc.trilinear(g, {i: 1}, {j: 1})
                if w is None:
                    bracket.skip()
                elif space.contains(sv_to_tuple(w, n)):
                    bracket.tick()
                else:
                    bracket.record({"generator": sv_to_tuple(g, n),
                                    "i": i, "j": j})

    twist = suite.add(CheckReport("twist-stable"))
    acols = mat_columns_sv(B.L.alpha)
    for g in gens:
        w = mat_apply_sv(acols, g)
        if space.contains(sv_to_tuple(w, n)):
            twist.tick()
        else:
            twist.record({"generator": sv_to_tuple(g, n)})

    module = suite.add(CheckReport("module-closed"))
    for g in gens:
        for a in range(B.A.dim):
            w = B.act.act({a: 1}, g)
            if w is None:
                module.skip()
            elif space.contains(sv_to_tuple(w, n)):
                module.tick()
            else:
                module.record({"generator": sv_to_tuple(g, n), "a": a})

    anchor = suite.add(CheckReport("anchor-closed"))
    for g in gens:
        for j in range(n):
            cols = rho_on_vec_left(B.rho, g, j)
            for a in range(B.A.dim):
                u = cols[a]
                for z in range(n):
                    w = None if u is None else B.act.act(u, {z: 1})
                    if w is None:
                        anchor.skip()
                    elif space.contains(sv_to_tuple(w, n)):
                        anchor.tick()
                    else:
                        anchor.record({"generator": sv_to_tuple(g, n),
                                       "j": j, "a": a, "z": z})
    return suite


def ker_rho_ideal(B: RinehartBundle):
    """Kernel of the anchor and its ideal-law report."""
    kernel, excluded = kernel_of_rep(B.L, B.rho)
    suite = rinehart_ideal_check(B, kernel)
    if excluded:
        suite.name = "ideal (kernel on windowed data)"
    return kernel, suite


# -- coefficient algebras and the check suites -------------------------------


def test_truncated_algebra_laws():
    A = trunc(3)
    assert check_commutative_associative(A).passed is True
    assert check_phi_multiplicative(A).passed is True
    assert check_unit(A).passed is True


def test_broken_product_table_detected():
    # z*z = 1 is not associative with the truncation
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
             (1, 1): {0: 1}, (1, 2): {}, (2, 2): {}}
    A = CommAlgebra(3, table, MatrixQ.identity(3), unit={0: 1})
    rep = check_commutative_associative(A)
    assert rep.passed is False


def test_tables_reject_out_of_range_output_coordinates():
    with pytest.raises(ValueError):
        CommAlgebra(2, {(0, 0): {5: 1}})
    with pytest.raises(ValueError):
        ModuleAction(1, 2, {(0, 0): {5: 1}})
    with pytest.raises(ValueError, match="unit coordinate out of range"):
        CommAlgebra(2, {}, unit={9: 1})
    for bad in (5, -1):
        with pytest.raises(ValueError, match=f"column index {bad} out of range"):
            PairAction(3, 2, {(0, 1): [{bad: 1}, {}]})


def test_scaled_euler_is_phi_derivation():
    A = trunc(3)
    good = derivation_check(A, [{}, {1: 1}, {2: 2}])
    assert good.passed is True


def test_plain_shift_is_not_a_derivation_of_the_quotient():
    A = trunc(3)
    bad = derivation_check(A, [{}, {0: 1}, {1: 2}])
    assert bad.passed is False
    hd1 = [w for w in bad.failures if w["law"] == "hd1"]
    assert {"law": "hd1", "pair": (0, 1), "i": 1, "j": 2} in hd1


def test_twisted_euler_tracks_phi():
    # with phi(z) = 2z the plain Euler fails, the rescaled one passes
    A = trunc(3, coeffs=(2,))
    assert derivation_check(A, [{}, {1: 1}, {2: 2}]).passed is False
    assert derivation_check(A, [{}, {1: 1}, {2: 4}]).passed is True


def test_tb_bundle_passes_everything():
    B = tb_rinehart(3)
    assert check_weak_rinehart(B).passed is True
    assert check_full_rinehart(B).passed is True
    assert check_identity_suite(B).passed is True
    assert check_anchor_derivations(B).passed is True


def test_printed_identity_indices_fail():
    """Negative control: the paper prints (x2, x4, x1) as the last bracket
    of identity 1 and the third of identity 3; with those term lists
    tb-rinehart(2) fails, with the corrected ones it passes.  The term
    lists are evaluated by the literal reference, which agrees with the
    suite on the corrected ones."""
    B = tb_rinehart(2)
    ctx = _ReferenceContext(B)
    suite = check_identity_suite(B)
    misprint = ((1, 4), (1, 3, 0))
    printed1 = _HO1_TERMS[:5] + (misprint,)
    printed3 = _HO3_TERMS[:2] + (misprint,) + _HO3_TERMS[3:]
    for name, terms, printed, outer, failures in (
            ("identity-1", _HO1_TERMS, printed1, False, 27),
            ("identity-3", _HO3_TERMS, printed3, True, 31)):
        right = _check_ho_bracket(ctx, name, terms, outer)
        assert right == suite.find(name)
        assert right.passed is True
        rep = _check_ho_bracket(ctx, name, printed, outer)
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
    B = tensor_extension(alg, A, HomRepresentation(rho, A.phi))
    kernel, suite = ker_rho_ideal(B)
    assert kernel.dim == 4
    assert all(c.passed is True for c in suite.checks)


def test_identity_suite_on_tensor_output():
    alg, A, rho, _ = tensor_family(1)
    B = tensor_extension(alg, A, HomRepresentation(rho, A.phi))
    ids = check_identity_suite(B)
    assert ids.passed is True
    assert all(c.passed is not None for c in ids.checks)


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
    # windowed data: the pairs of the missing triples are left out
    assert B.L.sc.missing


def _center_bundles():
    """The corpus bundles the window leaves complete (d4 and toy-split
    at their defaults), the rep_family pairs over a zero product and
    action, and the tensor_family inputs (zero action) and their
    tensors."""
    yield d4_bundle()
    yield toy_split()
    for seed in range(30):
        alg, rep = rep_family(seed)
        m = rep.action.dim_v
        yield RinehartBundle(alg, CommAlgebra(m, {}, rep.phi), rep.action,
                             ModuleAction(m, alg.n))
    for seed in range(20):
        alg, A, rho, _ = tensor_family(seed)
        yield RinehartBundle(alg, A, rho, ModuleAction(A.dim, alg.n))
        try:
            yield tensor_extension(alg, A, HomRepresentation(rho, A.phi))
        except ConstructionError:
            pass


def test_z_rho_is_the_center_meet_the_kernel_of_the_anchor():
    """Z_rho(L), the x with [x, L, L] = 0 and rho(x, L) = 0, is the
    center of L meet the kernel of rho wherever the window leaves no
    pair out, the two solved on their own by the oracles."""
    complete = 0
    for B in _center_bundles():
        zc = centers(B)
        z_center, excluded_center = center(B.L)
        kernel, excluded_kernel = kernel_of_rep(B.L, B.rho)
        if excluded_center or excluded_kernel:
            continue
        complete += 1
        assert zc["Z_rho_L"] == z_center.intersect(kernel), B
    assert complete == 72


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


# --- suite verdicts -------------------------------------------------------


def _tensor_of(B) -> RinehartBundle:
    return tensor_extension(B.L, B.A, B.rep)


def _family_tensor(seed: int) -> RinehartBundle:
    alg, A, rho, _ = tensor_family(seed)
    return tensor_extension(alg, A, HomRepresentation(rho, A.phi))


def _non_multiplicative(B) -> RinehartBundle:
    """B with alpha replaced by diag(2, 1, ..., 1)."""
    alpha = MatrixQ.diagonal([2] + [1] * (B.L.n - 1))
    return RinehartBundle(Hom3Lie(B.L.sc, alpha), B.A, B.rho, B.act)


def _without_unit(B) -> RinehartBundle:
    A = B.A
    return RinehartBundle(B.L, CommAlgebra(A.dim, A.table, A.phi), B.rho,
                          B.act)


def _verdict_cases() -> list:
    """Makers of fresh bundles: the perturbed corpus, the tensor and
    twist families, corpus tensors (failing Hom-Jacobi), d4 with a
    non-multiplicative alpha, and d4 without a unit (its unit laws
    blocked)."""
    cases = [lambda name=name, params=params, seed=seed: perturbed(
                 generate(name, **params), seed)
             for name, params in CORPUS_CASES for seed in SEEDS]
    cases += [lambda seed=seed: _family_tensor(seed) for seed in range(20)]
    cases += [lambda seed=seed: twist(twist_family(seed)[1])
              for seed in range(6)]
    cases += [lambda cap=cap: _tensor_of(generate("tb-rinehart",
                                                  degree_cap=cap))
              for cap in (2, 3)]
    cases += [lambda: _tensor_of(generate("two-block")),
              lambda: _non_multiplicative(generate("d4")),
              lambda: _without_unit(generate("d4"))]
    return cases


WEAK_PARTS = (("multiplicative",), ("hom-jacobi",), ("assoc",),
              ("phi-hom",), ("unit",), ("rho-derivation",),
              ("hr1", "hr2", "hr3"), ("action-assoc",), ("action-unital",),
              ("action-twist",), ("bracket-action-leibniz",))


def test_verdicts_equal_the_suites_on_fresh_bundles():
    """suite_verdicts agrees with the suites computed on another fresh
    copy of each bundle, and a weak verdict that passes leaves the same
    suite stored.  Every weak part is the first failing one somewhere,
    and a bundle with blocked unit laws passes."""
    firsts, blocked_passes = Counter(), 0
    for make in _verdict_cases():
        B, fresh = make(), make()
        weak, full = check_weak_rinehart(fresh), check_full_rinehart(fresh)
        assert suite_verdicts(B) == (weak.passed, full.passed)
        if weak.passed:
            assert check_weak_rinehart(B) == weak
            blocked_passes += weak.find("action-unital").passed is None
        first = next((c.name for c in weak.checks if c.passed is False),
                     None)
        firsts.update(part for part in WEAK_PARTS if first in part)
    assert set(firsts) == set(WEAK_PARTS)
    assert blocked_passes > 0
