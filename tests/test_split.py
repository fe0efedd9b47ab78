"""Root/weight decompositions, connections, class ideals, direct sums.

Expected root systems and failure messages are frozen from hand
calculations on the corpus bundles; the connection checks are mirrored
by a literal power-sum recurrence written here with plain Fractions.
"""

from collections import deque
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

import pytest

from center_oracles import center
from trilie import exactq, split
from trilie.bundleio import dumps_bundle
from trilie.cli import main
from trilie.construct import bundle_direct_sum
from trilie.core3lie import Hom3Lie, StructureConstants3
from trilie.corpus import (
    d4_bundle,
    d4_structure,
    generate,
    tb_rinehart,
    toy_split,
    tprime_split,
    two_block,
    two_block_factors,
)
from trilie.exactq import MatrixQ, SubspaceQ
from trilie.report import CheckReport, SuiteReport
from trilie.rinehart import RinehartBundle, centers
from trilie.split import (
    RootForm,
    SplitError,
    check_class_ideal_laws,
    check_thm1_properties,
    class_ideal,
    connected,
    connection_chain_valid,
    direct_sum_decompose,
    pullback_root,
    root_classes,
    root_decompose,
    weight_class_decompose,
    weight_decompose,
    zero_form,
)


def h_space(B):
    return SubspaceQ(B.L.n, [tuple(r) for r in B.meta["H"]])


def unit(n, i):
    return tuple(1 if c == i else 0 for c in range(n))


def form3(k):
    """The antisymmetric form on <x, y, 1> with gamma(x, y) = -k."""
    return RootForm(MatrixQ([[0, -k, 0], [k, 0, 0], [0, 0, 0]]))


# -- forms and pullbacks --------------------------------------------------


def test_root_form_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        RootForm(MatrixQ([[0, 1], [1, 0]]))


def form_value(form, h1, h2):
    """The form on two H-coordinate vectors: h1 . (matrix h2)."""
    return sum(a * b for a, b in zip(h1, form.mat.apply(tuple(h2))))


def test_form_value_is_the_determinant_pairing():
    # gamma_k((m1,n1,p1), (m2,n2,p2)) = k (m2 n1 - m1 n2)
    g = form3(2)
    assert form_value(g, (1, 0, 0), (0, 1, 0)) == -2
    assert form_value(g, (3, 5, 7), (2, 4, 9)) == 2 * (2 * 5 - 3 * 4)
    assert form_value(g, (1, 2, 3), (1, 2, 3)) == 0


def test_pullback_frozen_example():
    AH = MatrixQ.diagonal((1, 2))
    g = RootForm(MatrixQ([[0, 1], [-1, 0]]))
    # k = -1 composes with alpha itself: entries scale by 1 * 2
    assert pullback_root(g, AH, -1).mat.rows == ((0, 2), (-2, 0))
    assert pullback_root(g, AH, 0) == g
    assert pullback_root(pullback_root(g, AH, 1), AH, -1) == g


def _inv(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
           for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def _pullback_oracle(mat_rows, ah_rows, k):
    """(AH^{-k})^T M (AH^{-k}) with plain list-of-Fraction arithmetic."""
    n = len(ah_rows)
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    step = [[Fraction(x) for x in row] for row in ah_rows]
    if k > 0:
        step = _inv(step)
    for _ in range(abs(k)):
        P = _mul(P, step)
    Pt = [[P[j][i] for j in range(n)] for i in range(n)]
    M = [[Fraction(x) for x in row] for row in mat_rows]
    return _mul(_mul(Pt, M), P)


def test_pullback_against_literal_oracle():
    AH = MatrixQ([[1, 2], [1, 3]])
    for a in (1, -2, Fraction(3, 2)):
        g = RootForm(MatrixQ([[0, a], [-a, 0]]))
        for k in (-3, -1, 0, 1, 2, 4):
            got = pullback_root(g, AH, k).mat.rows
            want = _pullback_oracle(g.mat.rows, AH.rows, k)
            assert [list(r) for r in got] == want


# -- the showcase decomposition -------------------------------------------


@pytest.fixture(scope="module")
def tprime():
    B = tprime_split(3)
    H = h_space(B)
    dec = root_decompose(B, H)
    wdec = weight_decompose(B, H)
    return B, dec, wdec


def test_tprime_roots_frozen(tprime):
    B, dec, _ = tprime
    spaces = {1: (3, 4), -1: (5, 6), 2: (7, 8),
              -2: (9, 10), 3: (11, 12), -3: (13, 14)}
    assert len(dec.pieces) == 6
    for k, idxs in spaces.items():
        space = dec.index[form3(k)]
        assert space.basis == tuple(unit(15, i) for i in idxs)
    labels = [B.L_labels[i] for i in spaces[2]]
    assert labels == ["x e^{2 z}", "y e^{2 z}"]
    assert dec.zero == dec.H and dec.H.dim == 3


def test_tprime_weights_frozen(tprime):
    B, _, wdec = tprime
    assert wdec.zero.basis == (unit(7, 0),)
    assert B.A_labels[0] == "1"
    by_k = {1: 1, -1: 2, 2: 3, -2: 4, 3: 5, -3: 6}
    assert len(wdec.pieces) == 6
    for k, a_idx in by_k.items():
        space = wdec.index[form3(k)]
        assert space.basis == (unit(7, a_idx),)
        assert B.A_labels[a_idx] == "e^{%d z}" % k


def test_thm1_laws_hold_on_the_split_corpus():
    names = ["phi-moves-weights", "alpha-moves-roots", "bracket-adds-roots",
             "product-adds-weights", "action-adds-grading",
             "anchor-adds-grading"]
    for B in (toy_split(2), tprime_split(3), two_block(1)):
        H = h_space(B)
        dec, wdec = root_decompose(B, H), weight_decompose(B, H)
        suite = check_thm1_properties(B, dec, wdec)
        assert [c.name for c in suite.checks] == names
        assert suite.passed, B.name


def test_thm1_inverts_each_twist_once(monkeypatch):
    """Laws 1 and 2 take alpha^k and phi^k for k = -2..2 from one
    inverse of each twist and successive products: the inverse the
    decomposition graded by, so thm1 itself inverts neither."""
    B = two_block(1)
    H = h_space(B)
    dec, wdec = root_decompose(B, H), weight_decompose(B, H)
    want = check_thm1_properties(B, dec, wdec)
    inverted = []
    real = MatrixQ.inverse

    def counted(self):
        inverted.append(self)
        return real(self)

    monkeypatch.setattr(MatrixQ, "inverse", counted)
    got = check_thm1_properties(B, dec, wdec)
    assert got.to_dict() == want.to_dict()
    for twist in (B.L.alpha, B.A.phi):
        assert not any(m is twist for m in inverted)


def _count_inversions(monkeypatch):
    """Spy on MatrixQ.inverse and on rref; returns (the matrices
    inverted, the row lists reduced), in call order."""
    inverted, reduced = [], []
    real_inverse, real_rref = MatrixQ.inverse, exactq.rref

    def inverse(self):
        inverted.append(self)
        return real_inverse(self)

    def rref(rows):
        rows = [tuple(r) for r in rows]
        reduced.append(rows)
        return real_rref(rows)

    monkeypatch.setattr(MatrixQ, "inverse", inverse)
    monkeypatch.setattr(exactq, "rref", rref)
    return inverted, reduced


def test_decompose_validates_h_once(tmp_path, capsys, monkeypatch):
    """The root and the weight decompositions share one frame of H, so
    one `decompose` inverts alpha once: the frame's test that alpha is
    invertible is that inverse."""
    path = tmp_path / "two-block.json"
    path.write_text(dumps_bundle(two_block(1)), encoding="utf-8")
    alpha = two_block(1).L.alpha
    inverted, _ = _count_inversions(monkeypatch)
    assert main(["decompose", str(path), "--report", "json"]) == 0
    capsys.readouterr()
    assert sum(m == alpha for m in inverted) == 1


def test_decompose_inverts_alpha_and_alpha_on_h_once_per_frame(
        tmp_path, capsys, monkeypatch):
    """The frame of H keeps alpha^-1 and (alpha on H)^-1, and grading,
    thm1 and the weight-class walks take them from it: one `decompose`
    of two-block window 3 inverts alpha once, alpha on H twice (the
    frame and `root_classes`, whose callers hand it only AH) and phi
    once (weight grading, whose inverse thm1 reuses), and reduces
    neither alpha nor alpha on H apart from those inverses."""
    B = two_block(3)
    path = tmp_path / "two-block.json"
    path.write_text(dumps_bundle(B), encoding="utf-8")
    H = h_space(B)
    AH = root_decompose(B, H).AH
    inverted, reduced = _count_inversions(monkeypatch)
    assert main(["decompose", str(path), "--report", "json"]) == 0
    capsys.readouterr()
    counts = [sum(m == twist for m in inverted)
              for twist in (B.L.alpha, AH, B.A.phi)]
    assert counts == [1, 2, 1]
    assert len(inverted) == 4
    square = [twist.rows for twist in (B.L.alpha, AH, B.A.phi)]
    assert not [rows for rows in reduced if rows in square]


@pytest.mark.parametrize("ah, length", [
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3),   # a 3-cycle of the basis
    ([[1, 0, 0], [0, -1, 0], [0, 0, 2]], 2),  # gamma -> -gamma
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
])
def test_an_orbit_walk_inverts_alpha_on_h_once(monkeypatch, ah, length):
    """An orbit walk inverts alpha on H once, here by its caller, not
    once per step, and returns the orbit of repeated pullback_root
    steps."""
    AH = MatrixQ(ah)
    want = [form3(1)]
    while (step := pullback_root(want[-1], AH, 1)) != want[0]:
        want.append(step)
    assert len(want) == length
    inverted = []
    real = MatrixQ.inverse

    def counted(self):
        inverted.append(self)
        return real(self)

    monkeypatch.setattr(MatrixQ, "inverse", counted)
    assert split._orbit(form3(1), AH, AH.inverse()) == want
    assert len(inverted) <= 1


@pytest.mark.parametrize("rows", [
    [[2, 0], [0, 2]],                        # 2 Id: the inverse is Id / 2
    [[0, -1], [1, 0]],                       # a rotation of order 4
    [[1, 1, 0], [0, 1, 0], [0, 0, Fraction(-1, 3)]],
])
def test_powers_are_repeated_products(rows):
    mat = MatrixQ(rows)
    n = mat.nrows
    powers = split._powers(mat, range(-3, 4))
    assert sorted(powers) == list(range(-3, 4))
    inv = mat.inverse()
    for k in range(-3, 4):
        want = MatrixQ.identity(n)
        for _ in range(abs(k)):
            want = want @ (mat if k > 0 else inv)
        assert powers[k] == want
        assert split._powers(mat, (k,))[k] == want
        assert all(type(x) is int for row in powers[k].rows for x in row
                   if x == int(x))


def _form_target(index, zero_space, form):
    """The piece a form indexes, looked up as a RootForm."""
    return zero_space if form.is_zero() else index.get(form)


@pytest.mark.parametrize("name,window", [
    ("toy-split", 2), ("tprime-split", 3), ("two-block", 1),
    ("two-block", 3), ("tprime-split", 4)])
def test_upper_triangle_lookup_matches_the_form_sums(name, window):
    """The thm1 and zero-part loops find a sum's piece by summing strict
    upper triangles of pullbacks; the RootForm path they replaced sums
    the forms, pulls the sum back and looks it up."""
    B = generate(name, window=window)
    H = h_space(B)
    dec, wdec = root_decompose(B, H), weight_decompose(B, H)
    AH = dec.AH
    gamma, lam = dec.forms, wdec.forms
    l_index = split._upper_index(dec)
    a_index = split._upper_index(wdec)
    up_r = [split._upper(f.mat) for f in gamma]
    up_w = [split._upper(f.mat) for f in lam]
    AH_inv = AH.inverse()
    pb_r = split._pullback_uppers(gamma, AH, 1, AH_inv)
    pb_w = split._pullback_uppers(lam, AH, 1, AH_inv)

    def l_old(form):
        return _form_target(dec.index, dec.zero, form)

    def a_old(form):
        return _form_target(wdec.index, wdec.zero, form)

    def add(*ups):
        return tuple(map(sum, zip(*ups)))

    for k in (-2, -1, 0, 1, 2):
        for f, up in zip(gamma, split._pullback_uppers(gamma, AH, k, AH_inv)):
            assert l_index.get(up) is l_old(pullback_root(f, AH, k))
        for f, up in zip(lam, split._pullback_uppers(lam, AH, k, AH_inv)):
            assert a_index.get(up) is a_old(pullback_root(f, AH, k))
    for i, j, k in combinations_with_replacement(range(len(gamma)), 3):
        total = gamma[i] + gamma[j] + gamma[k]
        want = l_old(pullback_root(total, AH, 1))
        assert l_index.get(add(pb_r[i], pb_r[j], pb_r[k])) is want
        zero = not any(add(up_r[i], up_r[j], up_r[k]))
        assert zero == total.is_zero()
    for i, j in combinations_with_replacement(range(len(lam)), 2):
        assert a_index.get(add(up_w[i], up_w[j])) is a_old(lam[i] + lam[j])
    for w, uw in zip(lam, up_w):
        for g, ur in zip(gamma, up_r):
            assert l_index.get(add(uw, ur)) is l_old(w + g)
    for i, j in combinations_with_replacement(range(len(gamma)), 2):
        for w, (pw, uw) in zip(lam, zip(pb_w, up_w)):
            total = gamma[i] + gamma[j] + w
            want = a_old(pullback_root(total, AH, 1))
            assert a_index.get(add(pb_r[i], pb_r[j], pw)) is want
            zero = not any(add(up_r[i], up_r[j], uw))
            assert zero == total.is_zero()


def test_root_class_sizes():
    sizes = {"toy-split": [4], "tprime-split": [6], "two-block": [2, 2]}
    for B in (toy_split(2), tprime_split(3), two_block(1)):
        H = h_space(B)
        dec, wdec = root_decompose(B, H), weight_decompose(B, H)
        part = root_classes(dec.forms, wdec.forms, dec.AH)
        assert sorted(len(c) for c in part) == sorted(sizes[B.name])


def test_tprime_class_ideal(tprime):
    B, dec, wdec = tprime
    part = root_classes(dec.forms, wdec.forms, dec.AH)
    ci = class_ideal(B, dec, wdec, list(part)[0])
    assert ci.space.dim == 14
    # A_{-k} L_k lands on x and y; the constant never appears
    assert ci.zero_part.basis == (unit(15, 0), unit(15, 1))
    assert not ci.space.contains(unit(15, 2))


def test_class_ideal_laws_pass_on_split_corpus():
    for B in (toy_split(2), tprime_split(3), two_block(1)):
        H = h_space(B)
        dec, wdec = root_decompose(B, H), weight_decompose(B, H)
        part = root_classes(dec.forms, wdec.forms, dec.AH)
        suite, ideals = check_class_ideal_laws(B, dec, wdec, part)
        assert suite.passed, (B.name, suite.to_text())
        assert sum(ci.space.dim for ci in ideals) <= B.L.n


# -- a decomposition that is not an ideal decomposition -------------------


def test_d4_class_is_closed_but_not_an_ideal():
    """The simple algebra splits over <e0, e1>, yet the class space
    <e2, e3> absorbs neither e0 nor e1: [e2, e3, e0] = e1 escapes.
    The closure laws hold; only the full ideal law fails."""
    B = d4_bundle(2)
    H = SubspaceQ(4, [unit(4, 0), unit(4, 1)])
    dec = root_decompose(B, H)
    wdec = weight_decompose(B, H)
    assert len(wdec.pieces) == 0 and wdec.zero.dim == 3

    plus = RootForm(MatrixQ([[0, 1], [-1, 0]]))
    assert dec.index[plus].basis == ((0, 0, 1, 1),)
    assert dec.index[-plus].basis == ((0, 0, 1, -1),)

    part = root_classes(dec.forms, wdec.forms, dec.AH)
    assert [len(c) for c in part] == [2]
    ci = class_ideal(B, dec, wdec, list(part)[0])
    assert ci.zero_part.dim == 0
    assert ci.space.basis == (unit(4, 2), unit(4, 3))

    suite, _ = check_class_ideal_laws(B, dec, wdec, part)
    by_name = {c.name: c for c in suite.checks}
    for name in ("closure-bracket", "closure-twist", "closure-action",
                 "orthogonality"):
        assert by_name[name].status == "pass"
    law = by_name["three-lie-ideal"]
    assert law.status == "fail"
    assert law.failures[0] == {"class": 0, "pair": [0, 3]}


# -- refusal taxonomy ------------------------------------------------------


def test_refuses_irrational_eigenvalues():
    B = tb_rinehart(3)
    idx = [B.L_labels.index("x"), B.L_labels.index("y")]
    H = SubspaceQ(B.L.n, [unit(B.L.n, i) for i in idx])
    with pytest.raises(SplitError, match="not split over Q") as err:
        root_decompose(B, H)
    assert "eigenspaces span 2 of 8" in str(err.value)


def test_refuses_strictly_larger_l0():
    B = toy_split(2)
    H = SubspaceQ(B.L.n, [unit(B.L.n, 0)])
    with pytest.raises(SplitError, match="L_0 strictly larger than H"):
        root_decompose(B, H)


def test_refuses_non_abelian_h():
    B = toy_split(0)
    with pytest.raises(SplitError, match=r"not abelian: basis triple \(0, 1, 2\)"):
        root_decompose(B, SubspaceQ.full(3))


def test_refuses_window_holes_in_h_brackets():
    B = tprime_split(3)
    # x e^{3z}, y e^{3z}, x e^{2z}: brackets push past the window
    H = SubspaceQ(15, [unit(15, i) for i in (11, 12, 7)])
    with pytest.raises(ValueError, match="undetermined"):
        root_decompose(B, H)


def test_refuses_alpha_unstable_h():
    B = d4_bundle(2)
    L2 = Hom3Lie(StructureConstants3(4, d4_structure()),
                 MatrixQ.diagonal((-1, -1, 1, 1)))
    B2 = RinehartBundle(L2, B.A, B.rho, B.act)
    with pytest.raises(SplitError, match="H not alpha-stable"):
        root_decompose(B2, SubspaceQ(4, [(1, 0, 1, 0)]))


# -- connections -----------------------------------------------------------


def _orbit_mats(mat_rows, ah_rows, limit=64):
    seen = []
    cur = [list(r) for r in mat_rows]
    for _ in range(limit):
        if cur in seen:
            return seen
        seen.append(cur)
        cur = _pullback_oracle(cur, ah_rows, 1)
    raise AssertionError("orbit did not close")


def _signed_permutations(h):
    for perm in permutations(range(h)):
        for signs in product((1, -1), repeat=h):
            yield MatrixQ([[signs[r] if perm[r] == c else 0
                            for c in range(h)] for r in range(h)])


def test_orbit_bound_is_the_largest_finite_order():
    """The largest order of a finite-order rational matrix of size d =
    h(h-1)/2: 2, 6, 30 and 120 at d = 1, 3, 6, 10 (OEIS A005417)."""
    assert [split._orbit_bound(h) for h in (1, 2, 3, 4, 5)] == [
        1, 2, 6, 30, 120]


@pytest.mark.parametrize("h", [2, 3])
def test_orbits_of_finite_order_twists_match_the_oracle(h):
    """Every signed permutation of H has finite order: each orbit must
    close within the bound and equal the plain-Fraction orbit."""
    forms = [RootForm(MatrixQ([[(r == a and c == b) - (r == b and c == a)
                                for c in range(h)] for r in range(h)]))
             for a, b in combinations(range(h), 2)]
    forms.append(sum(forms[1:], forms[0]) + forms[-1])     # a generic one
    for AH in _signed_permutations(h):
        for form in forms:
            orbit = split._orbit(form, AH, AH.inverse())
            assert len(orbit) <= split._orbit_bound(h)
            assert [[list(r) for r in f.mat.rows] for f in orbit] == \
                _orbit_mats(form.mat.rows, AH.rows)


@pytest.mark.parametrize("ah_rows, form_rows", [
    # det 4: every pullback divides the form by 4
    ([[2, 0], [0, 2]], [[0, 1], [-1, 0]]),
    # det 1 but unipotent: e0^e2 pulls back to e0^e2 - k e1^e2
    ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
])
def test_a_twist_of_infinite_order_on_h_is_a_split_error(ah_rows,
                                                          form_rows):
    AH = MatrixQ(ah_rows)
    with pytest.raises(SplitError, match="pullback orbit does not close"):
        split._orbit(RootForm(MatrixQ(form_rows)), AH, AH.inverse())


def test_scaled_alpha_toy_fails_to_connect_not_to_decompose():
    """toy-split window 1 with alpha scaled by 2: the decomposition
    splits, but alpha is 2 Id on H, so no root orbit closes."""
    B = toy_split(1)
    B2 = RinehartBundle(Hom3Lie(B.L.sc, B.L.alpha.scale(2)), B.A, B.rho,
                        B.act)
    H = h_space(B)
    dec, wdec = root_decompose(B2, H), weight_decompose(B2, H)
    assert len(dec.forms) == 2
    with pytest.raises(SplitError) as err:
        root_classes(dec.forms, wdec.forms, dec.AH)
    assert err.value.code == "pullback orbit does not close"
    assert err.value.detail == ("RootForm[0 -1/2; 1/2 0] has an infinite"
                                " orbit under alpha on H")


def _literal_chain_holds(chain, gamma, lam, AH, src, dst):
    """The recurrence from scratch: chain[0] pulled back i times plus
    the pair sums each pulled back i+1-j times, membership at every
    stage.  Shares no code with the BFS or its validator."""
    if len(chain) < 3 or len(chain) % 2 == 0:
        return False
    letters = {zero_form(src.h)}
    for f in list(gamma) + list(lam):
        letters.add(f)
        letters.add(-f)
    if any(f not in letters for f in chain[1:]):
        return False
    if [list(r) for r in chain[0].mat.rows] not in _orbit_mats(
            src.mat.rows, AH.rows):
        return False
    pm = set()
    for f in gamma:
        pm.add(tuple(map(tuple, f.mat.rows)))
        pm.add(tuple(map(tuple, (-f).mat.rows)))
    accept = set()
    for orb in _orbit_mats(dst.mat.rows, AH.rows):
        accept.add(tuple(map(tuple, orb)))
        accept.add(tuple(tuple(-x for x in row) for row in orb))
    steps = (len(chain) - 1) // 2
    for i in range(1, steps + 1):
        bar = _pullback_oracle(chain[0].mat.rows, AH.rows, i)
        for j in range(1, i + 1):
            pair = (chain[2 * j - 1] + chain[2 * j]).mat.rows
            pulled = _pullback_oracle(pair, AH.rows, i + 1 - j)
            bar = [[a + b for a, b in zip(r1, r2)]
                   for r1, r2 in zip(bar, pulled)]
        key = tuple(map(tuple, bar))
        if i < steps and key not in pm:
            return False
        if i == steps and key not in accept:
            return False
    return True


def test_tprime_roots_form_one_connected_system(tprime):
    _, dec, wdec = tprime
    by_k = {f.mat.rows[0][1]: f for f in dec.forms}
    src, dst = by_k[-1], by_k[-2]  # gamma_1 to gamma_2
    ok, chain = connected(dec.forms, wdec.forms, dec.AH, src, dst)
    assert ok and len(chain) == 3
    assert connection_chain_valid(chain, dec.forms, wdec.forms, dec.AH,
                                  src, dst)
    assert _literal_chain_holds(chain, dec.forms, wdec.forms, dec.AH,
                                src, dst)

    ok2, far = connected(dec.forms, wdec.forms, dec.AH, by_k[-1], by_k[3])
    assert ok2
    assert connection_chain_valid(far, dec.forms, wdec.forms, dec.AH,
                                  by_k[-1], by_k[3])
    assert _literal_chain_holds(far, dec.forms, wdec.forms, dec.AH,
                                by_k[-1], by_k[3])

    # corrupting the chain must fail both validators identically
    for bad in (chain[:-2], chain[:-1] + [-chain[-1]]):
        assert not connection_chain_valid(bad, dec.forms, wdec.forms,
                                          dec.AH, src, dst)
        assert not _literal_chain_holds(bad, dec.forms, wdec.forms,
                                        dec.AH, src, dst)


def test_connected_orbit_and_cross_class_cases():
    B = two_block(1)
    H = h_space(B)
    dec, wdec = root_decompose(B, H), weight_decompose(B, H)
    part = root_classes(dec.forms, wdec.forms, dec.AH)
    classes = [sorted(c, key=lambda f: f.key()) for c in part]
    assert sorted(len(c) for c in classes) == [2, 2]

    ok, chain = connected(dec.forms, wdec.forms, dec.AH,
                          classes[0][0], classes[0][1])
    assert ok and chain == []  # negatives share an orbit up to sign

    cross, witness = connected(dec.forms, wdec.forms, dec.AH,
                               classes[0][0], classes[1][0])
    assert cross is False and witness is None

    with pytest.raises(ValueError, match="not in the root system"):
        connected(dec.forms, wdec.forms, dec.AH, classes[0][0],
                  RootForm(MatrixQ([[0, 7, 0], [-7, 0, 0], [0, 0, 0]])
                           if dec.AH.nrows == 3 else MatrixQ.zeros(4, 4)))


def _matrix_bfs(states, gamma, lam, AH, src, dst=None):
    """The connection search in matrix arithmetic, kept as the oracle
    of the state-table search: every step pulls delta + mu + beta back
    through alpha|_H and tests membership among the +-states."""
    plus_minus = set()
    for f in states:
        plus_minus.add(f)
        plus_minus.add(-f)
    inverse = AH.inverse()
    start = [f for f in split._orbit(src, AH, inverse) if f in plus_minus]
    accept = None
    if dst is not None:
        accept = set()
        for f in split._orbit(dst, AH, inverse):
            accept.add(f)
            accept.add(-f)
        if accept.intersection(start):
            return True, []
    letters = split._alphabet(gamma, lam, src.h)
    parent = {f: None for f in start}
    queue = deque(start)
    while queue:
        delta = queue.popleft()
        neg = -delta
        for mu, beta in combinations_with_replacement(letters, 2):
            if mu == neg or beta == neg:
                continue
            nxt = pullback_root(delta + mu + beta, AH, 1)
            if nxt not in plus_minus or nxt in parent:
                continue
            parent[nxt] = (delta, mu, beta)
            if accept is not None and nxt in accept:
                chain = []
                cur = nxt
                while parent[cur] is not None:
                    prev, m_, b_ = parent[cur]
                    chain.append((m_, b_))
                    cur = prev
                out = [cur]
                for m_, b_ in reversed(chain):
                    out.extend((m_, b_))
                return True, out
            queue.append(nxt)
    if dst is not None:
        return False, None
    return set(parent)


@pytest.mark.parametrize("name,window", [
    ("tprime-split", 2), ("tprime-split", 3), ("tprime-split", 4),
    ("two-block", 1), ("two-block", 2), ("toy-split", 0), ("toy-split", 2),
    ("d4", 2)])
def test_state_table_search_matches_the_matrix_bfs(name, window):
    B = generate(name, window=window)
    H = (h_space(B) if "H" in B.meta
         else SubspaceQ(B.L.n, [unit(B.L.n, 0), unit(B.L.n, 1)]))
    dec, wdec = root_decompose(B, H), weight_decompose(B, H)
    gamma, lam, AH = dec.forms, wdec.forms, dec.AH
    letters = split._alphabet(gamma, lam, AH.nrows)
    for states in (gamma, lam):
        table = split._StateTable(states, letters, AH)
        for f in states:
            start = table.ids(split._orbit(f, AH, AH.inverse()))
            got = {table.states[i]
                   for i in split._connect_search(table, start)}
            assert got == _matrix_bfs(set(states), gamma, lam, AH, f)
    for src in gamma:
        for dst in gamma:
            got = connected(gamma, lam, AH, src, dst)
            assert got == _matrix_bfs(set(gamma), gamma, lam, AH, src, dst)
            ok, chain = got
            if ok and chain:
                assert connection_chain_valid(chain, gamma, lam, AH,
                                              src, dst)
                assert _literal_chain_holds(chain, gamma, lam, AH,
                                            src, dst)


def test_root_classes_pull_back_only_the_orbits(monkeypatch):
    """The search runs on integers: the matrix BFS made 1,152
    pullbacks here, the orbits of the 8 roots need at most 16."""
    B = two_block(2)
    H = h_space(B)
    dec, wdec = root_decompose(B, H), weight_decompose(B, H)
    calls = []
    real = split.pullback_root

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(split, "pullback_root", counted)
    part = root_classes(dec.forms, wdec.forms, dec.AH)
    assert sum(len(c) for c in part) == len(dec.forms) == 8
    assert len(calls) <= 16


# -- direct-sum theorems ---------------------------------------------------


def test_direct_sum_hypotheses_hold_on_toy():
    B = toy_split(2)
    H = h_space(B)
    dec, wdec = root_decompose(B, H), weight_decompose(B, H)
    part = root_classes(dec.forms, wdec.forms, dec.AH)
    ideals = [class_ideal(B, dec, wdec, cls) for cls in part]
    suite = direct_sum_decompose(B, dec, wdec, ideals)
    assert [c.status for c in suite.checks] == ["pass", "pass", "pass"]
    assert [len(c) for c in part] == [4]


def test_direct_sum_hypotheses_fail_on_tprime(tprime):
    """The constant vector field is central and is not generated from
    the graded parts, so the direct-sum conclusion must be withheld."""
    B, dec, wdec = tprime
    part = root_classes(dec.forms, wdec.forms, dec.AH)
    ideals = [class_ideal(B, dec, wdec, cls) for cls in part]
    suite = direct_sum_decompose(B, dec, wdec, ideals)
    by_name = {c.name: c for c in suite.checks}
    one = ["0", "0", "1"] + ["0"] * 12

    center = by_name["center-trivial"]
    assert center.status == "fail"
    assert center.failures[0] == {"dim": 1, "generator": one}

    gen = by_name["H-generated"]
    assert gen.status == "fail"
    assert gen.failures[0] == {"generated_dim": 2, "H_dim": 3, "gap": [one]}

    ds = by_name["ideal-direct-sum"]
    assert ds.status == "blocked"
    assert ds.detail == "hypothesis failed: center-trivial, H-generated"


# -- block sums against the split of the sum ------------------------------
#
# An oracle for root_decompose and weight_decompose: the split of a
# block sum must be the zero extension of the splits of the blocks.


def split_ideal(B: RinehartBundle, dec, ideal: SubspaceQ):
    """Decompose a twist-stable ideal along the grading.

    Returns (components, suite): components holds I∩H and the nonzero
    I∩L_gamma pieces; the suite verifies alpha-stability, exactness of
    the component sum, and — when I lies inside H — centrality.
    """
    n = B.L.n
    suite = SuiteReport("split-ideal")
    stab = suite.add(CheckReport("alpha-stable"))
    image = SubspaceQ(n, [B.L.alpha.apply(v) for v in ideal.basis])
    stab.tick()
    if image != ideal:
        stab.record({"dim": ideal.dim, "image_dim": image.dim})

    in_h = ideal.intersect(dec.H)
    parts = []
    for gam, space in dec.pieces:
        piece = ideal.intersect(space)
        if piece.dim:
            parts.append((gam, piece))

    exact = suite.add(CheckReport("component-sum"))
    total = SubspaceQ.sum_of([in_h] + [p for _, p in parts], n)
    exact.tick()
    if total != ideal or total.dim != in_h.dim + sum(
            p.dim for _, p in parts):
        exact.record({"ideal_dim": ideal.dim, "sum_dim": total.dim})

    central = suite.add(CheckReport("central-when-in-H"))
    if dec.H.contains_space(ideal):
        z, excluded = center(B.L)
        if excluded:
            central.block("bracket window leaves the center undetermined")
        else:
            central.tick()
            if not z.contains_space(ideal):
                central.record({"ideal_dim": ideal.dim,
                                "center_dim": z.dim})
    else:
        central.block("ideal is not inside H")

    return {"H": in_h, "roots": tuple(parts)}, suite


def _embed_form(form: RootForm, offset: int, h: int) -> RootForm:
    rows = [[0] * h for _ in range(h)]
    for a in range(form.h):
        for b in range(form.h):
            rows[a + offset][b + offset] = form.mat.rows[a][b]
    return RootForm(MatrixQ(rows))


def _embed_space(space: SubspaceQ, offset: int, n: int) -> SubspaceQ:
    rows = []
    for v in space.basis:
        row = [0] * n
        row[offset:offset + len(v)] = list(v)
        rows.append(row)
    return SubspaceQ(n, rows)


def direct_sum_vs_split(B1: RinehartBundle, H1: SubspaceQ,
                        B2: RinehartBundle, H2: SubspaceQ,
                        name: str = ""):
    """Block sum of two split bundles versus the split of the block sum.

    Builds L = L1 (+) L2 over the shared A, decomposes it relative to
    H1 (+) H2, and checks the zero-extension picture: the combined
    root system is the union of the block systems, each combined root
    space is the embedded block space, combined weight spaces refine
    the block weight spaces, and splitting the block ideals recovers
    the block data.  Returns (suite, bundle, dec, wdec).
    """
    B = bundle_direct_sum(B1, B2, name=name)
    n1, n2 = B1.L.n, B2.L.n
    n = n1 + n2
    suite = SuiteReport("direct-sum-vs-split")

    zla = suite.add(CheckReport("A-annihilator-trivial"))
    z = centers(B)["Z_L_A"]
    zla.tick()
    if z.dim:
        zla.record({"dim": z.dim})

    dec1, wdec1 = root_decompose(B1, H1), weight_decompose(B1, H1)
    dec2, wdec2 = root_decompose(B2, H2), weight_decompose(B2, H2)
    H = SubspaceQ(n, [tuple(v) + (0,) * n2 for v in H1.basis]
                  + [(0,) * n1 + tuple(v) for v in H2.basis])
    dec, wdec = root_decompose(B, H), weight_decompose(B, H)
    h1, h = H1.dim, H.dim

    expected = {}
    for gam, space in dec1.pieces:
        expected[_embed_form(gam, 0, h)] = _embed_space(space, 0, n)
    for gam, space in dec2.pieces:
        expected[_embed_form(gam, h1, h)] = _embed_space(space, n1, n)

    ru = suite.add(CheckReport("roots-are-the-union"))
    ru.tick()
    if set(dec.index) != set(expected):
        ru.record({"combined": len(dec.pieces), "expected": len(expected)})
    sm = suite.add(CheckReport("root-spaces-match"))
    for form, space in expected.items():
        sm.tick()
        if dec.index.get(form) != space:
            sm.record({"root": form.key()})

    # A is shared between the blocks, so a joint eigenvector carries a
    # weight from each block at once; the combined weight is the sum of
    # the two embeddings and its space the eigenspace intersection.
    expected_w = {}
    pairs1 = [(zero_form(H1.dim), wdec1.zero)] + list(wdec1.pieces)
    pairs2 = [(zero_form(H2.dim), wdec2.zero)] + list(wdec2.pieces)
    for mu1, sp1 in pairs1:
        for mu2, sp2 in pairs2:
            inter = sp1.intersect(sp2)
            if inter.dim == 0:
                continue
            form = _embed_form(mu1, 0, h) + _embed_form(mu2, h1, h)
            if not form.is_zero():
                expected_w[form] = inter

    wu = suite.add(CheckReport("weights-combine-blocks"))
    wu.tick()
    if set(wdec.index) != set(expected_w):
        wu.record({"combined": len(wdec.pieces),
                   "expected": len(expected_w)})
    wr = suite.add(CheckReport("weight-spaces-match"))
    for form, space in expected_w.items():
        wr.tick()
        if wdec.index.get(form) != space:
            wr.record({"weight": form.key()})
    wz = suite.add(CheckReport("A0-is-the-intersection"))
    wz.tick()
    if wdec.zero != wdec1.zero.intersect(wdec2.zero):
        wz.record({"A0": wdec.zero.dim})

    rec = suite.add(CheckReport("split-recovers-blocks"))
    for dim, dj, h_off, block_off in ((n1, dec1, 0, 0),
                                      (n2, dec2, h1, n1)):
        block_space = _embed_space(SubspaceQ.full(dim), block_off, n)
        comps, sub = split_ideal(B, dec, block_space)
        rec.tick()
        ok = sub.passed and comps["H"] == _embed_space(
            dj.H, block_off, n)
        if ok:
            got = {form: space for form, space in comps["roots"]}
            want = {_embed_form(g, h_off, h):
                    _embed_space(s, block_off, n) for g, s in dj.pieces}
            ok = got == want
        if not ok:
            rec.record({"block": 1 if block_off == 0 else 2})

    return suite, B, dec, wdec


def test_direct_sum_vs_split_on_a_twin():
    B = toy_split(2)
    H = h_space(B)
    suite, BB, dec, wdec = direct_sum_vs_split(B, H, toy_split(2), H,
                                               name="toy-twin")
    assert suite.passed, suite.to_text()
    assert [c.name for c in suite.checks] == [
        "A-annihilator-trivial", "roots-are-the-union",
        "root-spaces-match", "weights-combine-blocks",
        "weight-spaces-match", "A0-is-the-intersection",
        "split-recovers-blocks"]
    assert BB.L.n == 20 and len(dec.pieces) == 8
    # shared A: each weight space is an eigenspace for both blocks
    assert len(wdec.pieces) == 4 and wdec.zero.dim == 1


def test_direct_sum_vs_split_recovers_two_block():
    F1, F2 = two_block_factors(1)
    H = SubspaceQ(F1.L.n, [unit(F1.L.n, 0), unit(F1.L.n, 1)])
    suite, BB, dec, wdec = direct_sum_vs_split(F1, H, F2, H,
                                               name="two-block")
    assert suite.passed, suite.to_text()
    assert len(dec.pieces) == 4 and len(wdec.pieces) == 4
    assert wdec.zero.dim == 2  # the two block units


def test_split_ideal_components(tprime):
    B, dec, wdec = tprime
    part = root_classes(dec.forms, wdec.forms, dec.AH)
    ci = class_ideal(B, dec, wdec, list(part)[0])
    comps, suite = split_ideal(B, dec, ci.space)
    by_name = {c.name: c for c in suite.checks}
    assert by_name["alpha-stable"].status == "pass"
    assert by_name["component-sum"].status == "pass"
    assert by_name["central-when-in-H"].status == "blocked"
    assert by_name["central-when-in-H"].detail == "ideal is not inside H"
    assert comps["H"].dim == 2 and len(comps["roots"]) == 6
    assert comps["H"] == ci.zero_part


def test_weight_class_mirror():
    expect = {"tprime-split": ([6], [7]), "toy-split": ([4], [5])}
    for B in (tprime_split(3), toy_split(2)):
        H = h_space(B)
        dec, wdec = root_decompose(B, H), weight_decompose(B, H)
        suite, part, spaces = weight_class_decompose(B, dec, wdec)
        sizes, dims = expect[B.name]
        assert [len(c) for c in part] == sizes
        assert [s.dim for s in spaces] == dims
        assert suite.passed, (B.name, suite.to_text())
        assert [c.name for c in suite.checks] == [
            "zero-parts-in-A0", "classes-annihilate", "A-direct-sum"]
