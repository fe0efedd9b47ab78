"""The three-lie-ideal law and Z_rho(L) against their literal loops.

`split.check_class_ideal_laws` evaluates [x, e_i, e_j] only at the
pairs that a stored or missing triple puts with the support of the
generator x, and `rinehart.centers` builds the bracket rows of Z_rho(L)
from the same per-index view of the table (`core3lie.by_index`).  The
references below are the loops they replace: one `trilinear` call per
generator and pair i <= j, and one `lookup` per pair and x.  Reports
must agree exactly (verdict, checked and skipped counts, failure
counts and witnesses in order), and so must both subspaces of
`centers`, on the split corpus, on partitions whose classes are not
ideals and on drawn direct sums, windowed ones included.
"""

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_split import h_space, unit
from trilie.construct import bundle_direct_sum, change_basis
from trilie.core3lie import Hom3Lie, StructureConstants3
from trilie.corpus import (
    d4_bundle,
    toy_split,
    tprime_split,
    two_block,
    two_block_factors,
)
from trilie.exactq import (
    MatrixQ,
    SubspaceQ,
    kernel_basis,
    sv_from_seq,
    sv_scale,
)
from trilie.repmod import PairAction
from trilie.report import MAX_FAILURES, CheckReport
from trilie.rinehart import CommAlgebra, ModuleAction, RinehartBundle, centers
from trilie.split import (
    check_class_ideal_laws,
    root_classes,
    root_decompose,
    weight_decompose,
)


# --- references -----------------------------------------------------------


def reference_three_lie_ideal(B, ideals) -> CheckReport:
    n = B.L.n
    bracket = B.L.sc.trilinear
    report = CheckReport("three-lie-ideal")
    for idx, ci in enumerate(ideals):
        for x in (sv_from_seq(v) for v in ci.space.basis):
            for i, j in combinations_with_replacement(range(n), 2):
                vec = bracket(x, {i: 1}, {j: 1})
                if vec is None:
                    report.skip()
                    continue
                report.tick()
                if not ci.space.contains_sv(vec):
                    report.record({"class": idx, "pair": [i, j]})
    return report


def reference_centers(B) -> dict:
    n, m = B.L.n, B.A.dim
    act = B.act

    usable_l = [x for x in range(n)
                if all(act.basis_act(a, x) is not None
                       for a in range(m))]
    rows = []
    for x in usable_l:
        cols = [act.basis_act(a, x) for a in range(m)]
        support = sorted({r for c in cols for r in c})
        for r in support:
            rows.append(tuple(c.get(r, 0) for c in cols))
    z_l_a = SubspaceQ(m, kernel_basis(rows, m))

    sc = B.L.sc
    rows_l = []
    for i in range(n):
        for j in range(i + 1, n):
            cols = []
            ok = True
            for x in range(n):
                vec, sign = sc.lookup(x, i, j)
                if vec is None:
                    ok = False
                    break
                cols.append(vec if sign == 1 else sv_scale(vec, sign))
            if not ok:
                continue
            support = sorted({r for c in cols for r in c})
            for r in support:
                rows_l.append(tuple(c.get(r, 0) for c in cols))
    for j in range(n):
        cols = []
        ok = True
        for x in range(n):
            pair_cols, sign = B.rho.pair(x, j)
            merged = {}
            for cidx, col in enumerate(pair_cols):
                if col is None:
                    ok = False
                    break
                for r, cval in col.items():
                    merged[(cidx, r)] = merged.get((cidx, r), 0) + sign * cval
            if not ok:
                break
            cols.append(merged)
        if not ok:
            continue
        support = sorted({k for c in cols for k in c})
        for k in support:
            rows_l.append(tuple(c.get(k, 0) for c in cols))
    z_rho_l = SubspaceQ(n, kernel_basis(rows_l, n))
    return {"Z_L_A": z_l_a, "Z_rho_L": z_rho_l}


def assert_matches_references(B, dec, wdec, partition) -> CheckReport:
    """Compare both changed computations with their references on one
    partition; returns the three-lie-ideal report."""
    suite, ideals = check_class_ideal_laws(B, dec, wdec, partition)
    law = suite.find("three-lie-ideal")
    assert suite.checks[-1] is law
    assert suite.to_dict()["checks"][-1] == \
        reference_three_lie_ideal(B, ideals).to_dict()
    got, want = centers(B), reference_centers(B)
    for key in ("Z_L_A", "Z_rho_L"):
        assert got[key].basis == want[key].basis, key
    return law


def decomposed(B, H):
    dec, wdec = root_decompose(B, H), weight_decompose(B, H)
    return dec, wdec, root_classes(dec.forms, wdec.forms, dec.AH)


# --- the split corpus -------------------------------------------------------

CORPUS = ([("toy-split", toy_split, w) for w in (0, 1, 2)]
          + [("tprime-split", tprime_split, w) for w in (1, 2, 3, 4)]
          + [("two-block", two_block, w) for w in (1, 2, 3)])


@pytest.mark.parametrize("name, build, window", CORPUS,
                         ids=[f"{c[0]}-w{c[2]}" for c in CORPUS])
def test_corpus_matches_the_references(name, build, window):
    """The root classes, which are ideals, and the partition into single
    roots, whose classes are not: on every windowed input that one fails
    more often than the witnesses kept, and skips."""
    B = build(window)
    dec, wdec, part = decomposed(B, h_space(B))
    law = assert_matches_references(B, dec, wdec, part)
    assert law.passed
    single = assert_matches_references(B, dec, wdec,
                                       [[f] for f in dec.forms])
    if B.L.sc.missing:
        assert single.failure_count > MAX_FAILURES and single.skipped
        assert len(single.failures) == MAX_FAILURES


def test_d4_non_ideal_class_matches_the_reference():
    """The partition of `test_d4_class_is_closed_but_not_an_ideal`, and
    the one into single roots."""
    B = d4_bundle(2)
    H = SubspaceQ(4, [unit(4, 0), unit(4, 1)])
    dec, wdec, part = decomposed(B, H)
    law = assert_matches_references(B, dec, wdec, part)
    assert law.status == "fail"
    assert law.failures[0] == {"class": 0, "pair": [0, 3]}
    # each root space alone is spanned by e2 +- e3; the pairs of e2,
    # (0, 1), (0, 3) and (1, 3), are gathered before those of e3, (0, 2)
    # and (1, 2), yet the witnesses are in ascending order
    single = assert_matches_references(B, dec, wdec,
                                       [[f] for f in dec.forms])
    assert single.failure_count == 8
    assert [w["pair"] for w in single.failures[:4]] == [[0, 2], [0, 3],
                                                        [1, 2], [1, 3]]


# --- drawn direct sums ------------------------------------------------------


def signed_permutation(n: int, seed: int) -> MatrixQ:
    """S with S e_x = +-e_perm(x), drawn from the seed; the identity
    for seed 0."""
    perm, signs = list(range(n)), [1] * n
    if seed:
        rng = random.Random(seed)
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        rows[perm[x]][x] = signs[x]
    return MatrixQ(rows)


@lru_cache(maxsize=None)
def block_sum(kind: str, window: int, seed: int):
    """A direct sum of two blocks over one A, written in the basis of
    the seed's signed permutation S and decomposed relative to the sum
    of their H, mapped by S^-1."""
    if kind == "two-block":
        B1, B2 = two_block_factors(window)
        H1 = H2 = SubspaceQ(B1.L.n, [unit(B1.L.n, 0), unit(B1.L.n, 1)])
    else:
        B1 = B2 = (toy_split if kind == "toy-split" else tprime_split)(window)
        H1 = H2 = h_space(B1)
    n1, n2 = B1.L.n, B2.L.n
    S = signed_permutation(n1 + n2, seed)
    B = change_basis(bundle_direct_sum(B1, B2), S)
    sinv = S.inverse()
    H = SubspaceQ(n1 + n2, [sinv.apply(tuple(v) + (0,) * n2)
                            for v in H1.basis]
                  + [sinv.apply((0,) * n1 + tuple(v)) for v in H2.basis])
    return (B,) + decomposed(B, H)


@st.composite
def sums_and_partitions(draw):
    """A block sum, windowed unless toy-split at window 0, in a drawn
    basis, with its root classes, its single roots or a drawn grouping
    of its roots."""
    kind = draw(st.sampled_from(("toy-split", "tprime-split", "two-block")))
    low = 0 if kind == "toy-split" else 1
    B, dec, wdec, part = block_sum(kind, draw(st.integers(low, 2)),
                                   draw(st.integers(0, 3)))
    how = draw(st.sampled_from(("classes", "single", "drawn")))
    if how == "classes":
        return B, dec, wdec, part
    if how == "single":
        return B, dec, wdec, [[f] for f in dec.forms]
    labels = draw(st.lists(st.integers(0, 2), min_size=len(dec.forms),
                           max_size=len(dec.forms)))
    groups = {}
    for form, label in zip(dec.forms, labels):
        groups.setdefault(label, []).append(form)
    return B, dec, wdec, [groups[k] for k in sorted(groups)]


@settings(max_examples=40, deadline=None)
@given(sums_and_partitions())
def test_drawn_direct_sums_match_the_references(case):
    assert_matches_references(*case)


# --- centers on drawn tables ------------------------------------------------


def bracket_only(sc: StructureConstants3, ops=None, m: int = 1):
    """A bundle of the table sc with alpha = Id, zero product and action,
    and the anchor ops over an A of dimension m."""
    return RinehartBundle(Hom3Lie(sc, MatrixQ.identity(sc.n)),
                          CommAlgebra(m, {}, MatrixQ.identity(m)),
                          PairAction(sc.n, m, ops), ModuleAction(m, sc.n))


def test_centers_leave_out_the_pairs_of_missing_triples():
    """[e0, e1, e3] = e0 with (0, 1, 2) missing: the pair (0, 1) is left
    out, so [e3, e0, e1] = e0 does not force x3 = 0."""
    sc = StructureConstants3(4, {(0, 1, 3): {0: 1}}, missing=[(0, 1, 2)])
    B = bracket_only(sc)
    assert centers(B)["Z_rho_L"].basis == ((0, 0, 1, 0), (0, 0, 0, 1))
    assert reference_centers(B)["Z_rho_L"] == centers(B)["Z_rho_L"]


@st.composite
def drawn_bundles(draw):
    """Tables whose triples are each zero, missing or a small integer
    vector, with an anchor whose columns may be missing."""
    n = draw(st.integers(3, 6))
    m = draw(st.integers(1, 2))
    coeff = st.integers(-2, 2)
    table, missing = {}, []
    for key in combinations(range(n), 3):
        kind = draw(st.sampled_from(("zero", "zero", "missing", "stored")))
        if kind == "missing":
            missing.append(key)
        elif kind == "stored":
            table[key] = {r: draw(coeff) for r in range(n)
                          if draw(st.booleans())}
    ops = {}
    for pair in combinations(range(n), 2):
        if draw(st.integers(0, 3)) == 0:
            ops[pair] = [draw(st.one_of(st.none(), st.dictionaries(
                st.integers(0, m - 1), coeff, max_size=m)))
                for _ in range(m)]
    return bracket_only(StructureConstants3(n, table, missing), ops, m)


@settings(max_examples=100, deadline=None)
@given(drawn_bundles())
def test_centers_of_drawn_tables_match_the_reference(B):
    got, want = centers(B), reference_centers(B)
    for key in ("Z_L_A", "Z_rho_L"):
        assert got[key].basis == want[key].basis, key
