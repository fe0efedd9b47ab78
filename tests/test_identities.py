"""The identity suite against a literal reference evaluation.

`check_identity_suite` counts identities 1-3 together, from three
group sums over the unordered (x1, x2) and bit masks over the
(x3, x4, x5), evaluating only where a term acts through a nonzero
action entry and none through a None one; and identities 4-6 from bit
masks over x4 and over the (a, b) of each (x1, x2, x3), summing only
the (a, b) whose products the window determines and may leave
nonzero.  The reference below evaluates every (tuple, a, b, c, x5)
instance one by one, identity by identity, in the enumeration order of
the suite, from the literal term lists, with the sign of each operand
looked up per instance.  Reports must agree exactly: verdict, checked
and skipped counts, failure counts and witnesses in order.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from trilie.core3lie import Hom3Lie, StructureConstants3, sort3
from trilie.corpus import generate
from trilie.exactq import (
    MatrixQ,
    mat_apply_sv,
    mat_columns_sv,
    sv_axpy,
    sv_scale,
)
from trilie.report import MAX_FAILURES, CheckReport, SuiteReport
from trilie.repmod import PairAction, op_compose
from trilie.rinehart import (
    CommAlgebra,
    ModuleAction,
    RinehartBundle,
    _IdentityContext,
    _check_ho_brackets,
    check_identity_suite,
)

_EMPTY: dict = {}

# The terms of identities 1-3: (rho pair slots, bracket slots) over
# (x1, ..., x5) as indices 0..4.
_HO1_TERMS = (
    ((3, 4), (0, 1, 2)),
    ((4, 2), (0, 1, 3)),
    ((2, 3), (0, 1, 4)),
    ((1, 2), (0, 3, 4)),
    ((1, 3), (2, 0, 4)),
    ((1, 4), (2, 3, 0)),
)
_HO2_TERMS = (
    ((3, 4), (0, 1, 2)),
    ((4, 2), (0, 1, 3)),
    ((2, 3), (0, 1, 4)),
    ((2, 0), (1, 3, 4)),
    ((3, 0), (2, 1, 4)),
    ((4, 0), (2, 3, 1)),
)
_HO3_TERMS = (
    ((1, 2), (0, 3, 4)),
    ((1, 3), (2, 0, 4)),
    ((1, 4), (2, 3, 0)),
    ((0, 2), (1, 3, 4)),
    ((0, 3), (2, 1, 4)),
    ((0, 4), (2, 3, 1)),
)
# The products of identities 4-6: (a-side pair slots, b-side pair
# slots) over (x1, ..., x4).
_HO4_COMBOS = (((0, 1), (2, 3)), ((0, 3), (1, 2)), ((1, 3), (2, 0)))
_HO5_COMBOS = (((0, 1), (2, 3)), ((1, 2), (0, 3)), ((2, 0), (1, 3)))
_HO6_COMBOS = (((0, 3), (1, 2)), ((1, 3), (2, 0)),
               ((1, 2), (3, 0)), ((2, 0), (3, 1)))


class _ReferenceContext:
    def __init__(self, B):
        self.B = B
        L, A = B.L, B.A
        self.n = L.n
        self.m = A.dim
        self.act = B.act.act
        self.prod = A.product
        acols = mat_columns_sv(L.alpha)
        self.alpha2 = op_compose(acols, acols)
        pc = A._phi_cols
        self.phi2 = op_compose(pc, pc)
        # alpha of every sorted basis bracket
        self.ab: dict = {}
        sc = L.sc
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    vec, _ = sc.lookup(i, j, k)
                    self.ab[(i, j, k)] = (None if vec is None
                                          else mat_apply_sv(acols, vec))
        # phi composed with every anchor operator
        self.pr: dict = {}
        self.rho_ops: dict = {}
        for (i, j), cols in B.rho.ops.items():
            self.rho_ops[(i, j)] = cols
            self.pr[(i, j)] = op_compose(pc, cols)

    def op_at(self, table, i, j):
        if i == j:
            return None, 0
        if i < j:
            return table.get((i, j)), 1
        return table.get((j, i)), -1


def _inner_sum(ctx, terms, xs, a):
    """Sum of phi.rho(pair)(e_a) acting on alpha-brackets; None on gaps."""
    acc: dict = {}
    for (p, q), (r, s, t) in terms:
        cols, sign = ctx.op_at(ctx.pr, xs[p], xs[q])
        if sign == 0:
            continue
        key, bsign = sort3(xs[r], xs[s], xs[t])
        if bsign == 0:
            continue
        bvec = ctx.ab[key]
        if cols is None:
            # absent operator means the zero map, not a gap
            continue
        avec = cols[a]
        if avec is None or bvec is None:
            return None
        if not avec or not bvec:
            continue
        term = ctx.act(avec, bvec)
        if term is None:
            return None
        sv_axpy(acc, sign * bsign, term)
    return acc


def _check_ho_bracket(ctx, name, terms, outer):
    rep = CheckReport(name)
    n, m = ctx.n, ctx.m
    phi2 = ctx.phi2
    for x1 in range(n):
        for x2 in range(n):
            for x3 in range(n):
                for x4 in range(x3 + 1, n):
                    for x5 in range(x4 + 1, n):
                        xs = (x1, x2, x3, x4, x5)
                        for a in range(m):
                            s = _inner_sum(ctx, terms, xs, a)
                            if s is None:
                                rep.skip(m if outer else 1)
                                continue
                            if not outer:
                                if s:
                                    rep.record({"x": xs, "a": a})
                                else:
                                    rep.tick()
                                continue
                            if not s:
                                rep.tick(m)
                                continue
                            for b in range(m):
                                out = ctx.act(phi2[b], s)
                                if out is None:
                                    rep.skip()
                                elif out:
                                    rep.record({"x": xs, "a": a, "b": b})
                                else:
                                    rep.tick()
    return rep


def _rho_col(ctx, i, j, a):
    """rho(e_i, e_j)(e_a) as a sparse A-vector; None when windowed out."""
    cols, sign = ctx.op_at(ctx.rho_ops, i, j)
    if sign == 0 or cols is None:
        return _EMPTY
    col = cols[a]
    if col is None:
        return None
    if not col:
        return _EMPTY
    return col if sign == 1 else sv_scale(col, sign)


def _pair_product_sum(ctx, combos, xs, a, b):
    """Sum over combos of rho(pair)(e_a) * rho(pair)(e_b) inside A."""
    acc: dict = {}
    for (p, q), (r, s) in combos:
        u = _rho_col(ctx, xs[p], xs[q], a)
        v = _rho_col(ctx, xs[r], xs[s], b)
        if u is None or v is None:
            return None
        if not u or not v:
            continue
        term = ctx.prod(u, v)
        if term is None:
            return None
        sv_axpy(acc, 1, term)
    return acc


def _act_on_alpha2(ctx, rep, u, xs, a, b, c=None):
    if not u:
        rep.tick(ctx.n)
        return
    for x5 in range(ctx.n):
        out = ctx.act(u, ctx.alpha2[x5])
        if out is None:
            rep.skip()
        elif out:
            wit = {"x": xs, "x5": x5, "a": a, "b": b}
            if c is not None:
                wit["c"] = c
            rep.record(wit)
        else:
            rep.tick()


def _check_ho4(ctx):
    rep = CheckReport("identity-4")
    n, m = ctx.n, ctx.m
    A = ctx.B.A
    for x1 in range(n):
        for x2 in range(x1 + 1, n):
            for x3 in range(n):
                for x4 in range(n):
                    xs = (x1, x2, x3, x4)
                    for a in range(m):
                        for b in range(m):
                            s = _pair_product_sum(ctx, _HO4_COMBOS, xs, a, b)
                            if s is None:
                                rep.skip(n)
                                continue
                            _act_on_alpha2(ctx, rep, A.phi_apply(s),
                                           xs, a, b)
    return rep


def _check_ho_pairs(ctx, name, combos, x3_after_x2, b_after_a):
    rep = CheckReport(name)
    n, m = ctx.n, ctx.m
    A = ctx.B.A
    phi2 = ctx.phi2
    for x1 in range(n):
        for x2 in range(x1 + 1, n):
            for x3 in range(x2 + 1 if x3_after_x2 else 0, n):
                for x4 in range(n):
                    xs = (x1, x2, x3, x4)
                    for a in range(m):
                        for b in range(a + 1 if b_after_a else 0, m):
                            s = _pair_product_sum(ctx, combos, xs, a, b)
                            if s is None:
                                rep.skip(n * m)
                                continue
                            t = A.phi_apply(s)
                            if not t:
                                rep.tick(n * m)
                                continue
                            for c in range(m):
                                u = ctx.prod(phi2[c], t)
                                if u is None:
                                    rep.skip(n)
                                    continue
                                _act_on_alpha2(ctx, rep, u, xs, a, b, c)
    return rep


def reference_identity_suite(B) -> SuiteReport:
    ctx = _ReferenceContext(B)
    suite = SuiteReport("identities")
    suite.add(_check_ho_bracket(ctx, "identity-1", _HO1_TERMS, outer=False))
    suite.add(_check_ho_bracket(ctx, "identity-2", _HO2_TERMS, outer=True))
    suite.add(_check_ho_bracket(ctx, "identity-3", _HO3_TERMS, outer=True))
    suite.add(_check_ho4(ctx))
    suite.add(_check_ho_pairs(ctx, "identity-5", _HO5_COMBOS,
                              x3_after_x2=True, b_after_a=False))
    suite.add(_check_ho_pairs(ctx, "identity-6", _HO6_COMBOS,
                              x3_after_x2=False, b_after_a=True))
    return suite


def assert_same_reports(B):
    fast = check_identity_suite(B).to_dict()
    assert fast == reference_identity_suite(B).to_dict()


CORPUS_CASES = [
    ("tb-rinehart", {"degree_cap": 1}),
    ("tb-rinehart", {"degree_cap": 2}),
    ("tb-rinehart", {"degree_cap": 3}),
    ("two-block", {"window": 1}),
    ("two-block", {"window": 2}),
    ("tprime-split", {"window": 1}),
    ("tprime-split", {"window": 2}),
    ("jacobian-weak", {"degree_cap": 2}),
    ("rho-prime", {"degree_cap": 2}),
    ("l1-hom", {}),
    ("d4", {}),
    ("toy-split", {}),
]


@pytest.mark.parametrize(
    "name, params", CORPUS_CASES,
    ids=["-".join([name, *map(str, params.values())])
         for name, params in CORPUS_CASES])
def test_suite_matches_the_reference_on_the_corpus(name, params):
    assert_same_reports(generate(name, **params))


def test_corpus_comparison_reaches_failures_and_skips():
    """jacobian-weak d2 fails identities 4-6 and skips in all six, so
    the corpus comparison above compares witnesses and skip counts."""
    report = check_identity_suite(generate("jacobian-weak", degree_cap=2))
    checks = report.to_dict()["checks"]
    assert all(c["skipped"] > 0 for c in checks)
    assert [c["failures"] > 0 for c in checks] == [False] * 3 + [True] * 3
    assert checks[3]["witnesses"]


def truncating_bundle():
    """n = 4, m = 2, found by a random search: identities 1, 2 and 3
    fail 8, 16 and 28 times, more than the witnesses a report keeps."""
    L = Hom3Lie(StructureConstants3(4, {(0, 1, 3): {1: 2}, (0, 2, 3): {0: 1}}),
                MatrixQ([[0, 0, -1, 1], [-1, 0, -1, 1], [0, -1, 1, 0],
                         [-1, 1, 0, 0]]))
    A = CommAlgebra(2, {}, MatrixQ([[1, -1], [0, 1]]))
    act = ModuleAction(2, 4, {(0, 2): {2: 1}, (1, 2): {1: -1}})
    return RinehartBundle(L, A, PairAction(4, 2, {(1, 2): [{1: 1}, {1: 1}]}),
                          act)


def test_witnesses_of_identities_1_to_3_are_the_first_in_tuple_order():
    B = truncating_bundle()
    failures = [c.failure_count for c in check_identity_suite(B).checks]
    assert failures == [8, 16, 28, 0, 0, 0]
    assert min(failures[:3]) > MAX_FAILURES
    assert_same_reports(B)


def test_one_pass_evaluates_each_group_sum_once_from_rows_built_once(
        monkeypatch):
    """Identities 1-3 enumerate only the x1 <= x2 and evaluate each of
    the group sums GA, GB and GC at most once per (unordered pair,
    combo, a), from operands looked up once per (group, combo) and the
    rows act(e_i, alpha[triple]) built once per (triple, i): the action
    is called to build a row or to check a sum against every
    phi^2(e_b), nowhere else.  On two-block window 1 that is 944
    group sums from 68 rows; every identity holds, and the reports are
    the reference's."""
    B = generate("two-block", window=1)
    looked_up = {}  # id of a group's operands -> (group, xs, operands)
    summed = []
    real_terms = _IdentityContext.group_terms
    real_sum = _IdentityContext.group_sum

    def group_terms(self, group, xs):
        terms = real_terms(self, group, xs)
        looked_up[id(terms)] = group, xs, terms
        return terms

    def group_sum(self, terms, a):
        summed.append((*looked_up[id(terms)][:2], a))
        return real_sum(self, terms, a)

    monkeypatch.setattr(_IdentityContext, "group_terms", group_terms)
    monkeypatch.setattr(_IdentityContext, "group_sum", group_sum)
    ctx = _IdentityContext(B)
    act = ctx.act
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return act(u, v)
    ctx.act = counting
    reports = [rep.to_dict() for rep in _check_ho_brackets(ctx)]
    reference = reference_identity_suite(B).to_dict()["checks"][:3]
    assert reports == reference
    assert all(rep["status"] == "pass" for rep in reports)

    groups = [key[:2] for key in looked_up.values()]
    assert len(groups) == len(set(groups))
    assert len(summed) == len(set(summed)) == 944
    assert all(xs[0] <= xs[1] for _, xs, _ in summed)
    alphas = {key: vec for key, (vec, _, _) in ctx.alpha.items() if vec}
    rows = [(next(iter(u)), key) for u, v in calls
            for key, vec in alphas.items() if v is vec and len(u) == 1]
    checks = [v for u, v in calls if any(u is p for p in ctx.phi2)]
    assert len(rows) + len(checks) == len(calls)
    assert len(rows) == len(set(rows)) == 68


def test_products_and_phi_are_taken_only_to_build_the_tables(monkeypatch):
    """Identities 4-6 sum u_i v_j phi(e_i e_j) from a table built once
    per suite call, and identities 5 and 6 multiply a sum by phi^2(e_c)
    from the rows phi^2(e_c) e_i built with it: CommAlgebra.product and
    phi_apply are called only while the context is built, m (m + 1) / 2
    and m^2 times.  jacobian-weak at degree cap 2 fails identities 4-6,
    so the suite sums and checks products there."""
    B = generate("jacobian-weak", degree_cap=2)
    m = B.A.dim
    building = []
    calls = {"product": [], "phi_apply": []}
    real_init = _IdentityContext.__init__

    def init(self, bundle):
        building.append(True)
        real_init(self, bundle)
        building.pop()

    def spy(name):
        real = getattr(CommAlgebra, name)

        def counted(self, *args):
            calls[name].append(bool(building))
            return real(self, *args)
        return counted

    monkeypatch.setattr(_IdentityContext, "__init__", init)
    for name in calls:
        monkeypatch.setattr(CommAlgebra, name, spy(name))
    report = check_identity_suite(B)
    assert [c.passed for c in report.checks] == [True] * 3 + [False] * 3
    assert all(calls["product"]) and all(calls["phi_apply"])
    assert len(calls["phi_apply"]) == m * (m + 1) // 2
    assert len(calls["product"]) == m * m


# --- random bundles with window holes -------------------------------------

_COEFF = st.sampled_from([0, 1, -1, 2, Fraction(1, 2)])


def _present(draw):
    return draw(st.integers(0, 2)) > 0


def _vec(draw, dim, holes):
    """A sparse vector over dim coordinates, or None (a window hole)."""
    if holes and draw(st.integers(0, 5)) == 0:
        return None
    return {k: draw(_COEFF) for k in range(dim) if _present(draw)}


def _matrix(draw, dim):
    return MatrixQ([[draw(_COEFF) for _ in range(dim)] for _ in range(dim)])


@st.composite
def random_bundles(draw, action_blocks=False, anchor_within=False,
                   product_holes=False):
    """Bracket, product, action and anchor tables with random entries,
    None holes and explicit zero coefficients; no law is assumed.

    With action_blocks, the A- and L-indices fall into two blocks, e_a
    acts on e_x only within its block, and a third of those entries are
    None holes: a term then often acts through no entry at all, or only
    through holes.  With anchor_within, the anchor has operators only
    on pairs inside a random set of L-indices, so every x4 outside it
    leaves the x4 side of identities 4-6 zero.  With product_holes,
    about a third of the product table is None, so the product window
    settles many (a, b) of identities 4-6.
    """
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 3))
    holes = draw(st.booleans())
    triples = [(i, j, k) for i in range(n) for j in range(i + 1, n)
               for k in range(j + 1, n)]
    bracket, missing = {}, []
    for key in triples:
        vec = _vec(draw, n, holes)
        if vec is None:
            missing.append(key)
        elif vec:
            bracket[key] = vec
    L = Hom3Lie(StructureConstants3(n, bracket, missing), _matrix(draw, n))
    product = {(i, j): (None if product_holes and draw(st.integers(0, 2)) == 0
                        else _vec(draw, m, holes))
               for i in range(m) for j in range(i, m) if _present(draw)}
    A = CommAlgebra(m, product, _matrix(draw, m))
    if action_blocks:
        a_block = [draw(st.booleans()) for _ in range(m)]
        x_block = [draw(st.booleans()) for _ in range(n)]
        action = {(a, x): (None if draw(st.integers(0, 2)) == 0
                           else _vec(draw, n, False))
                  for a in range(m) for x in range(n)
                  if a_block[a] == x_block[x]}
    else:
        action = {(a, x): _vec(draw, n, holes)
                  for a in range(m) for x in range(n) if _present(draw)}
    inside = range(n)
    if anchor_within:
        inside = draw(st.sets(st.integers(0, n - 1), min_size=2))
    ops = {(i, j): [_vec(draw, m, holes) for _ in range(m)]
           for i in range(n) for j in range(i + 1, n)
           if i in inside and j in inside and _present(draw)}
    return RinehartBundle(L, A, PairAction(n, m, ops),
                          ModuleAction(m, n, action))


@settings(max_examples=150, deadline=None)
@given(random_bundles())
def test_suite_matches_the_reference_on_random_bundles(B):
    assert_same_reports(B)


@settings(max_examples=100, deadline=None)
@given(random_bundles(action_blocks=True))
def test_suite_matches_the_reference_with_block_sparse_action_holes(B):
    """The action masks settle a (tuple, a) whose terms act through no
    entry, or through a None hole, without evaluating it."""
    assert_same_reports(B)


@settings(max_examples=100, deadline=None)
@given(random_bundles(action_blocks=True, anchor_within=True))
def test_suite_matches_the_reference_with_the_anchor_on_a_subset(B):
    """The masks over x4 of identities 4-6 count whole x4 ranges where
    the x4 side of every term is zero."""
    assert_same_reports(B)


@settings(max_examples=100, deadline=None)
@given(random_bundles(product_holes=True))
def test_suite_matches_the_reference_with_product_window_holes(B):
    """The product-window masks of identities 4-6 settle an (a, b)
    whose products meet a None entry, or are all zero, without
    summing it."""
    assert_same_reports(B)


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_bundles(), random_bundles(action_blocks=True),
                 random_bundles(action_blocks=True, anchor_within=True),
                 random_bundles(product_holes=True)))
def test_the_literal_sums_obey_the_relations_the_suite_counts_by(B):
    """From the literal term lists, per instance: identity 2 at
    (x1, x2, ...) is minus identity 1 at (x2, x1, ...), with the same
    None status; identity 3 is the sum of identity 1 at both orders
    where both are determined; and s6 = s4 - s5 where s4 and s5 are
    determined.  These follow from the antisymmetry of rho and of the
    bracket; no law of the tables is assumed."""
    ctx = _ReferenceContext(B)
    n, m = ctx.n, ctx.m
    for x1 in range(n):
        for x2 in range(n):
            for combo in combinations(range(n), 3):
                xs, swapped = (x1, x2, *combo), (x2, x1, *combo)
                for a in range(m):
                    one = _inner_sum(ctx, _HO1_TERMS, xs, a)
                    other = _inner_sum(ctx, _HO1_TERMS, swapped, a)
                    two = _inner_sum(ctx, _HO2_TERMS, xs, a)
                    assert two == (None if other is None
                                   else sv_scale(other, -1))
                    if one is not None and other is not None:
                        both = dict(one)
                        sv_axpy(both, 1, other)
                        assert _inner_sum(ctx, _HO3_TERMS, xs, a) == both
            for x3 in range(n):
                for x4 in range(n):
                    xs = (x1, x2, x3, x4)
                    for a in range(m):
                        for b in range(m):
                            s4, s5 = (_pair_product_sum(ctx, combos, xs, a, b)
                                      for combos in (_HO4_COMBOS,
                                                     _HO5_COMBOS))
                            if s4 is not None and s5 is not None:
                                sv_axpy(s4, -1, s5)
                                assert _pair_product_sum(
                                    ctx, _HO6_COMBOS, xs, a, b) == s4


def test_an_explicit_zero_in_an_anchor_column_changes_nothing():
    """A column given with a zero coefficient is the zero column, so
    the suite sees no term there.  The input is chosen so that a kept
    {1: 0} would be a live term: on tb-rinehart at degree cap 1 its
    action meets missing window entries and would count as skipped."""
    B = generate("tb-rinehart", degree_cap=1)
    n, m = B.L.n, B.A.dim
    assert (0, 2) not in B.rho.ops
    ops = dict(B.rho.ops)
    ops[(0, 2)] = [{1: 0}] + [{} for _ in range(m - 1)]
    padded = RinehartBundle(B.L, B.A, PairAction(n, m, ops), B.act)
    assert padded.rho == B.rho
    assert (check_identity_suite(padded).to_dict()
            == check_identity_suite(B).to_dict())
