"""Commutative coefficient algebras and Hom 3-Lie-Rinehart bundles.

A bundle couples a Hom 3-Lie algebra L with a commutative algebra A
through an anchor map rho (pairs of L acting as twisted derivations of
A) and a module action of A on L.  The check suites grade a bundle as
weak (compatibility of bracket, anchor and action) or full (the extra
A-linearity law of the anchor), always over exact rationals, with
window-missing data skipped and counted rather than guessed.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, \
    permutations
from operator import itemgetter

from .exactq import (
    MatrixQ,
    SubspaceQ,
    SVec,
    bits,
    kernel_basis,
    masks,
    mat_apply_sv,
    mat_columns_sv,
    ones,
    operand,
    sv_axpy,
    sv_bilinear,
    sv_scale,
    sv_table,
)
from .core3lie import (
    Hom3Lie,
    brackets,
    by_index,
    check_hom_jacobi,
    check_multiplicative,
    sort3,
)
from .repmod import (
    Columns,
    HomRepresentation,
    PairAction,
    _keep,
    check_hom_rep,
    masked_ops,
    op_compose,
    op_zero,
)
from .report import CheckReport, SuiteReport, stored_on


class CommAlgebra:
    """Commutative associative algebra on a finite rational basis.

    The multiplication table stores e_i * e_j for i <= j; a None entry
    means the product leaves the representable window.  Absent keys are
    zero products.  phi is the algebra endomorphism carried by the
    bundle; unit, when declared, is the coordinate vector of 1.  The
    last three fields hold the reports of check_commutative_associative,
    check_phi_multiplicative and check_unit once they have run.
    """

    __slots__ = ("dim", "table", "phi", "unit", "_phi_cols", "_lookup",
                 "_assoc", "_phi_hom", "_unit_law")

    def __init__(self, dim: int, table: dict | None = None,
                 phi: MatrixQ | None = None, unit: SVec | None = None):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.table = sv_table(table, lambda i, j: 0 <= i <= j < dim, dim,
                              "product")
        # the same products under both key orders, for sv_bilinear
        self._lookup = {(j, i): vec for (i, j), vec in self.table.items()}
        self._lookup.update(self.table)
        self.phi = phi if phi is not None else MatrixQ.identity(dim)
        if self.phi.nrows != dim or self.phi.ncols != dim:
            raise ValueError("phi shape mismatch")
        if unit is not None and any(not 0 <= p < dim for p in unit):
            raise ValueError("unit coordinate out of range")
        self.unit = None if unit is None else dict(unit)
        self._phi_cols = mat_columns_sv(self.phi)

    def basis_product(self, i: int, j: int):
        return self._lookup.get((i, j), _EMPTY)

    def product(self, u, v):
        """u * v for sparse vectors; None when a needed entry is missing."""
        return sv_bilinear(self._lookup, u, v)

    def phi_apply(self, vec):
        if vec is None:
            return None
        return mat_apply_sv(self._phi_cols, vec)

    def __eq__(self, other):
        if not isinstance(other, CommAlgebra):
            return NotImplemented
        if self.dim != other.dim or self.phi != other.phi:
            return False
        if self.unit != other.unit:
            return False
        return self.table == other.table

    def __repr__(self):
        return f"CommAlgebra(dim={self.dim}, products={len(self.table)})"


_EMPTY: SVec = {}


def _basis_law(name: str, keys, instances) -> CheckReport:
    """The report of one law on basis instances, given as (index tuple,
    lhs, rhs): skipped where a side is None, checked where the sides
    agree, and otherwise failed with the witness dict(zip(keys, index)),
    which is not counted as checked."""
    rep = CheckReport(name)
    for index, lhs, rhs in instances:
        if lhs is None or rhs is None:
            rep.skipped += 1
        elif lhs == rhs:
            rep.checked += 1
        else:
            rep.record(dict(zip(keys, index)))
    return rep


@stored_on("_assoc")
def check_commutative_associative(A: CommAlgebra) -> CheckReport:
    """(e_i e_j) e_k == e_i (e_j e_k) over i <= j <= k."""
    e = [{i: 1} for i in range(A.dim)]
    return _basis_law("assoc", "ijk", (
        ((i, j, k), A.product(pij, e[k]),
         A.product(e[i], A.basis_product(j, k)))
        for i, j in combinations_with_replacement(range(A.dim), 2)
        for pij in (A.basis_product(i, j),) for k in range(j, A.dim)))


@stored_on("_phi_hom")
def check_phi_multiplicative(A: CommAlgebra) -> CheckReport:
    """phi(e_i e_j) == phi(e_i) phi(e_j)."""
    cols = A._phi_cols
    return _basis_law("phi-hom", "ij", (
        ((i, j), A.phi_apply(A.basis_product(i, j)),
         A.product(cols[i], cols[j]))
        for i, j in combinations_with_replacement(range(A.dim), 2)))


@stored_on("_unit_law")
def check_unit(A: CommAlgebra) -> CheckReport:
    if A.unit is None:
        return CheckReport("unit", None, detail="no unit declared")
    return _basis_law("unit", "i", (
        ((i,), A.product(A.unit, {i: 1}), {i: 1}) for i in range(A.dim)))


class ModuleAction:
    """Action of a CommAlgebra on the underlying space of L.

    table maps (a, m) to the sparse L-vector e_a * e_m; absent keys act
    as zero, None marks window-missing values.
    """

    __slots__ = ("dim_a", "dim_l", "table")

    def __init__(self, dim_a: int, dim_l: int, table: dict | None = None):
        self.dim_a = dim_a
        self.dim_l = dim_l
        self.table = sv_table(
            table, lambda a, m: 0 <= a < dim_a and 0 <= m < dim_l, dim_l,
            "action")

    def basis_act(self, a: int, m: int):
        return self.table.get((a, m), _EMPTY)

    def act(self, avec, lvec):
        """(sum a) * (sum x); None when any needed entry is missing."""
        return sv_bilinear(self.table, avec, lvec)

    def __eq__(self, other):
        if not isinstance(other, ModuleAction):
            return NotImplemented
        if (self.dim_a, self.dim_l) != (other.dim_a, other.dim_l):
            return False
        return self.table == other.table

    def __repr__(self):
        return f"ModuleAction({self.dim_a} on {self.dim_l})"


class RinehartBundle:
    """All the data of a (candidate) Hom 3-Lie-Rinehart algebra.

    rep is the Hom representation (rho, phi), built once so that its
    stored reports (hom-rep, hr4 and the anchor derivations) are shared
    by every suite.  The last four fields hold the reports of
    check_weak_rinehart and check_full_rinehart, the result of centers
    and the frame of split._h_frame (with its H) once they have run.
    """

    __slots__ = ("L", "A", "rho", "act", "rep", "name", "L_labels",
                 "A_labels", "meta", "_weak", "_full", "_centers",
                 "_frame")

    def __init__(self, L: Hom3Lie, A: CommAlgebra, rho: PairAction,
                 act: ModuleAction, name: str = "",
                 L_labels=None, A_labels=None, meta: dict | None = None):
        if rho.dim_l != L.n or rho.dim_v != A.dim:
            raise ValueError("anchor shape mismatch")
        if act.dim_a != A.dim or act.dim_l != L.n:
            raise ValueError("action shape mismatch")
        self.L = L
        self.A = A
        self.rho = rho
        self.act = act
        self.rep = HomRepresentation(rho, A.phi)
        self.name = name
        self.L_labels = tuple(L_labels) if L_labels else tuple(
            f"e{m}" for m in range(L.n))
        self.A_labels = tuple(A_labels) if A_labels else tuple(
            f"a{m}" for m in range(A.dim))
        self.meta = dict(meta) if meta else {}
        if len(self.L_labels) != L.n or len(self.A_labels) != A.dim:
            raise ValueError("label count mismatch")

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"RinehartBundle(dim L={self.L.n}, dim A={self.A.dim}{tag})"


def check_anchor_derivations(B: RinehartBundle) -> CheckReport:
    """Every rho(e_i, e_j) lands in the twisted derivations of A."""
    return check_rho_derivations(B.A, B.rep)


@stored_on("_derivations", owner=1)
def check_rho_derivations(A: CommAlgebra,
                          rep: HomRepresentation) -> CheckReport:
    """hd1 and hd2 for every stored rho(e_i, e_j), in one report.

    hd1: D(ab) = phi(a) D(b) + D(a) phi(b)
    hd2: D(abc) = phi(ab) D(c) + phi(bc) D(a) + phi(ac) D(b)

    The products of basis vectors and their phi-images are the same for
    every anchor operator D, so they are built once, and an instance
    whose product leaves the window is skipped for all of them at once.
    The instances run law by law, hd1 over every stored pair and then
    hd2, each pair's None columns read from `repmod.masked_ops`.  The
    report is kept with rep per algebra A.  Witnesses carry the law
    they break and the pair they come from.
    """
    phic = A._phi_cols
    prods = {}  # (i, j) -> (e_i e_j, phi(e_i e_j)) for i <= j
    for i, j in combinations_with_replacement(range(A.dim), 2):
        p = A.basis_product(i, j)
        prods[(i, j)] = p, A.phi_apply(p)
    triples = list(combinations_with_replacement(range(A.dim), 3))
    # per law: its instances whose products are determined, as (witness
    # keys, the argument of D, the terms (v, k) of the sum of v D(e_k))
    hd1 = [({"i": i, "j": j}, p, ((phic[i], j), (phic[j], i)))
           for (i, j), (p, _) in prods.items() if p is not None]
    hd2 = []
    for i, j, k in triples:
        (pij, fij), fjk, fik = prods[(i, j)], prods[(j, k)][1], prods[(i, k)][1]
        p = A.product(pij, {k: 1})
        if not (p is None or fij is None or fjk is None or fik is None):
            hd2.append(({"i": i, "j": j, "k": k}, p,
                        ((fij, k), (fjk, i), (fik, j))))

    ops = sorted(masked_ops(rep.action).items())
    out = CheckReport("rho-derivation")
    for law, count, live in (("hd1", len(prods), hd1),
                             ("hd2", len(triples), hd2)):
        # the columns of D each instance reads
        needs = [bits(p) | bits(k for _, k in terms) for _, p, terms in live]
        for pair, (cols, gaps, _, _, _) in ops:
            out.skip(count - len(live))
            for (where, p, terms), need in zip(live, needs):
                rhs = None if need & gaps else _sum_of_products(A, terms, cols)
                if rhs is None:
                    out.skip()
                elif mat_apply_sv(cols, p) == rhs:
                    out.tick()
                else:
                    out.record({"law": law, "pair": pair, **where})
    return out


def _sum_of_products(A: CommAlgebra, terms, cols: Columns):
    """The sum of v D(e_k) over the terms (v, k), D given by its
    columns; None when a product leaves the window."""
    out: SVec = {}
    for v, k in terms:
        term = A.product(v, cols[k])
        if term is None:
            return None
        sv_axpy(out, 1, term)
    return out


def check_action_module(B: RinehartBundle) -> CheckReport:
    """(ab) x == a (bx) on basis triples."""
    A, act = B.A, B.act
    e_a, e_m = ([{i: 1} for i in range(d)] for d in (A.dim, B.L.n))
    return _basis_law("action-assoc", "abm", (
        ((a, b, m), act.act(prod, e_m[m]),
         act.act(e_a[a], act.basis_act(b, m)))
        for a, b in combinations_with_replacement(range(A.dim), 2)
        for prod in (A.basis_product(a, b),) for m in range(B.L.n)))


def check_action_unital(B: RinehartBundle) -> CheckReport:
    if B.A.unit is None:
        return CheckReport("action-unital", None, detail="no unit declared")
    e = [{m: 1} for m in range(B.L.n)]
    return _basis_law("action-unital", "m", (
        ((m,), B.act.act(B.A.unit, e[m]), e[m]) for m in range(B.L.n)))


def check_action_twist(B: RinehartBundle) -> CheckReport:
    """alpha(a x) == phi(a) alpha(x)."""
    acols = B.L._alpha_cols
    pc = B.A._phi_cols
    return _basis_law("action-twist", "am", (
        ((a, m), None if (ax := B.act.basis_act(a, m)) is None
         else mat_apply_sv(acols, ax), B.act.act(pc[a], acols[m]))
        for a in range(B.A.dim) for m in range(B.L.n)))


def _meets(supports, targets, step: int = 1) -> list:
    """Per target mask, the bits i * step of the support masks i that
    meet it."""
    return [sum(1 << i * step for i, sup in enumerate(supports) if sup & t)
            for t in targets]


def _leibniz_holds(B: RinehartBundle, row: list, cols: Columns, a: int,
                   z: int) -> bool:
    """One determined instance: [x, y, e_a e_z] == phi(e_a) [x, y, e_z]
    + rho(x, y)(e_a) alpha(e_z), row and cols being [x, y, .] and
    rho(x, y)."""
    act = B.act
    total = act.act(B.A._phi_cols[a], row[z])
    sv_axpy(total, 1, act.act(cols[a], B.L._alpha_cols[z]))
    return mat_apply_sv(row, act.table.get((a, z), _EMPTY)) == total


def check_bracket_action_leibniz(B: RinehartBundle) -> CheckReport:
    """[x, y, a z] == phi(a) [x, y, z] + rho(x, y)(a) alpha(z).

    [e_i, e_j, a z] is the bracket row of (i, j) applied to a z, and
    [e_i, e_j, e_z] its entry at z, both signed already.

    Per pair (i, j) the instances (z, a) are settled by masks over the
    bits z * dim A + a, before any arithmetic.  An instance is
    undetermined when the bracket entry at z is None, e_a e_z is None
    or meets a None entry of the row, rho(e_i, e_j)(e_a) is None, or
    one of the actions phi(e_a) [e_i, e_j, e_z] and
    rho(e_i, e_j)(e_a) alpha(e_z) reads a None entry of the action
    table; it may be nonzero when e_a e_z meets a nonzero entry of the
    row, or one of those actions reads a nonzero entry.  The masks come
    from the per-index None and nonzero bits of the action table, the
    row's bits and the supports of its entries and of rho's columns
    (`repmod.masked_ops`).  Undetermined instances are skipped and
    trivially zero ones held by popcount; the rest are evaluated in
    ascending (z, a) order.
    """
    rep = CheckReport("bracket-action-leibniz")
    L, A, act = B.L, B.A, B.act
    n, dim_a = L.n, A.dim
    acols = L._alpha_cols
    pc = A._phi_cols
    br = brackets(L)
    ops = masked_ops(B.rho)
    zero = (op_zero(dim_a), 0, 0, [0] * dim_a, ())
    block = (1 << dim_a) - 1
    every_z = sum(1 << z * dim_a for z in range(n))
    rows = [[act.basis_act(a, z) for z in range(n)] for a in range(dim_a)]
    # the masks of e_a e_z over z, per a, and over (z, a) at bit
    # z * dim A + a, with has over the L-indices q
    by_a = [masks(row) for row in rows]
    act_none, act_nonzero, act_has = masks(
        [row[z] for z in range(n) for row in rows], n)
    # per L-index q, the a where phi(e_a) e_q reads a None (nonzero)
    # entry; per A-index p, the z where e_p alpha(e_z) does, at bit
    # z * dim A
    phi_bits = [bits(col) for col in pc]
    phi_none = _meets(phi_bits, [act_none >> q * dim_a & block
                                 for q in range(n)])
    phi_nonzero = _meets(phi_bits, [act_nonzero >> q * dim_a & block
                                    for q in range(n)])
    alpha_bits = [bits(col) for col in acols]
    alpha_none = _meets(alpha_bits, [none for none, _, _ in by_a], dim_a)
    alpha_nonzero = _meets(alpha_bits, [nonzero for _, nonzero, _ in by_a],
                           dim_a)
    skipped = checked = 0
    for i, j in br.pairs:
        row = br.rows[(i, j)]
        row_none, row_nonzero = br.masks[(i, j)]
        cols, c_none, _, c_has, _ = ops.get((i, j), zero)
        # the row's entry at k is [e_i, e_j, e_z] for z = k, and is
        # read by [e_i, e_j, e_a e_z] where e_a e_z has k in its support
        dead = act_none
        nonzero = 0
        for k in ones(row_none):
            dead |= act_has[k] | block << k * dim_a
        for k in ones(row_nonzero):
            nonzero |= act_has[k]
        spread: dict = {}
        for z in ones(row_nonzero):
            for q in row[z]:
                spread[q] = spread.get(q, 0) | 1 << z * dim_a
        for q, zs in spread.items():
            dead |= zs * phi_none[q]
            nonzero |= zs * phi_nonzero[q]
        # alpha_none[p] and alpha_nonzero[p] hold bits z * dim A only,
        # so a product with a mask over a ORs their shifts by each a
        dead |= every_z * c_none
        for p, at_p in enumerate(c_has):
            dead |= alpha_none[p] * at_p
            nonzero |= alpha_nonzero[p] * at_p
        gaps = dead.bit_count()
        skipped += gaps
        checked += n * dim_a - gaps
        for b in ones(nonzero & ~dead):
            z, a = divmod(b, dim_a)
            if not _leibniz_holds(B, row, cols, a, z):
                checked -= 1
                rep.record({"i": i, "j": j, "a": a, "z": z})
    rep.skip(skipped)
    rep.tick(checked)
    return rep


def _weak_parts(B: RinehartBundle):
    """The parts of the weak suite in report order, each a list of
    checks computed only when the caller asks for it."""
    yield [check_multiplicative(B.L)]
    yield [check_hom_jacobi(B.L)]
    yield [check_commutative_associative(B.A)]
    yield [check_phi_multiplicative(B.A)]
    yield [check_unit(B.A)]
    yield [check_anchor_derivations(B)]
    yield check_hom_rep(B.L, B.rep).checks
    yield [check_action_module(B)]
    yield [check_action_unital(B)]
    yield [check_action_twist(B)]
    yield [check_bracket_action_leibniz(B)]


@stored_on("_weak")
def check_weak_rinehart(B: RinehartBundle) -> SuiteReport:
    """The weak Hom 3-Lie-Rinehart axiom suite."""
    return SuiteReport("weak-rinehart",
                       [c for part in _weak_parts(B) for c in part])


def suite_verdicts(B: RinehartBundle) -> tuple[bool, bool]:
    """(check_weak_rinehart(B).passed, check_full_rinehart(B).passed),
    settled by the first weak part that fails, without the parts after
    it; a bundle that fails none keeps its weak suite."""
    if getattr(B, "_weak", None) is None:
        checks = []
        for part in _weak_parts(B):
            if any(c.passed is False for c in part):
                return False, False
            checks.extend(part)
        # stored as `report.stored_on` keeps it: (other arguments, report)
        B._weak = ((), SuiteReport("weak-rinehart", checks))
    weak = check_weak_rinehart(B).passed
    return weak, weak and check_full_rinehart(B).passed


def _rho_column(ops: dict, vec: SVec, j: int, c: int) -> SVec:
    """Column c of rho(vec, e_j), which the masks have shown determined."""
    out: SVec = {}
    for m, coeff in vec.items():
        if m < j and (m, j) in ops:
            col = ops[(m, j)][c]
        elif m > j and (j, m) in ops:
            col, coeff = ops[(j, m)][c], -coeff
        else:
            continue
        if col:
            sv_axpy(out, coeff, col)
    return out


def _compat_leg(B: RinehartBundle, a: int, i: int, j: int,
                c: int) -> str | None:
    """The first side of rho(a x, y) == phi(a) rho(x, y) == rho(x, a y)
    that fails at (a, e_i, e_j, column c), all determined, or None."""
    ops = B.rho.ops
    col = ops[(i, j)][c] if (i, j) in ops else None
    mid = B.A.product(B.A._phi_cols[a], col) if col else {}
    if _rho_column(ops, B.act.table.get((a, i), _EMPTY), j, c) != mid:
        return "rho(a*x,y) vs phi(a)rho(x,y)"
    if mid != sv_scale(_rho_column(ops, B.act.table.get((a, j), _EMPTY),
                                   i, c), -1):
        return "phi(a)rho(x,y) vs rho(x,a*y)"
    return None


def check_action_rho_compat(B: RinehartBundle) -> CheckReport:
    """rho(a x, y) == phi(a) rho(x, y) == rho(x, a y) as operators on A.

    Instances (a, i, j, column) are settled by masks over the columns
    before any arithmetic.  A pair is skipped in one step when e_a e_i
    or e_a e_j is None.  Otherwise a column is undetermined when it is
    None in some rho(e_m, e_j) with m in the support of e_a e_i, or in
    some rho(e_m, e_i) with m in that of e_a e_j, or in rho(e_i, e_j),
    or when the support of that column meets the r where
    phi(e_a) e_r is None; it may be nonzero when one of these meets a
    nonzero column or product instead.  Undetermined columns are
    skipped and trivially zero ones held by popcount; the three sides
    are computed only on the rest, in ascending column order.
    """
    rep = CheckReport("action-rho-compat")
    A, act = B.A, B.act
    n, dim_a = B.L.n, A.dim
    pc = A._phi_cols
    ops = masked_ops(B.rho)
    zero = (None, 0, 0, [0] * dim_a, ())
    # per a, the r where phi(e_a) e_r reads a None (nonzero) product
    by_r = [masks([A.basis_product(p, r) for p in range(dim_a)])
            for r in range(dim_a)]
    phi_bits = [bits(col) for col in pc]
    prod_none = _meets([none for none, _, _ in by_r], phi_bits)
    prod_nonzero = _meets([nonzero for _, nonzero, _ in by_r], phi_bits)
    pairs = n * (n - 1) // 2
    skipped = checked = 0
    for a in range(dim_a):
        acted = {i: vec for i in range(n)
                 if (vec := act.table.get((a, i), _EMPTY)) is not None}
        skipped += (pairs - len(acted) * (len(acted) - 1) // 2) * dim_a
        for i, j in combinations(acted, 2):
            ax, ay = acted[i], acted[j]
            _, none, _, has, _ = ops.get((i, j), zero)
            for r in ones(prod_none[a]):
                none |= has[r]
            live = 0
            for r in ones(prod_nonzero[a]):
                live |= has[r]
            for vec, y in ((ax, j), (ay, i)):
                for m in vec:
                    _, m_none, m_nonzero, _, _ = ops.get(
                        (m, y) if m < y else (y, m), zero)
                    none |= m_none
                    live |= m_nonzero
            gaps = none.bit_count()
            skipped += gaps
            checked += dim_a - gaps
            for c in ones(live & ~none):
                leg = _compat_leg(B, a, i, j, c)
                if leg:
                    checked -= 1
                    rep.record({"a": a, "i": i, "j": j, "column": c,
                                "leg": leg})
    rep.skip(skipped)
    rep.tick(checked)
    return rep


@stored_on("_full")
def check_full_rinehart(B: RinehartBundle) -> SuiteReport:
    """Weak suite plus the A-linearity of the anchor."""
    weak = check_weak_rinehart(B)
    suite = SuiteReport("full-rinehart", list(weak.checks))
    if weak.passed:
        suite.add(check_action_rho_compat(B))
    else:
        blocked = CheckReport("action-rho-compat")
        blocked.block("weak suite failed")
        suite.add(blocked)
    return suite


# --- the six compatibility identities -------------------------------------
#
# Each identity is a multilinear equation in bracket, twist, anchor and
# action, checked on basis tuples; enumeration exploits proven formal
# symmetries.  A term of identities 1-3 is phi.rho(pair)(e_a) acting on
# alpha of a bracket triple, a term of 4-6 a product rho(pair)(e_a)
# rho(pair')(e_b); an absent operator or a repeated index makes it zero.
#
# Identities 1-3 sum three groups of three terms (_HO_GROUPS): GA,
# antisymmetric in (x1, x2), GB, and GC, GB with x1 and x2 swapped.  At
# (x1, x2) they are GA + GB, GA - GC and GB + GC, at (x2, x1) -GA + GC,
# -GA - GB and GB + GC, by the antisymmetry of rho and of the bracket
# alone.  A sum is undetermined where a term of its groups is, so each
# pair of groups settles two (identity, order) instances and only the
# x1 <= x2 are enumerated.  Masks over the combos (x3, x4, x5) say per
# term where its pair has an operator, its column a is None or has i in
# its support, and its triple is distinct or undetermined or acted on
# by e_i through a None or nonzero entry; each is built once per value
# of the fixed indices it reads.  A pair's masks, the OR of its terms',
# skip a combo where a term with an operator has an undetermined
# bracket and a (combo, a) where a column a is None or acts through a
# None entry; the rest holds unless a term acts through a nonzero
# entry.  Only those are summed, each group once, from the rows
# act(e_i, alpha[triple]) built once.  The witnesses kept are the
# smallest (x, a[, b]), the first in the full enumeration.
#
# Identities 4-6 are counted per (x1, x2, x3) by masks over the (x4, a)
# and (x4, a, b) where a side is None, and where an a side is nonzero
# with an operator on the b side; only the x4 with a live a are
# visited.  There, per anchor operator and A-index i, masks over b mark
# the columns meeting a None, resp. nonzero, phi(e_i e_j); spread over
# the a with i in column a, their OR over the terms settles the (a, b)
# the product window leaves undetermined and those whose sum is zero.
# Only the others are summed, as u_i v_j phi(e_i e_j) from a table.  In
# all six, the check of a sum against every b, c or x5 runs once per
# distinct sum.


class _IdentityContext:
    """The operands of the six identities, built once per suite call.

    pr and rho map an ordered pair with a stored anchor operator to the
    `exactq.operand` of phi.rho(e_i, e_j), resp. rho(e_i, e_j), signed
    by the order; rho's also holds its `_column_masks` and its None
    columns as a sides over the (x4, a), and as a, resp. b, sides over
    the (x4, a, b).  x4_masks[j] holds rho(e_j, e_x4) present, None and
    nonzero over the (x4, a) and None as a, resp. b, side over the
    (x4, a, b).  phi_prod[i][j] is
    phi(e_i e_j); c_rows[c] the rows phi^2(e_c) e_i and their None mask.
    ab maps an ordered triple of distinct indices to (sorted triple,
    sign); alpha a sorted triple to (alpha[e_i, e_j, e_k]; the e_i
    acting on it through a None, resp. nonzero, entry); rows keeps the
    rows_of.  masks, x1_masks and groups keep the masks over combos, the
    (x3, x4, x5) (see _kept); the seen_* dicts the per-sum verdicts.
    """

    __slots__ = ("n", "m", "act", "alpha2", "phi2", "phi_prod", "c_rows",
                 "ab", "alpha", "rows", "pr", "rho", "x4_masks", "combos",
                 "masks", "x1_masks", "groups", "seen_b", "seen_c",
                 "seen_x5")

    def __init__(self, B: RinehartBundle):
        L, A = B.L, B.A
        n = self.n = L.n
        m = self.m = A.dim
        self.act = B.act.act
        acols = L._alpha_cols
        self.alpha2 = op_compose(acols, acols)
        pc = A._phi_cols
        self.phi2 = op_compose(pc, pc)
        self.phi_prod = [[_EMPTY] * m for _ in range(m)]
        for i, j in combinations_with_replacement(range(m), 2):
            self.phi_prod[i][j] = self.phi_prod[j][i] = A.phi_apply(
                A.basis_product(i, j))
        # per A-index i, the j with a None, resp. nonzero, phi(e_i e_j),
        # and the L-indices x with a None, resp. nonzero, e_i e_x
        prod_none, prod_nonzero = zip(*(masks(row)[:2]
                                        for row in self.phi_prod))
        act_none, act_nonzero = zip(*(masks(
            [B.act.table.get((a, x), _EMPTY) for x in range(n)])[:2]
            for a in range(m)))
        self.c_rows = []
        for vec in self.phi2:
            rows = [A.product(vec, {i: 1}) for i in range(m)]
            self.c_rows.append((rows, masks(rows)[0]))
        self.combos = list(combinations(range(n), 3))
        self.ab: dict = {}
        self.alpha: dict = {}
        for key in self.combos:
            vec, _ = L.sc.lookup(*key)
            holes = live = 0
            if vec is not None:
                vec = mat_apply_sv(acols, vec)
                support = bits(vec)
                for i in range(m):
                    if act_none[i] & support:
                        holes |= 1 << i
                    if act_nonzero[i] & support:
                        live |= 1 << i
            self.alpha[key] = vec, holes, live
            signed = {1: (key, 1), -1: (key, -1)}
            for perm in permutations(key):
                self.ab[perm] = signed[sort3(*perm)[1]]
        self.rows: dict = {}
        self.pr: dict = {}
        self.rho: dict = {}
        # the bits of (x4, a) are x4 * m + a, of (x4, a, b) x4 * m^2 +
        # a * m + b; on_a (on_ab) has those of (x4, 0) ((x4, 0, 0))
        on_a, on_ab = (_spread((1 << n) - 1, size) for size in (m, m * m))
        self.x4_masks = [[0] * 5 for _ in range(n)]
        for (i, j), (cols, col_none, col_nonzero, _, _) in masked_ops(
                B.rho).items():
            phi_rho, *pr_masks = operand(op_compose(pc, cols))
            a_gaps = _spread(col_none, m) * ((1 << m) - 1)
            b_gaps = _spread((1 << m) - 1, m) * col_none
            shared = (*_column_masks(cols, prod_none, prod_nonzero),
                      col_none * on_a, a_gaps * on_ab, b_gaps * on_ab)
            # the sign of the order leaves the masks as they are
            neg = [[c and sv_scale(c, -1) for c in op]
                   for op in (cols, phi_rho)]
            for key, (rc, pr) in (((i, j), (cols, phi_rho)), ((j, i), neg)):
                self.rho[key] = (rc, col_none, col_nonzero, *shared)
                self.pr[key] = (pr, *pr_masks)
            for here, there in ((i, j), (j, i)):
                at = self.x4_masks[here]
                for k, mask in enumerate((1, col_none, col_nonzero)):
                    at[k] |= mask << there * m
                at[3] |= a_gaps << there * m * m
                at[4] |= b_gaps << there * m * m
        self.masks: dict = {}
        self.x1_masks: dict = {}
        self.groups: dict = {}
        self.seen_b: dict = {}
        self.seen_c: dict = {}
        self.seen_x5: dict = {}

    def _over_combos(self, slots, fixed):
        """(the indices at `slots`, mask of the combos giving them).

        slots are positions 0..4 of (x1, ..., x5); fixed is (x1, x2).
        The combos are grouped by their values at the slots >= 2, each
        group given by its first combo.
        """
        varying = tuple(s for s in slots if s >= 2)
        groups = self.groups.get(varying)
        if groups is None:
            acc: dict = {}
            for ci, combo in enumerate(self.combos):
                vals = tuple(combo[s - 2] for s in varying)
                first, mask = acc.get(vals, (combo, 0))
                acc[vals] = first, mask | 1 << ci
            groups = self.groups[varying] = list(acc.values())
        at = itemgetter(*slots)
        for combo, mask in groups:
            yield at(fixed + combo), mask

    def op_masks(self, pair, fixed):
        """(present, {a: None column}, {a: [(i, i in column a)]}) of
        phi.rho at the slots `pair`, as masks over the combos."""
        def build(over):
            present = 0
            none: dict = {}
            has: dict = {}
            for idx, mask in over:
                op = self.pr.get(idx)
                if op is None:
                    continue
                present |= mask
                cols, op_none, op_nonzero = op
                for a in ones(op_none):
                    none[a] = none.get(a, 0) | mask
                for a in ones(op_nonzero):
                    per_i = has.setdefault(a, {})
                    for i in cols[a]:
                        per_i[i] = per_i.get(i, 0) | mask
            return present, none, {a: list(per_i.items())
                                   for a, per_i in has.items()}
        return self._kept(pair, fixed, build)

    def triple_masks(self, triple, fixed):
        """(distinct, undetermined, holes, live) of alpha[triple] at the
        slots `triple`, as masks over the combos: holes[i] (live[i])
        marks where the action of e_i on it meets a None (nonzero)
        entry."""
        def build(over):
            distinct = undetermined = 0
            holes = [0] * self.m
            live = [0] * self.m
            for idx, mask in over:
                hit = self.ab.get(idx)
                if hit is None:
                    continue
                distinct |= mask
                vec, hole_is, live_is = self.alpha[hit[0]]
                if vec is None:
                    undetermined |= mask
                    continue
                for i in ones(hole_is):
                    holes[i] |= mask
                for i in ones(live_is):
                    live[i] |= mask
            return distinct, undetermined, holes, live
        return self._kept(triple, fixed, build)

    def _kept(self, slots, fixed, build):
        """build(_over_combos(slots, fixed)), kept per value of the fixed
        indices the slots read.  One that reads x1 alone is kept in
        x1_masks, which the caller empties when x1 moves on; one that
        reads both x1 and x2 is used once and not kept."""
        reads = [s for s in slots if s < 2]
        if len(reads) == 2:
            return build(self._over_combos(slots, fixed))
        kept = self.x1_masks if reads == [0] else self.masks
        key = (slots, tuple(fixed[s] for s in reads))
        hit = kept.get(key)
        if hit is None:
            hit = kept[key] = build(self._over_combos(slots, fixed))
        return hit

    def rows_of(self, key):
        """act(e_i, alpha[key]) for every A-index i, built once per
        sorted triple; an i that acts through no nonzero entry gets the
        zero row without a call."""
        rows = self.rows.get(key)
        if rows is None:
            vec, _, live = self.alpha[key]
            rows = self.rows[key] = [
                self.act({i: 1}, vec) if live >> i & 1 else _EMPTY
                for i in range(self.m)]
        return rows

    def group_terms(self, group: int, xs) -> list:
        """(signed columns, rows of the sorted triple, permutation sign)
        of each term of `group` at (x1, ..., x5) = xs that may be
        nonzero."""
        terms = []
        for pair, triple in _GROUP_GETTERS[group]:
            op = self.pr.get(pair(xs))
            hit = None if op is None else self.ab.get(triple(xs))
            if hit is not None and self.alpha[hit[0]][0]:
                terms.append((op[0], self.rows_of(hit[0]), hit[1]))
        return terms

    def group_sum(self, terms, a: int) -> SVec:
        """The sum of a group's terms at a: each column a times the rows
        of its triple.  No term may act through a None entry."""
        s: SVec = {}
        for cols, rows, psign in terms:
            col = cols[a]
            if col:
                for i, c in col.items():
                    sv_axpy(s, psign * c, rows[i])
        return s

    def on_phi2_b(self, s: SVec):
        """(checked, skipped, failing b's) of every phi^2(e_b) acting on s."""
        return _once(self.seen_b, s, lambda: _tally(
            self.act(vec, s) for vec in self.phi2))

    def on_alpha2(self, u: SVec):
        """(checked, skipped, failing x5's) of u acting on every alpha^2 e_x5."""
        return _once(self.seen_x5, u, lambda: _tally(
            self.act(u, vec) for vec in self.alpha2))

    def on_phi2_c(self, t: SVec):
        """The same for every phi^2(e_c) t, from c_rows; failures are
        (c, x5) pairs."""
        def evaluate():
            ok = gaps = 0
            bad = []
            need = bits(t)
            for c, (rows, none) in enumerate(self.c_rows):
                if none & need:
                    gaps += self.n
                    continue
                u: SVec = {}
                for i, coeff in t.items():
                    sv_axpy(u, coeff, rows[i])
                u_ok, u_gaps, u_bad = self.on_alpha2(u) if u else (
                    self.n, 0, ())
                ok += u_ok
                gaps += u_gaps
                bad.extend((c, x5) for x5 in u_bad)
            return ok, gaps, bad
        return _once(self.seen_c, t, evaluate)


def _column_masks(cols, none_at, nonzero_at) -> tuple:
    """(by_i, spreads) of the columns cols[k] of an anchor operator:
    by_i[i] is the (None, nonzero) masks of the k whose column meets
    none_at[i], resp. nonzero_at[i]; spreads lists per i the k with i
    in the support of column k as the bits k * len(none_at), so that
    times a mask over b it marks those (k, b)."""
    size = len(none_at)
    none = [0] * size
    nonzero = [0] * size
    has = [0] * size
    for k, col in enumerate(cols):
        meets_none = meets = 0
        for j in col or _EMPTY:
            meets_none |= none_at[j]
            meets |= nonzero_at[j]
            has[j] |= 1 << k * size
        for per_i, meet in ((none, meets_none), (nonzero, meets)):
            for i in ones(meet):
                per_i[i] |= 1 << k
    return (list(zip(none, nonzero)),
            [(i, spread) for i, spread in enumerate(has) if spread])


def _spread(mask: int, size: int) -> int:
    """The bits k of mask moved to k * size."""
    return sum(1 << k * size for k in ones(mask))


def _once(seen: dict, vec: SVec, evaluate):
    """evaluate(), computed once per distinct vector."""
    key = frozenset(vec.items())
    hit = seen.get(key)
    if hit is None:
        hit = seen[key] = evaluate()
    return hit


def _tally(outs):
    """(zero count, None count, positions of the nonzero outcomes)."""
    ok = gaps = 0
    bad = []
    for pos, out in enumerate(outs):
        if out is None:
            gaps += 1
        elif out:
            bad.append(pos)
        else:
            ok += 1
    return ok, gaps, bad


# the groups GA, GB and GC of identities 1-3: per term, (rho pair slots,
# bracket slots) over (x1, ..., x5) as indices 0..4
_HO_GROUPS = (
    (((3, 4), (0, 1, 2)), ((4, 2), (0, 1, 3)), ((2, 3), (0, 1, 4))),
    (((1, 2), (0, 3, 4)), ((1, 3), (2, 0, 4)), ((1, 4), (2, 3, 0))),
    (((0, 2), (1, 3, 4)), ((0, 3), (2, 1, 4)), ((0, 4), (2, 3, 1))),
)
_GROUP_GETTERS = tuple(tuple((itemgetter(*pair), itemgetter(*triple))
                             for pair, triple in terms)
                       for terms in _HO_GROUPS)
# per pair of groups, the (identity, order, signs of the two groups) it
# makes, order 0 at (x1, x2) and 1 at (x2, x1)
_HO_PAIRS = (
    ((0, 1), ((0, 0, (1, 1)), (1, 1, (-1, -1)))),
    ((0, 2), ((1, 0, (1, -1)), (0, 1, (-1, 1)))),
    ((1, 2), ((2, 0, (1, 1)), (2, 1, (1, 1)))),
)


def _term_masks(ctx: _IdentityContext, pair, triple, fixed):
    """(gap, {a: skipped}, {a: live}) of one term at (x1, x2), as masks
    over the combos: gap where it has an operator and an undetermined
    bracket, skipped where its column a is None or acts through a None
    entry, live where column a acts through a nonzero entry."""
    present, none, has = ctx.op_masks(pair, fixed)
    distinct, undetermined, holes, live = ctx.triple_masks(triple, fixed)
    skip = {a: mask & distinct for a, mask in none.items()}
    on: dict = {}
    if not (any(holes) or any(live)):  # no e_i acts through an entry
        return present & undetermined, skip, on
    for a, per_i in has.items():
        hole = hit = 0
        for i, mask in per_i:
            hole |= mask & holes[i]
            hit |= mask & live[i]
        if hole:
            skip[a] = skip.get(a, 0) | hole
        if hit:
            on[a] = hit
    return present & undetermined, skip, on


def _union(parts):
    """The OR of (gap, {a: skipped}, {a: live}) masks."""
    gap = 0
    skip: dict = {}
    live: dict = {}
    for p_gap, p_skip, p_live in parts:
        gap |= p_gap
        for a, mask in p_skip.items():
            skip[a] = skip.get(a, 0) | mask
        for a, mask in p_live.items():
            live[a] = live.get(a, 0) | mask
    return gap, skip, live


def _check_ho_brackets(ctx: _IdentityContext) -> list:
    """Identities 1-3, one report each, in one pass over the x1 <= x2
    from the group sums GA, GB and GC (see above): identity 1's sum
    must vanish, those of identities 2 and 3 be killed by every
    phi^2(e_b)."""
    n, m, combos = ctx.n, ctx.m, ctx.combos
    everything = (1 << len(combos)) - 1
    per_a = (1, m, m)
    checked = [0, 0, 0]
    skipped = [0, 0, 0]
    failed = [0, 0, 0]
    kept: list = [[], [], []]  # per identity, the smallest failing keys
    for x1 in range(n):
        ctx.x1_masks.clear()
        for x2 in range(x1, n):
            fixed = (x1, x2)
            orders = 1 if x1 == x2 else 2
            groups = [_union(_term_masks(ctx, pair, triple, fixed)
                             for pair, triple in terms)
                      for terms in _HO_GROUPS]
            work: dict = {}  # combo -> [(pair, uses, a)] to sum
            for pair, uses in _HO_PAIRS:
                gap, skip, live = _union(groups[g] for g in pair)
                keep = everything ^ gap
                n_skip = n_live = 0
                for a, mask in skip.items():
                    skip[a] = mask = mask & keep
                    n_skip += mask.bit_count()
                for a, mask in live.items():
                    mask &= keep & ~skip.get(a, 0)
                    n_live += mask.bit_count()
                    for ci in ones(mask):
                        work.setdefault(ci, []).append((pair, uses, a))
                n_gap = gap.bit_count()
                for k, _, _ in uses[:orders]:
                    skipped[k] += (n_gap * m + n_skip) * per_a[k]
                    checked[k] += ((len(combos) - n_gap) * m - n_skip
                                   - n_live) * per_a[k]
            for ci, evaluate in work.items():
                xs = fixed + combos[ci]
                swapped = (x2, x1) + combos[ci]
                terms: list = [None] * 3  # per group, its operands here
                sums: dict = {}  # (group, a) -> its sum here
                for pair, uses, a in evaluate:
                    parts = []
                    for group in pair:
                        part = sums.get((group, a))
                        if part is None:
                            if terms[group] is None:
                                terms[group] = ctx.group_terms(group, xs)
                            part = sums[group, a] = ctx.group_sum(
                                terms[group], a)
                        parts.append(part)
                    p, q = parts
                    made = None
                    for k, order, (sp, sq) in uses[:orders]:
                        if (sp, sq) != made:
                            # sp p + sq q vanishes where q = -sp sq p
                            made = sp, sq
                            zero = q == (p if sp != sq else sv_scale(p, -1))
                            s = None
                        if zero:
                            checked[k] += per_a[k]
                            continue
                        where = swapped if order else xs
                        if k == 0:
                            failed[k] += 1
                            _keep(kept[k], (where, a))
                            continue
                        if s is None:
                            s = dict(p) if sp == 1 else sv_scale(p, -1)
                            sv_axpy(s, sq, q)
                        ok, b_gaps, bad = ctx.on_phi2_b(s)
                        checked[k] += ok
                        skipped[k] += b_gaps
                        failed[k] += len(bad)
                        for b in bad:
                            _keep(kept[k], (where, a, b))
    reports = []
    for k in range(3):
        rep = CheckReport(f"identity-{k + 1}", checked=checked[k],
                          skipped=skipped[k])
        for where, a, *b in kept[k]:
            rep.record({"x": where, "a": a, **{"b": v for v in b}})
        rep.failure_count = failed[k]
        reports.append(rep)
    return reports


_HO4_COMBOS = (((0, 1), (2, 3)), ((0, 3), (1, 2)), ((1, 3), (2, 0)))
_HO5_COMBOS = (((0, 1), (2, 3)), ((1, 2), (0, 3)), ((2, 0), (1, 3)))
_HO6_COMBOS = (((0, 3), (1, 2)), ((1, 3), (2, 0)),
               ((1, 2), (3, 0)), ((2, 0), (3, 1)))


def _check_ho_pairs(ctx: _IdentityContext, name: str, combos,
                    x3_after_x2: bool, b_after_a: bool,
                    with_c: bool) -> CheckReport:
    """ho4-ho6 shape: phi of a sum of anchor column products on alpha^2 L.

    s(a, b) is the sum over combos of rho(pair)(e_a) rho(pair')(e_b).
    Identity 4 asks phi(s) to kill every alpha^2 e_x5; identities 5 and
    6 (with_c) ask the same of every phi^2(e_c) phi(s).  The two other
    flags are the enumeration each identity's proven symmetry allows:
    x3 > x2 for identity 5, b > a for identity 6.
    """
    rep = CheckReport(name)
    n, m = ctx.n, ctx.m
    per_ab = n * m if with_c else n
    rho, phi_prod, x4_masks = ctx.rho, ctx.phi_prod, ctx.x4_masks
    on_t = ctx.on_phi2_c if with_c else ctx.on_alpha2
    # per combo: (its fixed side's slots, whether that is the a side,
    # the other slot of the side that reads x4, whether x4 comes first)
    sides = [(itemgetter(p, q), True, r if s == 3 else s, r == 3)
             if 3 in (r, s) else
             (itemgetter(r, s), False, p if q == 3 else q, p == 3)
             for (p, q), (r, s) in combos]
    by_x4 = [[rho.get((j, x)) for x in range(n)] for j in range(n)]
    by_x4 = by_x4, list(zip(*by_x4))  # rho(e_j, e_x4), rho(e_x4, e_j)
    everything = (1 << m) - 1
    # the (a, b) in range, over the bits a * m + b, and over the bits
    # x4 * m^2 + a * m + b of the (x4, a, b)
    ab_range = sum((everything & ~((2 << a) - 1) if b_after_a
                    else everything) << a * m for a in range(m))
    in_range = ab_range * _spread((1 << n) - 1, m * m)
    n_in_range = in_range.bit_count()
    checked = skipped = 0
    for x1 in range(n):
        for x2 in range(x1 + 1, n):
            for x3 in range(x2 + 1 if x3_after_x2 else 0, n):
                fixed = (x1, x2, x3)
                # over the (x4, a): where an a side is None, and where it
                # is nonzero with an operator on the b side; over the
                # (x4, a, b): where the a side, resp. the b side, is None
                none_a = active = gap_a = gap_b = 0
                live_sides = []  # (fixed operator, x4 side by x4, a side)
                for side, a_side, slot, x4_first in sides:
                    op = rho.get(side(fixed))
                    present, x4_none, x4_nonzero, x4_gap_a, x4_gap_b = \
                        x4_masks[fixed[slot]]
                    if a_side:
                        gap_b |= x4_gap_b
                        if op is not None:
                            none_a |= op[5]
                            gap_a |= op[6]
                            active |= op[2] * present
                    else:
                        none_a |= x4_none
                        gap_a |= x4_gap_a
                        if op is not None:
                            gap_b |= op[7]
                            active |= x4_nonzero
                    if op is not None:
                        live_sides.append(
                            (op, by_x4[x4_first][fixed[slot]], a_side))
                clear = in_range & ~(gap_a | gap_b)
                n_clear = clear.bit_count()
                skipped += (n_in_range - n_clear) * per_ab
                # the pairs the product window leaves undetermined, and
                # those summed, are taken out again below
                checked += n_clear * per_ab
                visit = 0
                for at in ones(active & ~none_a):
                    visit |= 1 << at // m
                for x4 in ones(visit):
                    live = []
                    for op, x4_side, a_side in live_sides:
                        other = x4_side[x4]
                        if other is not None:
                            live.append((op, other) if a_side else (other, op))
                    # over the (a, b): those a term's products leave
                    # undetermined, and those where they may be nonzero
                    unsettled = summed = 0
                    for u, v in live:
                        for i, spread in u[4]:
                            i_none, i_nonzero = v[3][i]
                            unsettled |= i_none * spread
                            summed |= i_nonzero * spread
                    allowed = clear >> x4 * m * m
                    unsettled &= allowed
                    summed &= allowed & ~unsettled
                    n_unsettled = unsettled.bit_count()
                    skipped += n_unsettled * per_ab
                    checked -= (n_unsettled + summed.bit_count()) * per_ab
                    for at in ones(summed):
                        a, b = divmod(at, m)
                        t: SVec = {}  # phi(s(a, b))
                        for u, v in live:
                            col, vb = u[0][a], v[0][b]
                            if col and vb:
                                for i, ci in col.items():
                                    row = phi_prod[i]
                                    for j, cj in vb.items():
                                        sv_axpy(t, ci * cj, row[j])
                        ok, t_gaps, bad = on_t(t) if t else (per_ab, 0, ())
                        checked += ok
                        skipped += t_gaps
                        for place in bad:
                            wit = {"x": (x1, x2, x3, x4), "x5": place,
                                   "a": a, "b": b}
                            if with_c:
                                wit["c"], wit["x5"] = place
                            rep.record(wit)
    rep.tick(checked)
    rep.skip(skipped)
    return rep


def check_identity_suite(B: RinehartBundle) -> SuiteReport:
    """The six multilinear compatibility identities of a full bundle:
    identities 1-3 together from the group sums GA, GB and GC over the
    x1 <= x2, identities 4-6 each from the table of phi(e_i e_j), with
    the window settled by masks before any arithmetic (see above)."""
    ctx = _IdentityContext(B)
    suite = SuiteReport("identities", _check_ho_brackets(ctx))
    # (name, combos, x3 > x2, b > a, with phi^2(e_c))
    for spec in (("identity-4", _HO4_COMBOS, False, False, False),
                 ("identity-5", _HO5_COMBOS, True, False, True),
                 ("identity-6", _HO6_COMBOS, False, True, True)):
        suite.add(_check_ho_pairs(ctx, *spec))
    return suite


# --- centers --------------------------------------------------------------


@stored_on("_centers")
def centers(B: RinehartBundle) -> dict:
    """Z_L(A), the annihilator of L in A, and Z_rho(L), the x with
    [x, L, L] = 0 and rho(x, L) = 0, each on the data the window
    determines.

    The bracket rows of Z_rho(L) are read from `core3lie.by_index`:
    only the pairs i < j that a stored triple touches give rows, and a
    pair that a missing triple touches is left out.  An anchor operator
    rho(., e_j) that the window leaves undetermined leaves out its j.
    """
    n, m = B.L.n, B.A.dim
    act = B.act

    # annihilator of L inside A: rows indexed by usable (x, out-coord)
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

    # x with [x, L, L] = 0 and rho(x, L) = 0, on window-usable data;
    # the row of pair (i, j) at output r holds [e_x, e_i, e_j]_r at x
    at_pair: dict = {}
    for x, entries in enumerate(by_index(B.L)):
        for pq, entry in entries.items():
            at_pair.setdefault(pq, {})[x] = entry
    rows_l = []
    for pq in sorted(at_pair):
        entries = at_pair[pq]
        if None in entries.values():
            continue
        by_r: dict = {}
        for x, (vec, sign) in entries.items():
            for r, c in vec.items():
                by_r.setdefault(r, [0] * n)[x] = c if sign == 1 else -c
        rows_l.extend(tuple(by_r[r]) for r in sorted(by_r))
    for j in range(n):
        cols = []
        ok = True
        for x in range(n):
            pair_cols, sign = B.rho.pair(x, j)
            merged: SVec = {}
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
