"""Pair actions and representation axioms for (Hom) 3-Lie algebras.

A pair action stores the operators R_ij = rho(e_i, e_j) for i < j only;
other index orders are recovered from antisymmetry.  Operators are kept
as lists of columns (sparse vectors over the module), and a column may
be None when a windowed corpus does not determine it.  Checks then count
the affected (tuple, column) instances as skipped.

check_hom_rep builds its operands once per call: rho(alpha e_i,
alpha e_j) for i < j (kept with the representation, so check_hr4
reuses it), rho(e_m, alpha e_j) phi for all m, j, the signed bracket
rows [e_i, e_j, .] and the nonzero columns of each stored operator.
The phi-terms of hr2 and hr3 are then sums of table rows, a triple
outside the bracket window skips its hr2 instances in one step, and a
product rho(alpha e_a, alpha e_b) rho(e_c, e_d) is composed only in
the columns that the rest of its law leaves determined.
"""

from __future__ import annotations

from itertools import combinations

from .exactq import (
    MatrixQ,
    SubspaceQ,
    kernel_basis,
    mat_columns_sv,
    qnorm,
    sv_axpy,
    sv_scale,
)
from .core3lie import Hom3Lie, bracket_rows
from .report import CheckReport, SuiteReport, stored_on

SVec = dict

Columns = list  # list[SVec | None], one per module basis vector


def op_zero(dim: int) -> Columns:
    return [{} for _ in range(dim)]


def op_apply(cols: Columns, vec: SVec):
    """Apply an operator to a sparse vector; None when undetermined."""
    out: SVec = {}
    for idx, coeff in vec.items():
        col = cols[idx]
        if col is None:
            return None
        sv_axpy(out, coeff, col)
    return out


def op_axpy(acc: Columns, scalar, cols: Columns) -> None:
    """acc += scalar * cols, column by column, None infecting per column."""
    if scalar == 0:
        return
    for c, col in enumerate(cols):
        if acc[c] is None:
            continue
        if col is None:
            acc[c] = None
        elif col:
            sv_axpy(acc[c], scalar, col)


def op_compose(outer: Columns, inner: Columns) -> Columns:
    return [col if col is None else op_apply(outer, col) if col else {}
            for col in inner]


class PairAction:
    """Antisymmetric bilinear map L x L -> gl(V) on basis pairs.

    Columns are stored as `exactq.sv_table` stores its entries, without
    zero coefficients, and a zero operator is not stored, so two pair
    actions are the same map exactly when their stored operators agree.
    """

    __slots__ = ("dim_l", "dim_v", "ops")

    def __init__(self, dim_l: int, dim_v: int, ops: dict | None = None):
        self.dim_l = dim_l
        self.dim_v = dim_v
        self.ops: dict = {}
        if ops:
            for (i, j), op in ops.items():
                if not 0 <= i < j < dim_l:
                    raise ValueError(f"pair key {(i, j)} is not ordered")
                op = [None if c is None else
                      {p: qnorm(x) for p, x in c.items() if x != 0}
                      for c in op]
                if len(op) != dim_v:
                    raise ValueError("operator shape mismatch")
                if any(c is None or c for c in op):
                    self.ops[(i, j)] = op

    def pair(self, i: int, j: int):
        """(columns, sign) for rho(e_i, e_j)."""
        if i == j:
            return op_zero(self.dim_v), 1
        if i < j:
            return self.ops.get((i, j)) or op_zero(self.dim_v), 1
        return self.ops.get((j, i)) or op_zero(self.dim_v), -1

    def bilinear(self, u: SVec, v: SVec) -> Columns:
        """Columns of rho(u, v) for sparse vectors u, v."""
        acc = op_zero(self.dim_v)
        for i, cu in u.items():
            for j, cv in v.items():
                if i == j:
                    continue
                cols, sign = self.pair(i, j)
                op_axpy(acc, cu * cv * sign, cols)
        return acc

    def __eq__(self, other) -> bool:
        return (isinstance(other, PairAction)
                and (self.dim_l, self.dim_v) == (other.dim_l, other.dim_v)
                and self.ops == other.ops)

    def __repr__(self) -> str:
        return f"PairAction({self.dim_l} wedge {self.dim_l} -> gl({self.dim_v}))"


class HomRepresentation:
    """A pair action together with the module twist phi.

    `_hom_rep` and `_hr4` hold the reports of check_hom_rep and
    check_hr4 once they have run, with the algebra they ran against,
    `_alpha_pairs` the table of rho(alpha e_i, alpha e_j) they share,
    and `_derivations` the report of rinehart.check_rho_derivations
    with its coefficient algebra.
    """

    __slots__ = ("action", "phi", "_phi_cols", "_alpha_pairs", "_hom_rep",
                 "_hr4", "_derivations")

    def __init__(self, action: PairAction, phi: MatrixQ):
        if phi.nrows != action.dim_v or phi.ncols != action.dim_v:
            raise ValueError("phi shape does not match the module")
        self.action = action
        self.phi = phi
        self._phi_cols = mat_columns_sv(phi)

    def __repr__(self) -> str:
        return f"HomRepresentation(dim_v={self.action.dim_v})"


# -- helpers shared by the axiom checkers ------------------------------


def _compare_columns(rep: CheckReport, witness, lhs: Columns, rhs: Columns) -> None:
    """Per-column comparison with skip accounting for undetermined columns."""
    if lhs == rhs:
        gaps = lhs.count(None)
    else:
        gaps = 0
        for c, (lcol, rcol) in enumerate(zip(lhs, rhs)):
            if lcol is None or rcol is None:
                gaps += 1
            elif lcol != rcol:
                rep.record(dict(witness, column=c))
    rep.skip(gaps)
    rep.tick(len(lhs) - gaps)


def _rho_on_vec_left(act: PairAction, vec: SVec, j: int) -> Columns:
    """Columns of rho(vec, e_j) for a sparse L-vector in the first slot."""
    acc = op_zero(act.dim_v)
    for m, coeff in vec.items():
        cols, sign = act.pair(m, j)
        op_axpy(acc, coeff * sign, cols)
    return acc


# -- Hom representation axioms -----------------------------------------


@stored_on("_alpha_pairs", owner=1)
def _alpha_pair_table(alg: Hom3Lie, rep: HomRepresentation) -> dict:
    """rho(alpha e_i, alpha e_j) for i < j, kept with rep per algebra."""
    act = rep.action
    acols = alg._alpha_cols
    return {(i, j): act.bilinear(acols[i], acols[j])
            for i, j in combinations(range(alg.n), 2)}


def _ra(table: dict, i: int, j: int):
    if i == j:
        return None, 0
    if i < j:
        return table[(i, j)], 1
    return table[(j, i)], -1


def _sparse_ops(act: PairAction) -> dict:
    """The (index, column) pairs of each stored operator that are not
    the zero column."""
    return {key: [(k, col) for k, col in enumerate(op) if col != {}]
            for key, op in act.ops.items()}


def _add_products(acc: Columns, ra: dict, sparse: dict, terms) -> None:
    """acc += rho(alpha e_a, alpha e_b) rho(e_c, e_d) over the terms.

    sparse holds the operators rho(e_c, e_d) as `_sparse_ops` gives
    them.  Only the columns of acc that are still determined are
    computed.  A term with a repeated index, or whose pair (c, d) has
    no stored operator, is the zero operator whatever the other factor
    holds, so it is not composed.
    """
    for (a, b), (c, d) in terms:
        if a == b or c == d:
            continue
        ocd = sparse.get((c, d) if c < d else (d, c))
        if ocd is None:
            continue
        oab, sab = _ra(ra, a, b)
        sign = sab if c < d else -sab
        for k, col in ocd:
            if acc[k] is None:
                continue
            out = None if col is None else op_apply(oab, col)
            if out is None:
                acc[k] = None
            else:
                sv_axpy(acc[k], sign, out)


def _beside(cols: Columns) -> Columns:
    """The zero operator, undetermined where cols is: the start of the
    other side of a law, whose columns there are skipped anyway."""
    return [None if col is None else {} for col in cols]


@stored_on("_hom_rep", owner=1)
def check_hom_rep(alg: Hom3Lie, rep: HomRepresentation) -> SuiteReport:
    """hr1 on basis pairs, hr2 and hr3 on basis 4-tuples."""
    act = rep.action
    if act.dim_l != alg.n:
        raise ValueError("action source dimension mismatch")
    n = alg.n
    dim_v = act.dim_v
    phi = rep._phi_cols
    acols = alg._alpha_cols
    ra = _alpha_pair_table(alg, rep)
    # rho(e_m, alpha e_j) phi: the phi-terms of hr2 and hr3 are sums of
    # these rows, since composing with phi distributes over the sum
    rmp = {(m, j): op_compose(act.bilinear({m: 1}, acols[j]), phi)
           for m in range(n) for j in range(n)}
    rows = bracket_rows(alg.sc)
    sparse = _sparse_ops(act)
    pairs = list(combinations(range(n), 2))

    # hr1: rho(alpha x1, alpha x2) phi = phi rho(x1, x2)
    r1 = CheckReport("hr1")
    for i, j in pairs:
        lhs = op_compose(ra[(i, j)], phi)
        raw, _ = act.pair(i, j)
        rhs = op_compose(phi, raw)
        _compare_columns(r1, {"pair": [i, j]}, lhs, rhs)

    # hr2: rho([x1,x2,x3], alpha x4) phi =
    #      rho(a1,a2)rho(3,4) + rho(a2,a3)rho(1,4) + rho(a3,a1)rho(2,4)
    r2 = CheckReport("hr2")
    for x1, x2, x3 in combinations(range(n), 3):
        b123 = rows[(x1, x2)][x3]
        if b123 is None:
            r2.skip(dim_v * n)
            continue
        for x4 in range(n):
            lhs = op_zero(dim_v)
            for m, coeff in b123.items():
                op_axpy(lhs, coeff, rmp[(m, x4)])
            rhs = _beside(lhs)
            _add_products(rhs, ra, sparse, (((x1, x2), (x3, x4)),
                                            ((x2, x3), (x1, x4)),
                                            ((x3, x1), (x2, x4))))
            _compare_columns(r2, {"triple": [x1, x2, x3], "x4": x4}, lhs, rhs)

    # hr3: rho(a x1, a x2) rho(x3, x4) = rho(a x3, a x4) rho(x1, x2)
    #      + rho([x1,x2,x3], a x4) phi + rho(a x3, [x1,x2,x4]) phi
    r3 = CheckReport("hr3")
    for x1, x2 in pairs:
        row = rows[(x1, x2)]
        for x3, x4 in pairs:
            b123, b124 = row[x3], row[x4]
            if b123 is None or b124 is None:
                r3.skip(dim_v)
                continue
            # the phi-terms first: no product is composed where they
            # are undetermined
            rhs = op_zero(dim_v)
            for m, coeff in b123.items():
                op_axpy(rhs, coeff, rmp[(m, x4)])
            # rho(a x3, vec) = -rho(vec, a x3)
            for m, coeff in b124.items():
                op_axpy(rhs, -coeff, rmp[(m, x3)])
            lhs = _beside(rhs)
            _add_products(lhs, ra, sparse, (((x1, x2), (x3, x4)),))
            rhs = [None if col is None else r for col, r in zip(lhs, rhs)]
            _add_products(rhs, ra, sparse, (((x3, x4), (x1, x2)),))
            _compare_columns(r3, {"pairs": [[x1, x2], [x3, x4]]}, lhs, rhs)

    return SuiteReport("hom-rep", [r1, r2, r3])


@stored_on("_hr4", owner=1)
def check_hr4(alg: Hom3Lie, rep: HomRepresentation) -> CheckReport:
    """The symmetric six-term identity equivalent to hr3 under hr2:

    0 = rho(a1,a2)rho(3,4) + rho(a2,a3)rho(1,4) + rho(a3,a1)rho(2,4)
      + rho(a3,a4)rho(1,2) + rho(a1,a4)rho(2,3) + rho(a2,a4)rho(3,1)

    Antisymmetric in (x1,x2) and in (x3,x4), symmetric under swapping
    the pairs, so tuples run over x1<x2, x3<x4, (x1,x2) <= (x3,x4).
    """
    act = rep.action
    ra = _alpha_pair_table(alg, rep)
    sparse = _sparse_ops(act)
    rep4 = CheckReport("hr4")
    pairs = list(combinations(range(alg.n), 2))
    for a1, a2 in pairs:
        for b1, b2 in pairs:
            if (b1, b2) < (a1, a2):
                continue
            acc = op_zero(act.dim_v)
            _add_products(acc, ra, sparse, (
                ((a1, a2), (b1, b2)),
                ((a2, b1), (a1, b2)),
                ((b1, a1), (a2, b2)),
                ((b1, b2), (a1, a2)),
                ((a1, b2), (a2, b1)),
                ((a2, b2), (b1, a1)),
            ))
            _compare_columns(
                rep4, {"pairs": [[a1, a2], [b1, b2]]}, acc, op_zero(act.dim_v)
            )
    return rep4


def check_hr4_equivalence(alg: Hom3Lie, rep: HomRepresentation) -> CheckReport:
    """Whether hr3 and hr4 agree, assuming hr2.

    Blocked (not pass, not fail) when hr2 itself fails, since the
    equivalence is only claimed under hr2.
    """
    out = CheckReport("hr4-equivalence")
    suite = check_hom_rep(alg, rep)
    hr2 = suite.find("hr2")
    if hr2.passed is not True:
        out.block("hr2 failed; equivalence untested")
        return out
    hr3 = suite.find("hr3")
    hr4 = check_hr4(alg, rep)
    out.tick(hr3.checked + hr4.checked)
    out.skip(hr3.skipped + hr4.skipped)
    agree = (hr3.passed is True) == (hr4.passed is True)
    if not agree:
        out.record({"hr3": hr3.status, "hr4": hr4.status})
    out.detail = f"hr3 {hr3.status}, hr4 {hr4.status}"
    return out


def kernel_of_rep(alg: Hom3Lie, act: PairAction) -> tuple[SubspaceQ, int]:
    """{x : rho(x, e_j) = 0 for all j}, restricted to coordinates whose
    operators the window fully determines; the second component counts
    excluded coordinates (0 means the kernel is exact)."""
    n = alg.n
    usable = []
    for m in range(n):
        good = True
        for j in range(n):
            if j == m:
                continue
            cols, _ = act.pair(m, j)
            if any(c is None for c in cols):
                good = False
                break
        if good:
            usable.append(m)
    rows = []
    for j in range(n):
        for c in range(act.dim_v):
            outputs = []
            for m in usable:
                cols, sign = act.pair(m, j)
                col = cols[c] if m != j else {}
                outputs.append(sv_scale(col, sign) if sign == -1 else col)
            support = sorted({r for out in outputs for r in out})
            for r in support:
                rows.append([out.get(r, 0) for out in outputs])
    vecs = []
    for kv in kernel_basis(rows, len(usable)):
        dense = [0] * n
        for pos, m in enumerate(usable):
            dense[m] = kv[pos]
        vecs.append(tuple(dense))
    return SubspaceQ(n, vecs), n - len(usable)
