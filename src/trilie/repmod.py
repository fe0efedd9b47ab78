"""Pair actions and representation axioms for (Hom) 3-Lie algebras.

A pair action stores the operators R_ij = rho(e_i, e_j) for i < j only;
other index orders are recovered from antisymmetry.  Operators are kept
as lists of columns (sparse vectors over the module), and a column may
be None when a windowed corpus does not determine it.  Checks then count
the affected (tuple, column) instances as skipped.

check_hom_rep settles most instances of hr2 and hr3 by bit masks,
before any arithmetic, in the mask vocabulary of `exactq`.  Its
operands are built once per call, each an `exactq.operand` (its
columns with one int mask of its None columns and one of its nonzero
columns): rho(alpha e_i, alpha e_j) for i < j (kept with the
representation per algebra, so check_hr4 reuses it) and rho(e_m, alpha
e_j) phi for all m, j.  Each stored operator rho(e_c, e_d) also
carries, per module index r, the mask of its columns with r in their
support, and the r that some column reads (`masked_ops`, from
`exactq.masks`).  A column k of a product rho(alpha e_a, alpha e_b)
rho(e_c, e_d) is undetermined when column k of rho(e_c, e_d) is None
or its support meets the None columns of the outer factor, and can be
nonzero only when its support meets the outer's nonzero columns; the
phi-terms, sums of rows rho(e_m, alpha e_j) phi, OR the masks of their
rows.  So a few ANDs and ORs give each instance its undetermined
columns, counted as skipped, and the columns where some term may be
nonzero.  An instance with none of the latter is only counted as
checked; the rest sum their terms on those columns alone.  The bracket
rows and their masks are the algebra's (`core3lie.brackets`): a triple
outside the bracket window skips its hr2 instances in one step, and
hr3 skips (p, q) when [p, q_1] or [p, q_2] is missing.

hr2 lays the same masks out over every (x4, column) of a triple at
once (`_x4_masks`), so a triple costs a few ORs and two popcounts, and
only its (x4, column) instances that are determined and may be nonzero
reach arithmetic.

hr3 takes the instances (p, q) and (q, p) together.  Both compare
D = rho(alpha p) rho(q) - rho(alpha q) rho(p) with their phi-terms,
D = Phi(p, q) and -D = Phi(q, p), so D is composed once per unordered
pair.  For each p, two masks over the pairs q > p mark the sides the
bracket window leaves undetermined; their popcounts are skipped, and
only the q with a determined side are visited.  The smallest
MAX_FAILURES failure keys (p, q, column) are kept with a count, so the
witnesses are those of a loop over every (p, q) in order.  hr4 uses
the same product kernel.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations

from .exactq import (
    MatrixQ,
    SubspaceQ,
    kernel_basis,
    masks,
    mat_columns_sv,
    ones,
    operand,
    qnorm,
    sv_axpy,
    sv_scale,
)
from .core3lie import Hom3Lie, PairRows, brackets
from .report import MAX_FAILURES, CheckReport, SuiteReport, stored_on

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


# -- Hom representation axioms -----------------------------------------


@stored_on("_alpha_pairs", owner=1)
def _alpha_pair_table(alg: Hom3Lie, rep: HomRepresentation) -> dict:
    """rho(alpha e_i, alpha e_j) for i < j as `exactq.operand`s, kept
    with rep per algebra."""
    act = rep.action
    acols = alg._alpha_cols
    return {(i, j): operand(act.bilinear(acols[i], acols[j]))
            for i, j in combinations(range(alg.n), 2)}


def masked_ops(act: PairAction) -> dict:
    """Each stored operator rho(e_i, e_j), i < j, as its columns with
    their `exactq.masks` and the module indices some column reads:
    (columns, none, nonzero, has, reads), has[r] the columns with r in
    their support."""
    out = {}
    for key, op in act.ops.items():
        none, nonzero, has = masks(op, act.dim_v)
        reads = tuple(r for r, at in enumerate(has) if at)
        out[key] = op, none, nonzero, has, reads
    return out


def _product(ra: dict, sparse: dict, a: int, b: int, c: int, d: int):
    """rho(alpha e_a, alpha e_b) rho(e_c, e_d) as (outer, inner, sign),
    inner from `masked_ops`, or None when it is the zero operator
    whatever the tables hold: an index repeats, or rho(e_c, e_d) is not
    stored."""
    if a == b or c == d:
        return None
    inner = sparse.get((c, d) if c < d else (d, c))
    if inner is None:
        return None
    sign = 1 if c < d else -1
    if a > b:
        a, b, sign = b, a, -sign
    return ra[(a, b)], inner, sign


def _product_masks(outer: tuple, inner: tuple) -> tuple[int, int]:
    """(undetermined, possibly nonzero) columns of a product: inner's
    None columns and those whose support meets outer's None columns,
    and those whose support meets outer's nonzero columns.  The second
    may hold undetermined columns; every caller clears them."""
    _, o_none, o_nonzero = outer
    _, none, _, has, reads = inner
    nonzero = 0
    for r in reads:
        if o_none >> r & 1:
            none |= has[r]
        elif o_nonzero >> r & 1:
            nonzero |= has[r]
    return none, nonzero


def _add_product(acc: dict, outer: tuple, inner: tuple, sign) -> None:
    """acc[k] += sign (outer inner)[k] for the columns k of acc, which
    the masks have shown determined."""
    o_cols, cols = outer[0], inner[0]
    for k, out in acc.items():
        for r, c in cols[k].items():
            if o_cols[r]:
                sv_axpy(out, sign * c, o_cols[r])


def _phi_masks(rmp: dict, terms) -> tuple[int, int]:
    """(undetermined, possibly nonzero) columns of the sum of
    s rho(vec, alpha e_y) phi over the terms (vec, y, s)."""
    none = nonzero = 0
    for vec, y, _ in terms:
        for m in vec:
            _, m_none, m_nonzero = rmp[(m, y)]
            none |= m_none
            nonzero |= m_nonzero
    return none, nonzero


def _add_phi(acc: dict, rmp: dict, terms) -> None:
    """acc[k] += that sum at column k, for the columns k of acc."""
    for vec, y, s in terms:
        for m, c in vec.items():
            cols = rmp[(m, y)][0]
            for k, out in acc.items():
                if cols[k]:
                    sv_axpy(out, s * c, cols[k])


def _differ(rmp: dict, phi, prods, want: int) -> list:
    """The columns in the mask want, each determined, where the
    phi-terms (as for `_phi_masks`) and the sum of the non-None
    `_product`s prods differ."""
    acc = {k: {} for k in ones(want)}
    _add_phi(acc, rmp, phi)
    for outer, inner, sign in prods:
        _add_product(acc, outer, inner, -sign)
    return [k for k, out in acc.items() if out]


def _settle(prods) -> tuple[int, list]:
    """One instance of 0 = sum of products, settled by masks first:
    the number of undetermined columns and the determined columns
    where the sum is not zero."""
    none = nonzero = 0
    for outer, inner, _ in prods:
        p_none, p_nonzero = _product_masks(outer, inner)
        none |= p_none
        nonzero |= p_nonzero
    want = nonzero & ~none
    return none.bit_count(), _differ({}, (), prods, want) if want else []


def _keep(kept: list, key) -> None:
    """Insert key into the sorted list kept, holding its MAX_FAILURES
    smallest keys."""
    if len(kept) < MAX_FAILURES:
        insort(kept, key)
    elif key < kept[-1]:
        insort(kept, key)
        kept.pop()


def _d_masks(ra_p: tuple, op_p, ra_q: tuple, op_q) -> tuple[int, int]:
    """(undetermined, possibly nonzero) columns of D = rho(alpha p)
    rho(q) - rho(alpha q) rho(p), op_p and op_q from `masked_ops` or
    None when not stored."""
    none = nonzero = 0
    if op_q is not None:
        none, nonzero = _product_masks(ra_p, op_q)
    if op_p is not None:
        q_none, q_nonzero = _product_masks(ra_q, op_p)
        none |= q_none
        nonzero |= q_nonzero
    return none, nonzero


def _check_hr3(br: PairRows, ra: dict, rmp: dict, sparse: dict,
               dim_v: int) -> CheckReport:
    """hr3 over the pairs p <= q, each composing D once for the
    instances (p, q) and (q, p); see the module docstring.

    Per p, two masks over the pairs q > p settle the sides the bracket
    window leaves undetermined: (p, q) when row p is None at an index
    of q (the OR of `holding` over row p's None bits), (q, p) when row
    q is None at x1 or x2 (`none_at`).  Their popcounts are skipped,
    and only the q with a determined side are visited, in ascending
    order.
    """
    rows, pairs = br.rows, br.pairs
    # holding[k]: the pairs that contain k, bit b for pairs[b]
    holding = [0] * len(br.none_at)
    for b, (i, j) in enumerate(pairs):
        holding[i] |= 1 << b
        holding[j] |= 1 << b
    every = (1 << len(pairs)) - 1
    kept: list = []
    failed = skipped = checked = 0
    for ip, p in enumerate(pairs):
        x1, x2 = p
        row_p, ra_p, op_p = rows[p], ra[p], sparse.get(p)
        # (p, p): D = 0 and both brackets repeat an index
        if op_p is not None:
            gaps = _product_masks(ra_p, op_p)[0].bit_count()
            skipped += gaps
            checked -= gaps
        checked += dim_v
        after = every >> (ip + 1) << (ip + 1)
        dead_1 = 0
        for k in ones(br.masks[p][0]):
            dead_1 |= holding[k]
        dead_1 &= after
        dead_2 = (br.none_at[x1] | br.none_at[x2]) & after
        skipped += dim_v * (dead_1.bit_count() + dead_2.bit_count())
        for iq in ones(after & ~(dead_1 & dead_2)):
            # the sides the bracket window determines, as (key,
            # phi-terms, sign of D in rhs - lhs)
            q = pairs[iq]
            sides = []
            if not dead_1 >> iq & 1:
                x3, x4 = q
                sides.append(((ip, iq), ((row_p[x3], x4, 1),
                                         (row_p[x4], x3, -1)), -1))
            if not dead_2 >> iq & 1:
                row_q = rows[q]
                sides.append(((iq, ip), ((row_q[x1], x2, 1),
                                         (row_q[x2], x1, -1)), 1))
            # D = rho(alpha p) rho(q) - rho(alpha q) rho(p)
            ra_q, op_q = ra[q], sparse.get(q)
            d_none, d_nonzero = _d_masks(ra_p, op_p, ra_q, op_q)
            wants = []
            for key, phi, sign in sides:
                none, nonzero = _phi_masks(rmp, phi)
                none |= d_none
                gaps = none.bit_count()
                skipped += gaps
                checked += dim_v - gaps
                want = (nonzero | d_nonzero) & ~none
                if want:
                    wants.append((key, phi, sign, want))
            if not wants:
                continue
            cols = 0
            for *_, want in wants:
                cols |= want
            d = {k: {} for k in ones(cols & d_nonzero)}
            if d and op_q is not None:
                _add_product(d, ra_p, op_q, 1)
            if d and op_p is not None:
                _add_product(d, ra_q, op_p, -1)
            for key, phi, sign, want in wants:
                acc = {k: {} for k in ones(want)}
                _add_phi(acc, rmp, phi)
                for k, out in acc.items():
                    sv_axpy(out, sign, d.get(k))
                    if out:
                        failed += 1
                        _keep(kept, (*key, k))
    r3 = CheckReport("hr3")
    r3.skip(skipped)
    r3.tick(checked)
    for ip, iq, k in kept:
        r3.record({"pairs": [list(pairs[ip]), list(pairs[iq])], "column": k})
    r3.failure_count = failed
    return r3


def _x4_masks(n: int, dim_v: int, rmp: dict, sparse: dict):
    """Masks over the (x4, column k) bits x4 * dim_v + k of hr2.

    Per m, the None and nonzero columns of rho(e_m, alpha e_x4) phi;
    per c, the None columns of rho(e_c, e_x4), and per c and module
    index r, its nonzero columns with r in their support.
    """
    phi_none, phi_nonzero = [0] * n, [0] * n
    for (m, x4), (_, none, nonzero) in rmp.items():
        phi_none[m] |= none << x4 * dim_v
        phi_nonzero[m] |= nonzero << x4 * dim_v
    inner_none = [0] * n
    inner_has = [[0] * dim_v for _ in range(n)]
    for (c, d), (_, none, _, has, _) in sparse.items():
        for u, x4 in ((c, d), (d, c)):
            shift = x4 * dim_v
            inner_none[u] |= none << shift
            u_has = inner_has[u]
            for r, cols in enumerate(has):
                u_has[r] |= cols << shift
    return phi_none, phi_nonzero, inner_none, inner_has


def _check_hr2(br: PairRows, ra: dict, rmp: dict, sparse: dict,
               dim_v: int) -> CheckReport:
    """hr2, rho([x1,x2,x3], alpha x4) phi = rho(a1,a2)rho(3,4)
    + rho(a2,a3)rho(1,4) + rho(a3,a1)rho(2,4), settled per triple by
    masks over every (x4, column) at once.

    A column of the left side is undetermined or possibly nonzero where
    a row rho(e_m, alpha e_x4) phi with m in the bracket's support is;
    a column of rho(alpha e_a, alpha e_b) rho(e_c, e_x4) where
    rho(e_c, e_x4) is None, or its support meets the None (or, for
    possibly nonzero, the nonzero) columns of the outer factor.  So a
    few ORs of the `_x4_masks` give all of a triple's undetermined and
    possibly nonzero (x4, column) instances: the first are skipped, the
    rest checked by popcount, and terms are summed only on the
    determined, possibly nonzero columns, x4 by x4 in ascending order.
    """
    n = len(br.none_at)
    phi_none, phi_nonzero, inner_none, inner_has = _x4_masks(
        n, dim_v, rmp, sparse)
    full = (1 << dim_v) - 1
    r2 = CheckReport("hr2")
    skipped = checked = 0
    for x1, x2, x3 in combinations(range(n), 3):
        b123 = br.rows[(x1, x2)][x3]
        if b123 is None:
            skipped += dim_v * n
            continue
        none = nonzero = 0
        for m in b123:
            none |= phi_none[m]
            nonzero |= phi_nonzero[m]
        for outer, c in (((x1, x2), x3), ((x2, x3), x1), ((x1, x3), x2)):
            _, o_none, o_nonzero = ra[outer]
            has = inner_has[c]
            none |= inner_none[c]
            for r in ones(o_none):
                none |= has[r]
            for r in ones(o_nonzero):
                nonzero |= has[r]
        gaps = none.bit_count()
        skipped += gaps
        checked += dim_v * n - gaps
        live = nonzero & ~none
        while live:
            x4 = next(ones(live)) // dim_v
            shift = x4 * dim_v
            want = live >> shift & full
            live ^= want << shift
            prods = [t for t in (_product(ra, sparse, x1, x2, x3, x4),
                                 _product(ra, sparse, x2, x3, x1, x4),
                                 _product(ra, sparse, x3, x1, x2, x4)) if t]
            for k in _differ(rmp, ((b123, x4, 1),), prods, want):
                r2.record({"triple": [x1, x2, x3], "x4": x4, "column": k})
    r2.skip(skipped)
    r2.tick(checked)
    return r2


@stored_on("_hom_rep", owner=1)
def check_hom_rep(alg: Hom3Lie, rep: HomRepresentation) -> SuiteReport:
    """hr1 on basis pairs, hr2 and hr3 on basis 4-tuples, hr2 and hr3
    settled by masks first (see the module docstring)."""
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
    rmp = {(m, j): operand(op_compose(act.bilinear({m: 1}, acols[j]), phi))
           for m in range(n) for j in range(n)}
    br = brackets(alg)
    sparse = masked_ops(act)

    # hr1: rho(alpha x1, alpha x2) phi = phi rho(x1, x2)
    r1 = CheckReport("hr1")
    for i, j in br.pairs:
        lhs = op_compose(ra[(i, j)][0], phi)
        raw, _ = act.pair(i, j)
        rhs = op_compose(phi, raw)
        _compare_columns(r1, {"pair": [i, j]}, lhs, rhs)

    r2 = _check_hr2(br, ra, rmp, sparse, dim_v)

    # hr3: rho(a x1, a x2) rho(x3, x4) = rho(a x3, a x4) rho(x1, x2)
    #      + rho([x1,x2,x3], a x4) phi + rho(a x3, [x1,x2,x4]) phi
    r3 = _check_hr3(br, ra, rmp, sparse, dim_v)
    return SuiteReport("hom-rep", [r1, r2, r3])


@stored_on("_hr4", owner=1)
def check_hr4(alg: Hom3Lie, rep: HomRepresentation) -> CheckReport:
    """The symmetric six-term identity equivalent to hr3 under hr2:

    0 = rho(a1,a2)rho(3,4) + rho(a2,a3)rho(1,4) + rho(a3,a1)rho(2,4)
      + rho(a3,a4)rho(1,2) + rho(a1,a4)rho(2,3) + rho(a2,a4)rho(3,1)

    Antisymmetric in (x1,x2) and in (x3,x4), symmetric under swapping
    the pairs, so tuples run over x1<x2, x3<x4, (x1,x2) <= (x3,x4).
    """
    ra = _alpha_pair_table(alg, rep)
    sparse = masked_ops(rep.action)
    dim_v = rep.action.dim_v
    rep4 = CheckReport("hr4")
    pairs = list(combinations(range(alg.n), 2))
    for ia, (a1, a2) in enumerate(pairs):
        for b1, b2 in pairs[ia:]:
            prods = [t for t in (_product(ra, sparse, a1, a2, b1, b2),
                                 _product(ra, sparse, a2, b1, a1, b2),
                                 _product(ra, sparse, b1, a1, a2, b2),
                                 _product(ra, sparse, b1, b2, a1, a2),
                                 _product(ra, sparse, a1, b2, a2, b1),
                                 _product(ra, sparse, a2, b2, b1, a1)) if t]
            gaps, bad = _settle(prods)
            rep4.skip(gaps)
            rep4.tick(dim_v - gaps)
            for k in bad:
                rep4.record({"pairs": [[a1, a2], [b1, b2]], "column": k})
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
