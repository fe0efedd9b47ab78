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
e_j) phi for all m, j.  Both are read from the stored operators by
`exactq.pair_bilinear`, which shares what it can: where alpha e_i and
alpha e_j are single basis vectors, an operand's columns are a stored
operator's own list when the sign works out to 1 (else that list
scaled), and a zero column of a sum is one shared empty vector.  With
phi = Id they are kept as read; a zero operand is one shared tuple.
Each stored operator rho(e_c, e_d) also carries, per module index r,
the mask of its columns with r in their support, and the r that some
column reads (`masked_ops`, from `exactq.masks`).  A column k of a
product rho(alpha e_a, alpha e_b) rho(e_c, e_d) is undetermined when
column k of rho(e_c, e_d) is None or its support meets the None
columns of the outer factor, and can be nonzero only when its support
meets the outer's nonzero columns; the phi-terms, sums of rows
rho(e_m, alpha e_j) phi, OR the masks of their rows.  So a few ANDs
and ORs give each instance its undetermined columns, counted as
skipped, and the columns where some term may be nonzero.  An instance
with none of the latter is only counted as checked; the rest sum their
terms on those columns alone.  The bracket rows and their masks are
the algebra's (`core3lie.brackets`): a triple outside the bracket
window skips its hr2 instances in one step, and an hr3 instance skips
when a bracket it reads is missing.

hr2 lays the same masks out over every (x4, column) of a triple at
once (`_x4_masks`), so a triple costs a few ORs and two popcounts, and
only its (x4, column) instances that are determined and may be nonzero
reach arithmetic.

hr3 takes the instances (p, q) and (q, p) together.  Both compare
D = rho(alpha p) rho(q) - rho(alpha q) rho(p) with their phi-terms,
D = Phi(p, q) and -D = Phi(q, p), so D is composed once per unordered
pair.  It lays the masks out over the (q, column) bits of every q > p
at once, as hr2 does over (x4, column): per p, a few ORs of masks
built once per call (per module index for D, per (m, x) for Phi(p, q),
the bracket rows' `has` for Phi(q, p)) give both sides' undetermined
and possibly nonzero columns at every q, the skipped and checked
instances are counted by popcount, and only the q with a determined,
possibly nonzero column are visited.  The smallest MAX_FAILURES failure
keys (p, q, column) are kept with a count, so the witnesses are those
of a loop over every (p, q) in order.  hr4 uses the same product
kernel.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations

from .exactq import (
    MatrixQ,
    masks,
    mat_apply_sv,
    mat_columns_sv,
    ones,
    operand,
    pair_bilinear,
    qnorm,
    sv_axpy,
)
from .core3lie import Hom3Lie, PairRows, brackets
from .report import MAX_FAILURES, CheckReport, SuiteReport, stored_on

SVec = dict

Columns = list  # list[SVec | None], one per module basis vector

_EMPTY: SVec = {}


def op_zero(dim: int) -> Columns:
    return [{} for _ in range(dim)]


def op_compose(outer: Columns, inner: Columns) -> Columns:
    """outer after inner by columns, None where a column read is None;
    zero columns are the shared empty vector: never mutate the result."""
    cols = (col and mat_apply_sv(outer, col) for col in inner)
    return [col if col or col is None else _EMPTY for col in cols]


class PairAction:
    """Antisymmetric bilinear map L x L -> gl(V) on basis pairs.

    Columns are stored as `exactq.sv_table` stores its entries, without
    zero coefficients, and a zero operator is not stored, so two pair
    actions are the same map exactly when their stored operators agree.
    `_masked` holds the table of `masked_ops` once it is built.
    """

    __slots__ = ("dim_l", "dim_v", "ops", "_masked")

    def __init__(self, dim_l: int, dim_v: int, ops: dict | None = None):
        self.dim_l = dim_l
        self.dim_v = dim_v
        self.ops: dict = {}
        at = {p: p for p in range(dim_v)}  # KeyError for a bad index
        try:
            for (i, j), op in (ops or {}).items():
                if not 0 <= i < j < dim_l:
                    raise ValueError(f"pair key {(i, j)} is not ordered")
                op = [None if c is None else
                      {at[p]: qnorm(x) for p, x in c.items() if x != 0}
                      for c in op]
                if len(op) != dim_v:
                    raise ValueError("operator shape mismatch")
                if any(c is None or c for c in op):
                    self.ops[(i, j)] = op
        except KeyError as exc:
            raise ValueError(f"column index {exc} out of range") from None

    def pair(self, i: int, j: int):
        """(columns, sign) for rho(e_i, e_j)."""
        if i == j:
            return op_zero(self.dim_v), 1
        if i < j:
            return self.ops.get((i, j)) or op_zero(self.dim_v), 1
        return self.ops.get((j, i)) or op_zero(self.dim_v), -1

    def bilinear(self, u: SVec, v: SVec) -> Columns:
        """Columns of rho(u, v) for sparse vectors u, v, shared as
        `exactq.pair_bilinear` shares them."""
        return pair_bilinear(self.ops, self.dim_v, u, v)

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


def _operand(cols: Columns, zero: tuple) -> tuple:
    """`exactq.operand` of cols, or zero when every column is zero."""
    cols, none, nonzero = operand(cols)
    return (cols, none, nonzero) if none or nonzero else zero


@stored_on("_alpha_pairs", owner=1)
def _alpha_pair_table(alg: Hom3Lie, rep: HomRepresentation) -> dict:
    """rho(alpha e_i, alpha e_j) for i < j as `exactq.operand`s, kept
    with rep per algebra; the zero ones share one operand."""
    act = rep.action
    acols = alg._alpha_cols
    zero = ([_EMPTY] * act.dim_v, 0, 0)
    return {(i, j): _operand(act.bilinear(acols[i], acols[j]), zero)
            for i, j in combinations(range(alg.n), 2)}


@stored_on("_masked")
def masked_ops(act: PairAction) -> dict:
    """Each stored operator rho(e_i, e_j), i < j, as its columns with
    their `exactq.masks` and the module indices some column reads:
    (columns, none, nonzero, has, reads), has[r] the columns with r in
    their support.  Built once per pair action and kept with it, so
    every anchor kernel shares it; it must not be mutated."""
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
            col = o_cols[r]
            if col:
                sv_axpy(out, sign * c, col)


def _add_phi(acc: dict, rmp: dict, terms) -> None:
    """acc[k] += that sum at column k, for the columns k of acc."""
    for vec, y, s in terms:
        for m, c in vec.items():
            cols, _, nonzero = rmp[(m, y)]
            if nonzero:
                for k, out in acc.items():
                    if cols[k]:
                        sv_axpy(out, s * c, cols[k])


def _differ(rmp: dict, phi, prods, want: int) -> list:
    """The columns in the mask want, each determined, where the
    phi-terms (as for `_add_phi`) and the sum of the non-None
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


def _check_hr3(br: PairRows, ra: dict, rmp: dict, sparse: dict,
               dim_v: int) -> CheckReport:
    """hr3 over the pairs p <= q, each composing D once for the
    instances (p, q) and (q, p); see the module docstring.

    Per p, masks over the (q, column k) bits of every q > p, bit
    q * dim_v + k as hr2 lays out (x4, k), give both sides'
    undetermined and possibly nonzero columns in a few ORs:

    - D: rho(alpha p) rho(q) has the None columns of rho(q) and those
      whose support meets the None (nonzero) columns of rho(alpha p),
      from per-r masks of the stored operators; rho(alpha q) rho(p)
      has rho(p)'s column masks spread over every q, ANDed with per-r
      masks of the q whose rho(alpha q) is None (nonzero) at r.
    - Phi(p, q): for x outside p and m in [p, e_x], the column masks
      of rho(e_m, alpha e_y) phi placed at the pairs {x, y}
      (`_placed`, built once per (m, x)).
    - Phi(q, p): for each m, the pairs whose row at x1 (x2) has m in
      its support (`PairRows.has`), each given the column masks of
      rho(e_m, alpha e_x2) phi (of rho(e_m, alpha e_x1) phi).
    - A side is dead, all its columns skipped, where the bracket window
      leaves a row it reads None: (p, q) where row p is None at an
      index of q, (q, p) where row q is None at x1 or x2.

    The undetermined columns are skipped and the rest checked, both by
    popcount.  Only the q with a determined, possibly nonzero column
    are visited, in ascending order; they sum their terms on those
    columns alone.  The smallest MAX_FAILURES failure keys (p, q,
    column) are kept with a count, so the witnesses are those of a loop
    over every (p, q) in order.
    """
    rows, pairs, has = br.rows, br.pairs, br.has
    n, count = len(br.none_at), len(pairs)
    full = (1 << dim_v) - 1
    # per module index r: the columns of the stored rho(q) with r in
    # their support, and the pairs q whose rho(alpha q) is None
    # (nonzero) at r; holding[k]: the pairs that contain k
    op_none, op_has = 0, [0] * dim_v
    ra_none, ra_nonzero = [0] * dim_v, [0] * dim_v
    holding = [0] * n
    unit = 0
    for iq, q in enumerate(pairs):
        shift = iq * dim_v
        unit |= 1 << shift
        holding[q[0]] |= full << shift
        holding[q[1]] |= full << shift
        _, none, nonzero = ra[q]
        for r in ones(none):
            ra_none[r] |= full << shift
        for r in ones(nonzero):
            ra_nonzero[r] |= full << shift
        op = sparse.get(q)
        if op is not None:
            op_none |= op[1] << shift
            for r in op[4]:
                op_has[r] |= op[3][r] << shift
    none_at = [0] * n
    for x, at in enumerate(br.none_at):
        for iq in ones(at):
            none_at[x] |= full << iq * dim_v
    # the (m, y) with rho(e_m, alpha e_y) phi not zero, with its (None,
    # nonzero) column masks, listed by y and by m
    acting, by_m = [[] for _ in range(n)], [[] for _ in range(n)]
    for (m, y), (_, c_none, c_nonzero) in rmp.items():
        if c_none or c_nonzero:
            acting[y].append((m, c_none, c_nonzero))
            by_m[m].append((y, c_none, c_nonzero))
    # placed[m * n + x]: `_placed` of (m, x), from its first use to its
    # last, the last pair whose row at x has m in its support
    placed: dict = {}
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
        # D = rho(alpha p) rho(q) - rho(alpha q) rho(p)
        _, a_none, a_nonzero = ra_p
        d_none, d_nonzero = op_none, 0
        for r in ones(a_none):
            d_none |= op_has[r]
        for r in ones(a_nonzero):
            d_nonzero |= op_has[r]
        if op_p is not None:
            _, none, _, p_has, reads = op_p
            d_none |= none * unit
            for r in reads:
                at = p_has[r] * unit
                d_none |= at & ra_none[r]
                d_nonzero |= at & ra_nonzero[r]
        # Phi(p, q), and (p, q) dead where row p is None at x3 or x4
        dead_1 = none_1 = nonzero_1 = 0
        for k in ones(br.masks[p][0]):
            dead_1 |= holding[k]
        for x in ones(br.masks[p][1]):
            for m in row_p[x]:
                got = placed.get(m * n + x)
                if got is None:
                    got = placed[m * n + x] = _placed(by_m[m], n, dim_v, x)
                if not has[x][m] >> ip + 1:
                    del placed[m * n + x]
                none_1 |= got[0]
                nonzero_1 |= got[1]
        # from here on bit j * dim_v + k is column k of q = pairs[ip+1+j]
        after, lo = ip + 1, (ip + 1) * dim_v
        d_none >>= lo
        d_nonzero >>= lo
        dead_1 >>= lo
        none_1 >>= lo
        nonzero_1 >>= lo
        # Phi(q, p), and (q, p) dead where row q is None at x1 or x2
        dead_2 = (none_at[x1] | none_at[x2]) >> lo
        none_2 = nonzero_2 = 0
        for x, y in ((x1, x2), (x2, x1)):
            has_x = has[x]
            for m, c_none, c_nonzero in acting[y]:
                at = has_x[m] >> after
                while at:
                    low = at & -at
                    shift = (low.bit_length() - 1) * dim_v
                    if c_none:
                        none_2 |= c_none << shift
                    if c_nonzero:
                        nonzero_2 |= c_nonzero << shift
                    at ^= low
        none_1 = (d_none | none_1) & ~dead_1
        none_2 = (d_none | none_2) & ~dead_2
        gaps = (dead_1.bit_count() + dead_2.bit_count()
                + none_1.bit_count() + none_2.bit_count())
        skipped += gaps
        checked += 2 * (count - after) * dim_v - gaps
        want_1 = (d_nonzero | nonzero_1) & ~(dead_1 | none_1)
        want_2 = (d_nonzero | nonzero_2) & ~(dead_2 | none_2)
        live = want_1 | want_2
        while live:
            j = ((live & -live).bit_length() - 1) // dim_v
            shift = j * dim_v
            live = live >> shift + dim_v << shift + dim_v
            iq = after + j
            q = pairs[iq]
            want_p, want_q = want_1 >> shift & full, want_2 >> shift & full
            d = {k: {} for k in ones((want_p | want_q) & d_nonzero >> shift)}
            if d and q in sparse:
                _add_product(d, ra_p, sparse[q], 1)
            if d and op_p is not None:
                _add_product(d, ra[q], op_p, -1)
            # (p, q): Phi(p, q) - D, (q, p): Phi(q, p) + D
            if want_p:
                x3, x4 = q
                failed += _hr3_side(kept, (ip, iq), rmp, (
                    (row_p[x3], x4, 1), (row_p[x4], x3, -1)), d, -1, want_p)
            if want_q:
                row_q = rows[q]
                failed += _hr3_side(kept, (iq, ip), rmp, (
                    (row_q[x1], x2, 1), (row_q[x2], x1, -1)), d, 1, want_q)
    r3 = CheckReport("hr3")
    r3.skip(skipped)
    r3.tick(checked)
    for ip, iq, k in kept:
        r3.record({"pairs": [list(pairs[ip]), list(pairs[iq])], "column": k})
    r3.failure_count = failed
    return r3


def _hr3_side(kept: list, key: tuple, rmp: dict, terms, d: dict, sign,
              want: int) -> int:
    """One side of hr3, its phi-terms plus sign D, summed on the
    columns in want; keeps the failing (key, column)s (`_keep`) and
    returns how many there are."""
    acc = {k: {} for k in ones(want)}
    _add_phi(acc, rmp, terms)
    failed = 0
    for k, out in acc.items():
        sv_axpy(out, sign, d.get(k))
        if out:
            failed += 1
            _keep(kept, (*key, k))
    return failed


def _placed(terms: list, n: int, dim_v: int, x: int) -> tuple:
    """The (None, nonzero) column masks of rho(e_m, alpha e_y) phi, for
    the terms (y, None, nonzero) of one m with y != x, at the (pair,
    column) bits of the pair {x, y}."""
    none = nonzero = 0
    for y, c_none, c_nonzero in terms:
        if y != x:
            a, b = (x, y) if x < y else (y, x)
            shift = (a * (2 * n - a - 1) // 2 + b - a - 1) * dim_v
            none |= c_none << shift
            nonzero |= c_nonzero << shift
    return none, nonzero


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


def check_hr1(alg: Hom3Lie, rep: HomRepresentation) -> CheckReport:
    """hr1, rho(alpha x1, alpha x2) phi = phi rho(x1, x2), on the basis
    pairs x1 < x2, column by column."""
    ra = _alpha_pair_table(alg, rep)
    act, phi = rep.action, rep._phi_cols
    r1 = CheckReport("hr1")
    for i, j in combinations(range(alg.n), 2):
        lhs = op_compose(ra[(i, j)][0], phi)
        raw, _ = act.pair(i, j)
        _compare_columns(r1, {"pair": [i, j]}, lhs, op_compose(phi, raw))
    return r1


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
    # these rows, since composing with phi distributes over the sum;
    # the zero ones share one operand.
    phi_id = all(col == {k: 1} for k, col in enumerate(phi))
    zero = ([_EMPTY] * dim_v, 0, 0)
    rmp = {}
    for m in range(n):
        for j in range(n):
            cols = act.bilinear({m: 1}, acols[j])
            rmp[(m, j)] = _operand(
                cols if phi_id else op_compose(cols, phi), zero)
    br = brackets(alg)
    sparse = masked_ops(act)

    r1 = check_hr1(alg, rep)
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
