"""Finite-dimensional (Hom) 3-Lie algebras given by structure constants.

Brackets are stored only for ordered basis triples i < j < k; arbitrary
index orders pick up the permutation sign and repeated indices vanish.
Checking the axioms on basis tuples is complete because every axiom here
is multilinear.

Windowed algebras (truncations of infinite-dimensional examples) may
declare some triples as missing: evaluation involving a missing entry
returns None and the checkers count the instance as skipped instead of
passing or failing it.
"""

from __future__ import annotations

from itertools import combinations

from .exactq import (
    MatrixQ,
    masks,
    mat_apply_sv,
    mat_columns_sv,
    ones,
    pair_bilinear,
    qnorm,
    sv_axpy,
    sv_scale,
)
from .report import CheckReport, stored_on

SVec = dict

_EMPTY: SVec = {}


def sort3(i: int, j: int, k: int):
    """Sorted triple plus permutation sign; None for repeated indices."""
    if i == j or j == k or i == k:
        return None, 0
    sign = 1
    if i > j:
        i, j = j, i
        sign = -sign
    if j > k:
        j, k = k, j
        sign = -sign
    if i > j:
        i, j = j, i
        sign = -sign
    return (i, j, k), sign


class StructureConstants3:
    """Sparse antisymmetric ternary bracket table."""

    __slots__ = ("n", "table", "missing")

    def __init__(self, n: int, table: dict | None = None, missing=()):
        self.n = n
        self.table: dict = {}
        self.missing = frozenset(missing)
        for key in self.missing:
            i, j, k = key
            if not (0 <= i < j < k < n):
                raise ValueError(f"missing key {key} is not an ordered triple")
        if table:
            for key, vec in table.items():
                i, j, k = key
                if not (0 <= i < j < k < n):
                    raise ValueError(f"table key {key} is not an ordered triple")
                if key in self.missing:
                    raise ValueError(f"triple {key} is both stored and missing")
                entry = {m: qnorm(c) for m, c in vec.items() if c != 0}
                if any(not 0 <= m < n for m in entry):
                    raise ValueError(f"entry for {key} leaves the space")
                if entry:
                    self.table[key] = entry

    def lookup(self, i: int, j: int, k: int):
        """(vector, sign) with vector None when the triple is missing.

        The returned dict is shared; callers must not mutate it.
        """
        key, sign = sort3(i, j, k)
        if sign == 0:
            return _EMPTY, 1
        if key in self.missing:
            return None, sign
        return self.table.get(key, _EMPTY), sign

    def trilinear(self, u: SVec, v: SVec, w: SVec):
        """Bracket of arbitrary sparse vectors, None if a needed entry is missing."""
        acc: SVec = {}
        for i, cu in u.items():
            for j, cv in v.items():
                if j == i:
                    continue
                cuv = cu * cv
                for k, cw in w.items():
                    if k == i or k == j:
                        continue
                    vec, sign = self.lookup(i, j, k)
                    if vec is None:
                        return None
                    if vec:
                        sv_axpy(acc, cuv * cw * sign, vec)
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureConstants3)
            and self.n == other.n
            and self.table == other.table
            and self.missing == other.missing
        )

    def __repr__(self) -> str:
        return (
            f"StructureConstants3(n={self.n}, entries={len(self.table)},"
            f" missing={len(self.missing)})"
        )


class Hom3Lie:
    """A bracket table together with a linear twist map alpha.

    `_brackets` and `_by_index` hold its bracket rows and its per-index
    view of the table once a caller has read them, and the last three
    fields the reports of check_jacobi, check_hom_jacobi and
    check_multiplicative once they have run.
    """

    __slots__ = ("sc", "alpha", "_alpha_cols", "_brackets", "_by_index",
                 "_jacobi", "_hom_jacobi", "_multiplicative")

    def __init__(self, sc: StructureConstants3, alpha: MatrixQ):
        if alpha.nrows != sc.n or alpha.ncols != sc.n:
            raise ValueError("alpha shape does not match the algebra dimension")
        self.sc = sc
        self.alpha = alpha
        self._alpha_cols = mat_columns_sv(alpha)

    @property
    def n(self) -> int:
        return self.sc.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hom3Lie)
            and self.sc == other.sc
            and self.alpha == other.alpha
        )

    def __repr__(self) -> str:
        return f"Hom3Lie(n={self.n})"


# -- evaluation --------------------------------------------------------


def ad_columns(alg: Hom3Lie, x: SVec, y: SVec):
    """Columns of ad_{x,y}: z -> [x, y, z]; a column is None when unknown."""
    cols = []
    for m in range(alg.n):
        cols.append(alg.sc.trilinear(x, y, {m: 1}))
    return cols


def _signed_rows(half: dict) -> dict:
    """Rows of every ordered pair from the rows of the pairs i < j,
    since each row is antisymmetric in its pair."""
    rows = dict(half)
    for (i, j), row in half.items():
        rows[(j, i)] = [None if v is None else sv_scale(v, -1) for v in row]
    return rows


class PairRows:
    """Rows over the basis, one per ordered pair i != j, with the masks
    the law kernels read from them.

    Built from the rows of the pairs i < j; the row of (j, i) is the
    negated row of (i, j).  An entry is a sparse vector or None where a
    window leaves it undetermined.  `masks` holds the (None bits,
    nonzero bits) over k of the row of each pair i < j, which the row of
    (j, i) shares.  The rest are masks over `pairs`, the pairs i < j in
    order, bit b for pairs[b]: `none_at[k]` and `nonzero_at[k]` mark the
    pairs whose row is None or nonzero at k, and `has[k][m]` those whose
    entry at k has m in its support.
    """

    __slots__ = ("pairs", "rows", "masks", "none_at", "nonzero_at", "has")

    def __init__(self, n: int, half: dict):
        self.pairs = list(combinations(range(n), 2))
        self.rows = _signed_rows(half)
        self.masks = {}
        self.none_at = [0] * n
        self.nonzero_at = [0] * n
        self.has = [[0] * n for _ in range(n)]
        for b, pq in enumerate(self.pairs):
            row = half[pq]
            none, nonzero, _ = masks(row)
            self.masks[pq] = none, nonzero
            bit = 1 << b
            for k in ones(none):
                self.none_at[k] |= bit
            for k in ones(nonzero):
                self.nonzero_at[k] |= bit
                has_k = self.has[k]
                for m in row[k]:
                    has_k[m] |= bit


@stored_on("_brackets")
def brackets(alg: Hom3Lie) -> PairRows:
    """[e_i, e_j, e_k] as a row over k for every ordered pair i != j,
    kept with the algebra.

    An entry is None where the triple is missing and {} where k repeats
    i or j.  By the even cyclic shift the same entry is [e_k, e_i, e_j].
    The rows are scattered from the table: a stored or missing triple
    i < j < k fills its three places (i, j)[k], (j, k)[i] and, with
    the odd sign, (i, k)[j].
    """
    n, sc = alg.n, alg.sc
    half = {pq: [_EMPTY] * n for pq in combinations(range(n), 2)}
    for i, j, k in sc.missing:
        half[(i, j)][k] = half[(j, k)][i] = half[(i, k)][j] = None
    for (i, j, k), vec in sc.table.items():
        half[(i, j)][k] = half[(j, k)][i] = vec
        half[(i, k)][j] = sv_scale(vec, -1)
    return PairRows(n, half)


@stored_on("_by_index")
def by_index(alg: Hom3Lie) -> list:
    """The table by basis index, kept with the algebra: entry m maps
    each pair i < j that a stored or missing triple puts with m to
    (vector, sign), with [e_m, e_i, e_j] = sign * vector, or to None
    where the triple is missing.  [e_m, e_i, e_j] is zero at every
    other pair.  The entries share one key object per pair."""
    pairs = {pq: pq for pq in combinations(range(alg.n), 2)}
    view = [{} for _ in range(alg.n)]
    for i, j, k in alg.sc.missing:
        view[i][pairs[j, k]] = view[j][pairs[i, k]] = None
        view[k][pairs[i, j]] = None
    for (i, j, k), vec in alg.sc.table.items():
        view[i][pairs[j, k]] = view[k][pairs[i, j]] = (vec, 1)
        view[j][pairs[i, k]] = (vec, -1)
    return view


def _alpha_rows(alg: Hom3Lie, br: PairRows) -> dict:
    """[alpha e_i, alpha e_j, e_m] as a row over m for each pair i < j,
    the bracket rows br of alg read at (alpha e_i, alpha e_j) by
    `exactq.pair_bilinear`.  An entry is None when a row it reads is
    None there, as in `trilinear`; a row that is a single bracket row
    with coefficient 1 is that row's own list."""
    n, acols = alg.n, alg._alpha_cols
    return {(i, j): pair_bilinear(br.rows, n, acols[i], acols[j])
            for i, j in br.pairs}


# -- axiom checkers ----------------------------------------------------
#
# Both Jacobi forms are one residual over a bracket triple t = [x, y, z]
# and a pair P, with (k, Q) running over (x, (y, z)), (y, (z, x)) and
# (z, (x, y)):
#
#     sum_m t_m outer[P][m] - sum_(k, Q) sum_m [P, e_k]_m outer[Q][m]
#
# where outer[P][m] is [e_m, P] (Jacobi) or [e_m, alpha P] (Hom-Jacobi).
# The bracket rows and their masks are kept with the algebra.  The outer
# rows of Hom-Jacobi are the bracket rows read at (alpha e_i, alpha e_j)
# (`_alpha_rows`).  Where every one of them is the bracket row object
# of its pair, as with alpha = Id or alpha = -Id, Hom-Jacobi is Jacobi
# instance by instance and takes its report; otherwise they get the
# same masks (`PairRows`) and a pass of their own.  The masks are
# indexed by pair, so for each triple a few ORs over the bits of t and
# of the three outer rows Q give every pair at once:
#
# - dead: some term reads a None entry.  t_m meets a pair whose outer
#   row is None at m; the pair's row is None at x, y or z; or the entry
#   [P, e_k] has in its support an m where outer[Q] is None.
# - possibly nonzero: t_m meets a pair whose outer row is nonzero at m,
#   or [P, e_k] has in its support an m where outer[Q] is nonzero.
#
# Dead pairs are skipped and the rest are checked, both counted by
# popcount.  A missing triple skips all its pairs in one step.  The
# residual is summed only for the live pairs: not dead and possibly
# nonzero.  They are visited in ascending order, so witnesses keep the
# order of a loop over every pair.


def _residual(t: SVec, out_row: list, row: list, cyc) -> SVec:
    """The residual above for one pair, whose terms are all determined."""
    acc: SVec = {}
    for m, c in t.items():
        sv_axpy(acc, c, out_row[m])
    for k, q_row in cyc:
        for m, cm in row[k].items():
            sv_axpy(acc, -cm, q_row[m])
    return acc


def _jacobi_residuals(rep: CheckReport, br: PairRows, outer: PairRows,
                      witness) -> CheckReport:
    """Count or record every (triple, pair) instance of the residual
    above, br holding the bracket rows; witness(triple, pair) starts
    the record of a failure."""
    rows, pairs, has = br.rows, br.pairs, br.has
    n = len(has)
    operands = [(pq, rows[pq], outer.rows[pq]) for pq in pairs]
    skipped = checked = 0
    for x, y, z in combinations(range(n), 3):
        t = rows[(x, y)][z]
        if t is None:
            skipped += len(pairs)
            continue
        dead = br.none_at[x] | br.none_at[y] | br.none_at[z]
        live = 0
        for m in t:
            dead |= outer.none_at[m]
            live |= outer.nonzero_at[m]
        # (z, x) has the masks of (x, z)
        for k, q in ((x, (y, z)), (y, (x, z)), (z, (x, y))):
            q_none, q_nonzero = outer.masks[q]
            has_k = has[k]
            for m in ones(q_none):
                dead |= has_k[m]
            for m in ones(q_nonzero):
                live |= has_k[m]
        gaps = dead.bit_count()
        skipped += gaps
        checked += len(pairs) - gaps
        live &= ~dead
        if not live:
            continue
        cyc = ((x, outer.rows[(y, z)]), (y, outer.rows[(z, x)]),
               (z, outer.rows[(x, y)]))
        for b in ones(live):
            pq, row, out_row = operands[b]
            acc = _residual(t, out_row, row, cyc)
            if acc:
                rep.record({**witness((x, y, z), pq),
                            "residual_support": sorted(acc)})
    rep.skip(skipped)
    rep.tick(checked)
    return rep


@stored_on("_jacobi")
def check_jacobi(alg: Hom3Lie) -> CheckReport:
    """Fundamental identity on all basis tuples x1<x2<x3, y2<y3.

    [[x1,x2,x3],y2,y3] = [[x1,y2,y3],x2,x3] + [[x2,y2,y3],x3,x1]
                         + [[x3,y2,y3],x1,x2].
    """
    br = brackets(alg)
    return _jacobi_residuals(CheckReport("jacobi"), br, br,
                             lambda t, p: {"x": list(t), "y": list(p)})


@stored_on("_hom_jacobi")
def check_hom_jacobi(alg: Hom3Lie) -> CheckReport:
    """Hom-Jacobi identity on all basis tuples x1<x2, x3<x4<x5.

    [a(x1),a(x2),[x3,x4,x5]] = [[x1,x2,x3],a(x4),a(x5)]
        + [a(x3),[x1,x2,x4],a(x5)] + [a(x3),a(x4),[x1,x2,x5]]
    with a = alpha.

    When every alpha row [alpha e_i, alpha e_j, .] is the bracket row
    object of its pair (`_alpha_rows`), this is the residual of
    check_jacobi instance by instance, with the triple and the pair in
    each other's places, so the report is check_jacobi's (kept with the
    algebra), its witnesses relabelled, and the law is evaluated once.
    """
    br = brackets(alg)
    half = _alpha_rows(alg, br)
    if all(half[pq] is br.rows[pq] for pq in br.pairs):
        jacobi = check_jacobi(alg)
        return CheckReport(
            "hom-jacobi", jacobi.passed, jacobi.checked, jacobi.skipped,
            [{"x": w["y"], "triple": w["x"],
              "residual_support": w["residual_support"]}
             for w in jacobi.failures],
            jacobi.failure_count)
    # [alpha e_i, alpha e_j, e_m], which is [e_m, alpha e_i, alpha e_j]
    aa = PairRows(alg.n, half)
    return _jacobi_residuals(CheckReport("hom-jacobi"), br, aa,
                             lambda t, p: {"x": list(p),
                                           "triple": list(t)})


@stored_on("_multiplicative")
def check_multiplicative(alg: Hom3Lie) -> CheckReport:
    """alpha([x,y,z]) = [alpha x, alpha y, alpha z] on basis triples."""
    rep = CheckReport("multiplicative")
    acols = alg._alpha_cols
    for i, j, k in combinations(range(alg.n), 3):
        vec, _ = alg.sc.lookup(i, j, k)
        if vec is None:
            rep.skip()
            continue
        lhs = mat_apply_sv(acols, vec)
        rhs = alg.sc.trilinear(acols[i], acols[j], acols[k])
        if rhs is None:
            rep.skip()
            continue
        rep.tick()
        if lhs != rhs:
            rep.record({"triple": [i, j, k]})
    return rep
