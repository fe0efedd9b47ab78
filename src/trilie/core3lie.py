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
    SubspaceQ,
    mat_apply_sv,
    mat_columns_sv,
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

    The last three fields hold the reports of check_jacobi,
    check_hom_jacobi and check_multiplicative once they have run.
    """

    __slots__ = ("sc", "alpha", "_alpha_cols",
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


def bracket_rows(sc: StructureConstants3) -> dict:
    """[e_i, e_j, e_k] as a row over k, for every ordered pair i != j.

    An entry is None where the triple is missing and {} where k repeats
    i or j.  By the even cyclic shift the same entry is [e_k, e_i, e_j].
    """
    half = {}
    for i, j in combinations(range(sc.n), 2):
        row = []
        for k in range(sc.n):
            vec, sign = sc.lookup(i, j, k)
            row.append(vec if vec is None or sign == 1 else sv_scale(vec, -1))
        half[(i, j)] = row
    return _signed_rows(half)


def _bits(indices) -> int:
    """A set of indices (the support of a sparse vector) as a bit mask."""
    out = 0
    for m in indices:
        out |= 1 << m
    return out


def _row_masks(rows: dict) -> dict:
    """(bits of the None entries, support bits of each entry) per row.

    A None entry has support 0: the first mask already rules it out.
    """
    return {key: (_bits(k for k, vec in enumerate(row) if vec is None),
                  [0 if vec is None else _bits(vec) for vec in row])
            for key, row in rows.items()}


# -- axiom checkers ----------------------------------------------------
#
# Both Jacobi forms are one residual over a bracket triple t = [x, y, z]
# and a pair P, with (k, Q) running over (x, (y, z)), (y, (z, x)) and
# (z, (x, y)):
#
#     sum_m t_m outer[P][m] - sum_(k, Q) sum_m [P, e_k]_m outer[Q][m]
#
# where outer[P][m] is [e_m, P] (Jacobi) or [e_m, alpha P] (Hom-Jacobi).
# The bracket rows and the outer rows of every pair are built once per
# check, with bit masks of their None entries and of each entry's
# support.  A missing triple skips all its pairs in one step; otherwise
# an instance is undetermined exactly when the support of a term meets
# the None mask of the row it is read from, which a few ANDs decide
# before any vector is summed.


def _jacobi_residuals(rep: CheckReport, n: int, rows: dict, outer: dict,
                      witness) -> CheckReport:
    """Count or record every (triple, pair) instance of the residual
    above; witness(triple, pair) starts the record of a failure."""
    masks = _row_masks(rows)
    outer_none = {key: none for key, (none, _) in _row_masks(outer).items()}
    pairs = [(pq, rows[pq], *masks[pq], outer[pq], outer_none[pq])
             for pq in combinations(range(n), 2)]
    skipped = checked = 0
    for x, y, z in combinations(range(n), 3):
        t = rows[(x, y)][z]
        if t is None:
            skipped += len(pairs)
            continue
        t_bits = _bits(t)
        trip = 1 << x | 1 << y | 1 << z
        cyc = [(x, outer[(y, z)]), (y, outer[(z, x)]), (z, outer[(x, y)])]
        gx, gy, gz = outer_none[(y, z)], outer_none[(z, x)], outer_none[(x, y)]
        for pq, row, none, support, out_row, out_none in pairs:
            if (t_bits & out_none or trip & none or support[x] & gx
                    or support[y] & gy or support[z] & gz):
                skipped += 1
                continue
            checked += 1
            if not t and not (support[x] | support[y] | support[z]):
                continue
            acc: SVec = {}
            for m, c in t.items():
                sv_axpy(acc, c, out_row[m])
            for k, q_row in cyc:
                for m, cm in row[k].items():
                    sv_axpy(acc, -cm, q_row[m])
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
    rows = bracket_rows(alg.sc)
    return _jacobi_residuals(CheckReport("jacobi"), alg.n, rows, rows,
                             lambda t, p: {"x": list(t), "y": list(p)})


@stored_on("_hom_jacobi")
def check_hom_jacobi(alg: Hom3Lie) -> CheckReport:
    """Hom-Jacobi identity on all basis tuples x1<x2, x3<x4<x5.

    [a(x1),a(x2),[x3,x4,x5]] = [[x1,x2,x3],a(x4),a(x5)]
        + [a(x3),[x1,x2,x4],a(x5)] + [a(x3),a(x4),[x1,x2,x5]]
    with a = alpha.
    """
    sc, n, acols = alg.sc, alg.n, alg._alpha_cols
    # [alpha e_i, alpha e_j, e_m], which is [e_m, alpha e_i, alpha e_j]
    aa = _signed_rows({(i, j): [sc.trilinear(acols[i], acols[j], {m: 1})
                                for m in range(n)]
                       for i, j in combinations(range(n), 2)})
    return _jacobi_residuals(CheckReport("hom-jacobi"), n, bracket_rows(sc),
                             aa, lambda t, p: {"x": list(p),
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


def center(alg: Hom3Lie) -> tuple[SubspaceQ, int]:
    """Solutions of [x, e_p, e_q] = 0 for all p < q.

    Returns (subspace, excluded) where excluded counts coordinates that
    had to be left out because some bracket with them is missing; with a
    complete table excluded is 0 and the answer is exact.
    """
    n = alg.n
    sc = alg.sc
    usable = []
    for m in range(n):
        if all(
            sc.lookup(m, p, q)[0] is not None for p, q in combinations(range(n), 2)
        ):
            usable.append(m)
    rows = []
    for p, q in combinations(range(n), 2):
        outputs = [sc.lookup(m, p, q)[0] for m in usable]
        support = sorted({r for out in outputs for r in out})
        for r in support:
            rows.append([out.get(r, 0) for out in outputs])
    from .exactq import kernel_basis

    vecs = []
    for kv in kernel_basis(rows, len(usable)):
        dense = [0] * n
        for pos, m in enumerate(usable):
            dense[m] = kv[pos]
        vecs.append(tuple(dense))
    return SubspaceQ(n, vecs), n - len(usable)
