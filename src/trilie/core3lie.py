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


# -- axiom checkers ----------------------------------------------------


@stored_on("_jacobi")
def check_jacobi(alg: Hom3Lie) -> CheckReport:
    """Fundamental identity on all basis tuples x1<x2<x3, y2<y3.

    [[x1,x2,x3],y2,y3] = [[x1,y2,y3],x2,x3] + [[x2,y2,y3],x3,x1]
                         + [[x3,y2,y3],x1,x2].
    """
    rep = CheckReport("jacobi")
    sc = alg.sc
    n = alg.n
    pairs = list(combinations(range(n), 2))
    for x1, x2, x3 in combinations(range(n), 3):
        top, _ = sc.lookup(x1, x2, x3)
        for p, q in pairs:
            ok = True
            acc: SVec = {}
            if top is None:
                ok = False
            else:
                for m, c in top.items():
                    vec, sign = sc.lookup(m, p, q)
                    if vec is None:
                        ok = False
                        break
                    sv_axpy(acc, c * sign, vec)
            if ok:
                # cyclic sum over (x1, x2, x3) on the right hand side
                for a, b, c3 in ((x1, x2, x3), (x2, x3, x1), (x3, x1, x2)):
                    inner, sign = sc.lookup(a, p, q)
                    if inner is None:
                        ok = False
                        break
                    for m, cm in inner.items():
                        vec2, sign2 = sc.lookup(m, b, c3)
                        if vec2 is None:
                            ok = False
                            break
                        sv_axpy(acc, -cm * sign * sign2, vec2)
                    if not ok:
                        break
            if not ok:
                rep.skip()
                continue
            rep.tick()
            if acc:
                rep.record(
                    {"x": [x1, x2, x3], "y": [p, q], "residual_support": sorted(acc)}
                )
    return rep


@stored_on("_hom_jacobi")
def check_hom_jacobi(alg: Hom3Lie) -> CheckReport:
    """Hom-Jacobi identity on all basis tuples x1<x2, x3<x4<x5.

    [a(x1),a(x2),[x3,x4,x5]] = [[x1,x2,x3],a(x4),a(x5)]
        + [a(x3),[x1,x2,x4],a(x5)] + [a(x3),a(x4),[x1,x2,x5]]
    with a = alpha.
    """
    rep = CheckReport("hom-jacobi")
    sc = alg.sc
    n = alg.n
    acols = alg._alpha_cols

    # AA[i][j][m] = [alpha e_i, alpha e_j, e_m]; by the even cyclic shift
    # this same table gives [e_m, alpha e_i, alpha e_j].
    aa = {(i, j): [sc.trilinear(acols[i], acols[j], {m: 1})
                   for m in range(n)]
          for i, j in combinations(range(n), 2)}

    def aa_at(i, j):
        if i < j:
            return aa[(i, j)], 1
        return aa[(j, i)], -1

    pairs = list(combinations(range(n), 2))
    for x3, x4, x5 in combinations(range(n), 3):
        t, _ = sc.lookup(x3, x4, x5)
        for x1, x2 in pairs:
            row12, s12 = aa_at(x1, x2)
            acc: SVec = {}
            ok = True
            if t is None:
                ok = False
            else:
                for m, c in t.items():
                    cell = row12[m]
                    if cell is None:
                        ok = False
                        break
                    sv_axpy(acc, c * s12, cell)
            if ok:
                for inner_trip, pair in (
                    ((x1, x2, x3), (x4, x5)),
                    ((x1, x2, x4), (x5, x3)),
                    ((x1, x2, x5), (x3, x4)),
                ):
                    s, sign = sc.lookup(*inner_trip)
                    if s is None:
                        ok = False
                        break
                    row, sp = aa_at(*pair)
                    for m, cm in s.items():
                        cell = row[m]
                        if cell is None:
                            ok = False
                            break
                        sv_axpy(acc, -cm * sign * sp, cell)
                    if not ok:
                        break
            if not ok:
                rep.skip()
                continue
            rep.tick()
            if acc:
                rep.record(
                    {
                        "x": [x1, x2],
                        "triple": [x3, x4, x5],
                        "residual_support": sorted(acc),
                    }
                )
    return rep


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
