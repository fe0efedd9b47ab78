"""The center of a (Hom) 3-Lie algebra and the kernel of a pair action,
each solved on its own: oracles for `rinehart.centers`, whose Z_rho(L)
is their intersection wherever the window leaves nothing out."""

from itertools import combinations

from trilie.exactq import SubspaceQ, kernel_basis, sv_scale


def center(alg) -> tuple:
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
    vecs = []
    for kv in kernel_basis(rows, len(usable)):
        dense = [0] * n
        for pos, m in enumerate(usable):
            dense[m] = kv[pos]
        vecs.append(tuple(dense))
    return SubspaceQ(n, vecs), n - len(usable)


def kernel_of_rep(alg, act) -> tuple:
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
