"""Builders that manufacture new bundles from verified ingredients.

Two constructions are implemented.  `twist` composes an untwisted
bundle with a compatible pair of endomorphisms (alpha on L, phi on A),
replacing the bracket by alpha o [.,.,.] and the anchor by phi o rho.
`tensor_extension` spreads a module algebra along a multiplicative
bracket onto the product space A (x) L.  Both validate their
hypotheses eagerly and refuse to build on failure.  The hypotheses
are necessary, not sufficient: the tensor extension has a known gap.
Inputs that pass `tensor_preconditions` can give an output that fails
Hom-Jacobi, where the anchor of an outer pair meets an element of the
inner triple and the rest of the triple is bracketed with the result
(`tests/test_construct.py::test_tensor_gap_regression`; the tensor of
corpus tb-rinehart at degree cap 3 is another).  A tensor output is
therefore judged by the check suite, not by its hypotheses alone; its
suite flags are verdicts, settled by their first failing check.

`change_basis` and `bundle_direct_sum` are utility constructions used
to compare bundles up to a linear identification and to assemble
block-diagonal bundles over a shared coefficient algebra.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb

from .core3lie import Hom3Lie, StructureConstants3, check_multiplicative
from .exactq import MatrixQ, SVec, mat_apply_sv, mat_columns_sv, sv_axpy
from .report import CheckReport, SuiteReport
from .repmod import HomRepresentation, PairAction, check_hom_rep, \
    check_hr1, op_compose
from .rinehart import CommAlgebra, ModuleAction, RinehartBundle, \
    check_action_twist, check_commutative_associative, \
    check_phi_multiplicative, check_rho_derivations


class ConstructionError(ValueError):
    """A builder hypothesis failed; `report` holds the check evidence."""

    def __init__(self, message: str, report: SuiteReport | None = None):
        super().__init__(message)
        self.report = report


def _raise_on_failure(kind: str, suite: SuiteReport) -> None:
    for rep in suite.checks:
        if rep.passed is False:
            raise ConstructionError(
                f"{kind} precondition failed: {rep.name}", suite)


# -- twist --------------------------------------------------------------


class TwistInput:
    """An untwisted bundle plus the endomorphism pair to twist by."""

    __slots__ = ("base", "alpha_new", "phi_new")

    def __init__(self, base: RinehartBundle, alpha_new: MatrixQ,
                 phi_new: MatrixQ):
        if alpha_new.nrows != base.L.n or alpha_new.ncols != base.L.n:
            raise ValueError("alpha_new shape does not match L")
        if phi_new.nrows != base.A.dim or phi_new.ncols != base.A.dim:
            raise ValueError("phi_new shape does not match A")
        self.base = base
        self.alpha_new = alpha_new
        self.phi_new = phi_new


def twist_preconditions(inp: TwistInput) -> SuiteReport:
    """The hypotheses of the twisting construction, as a check suite.

    base-untwisted   both carried endomorphisms of the input are Id
    alpha-bracket-endo   alpha[e_i,e_j,e_k] = [alpha e_i, alpha e_j, alpha e_k]
    phi-algebra-endo     phi(ab) = phi(a) phi(b)
    anchor-compat        rho(alpha x, alpha y) o phi = phi o rho(x, y)
    action-compat        alpha(a * x) = phi(a) * alpha(x)

    The last four are the bundle checks multiplicative, phi-hom, hr1
    and action-twist, renamed, run on a probe bundle: the base bracket
    with alpha, the base algebra with phi, the base anchor and action.
    Undetermined instances (window-missing data on either side) are
    skipped and counted, exactly as in the bundle checkers.
    """
    base, alpha, phi = inp.base, inp.alpha_new, inp.phi_new
    n, m = base.L.n, base.A.dim
    suite = SuiteReport("twist-preconditions")

    plain = suite.add(CheckReport("base-untwisted"))
    plain.tick()
    if base.L.alpha != MatrixQ.identity(n):
        plain.record({"side": "L", "why": "carried alpha is not Id"})
    if base.A.phi != MatrixQ.identity(m):
        plain.record({"side": "A", "why": "carried phi is not Id"})

    probe = RinehartBundle(
        Hom3Lie(base.L.sc, alpha),
        CommAlgebra(m, base.A.table, phi, base.A.unit), base.rho, base.act)
    suite.add(check_multiplicative(probe.L).renamed("alpha-bracket-endo"))
    suite.add(check_phi_multiplicative(probe.A).renamed("phi-algebra-endo"))
    suite.add(check_hr1(probe.L, probe.rep).renamed("anchor-compat"))
    suite.add(check_action_twist(probe).renamed("action-compat"))
    return suite


def twist(inp: TwistInput, name: str = "") -> RinehartBundle:
    """Bundle with bracket alpha o [.,.,.], anchor phi o rho.

    The underlying product on A and the action of A on L are kept;
    the carried endomorphisms of the output are (alpha_new, phi_new).
    Raises ConstructionError when a hypothesis fails.
    """
    suite = twist_preconditions(inp)
    _raise_on_failure("twist", suite)
    base, alpha, phi = inp.base, inp.alpha_new, inp.phi_new

    acols = mat_columns_sv(alpha)
    table = {key: mat_apply_sv(acols, vec)
             for key, vec in base.L.sc.table.items()}
    sc = StructureConstants3(base.L.n, table, missing=base.L.sc.missing)
    L = Hom3Lie(sc, alpha)

    A = CommAlgebra(base.A.dim, base.A.table, phi, base.A.unit)

    pcols = mat_columns_sv(phi)
    ops = {key: op_compose(pcols, cols)
           for key, cols in base.rho.ops.items()}
    rho = PairAction(base.L.n, base.A.dim, ops)

    return RinehartBundle(
        L, A, rho, base.act,
        name=name or (f"twist({base.name})" if base.name else "twist"),
        L_labels=base.L_labels, A_labels=base.A_labels,
        meta={"construction": "twist", "base": base.name})


# -- tensor extension ---------------------------------------------------


def tensor_preconditions(L: Hom3Lie, A: CommAlgebra,
                         rep: HomRepresentation) -> SuiteReport:
    """Hypotheses of the tensor extension, as a check suite.

    The bracket must be multiplicative for alpha, A must be a
    commutative associative algebra with phi an algebra endomorphism,
    (A, rho, phi) must satisfy the representation laws hr1..hr3, and
    every rho(e_i, e_j) must be a phi-twisted derivation of A.  The
    hr1..hr3 and derivation reports are the ones stored with rep, so
    for the representation of a loaded bundle they are not computed
    again.
    """
    suite = SuiteReport("tensor-preconditions")
    suite.add(check_multiplicative(L))
    suite.add(check_commutative_associative(A))
    suite.add(check_phi_multiplicative(A))
    suite.extend(check_hom_rep(L, rep))
    suite.add(check_rho_derivations(A, rep))
    return suite


# The tensor bracket is built triple by triple over all C(N, 3) basis
# triples of the output, N = dim A * dim L, keeping every undetermined
# one, and the flags measured before it is written visit each triple
# against every pair, so the cost grows faster than the triple count.
# On a shared 2-vCPU host, rho-prime at degree cap 2 (N = 100, 161,700
# triples) takes about 7 s and 80 MB; tprime-split at window 4 (N =
# 171, 818,805 triples) runs past 90 s, and jacobian-weak at degree
# cap 3 (N = 400, 10,586,800 triples) runs out of memory under a 1 GB
# cap.  An output with more triples than this is refused before
# anything is built.
MAX_TENSOR_TRIPLES = 200_000


def _tensor_label(alabel: str, llabel: str) -> str:
    return llabel if alabel == "1" else f"{alabel}*{llabel}"


def tensor_extension(L: Hom3Lie, A: CommAlgebra, rep: HomRepresentation,
                     name: str = "", l_labels=None,
                     a_labels=None) -> RinehartBundle:
    """The bundle on G = A (x) L induced by a module-algebra pair.

    rep is the representation (rho, phi) of L on A, with phi the twist
    of A; a bundle's `rep` is one.

    Basis vector a*n + x of G is e_a (x) e_x with n = dim L, so the
    L-index varies fastest.  The bracket of three basis tensors is

        phi(a1 a2 a3) [x1,x2,x3]
          + phi(a1 a2) rho(x1,x2)(a3) alpha(x3)
          + phi(a2 a3) rho(x2,x3)(a1) alpha(x1)
          + phi(a1 a3) rho(x3,x1)(a2) alpha(x2)

    the twist is phi (x) alpha, the anchor of two basis tensors is
    phi(a1 a2) rho(x1,x2), and A acts by multiplication in the left
    factor.  Triples or action values that run out of a product
    window are recorded as missing rather than guessed.  An output with
    more than MAX_TENSOR_TRIPLES basis triples is refused before the
    hypotheses are checked or anything is built.
    """
    rho = rep.action
    if rho.dim_l != L.n or rho.dim_v != A.dim:
        raise ValueError("rho shape does not match L and A")
    if rep.phi != A.phi:
        raise ValueError("the representation's phi is not the twist of A")
    nG = A.dim * L.n
    triples = comb(nG, 3)
    if triples > MAX_TENSOR_TRIPLES:
        raise ConstructionError(
            f"tensor output too large: dimension {nG} = {A.dim} x {L.n} "
            f"(dim A x dim L) gives C({nG}, 3) = {triples:,} triples, "
            f"more than the {MAX_TENSOR_TRIPLES:,} a tensor is built with")
    suite = tensor_preconditions(L, A, rep)
    _raise_on_failure("tensor", suite)

    nL, mA = L.n, A.dim
    acols = L._alpha_cols

    def tensor_into(acc: SVec, scalar, avec: SVec, lvec: SVec) -> None:
        for b, cb in avec.items():
            s = scalar * cb
            for x, cx in lvec.items():
                key = b * nL + x
                val = acc.get(key, 0) + s * cx
                if val:
                    acc[key] = val
                else:
                    acc.pop(key, None)

    # phi(a_i a_j) per (a_i, a_j), phi(a1 a2 a3) per index triple and
    # the signed anchor coefficient phi(a_i a_j) rho(x_i, x_j)(e_ak) per
    # (a_i, a_j, a_k, x_i, x_j), each computed once
    fprod = [[A.phi_apply(A.basis_product(i, j)) for j in range(mA)]
             for i in range(mA)]
    f123 = {(a1, a2, a3): A.phi_apply(A.product(A.basis_product(a1, a2),
                                                {a3: 1}))
            for a1, a2, a3 in combinations_with_replacement(range(mA), 3)}
    coeffs: dict = {}

    def anchor_term(ai, aj, ak, xi, xj, xk):
        # phi(a_i a_j) rho(x_i, x_j)(e_ak) (x) alpha(e_xk)
        key = (ai, aj, ak, xi, xj)
        if key not in coeffs:
            cols, sign = rho.pair(xi, xj)
            col = cols[ak]
            coeffs[key] = col and A.product(fprod[ai][aj], col), sign
        coeff, sign = coeffs[key]
        if not coeff:
            return None if coeff is None else {}
        out: SVec = {}
        tensor_into(out, sign, coeff, acols[xk])
        return out

    table: dict = {}
    missing = []
    for g1, g2, g3 in combinations(range(nG), 3):
        a1, x1 = divmod(g1, nL)
        a2, x2 = divmod(g2, nL)
        a3, x3 = divmod(g3, nL)
        entry: SVec = {}
        p123 = f123[(a1, a2, a3)]
        vec, sign = L.sc.lookup(x1, x2, x3)
        if p123 is None or vec is None:
            missing.append((g1, g2, g3))
            continue
        tensor_into(entry, sign, p123, vec)
        parts = (anchor_term(a1, a2, a3, x1, x2, x3),
                 anchor_term(a2, a3, a1, x2, x3, x1),
                 anchor_term(a3, a1, a2, x3, x1, x2))
        if any(p is None for p in parts):
            missing.append((g1, g2, g3))
            continue
        for p in parts:
            sv_axpy(entry, 1, p)
        if entry:
            table[(g1, g2, g3)] = entry

    sc = StructureConstants3(nG, table, missing=missing)
    phr, alr = A.phi.rows, L.alpha.rows
    rows = []
    for b in range(mA):
        prow = phr[b]
        for x in range(nL):
            arow = alr[x]
            rows.append([prow[a] * arow[y]
                         for a in range(mA) for y in range(nL)])
    G = Hom3Lie(sc, MatrixQ(rows))

    ops: dict = {}
    for g1 in range(nG):
        a1, x1 = divmod(g1, nL)
        for g2 in range(g1 + 1, nG):
            a2, x2 = divmod(g2, nL)
            if x1 == x2:
                continue
            cols, sign = rho.pair(x1, x2)
            f12 = fprod[a1][a2]
            if f12 is None:
                ops[(g1, g2)] = [None] * mA
                continue
            if not f12:
                continue
            out = []
            for col in cols:
                if col is None:
                    out.append(None)
                    continue
                prod = A.product(f12, col)
                out.append(None if prod is None
                           else (prod if sign == 1
                                 else {k: -c for k, c in prod.items()}))
            ops[(g1, g2)] = out
    rho_t = PairAction(nG, mA, ops)

    act_table: dict = {}
    for b in range(mA):
        for g in range(nG):
            a, x = divmod(g, nL)
            p = A.basis_product(b, a)
            if p is None:
                act_table[(b, g)] = None
                continue
            out: SVec = {}
            tensor_into(out, 1, p, {x: 1})
            if out:
                act_table[(b, g)] = out
    act = ModuleAction(mA, nG, act_table)

    if a_labels is None:
        a_labels = [f"a{i}" for i in range(mA)]
    if l_labels is None:
        l_labels = [f"e{i}" for i in range(nL)]
    g_labels = [_tensor_label(a_labels[a], l_labels[x])
                for a in range(mA) for x in range(nL)]

    return RinehartBundle(
        G, A, rho_t, act, name=name or "tensor-extension",
        L_labels=g_labels, A_labels=a_labels,
        meta={"construction": "tensor-extension",
              "dim_a": mA, "dim_l": nL})


# -- linear identifications and block sums ------------------------------


def change_basis(B: RinehartBundle, S: MatrixQ, l_labels=None,
                 name: str = "") -> RinehartBundle:
    """The same bundle written in the L-basis with new e'_x = S e_x.

    Structure constants, twist, anchor and action are conjugated by S;
    the coefficient algebra is untouched.  Triples that a non-monomial
    S pushes outside the representable window become missing entries.
    """
    n, m = B.L.n, B.A.dim
    if S.nrows != n or S.ncols != n or not S.is_invertible():
        raise ValueError("change of basis must be an invertible map on L")
    sinv = S.inverse()
    scols = mat_columns_sv(S)
    icols = mat_columns_sv(sinv)

    table: dict = {}
    missing = []
    for i, j, k in combinations(range(n), 3):
        w = B.L.sc.trilinear(scols[i], scols[j], scols[k])
        if w is None:
            missing.append((i, j, k))
        elif w:
            table[(i, j, k)] = mat_apply_sv(icols, w)
    L = Hom3Lie(StructureConstants3(n, table, missing=missing),
                sinv @ B.L.alpha @ S)

    ops: dict = {}
    for i, j in combinations(range(n), 2):
        cols = B.rho.bilinear(scols[i], scols[j])
        if any(c is None for c in cols) or any(c for c in cols):
            ops[(i, j)] = cols
    rho = PairAction(n, m, ops)

    act_table: dict = {}
    for a in range(m):
        for x in range(n):
            w = B.act.act({a: 1}, scols[x])
            act_table[(a, x)] = None if w is None else mat_apply_sv(icols, w)
    act = ModuleAction(m, n, act_table)

    return RinehartBundle(
        L, B.A, rho, act, name=name or (f"{B.name}#basis" if B.name else ""),
        L_labels=l_labels, A_labels=B.A_labels,
        meta={"construction": "change-basis", "base": B.name})


def bundle_direct_sum(B1: RinehartBundle, B2: RinehartBundle,
                      name: str = "") -> RinehartBundle:
    """Block-diagonal bundle L1 + L2 over a shared coefficient algebra.

    Mixed brackets and mixed anchors are zero by construction; whether
    the result satisfies the Rinehart laws depends on the blocks not
    interacting through A, which the check suite decides afterwards.
    """
    if B1.A != B2.A:
        raise ValueError("blocks must share the coefficient algebra")
    n1, n2, m = B1.L.n, B2.L.n, B1.A.dim
    n = n1 + n2

    table: dict = dict(B1.L.sc.table)
    missing = list(B1.L.sc.missing)
    for (i, j, k), vec in B2.L.sc.table.items():
        table[(i + n1, j + n1, k + n1)] = {
            x + n1: c for x, c in vec.items()}
    missing.extend((i + n1, j + n1, k + n1) for i, j, k in B2.L.sc.missing)

    a1, a2 = B1.L.alpha.rows, B2.L.alpha.rows
    rows = [list(a1[r]) + [0] * n2 for r in range(n1)]
    rows.extend([0] * n1 + list(a2[r]) for r in range(n2))
    L = Hom3Lie(StructureConstants3(n, table, missing=missing),
                MatrixQ(rows))

    ops: dict = dict(B1.rho.ops)
    for (i, j), cols in B2.rho.ops.items():
        ops[(i + n1, j + n1)] = cols
    rho = PairAction(n, m, ops)

    act_table: dict = dict(B1.act.table)
    for (a, x), vec in B2.act.table.items():
        act_table[(a, x + n1)] = None if vec is None else {
            y + n1: c for y, c in vec.items()}
    act = ModuleAction(m, n, act_table)

    return RinehartBundle(
        L, B1.A, rho, act,
        name=name or f"{B1.name}(+){B2.name}",
        L_labels=tuple(B1.L_labels) + tuple(B2.L_labels),
        A_labels=B1.A_labels,
        meta={"construction": "direct-sum",
              "blocks": [B1.name, B2.name], "split": [n1, n2]})
