"""Root and weight decompositions relative to a splitting subalgebra.

Given a bundle and an abelian, twist-stable subalgebra H, the bracket
with two H-slots and the anchor on H-pairs become commuting families
of operators; their simultaneous rational eigenspaces grade L and A by
antisymmetric bilinear forms on H (roots and weights).  On top of the
decomposition this module implements the connection-of-roots
equivalence, class ideals with their closure and orthogonality laws,
the two direct-sum theorems, and the weight-side mirror.

All arithmetic is exact.  Failure to split over Q is reported, never
patched: the decomposition either exhausts the space with rational
eigenvalues or raises SplitError with the failing condition, which
includes a twist that is not invertible and a window that leaves an
operator of H undetermined.  A
computed result that breaks an invariant the theory guarantees (an
eigenvector off its eigenvalue, a connection relation that is not an
equivalence) raises InternalError: that is a bug here, not bad input.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, combinations_with_replacement

from .core3lie import ad_columns
from .exactq import (
    MatrixQ,
    SubspaceQ,
    eigenspace,
    mat_from_columns_sv,
    qstr,
    rational_spectrum,
    sv_from_seq,
    sv_to_tuple,
    vadd,
    viszero,
    vsub,
)
from .report import CheckReport, SuiteReport
from .repmod import op_apply
from .rinehart import RinehartBundle, centers


class SplitError(ValueError):
    """A decomposition hypothesis failed; `code` is the short reason."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(code if not detail else f"{code}: {detail}")
        self.code = code
        self.detail = detail


class InternalError(Exception):
    """A result the kernel has just computed breaks a proven invariant.

    This is a bug in trilie, never a property of the input, so it is
    deliberately not a ValueError: no input-error handler catches it.
    """


# -- roots and weights as bilinear forms --------------------------------


class RootForm:
    """Antisymmetric bilinear form on H in a fixed ordered basis."""

    __slots__ = ("mat",)

    def __init__(self, mat: MatrixQ):
        if not mat.is_square():
            raise ValueError("root form matrix must be square")
        if mat != mat.transpose().scale(-1):
            raise ValueError("root form matrix must be antisymmetric")
        self.mat = mat

    @property
    def h(self) -> int:
        return self.mat.nrows

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __add__(self, other: "RootForm") -> "RootForm":
        return RootForm(self.mat + other.mat)

    def __neg__(self) -> "RootForm":
        return RootForm(-self.mat)

    def __eq__(self, other):
        return isinstance(other, RootForm) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def key(self):
        """Deterministic sort key."""
        return self.mat.rows

    def __repr__(self):
        body = "; ".join(" ".join(qstr(x) for x in r) for r in self.mat.rows)
        return f"RootForm[{body}]"


def zero_form(h: int) -> RootForm:
    return RootForm(MatrixQ.zeros(h, h))


def _int_power(mat: MatrixQ, k: int) -> MatrixQ:
    if k < 0:
        return _int_power(mat.inverse(), -k)
    out = MatrixQ.identity(mat.nrows)
    for _ in range(k):
        out = out @ mat
    return out


def pullback_root(form: RootForm, AH: MatrixQ, k: int) -> RootForm:
    """The form composed with alpha^{-k} in both slots.

    pullback_root(gamma, AH, k) is the root of the image space
    alpha^k(L_gamma); AH is the matrix of alpha restricted to H in the
    same basis the form is written in.
    """
    P = _int_power(AH, -k)
    return RootForm(P.transpose() @ form.mat @ P)


# -- decompositions ------------------------------------------------------


class RootDecomposition:
    """H plus the graded pieces of L, all exact subspaces."""

    __slots__ = ("H", "basis", "AH", "roots", "index", "zero")

    def __init__(self, H, basis, AH, roots, zero):
        self.H = H
        self.basis = basis
        self.AH = AH
        self.roots = tuple(roots)
        self.index = {form: space for form, space in self.roots}
        self.zero = zero

    @property
    def gamma(self):
        return tuple(form for form, _ in self.roots)

    def __repr__(self):
        return (f"RootDecomposition(dim H={self.H.dim},"
                f" roots={len(self.roots)})")


class WeightDecomposition:
    """A_0 plus the weight spaces of A for the same H."""

    __slots__ = ("H", "basis", "AH", "weights", "index", "zero")

    def __init__(self, H, basis, AH, weights, zero):
        self.H = H
        self.basis = basis
        self.AH = AH
        self.weights = tuple(weights)
        self.index = {form: space for form, space in self.weights}
        self.zero = zero

    @property
    def lam(self):
        return tuple(form for form, _ in self.weights)

    def __repr__(self):
        return (f"WeightDecomposition(dim A0={self.zero.dim},"
                f" weights={len(self.weights)})")


def _h_frame(B: RinehartBundle, H: SubspaceQ):
    """Validate H and return (basis rows, matrix of alpha on H)."""
    n = B.L.n
    if H.ambient != n:
        raise ValueError("H does not live in L")
    if H.dim == 0:
        raise ValueError("H must be nonzero")
    basis = H.basis
    svs = [sv_from_seq(v) for v in basis]
    for i, j, k in combinations_with_replacement(range(H.dim), 3):
        vec = B.L.sc.trilinear(svs[i], svs[j], svs[k])
        if vec is None:
            raise SplitError("bracket window too small",
                             f"[H,H,H] undetermined at basis triple"
                             f" {(i, j, k)}")
        if vec:
            raise SplitError("not abelian", f"basis triple {(i, j, k)}")
    if not B.L.alpha.is_invertible():
        raise SplitError("alpha not invertible")
    cols = []
    for v in basis:
        img = B.L.alpha.apply(v)
        coord = H.coordinates(img)
        if coord is None:
            raise SplitError("H not alpha-stable")
        cols.append(coord)
    AH = MatrixQ([[cols[j][i] for j in range(H.dim)]
                  for i in range(H.dim)])
    if not AH.is_invertible():
        raise SplitError("H not alpha-stable", "alpha collapses H")
    return basis, AH


def _simultaneous_eigenspaces(operators, ambient: int):
    """Refine the full space along rational eigenvalues of each operator.

    Returns a list of (subspace, eigenvalue dict) pairs; the subspaces
    are independent by construction but need not exhaust the ambient
    space (that is the caller's splitness check).  Each eigenspace is
    computed once per operator, and one that is the whole space (a
    scalar operator) leaves every candidate as it is.
    """
    cands = [(SubspaceQ.full(ambient), {})]
    for key, op in operators:
        eigen = [(lam, eigenspace(op, lam))
                 for lam in sorted(rational_spectrum(op))]
        nxt = []
        for space, ev in cands:
            for lam, espace in eigen:
                piece = (space if espace.dim == ambient
                         else space.intersect(espace))
                if piece.dim:
                    nxt.append((piece, {**ev, key: lam}))
        cands = nxt
    return cands


def _form_from_eigs(h: int, ev: dict) -> RootForm:
    rows = [[0] * h for _ in range(h)]
    for (a, b), lam in ev.items():
        rows[a][b] = lam
        rows[b][a] = -lam
    return RootForm(MatrixQ(rows))


def root_decompose(B: RinehartBundle, H: SubspaceQ) -> RootDecomposition:
    """Grade L by simultaneous eigenvalues of alpha^{-1} ad(h_i, h_j).

    The eigen-identity [h1,h2,x] = gamma(h1,h2) alpha(x) is re-verified
    on every reported generator, so a successful return is a proof.
    """
    basis, AH = _h_frame(B, H)
    n, h = B.L.n, H.dim
    svs = [sv_from_seq(v) for v in basis]
    alpha_inv = B.L.alpha.inverse()
    operators = []
    for a, b in combinations(range(h), 2):
        cols = ad_columns(B.L, svs[a], svs[b])
        if any(c is None for c in cols):
            raise SplitError("bracket window too small",
                             f"ad(h_{a}, h_{b}) undetermined")
        operators.append(((a, b), alpha_inv @ mat_from_columns_sv(cols, n)))

    cands = _simultaneous_eigenspaces(operators, n)
    total = sum(space.dim for space, _ in cands)
    if total < n:
        raise SplitError("not split over Q",
                         f"eigenspaces span {total} of {n}")

    zero = SubspaceQ.zero(n)
    graded = []
    for space, ev in cands:
        form = _form_from_eigs(h, ev)
        if form.is_zero():
            zero = space
        else:
            graded.append((form, space))
    if not zero.contains_space(H):
        raise SplitError("not split over Q", "H escapes its own eigenspace")
    if zero != H:
        raise SplitError("L_0 strictly larger than H",
                         f"dim L_0 = {zero.dim}, dim H = {H.dim}")

    for form, space in graded:
        for v in space.basis:
            image = B.L.alpha.apply(v)
            vs = sv_from_seq(v)
            for (a, b), lam in _pairs_of(form):
                got = B.L.sc.trilinear(svs[a], svs[b], vs)
                if got is None:
                    raise SplitError("bracket window too small",
                                     f"[h_{a}, h_{b}, L_gamma] undetermined"
                                     f" for root {form!r}")
                want = tuple(lam * c for c in image)
                if sv_to_tuple(got, n) != want:
                    raise InternalError("eigenvector fails the"
                                        " root identity")

    graded.sort(key=lambda item: item[0].key())
    return RootDecomposition(H, basis, AH, graded, zero)


def _pairs_of(form: RootForm):
    h = form.h
    for a in range(h):
        for b in range(a + 1, h):
            yield (a, b), form.mat.rows[a][b]


def weight_decompose(B: RinehartBundle, H: SubspaceQ) -> WeightDecomposition:
    """Grade A by simultaneous eigenvalues of phi^{-1} rho(h_i, h_j)."""
    basis, AH = _h_frame(B, H)
    m, h = B.A.dim, H.dim
    if not B.A.phi.is_invertible():
        raise SplitError("phi not invertible")
    svs = [sv_from_seq(v) for v in basis]
    phi_inv = B.A.phi.inverse()
    operators = []
    for a, b in combinations(range(h), 2):
        cols = B.rho.bilinear(svs[a], svs[b])
        if any(c is None for c in cols):
            raise SplitError("anchor window too small",
                             f"rho(h_{a}, h_{b}) undetermined")
        operators.append(((a, b), phi_inv @ mat_from_columns_sv(cols, m)))

    cands = _simultaneous_eigenspaces(operators, m)
    total = sum(space.dim for space, _ in cands)
    if total < m:
        raise SplitError("A not split over Q",
                         f"eigenspaces span {total} of {m}")

    zero = SubspaceQ.zero(m)
    weights = []
    for space, ev in cands:
        form = _form_from_eigs(h, ev)
        if form.is_zero():
            zero = space
        else:
            weights.append((form, space))

    for form, space in weights:
        for v in space.basis:
            image = B.A.phi.apply(v)
            vs = sv_from_seq(v)
            for (a, b), lam in _pairs_of(form):
                got = op_apply(B.rho.bilinear(svs[a], svs[b]), vs)
                want = tuple(lam * c for c in image)
                if sv_to_tuple(got, m) != want:
                    raise InternalError("weight vector fails the"
                                        " weight identity")

    weights.sort(key=lambda item: item[0].key())
    return WeightDecomposition(H, basis, AH, weights, zero)


# -- the graded-structure regression suite -------------------------------


def _image_space(P: MatrixQ, space: SubspaceQ) -> SubspaceQ:
    return SubspaceQ(P.nrows, [P.apply(v) for v in space.basis])


def _pullback_uppers(forms, AH: MatrixQ, k: int) -> list:
    """Strict upper triangles of pullback_root(f, AH, k), one per form."""
    P = _int_power(AH, -k)
    Pt = P.transpose()
    return [_upper(Pt @ f.mat @ P) for f in forms]


def _upper_index(pieces, zero_space: SubspaceQ, h: int) -> dict:
    """Strict upper triangle of each form -> its piece; zero -> zero_space.

    Forms are antisymmetric, so the upper triangle determines one, and a
    sum of forms is looked up by the sum of their triangles.
    """
    index = {_upper(form.mat): space for form, space in pieces}
    index[(0,) * (h * (h - 1) // 2)] = zero_space
    return index


def check_thm1_properties(B: RinehartBundle, dec: RootDecomposition,
                          wdec: WeightDecomposition,
                          k_range=(-2, -1, 0, 1, 2)) -> SuiteReport:
    """The six graded-structure laws, checked exactly on generators.

    Powers of the twists move graded pieces onto the pullback-indexed
    pieces (laws 1 and 2, equalities); bracket, product, action and
    anchor add gradings, with a single pullback where the bracket or
    anchor is involved (laws 3, 5 use none; see each check).  A target
    index that is not a root/weight forces the value to vanish.
    """
    n, m = B.L.n, B.A.dim
    suite = SuiteReport("thm1")
    h = dec.H.dim
    l_index = _upper_index(dec.roots, dec.H, h)
    a_index = _upper_index(wdec.weights, wdec.zero, h)

    c1 = suite.add(CheckReport("phi-moves-weights"))
    for k in k_range:
        P = _int_power(B.A.phi, k)
        pulled = _pullback_uppers(wdec.lam, wdec.AH, k)
        for (lam, space), up in zip(wdec.weights, pulled):
            target = a_index.get(up)
            c1.tick()
            if target is None or _image_space(P, space) != target:
                c1.record({"weight": lam.key(), "k": k})

    c2 = suite.add(CheckReport("alpha-moves-roots"))
    for k in k_range:
        P = _int_power(B.L.alpha, k)
        pulled = _pullback_uppers(dec.gamma, dec.AH, k)
        for (gam, space), up in zip(dec.roots, pulled):
            target = l_index.get(up)
            c2.tick()
            if target is None or _image_space(P, space) != target:
                c2.record({"root": gam.key(), "k": k})

    def member(report, target, vec, dense_len, witness):
        if vec is None:
            report.skip()
            return
        report.tick()
        dense = sv_to_tuple(vec, dense_len)
        ok = viszero(dense) if target is None else target.contains(dense)
        if not ok:
            report.record(witness)

    # pullback is linear, so a pulled-back sum is the sum of pullbacks
    up_r = [_upper(f.mat) for f in dec.gamma]
    up_w = [_upper(f.mat) for f in wdec.lam]
    pb_r = _pullback_uppers(dec.gamma, dec.AH, 1)
    pb_w = _pullback_uppers(wdec.lam, dec.AH, 1)

    c3 = suite.add(CheckReport("bracket-adds-roots"))
    for i, j, k in combinations_with_replacement(range(len(dec.roots)), 3):
        (f1, s1), (f2, s2), (f3, s3) = dec.roots[i], dec.roots[j], dec.roots[k]
        target = l_index.get(vadd(vadd(pb_r[i], pb_r[j]), pb_r[k]))
        for x in s1.basis:
            for y in s2.basis:
                for z in s3.basis:
                    vec = B.L.sc.trilinear(sv_from_seq(x), sv_from_seq(y),
                                           sv_from_seq(z))
                    member(c3, target, vec, n,
                           {"roots": [f1.key(), f2.key(), f3.key()]})

    c4 = suite.add(CheckReport("product-adds-weights"))
    for i, j in combinations_with_replacement(range(len(wdec.weights)), 2):
        (f1, s1), (f2, s2) = wdec.weights[i], wdec.weights[j]
        target = a_index.get(vadd(up_w[i], up_w[j]))
        for x in s1.basis:
            for y in s2.basis:
                vec = B.A.product(sv_from_seq(x), sv_from_seq(y))
                member(c4, target, vec, m,
                       {"weights": [f1.key(), f2.key()]})

    c5 = suite.add(CheckReport("action-adds-grading"))
    for (lam, sa), uw in zip(wdec.weights, up_w):
        for (gam, sl), ur in zip(dec.roots, up_r):
            target = l_index.get(vadd(uw, ur))
            for a in sa.basis:
                for x in sl.basis:
                    vec = B.act.act(sv_from_seq(a), sv_from_seq(x))
                    member(c5, target, vec, n,
                           {"weight": lam.key(), "root": gam.key()})

    c6 = suite.add(CheckReport("anchor-adds-grading"))
    for i, j in combinations_with_replacement(range(len(dec.roots)), 2):
        (f1, s1), (f2, s2) = dec.roots[i], dec.roots[j]
        pair = vadd(pb_r[i], pb_r[j])
        for (lam, sa), pw in zip(wdec.weights, pb_w):
            target = a_index.get(vadd(pair, pw))
            for x in s1.basis:
                for y in s2.basis:
                    cols = B.rho.bilinear(sv_from_seq(x), sv_from_seq(y))
                    for a in sa.basis:
                        vec = op_apply(cols, sv_from_seq(a))
                        member(c6, target, vec, m,
                               {"roots": [f1.key(), f2.key()],
                                "weight": lam.key()})

    return suite


# -- connection of roots -------------------------------------------------


def _orbit(form: RootForm, AH: MatrixQ, limit: int = 10000):
    """The pullback orbit {form(alpha^k, alpha^k)} as a list."""
    out = [form]
    seen = {form}
    cur = form
    for _ in range(limit):
        cur = pullback_root(cur, AH, 1)
        if cur in seen:
            return out
        seen.add(cur)
        out.append(cur)
    raise ValueError("pullback orbit does not close; system is not finite")


def _alphabet(gamma, lam, h: int):
    forms = {zero_form(h)}
    for f in gamma:
        forms.add(f)
        forms.add(-f)
    for f in lam:
        forms.add(f)
        forms.add(-f)
    return sorted(forms, key=lambda f: f.key())


class _StateTable:
    """The finite state table of one connection search.

    The states are the forms given and their negatives (roots, or
    weights for the weight mirror), indexed once in key order; the
    letters are those of `_alphabet`, and pair p is the p-th pair of
    `combinations_with_replacement(letters, 2)`.  `steps[i]` lists
    `(j, p)` for every state j reachable from state i in one step,
    ordered by the first admitted pair p that reaches j: a pair
    (mu, beta) is admitted unless a letter equals minus state i (that
    would splice a root against its own negative and connect
    everything), and it reaches j when
    (state_i + mu + beta)(alpha^{-1}, alpha^{-1}) is state j.  That
    holds exactly when state_i + mu + beta equals the image
    state_j(alpha, alpha) = AH^T state_j AH, so the test is a lookup of
    `image_j - state_i` among the letter pair sums, computed once; no
    inverse is needed (a singular alpha|_H fails in `_orbit`, which
    every caller runs first).  Forms are antisymmetric, so each is
    compared by its strict upper triangle.  Arithmetic is exact.
    """

    __slots__ = ("states", "index", "letters", "pairs", "steps")

    def __init__(self, forms, letters, AH: MatrixQ):
        self.states = sorted(_signed(forms), key=lambda f: f.key())
        self.index = {f: i for i, f in enumerate(self.states)}
        self.letters = letters
        self.pairs = list(combinations_with_replacement(range(len(letters)),
                                                        2))
        flat = [_upper(f.mat) for f in letters]
        by_sum = {}
        for p, (a, b) in enumerate(self.pairs):
            by_sum.setdefault(vadd(flat[a], flat[b]), []).append(p)
        AHt = AH.transpose()
        images = [_upper(AHt @ s.mat @ AH) for s in self.states]
        letter_index = {f: i for i, f in enumerate(letters)}
        self.steps = []
        for s in self.states:
            delta = _upper(s.mat)
            neg = letter_index.get(-s)
            found = []
            for j, image in enumerate(images):
                for p in by_sum.get(vsub(image, delta), ()):
                    if neg not in self.pairs[p]:
                        found.append((p, j))
                        break
            found.sort()
            self.steps.append(tuple((j, p) for p, j in found))

    def ids(self, forms):
        """Indices of those forms that are states, in the given order."""
        return [self.index[f] for f in forms if f in self.index]


def _upper(mat: MatrixQ) -> tuple:
    """The strict upper triangle of a square matrix, row by row."""
    n = mat.nrows
    return tuple(mat.rows[a][b] for a in range(n) for b in range(a + 1, n))


def _signed(forms):
    """The forms and their negatives."""
    out = set(forms)
    out.update(-f for f in forms)
    return out


def _connect_search(table: _StateTable, start, accept=frozenset()):
    """BFS over state indices of `table` from the indices in `start`.

    Returns the parent map, keyed by every state discovered (in
    discovery order): None for a start state, else (previous state,
    pair index).  With `accept` given, the search stops at the first
    accepted state it discovers, which is then the last key.  Each
    state's steps are stored in pair enumeration order, so the order of
    discovery, and with it every witness chain, is fixed by the start
    order and the order of `_alphabet`: the same as a search that
    pulls back every admitted pair in turn.
    """
    parent = dict.fromkeys(start)
    queue = deque(start)
    while queue:
        i = queue.popleft()
        for j, p in table.steps[i]:
            if j in parent:
                continue
            parent[j] = (i, p)
            if j in accept:
                return parent
            queue.append(j)
    return parent


def connected(gamma, lam, AH: MatrixQ, src: RootForm, dst: RootForm):
    """Whether src and dst are connected; with a witness chain.

    The chain, when nonempty, is the odd-length sequence of forms
    whose pairwise-summed pullbacks walk from an orbit representative
    of src to one of +-dst; an empty chain marks the orbit case, and
    (False, None) the case that dst is not reached.
    """
    roots = set(gamma)
    if src not in roots or dst not in roots:
        raise ValueError("form is not in the root system")
    src_orbit, dst_orbit = _orbit(src, AH), _orbit(dst, AH)
    table = _StateTable(gamma, _alphabet(gamma, lam, AH.nrows), AH)
    start = table.ids(src_orbit)
    accept = set(table.ids(_signed(dst_orbit)))
    if accept.intersection(start):
        return True, []
    parent = _connect_search(table, start, accept)
    cur = next(reversed(parent))
    if cur not in accept:
        return False, None
    pairs = []
    while parent[cur] is not None:
        cur, p = parent[cur]
        pairs.append(p)
    chain = [table.states[cur]]
    for p in reversed(pairs):
        chain.extend(table.letters[a] for a in table.pairs[p])
    return True, chain


def connection_chain_valid(chain, gamma, lam, AH: MatrixQ,
                           src: RootForm, dst: RootForm) -> bool:
    """Validate a chain against the literal power-sum recurrence.

    Independent of the BFS: the i-th partial form is recomputed from
    scratch as chain[0](alpha^{-i}) plus the pullback-weighted pair
    sums, and the membership conditions are tested directly.
    """
    if len(chain) < 3 or len(chain) % 2 == 0:
        return False
    letters = set(_alphabet(gamma, lam, src.h))
    if any(f not in letters for f in chain[1:]):
        return False
    if chain[0] not in set(_orbit(src, AH)):
        return False
    plus_minus = _signed(gamma)
    accept = _signed(_orbit(dst, AH))
    n_steps = (len(chain) - 1) // 2
    for i in range(1, n_steps + 1):
        bar = pullback_root(chain[0], AH, i)
        for j in range(1, i + 1):
            pair = chain[2 * j - 1] + chain[2 * j]
            bar = bar + pullback_root(pair, AH, i + 1 - j)
        if i < n_steps:
            if bar not in plus_minus:
                return False
        elif bar not in accept:
            return False
    return True


class RootClassPartition:
    """Connection-equivalence classes, deterministically ordered."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        self.classes = tuple(tuple(c) for c in classes)

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def __repr__(self):
        return f"RootClassPartition({[len(c) for c in self.classes]})"


def _partition(forms, gamma, lam, AH) -> RootClassPartition:
    """Partition `forms` by connection, verifying the equivalence laws.

    One `_StateTable` over the +-forms serves every search.  Each
    form's pullback orbit is computed once: its states start that
    form's search, and its +-states are what another form's search
    must reach for the two to be connected.  The reflexive, symmetric
    and transitive laws are re-checked on the resulting relation (the
    O(r^3) scan is cheap next to the searches) and a break raises
    InternalError.
    """
    forms = sorted(set(forms), key=lambda f: f.key())
    n = len(forms)
    orbits = [_orbit(f, AH) for f in forms]
    table = _StateTable(forms, _alphabet(gamma, lam, AH.nrows), AH)
    reach = [_connect_search(table, table.ids(orb)) for orb in orbits]
    targets = [set(table.ids(_signed(orb))) for orb in orbits]
    conn = [[not targets[j].isdisjoint(reach[i]) for j in range(n)]
            for i in range(n)]
    for i in range(n):
        if not conn[i][i]:
            raise InternalError("connection relation is not reflexive")
        for j in range(n):
            if conn[i][j] != conn[j][i]:
                raise InternalError("connection relation is not symmetric")
    for i in range(n):
        for j in range(n):
            if not conn[i][j]:
                continue
            for k in range(n):
                if conn[j][k] and not conn[i][k]:
                    raise InternalError(
                        "connection relation is not transitive")
    assigned = [-1] * n
    classes = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        idx = len(classes)
        members = [j for j in range(n) if conn[i][j]]
        for j in members:
            assigned[j] = idx
        classes.append([forms[j] for j in members])
    return RootClassPartition(classes)


def root_classes(gamma, lam, AH: MatrixQ) -> RootClassPartition:
    return _partition(gamma, gamma, lam, AH)


# -- class ideals --------------------------------------------------------


class ClassIdeal:
    """I = L_{0,[gamma]} (+) L_{[gamma]} for one connection class."""

    __slots__ = ("roots", "zero_part", "graded_part", "space")

    def __init__(self, roots, zero_part, graded_part, space):
        self.roots = tuple(roots)
        self.zero_part = zero_part
        self.graded_part = graded_part
        self.space = space

    def __repr__(self):
        return (f"ClassIdeal(roots={len(self.roots)},"
                f" dim={self.space.dim})")


def _zero_part_vectors(B: RinehartBundle, dec: RootDecomposition,
                       wdec: WeightDecomposition, roots) -> list:
    """Generators of A_{-xi} L_xi sums plus zero-sum triple brackets."""
    n = B.L.n
    vecs = []
    for xi in roots:
        sp_a = wdec.index.get(-xi)
        sp_l = dec.index[xi]
        if sp_a is None:
            continue
        for a in sp_a.basis:
            for x in sp_l.basis:
                out = B.act.act(sv_from_seq(a), sv_from_seq(x))
                if out is None:
                    raise SplitError("action window too small",
                                     f"A_(-xi) L_xi undetermined for root"
                                     f" xi = {xi!r}")
                vecs.append(sv_to_tuple(out, n))
    ups = [_upper(f.mat) for f in roots]
    for i, j, k in combinations_with_replacement(range(len(roots)), 3):
        if not viszero(vadd(vadd(ups[i], ups[j]), ups[k])):
            continue
        xi, eta, delta = roots[i], roots[j], roots[k]
        for x in dec.index[xi].basis:
            for y in dec.index[eta].basis:
                for z in dec.index[delta].basis:
                    out = B.L.sc.trilinear(sv_from_seq(x), sv_from_seq(y),
                                           sv_from_seq(z))
                    if out is None:
                        raise SplitError("bracket window too small",
                                         f"[L_xi, L_eta, L_delta]"
                                         f" undetermined for the zero-sum"
                                         f" roots {xi!r}, {eta!r}, {delta!r}")
                    vecs.append(sv_to_tuple(out, n))
    return vecs


def class_ideal(B: RinehartBundle, dec: RootDecomposition,
                wdec: WeightDecomposition, roots) -> ClassIdeal:
    """Assemble I for one class and certify its two structure facts.

    The zero part must land inside H, and must meet the graded part
    trivially; both are consequences of the graded laws and are
    re-checked here so the returned object is trustworthy.
    """
    roots = sorted(roots, key=lambda f: f.key())
    for f in roots:
        if f not in dec.index:
            raise ValueError("class contains a form that is not a root")
    n = B.L.n
    zero_part = SubspaceQ(n, _zero_part_vectors(B, dec, wdec, roots))
    if not dec.H.contains_space(zero_part):
        raise InternalError("class zero part escapes H")
    graded = SubspaceQ.sum_of([dec.index[f] for f in roots], n)
    space = zero_part.sum_with(graded)
    if space.dim != zero_part.dim + graded.dim:
        raise InternalError("class zero part meets the graded part")
    return ClassIdeal(roots, zero_part, graded, space)


def check_class_ideal_laws(B: RinehartBundle, dec: RootDecomposition,
                           wdec: WeightDecomposition,
                           partition: RootClassPartition):
    """Closure, orthogonality and ideal laws for every class ideal.

    Returns (suite, ideals).  Closure: [I,I,I] in I, alpha(I) in I,
    A I in I.  Orthogonality: brackets with generators from two (and
    three) distinct classes vanish.  Ideal law: [I,L,L] in I.

    The stronger anchor absorption rho(I,L)(A) L in I is deliberately
    not required here: it only follows from the bracket laws when the
    A-action on L is everywhere defined, and on windowed bundles it
    can fail through perfectly determined entries (the action of an
    anchor image that escapes I).  The ideal-law oracle of
    tests/test_rinehart.py (`rinehart_ideal_check`) checks it on
    bundles where it is meaningful.
    """
    ideals = [class_ideal(B, dec, wdec, cls) for cls in partition]
    n = B.L.n
    suite = SuiteReport("class-ideals")

    close_b = suite.add(CheckReport("closure-bracket"))
    close_t = suite.add(CheckReport("closure-twist"))
    close_a = suite.add(CheckReport("closure-action"))
    for idx, ci in enumerate(ideals):
        gens = [sv_from_seq(v) for v in ci.space.basis]
        for i, j, k in combinations_with_replacement(range(len(gens)), 3):
            vec = B.L.sc.trilinear(gens[i], gens[j], gens[k])
            if vec is None:
                close_b.skip()
                continue
            close_b.tick()
            if not ci.space.contains(sv_to_tuple(vec, n)):
                close_b.record({"class": idx, "triple": [i, j, k]})
        for v in ci.space.basis:
            close_t.tick()
            if not ci.space.contains(B.L.alpha.apply(v)):
                close_t.record({"class": idx})
        for a in range(B.A.dim):
            for g in gens:
                out = B.act.act({a: 1}, g)
                if out is None:
                    close_a.skip()
                    continue
                close_a.tick()
                if not ci.space.contains(sv_to_tuple(out, n)):
                    close_a.record({"class": idx, "a": a})

    ortho = suite.add(CheckReport("orthogonality"))
    for i, j in combinations(range(len(ideals)), 2):
        gi = [sv_from_seq(v) for v in ideals[i].space.basis]
        gj = [sv_from_seq(v) for v in ideals[j].space.basis]
        for x, y in combinations_with_replacement(gi, 2):
            for z in gj:
                vec = B.L.sc.trilinear(x, y, z)
                if vec is None:
                    ortho.skip()
                    continue
                ortho.tick()
                if not viszero(sv_to_tuple(vec, n)):
                    ortho.record({"classes": [i, i, j]})
        for x in gi:
            for y, z in combinations_with_replacement(gj, 2):
                vec = B.L.sc.trilinear(x, y, z)
                if vec is None:
                    ortho.skip()
                    continue
                ortho.tick()
                if not viszero(sv_to_tuple(vec, n)):
                    ortho.record({"classes": [i, j, j]})
    for i, j, k in combinations(range(len(ideals)), 3):
        for x in ideals[i].space.basis:
            for y in ideals[j].space.basis:
                for z in ideals[k].space.basis:
                    vec = B.L.sc.trilinear(sv_from_seq(x), sv_from_seq(y),
                                           sv_from_seq(z))
                    if vec is None:
                        ortho.skip()
                        continue
                    ortho.tick()
                    if not viszero(sv_to_tuple(vec, n)):
                        ortho.record({"classes": [i, j, k]})

    ideal_law = suite.add(CheckReport("three-lie-ideal"))
    for idx, ci in enumerate(ideals):
        gens = [sv_from_seq(v) for v in ci.space.basis]
        for g in gens:
            for i, j in combinations_with_replacement(range(n), 2):
                vec = B.L.sc.trilinear(g, {i: 1}, {j: 1})
                if vec is None:
                    ideal_law.skip()
                    continue
                ideal_law.tick()
                if not ci.space.contains(sv_to_tuple(vec, n)):
                    ideal_law.record({"class": idx, "pair": [i, j]})

    return suite, ideals


# -- direct-sum theorems -------------------------------------------------


def direct_sum_decompose(B: RinehartBundle, dec: RootDecomposition,
                         wdec: WeightDecomposition,
                         partition: RootClassPartition) -> SuiteReport:
    """Evaluate the two hypotheses and, when they hold, the direct sum.

    Hypothesis 1: the bracket-and-anchor center of L is zero.
    Hypothesis 2: H is generated by the A_{-xi} L_xi images together
    with the zero-sum triple brackets, over the whole root system.
    When both hold the class ideals of `partition` must sum directly
    to L; a failed hypothesis blocks the direct-sum check and is
    reported with its defect instead.
    """
    n = B.L.n
    suite = SuiteReport("direct-sum")

    zc = centers(B)
    c1 = suite.add(CheckReport("center-trivial"))
    c1.tick()
    z = zc["Z_rho_L"]
    if z.dim:
        c1.record({"dim": z.dim, "generator": [qstr(x) for x in z.basis[0]]})

    c2 = suite.add(CheckReport("H-generated"))
    gen = SubspaceQ(n, _zero_part_vectors(B, dec, wdec, list(dec.gamma)))
    if not dec.H.contains_space(gen):
        raise InternalError("generated space escapes H")
    c2.tick()
    if gen != dec.H:
        missing = [v for v in dec.H.basis if not gen.contains(v)]
        c2.record({"generated_dim": gen.dim, "H_dim": dec.H.dim,
                   "gap": [[qstr(x) for x in v] for v in missing[:2]]})

    c3 = suite.add(CheckReport("ideal-direct-sum"))
    if c1.passed and c2.passed:
        ideals = [class_ideal(B, dec, wdec, cls) for cls in partition]
        total = SubspaceQ.sum_of([ci.space for ci in ideals], n)
        c3.tick()
        if total.dim != sum(ci.space.dim for ci in ideals) or total.dim != n:
            c3.record({"total_dim": total.dim,
                       "parts": [ci.space.dim for ci in ideals]})
    else:
        failed = [c.name for c in (c1, c2) if not c.passed]
        c3.block("hypothesis failed: " + ", ".join(failed))
    return suite


# -- the weight-side mirror ----------------------------------------------


def weight_class_decompose(B: RinehartBundle, dec: RootDecomposition,
                           wdec: WeightDecomposition):
    """Classes of weights and the induced decomposition of A.

    Mirrors the root-side construction: weights are partitioned with
    the same connection machinery, each class gets its zero part
    (products A_{-beta} A_beta plus anchor images on zero-sum index
    triples) and graded part, distinct classes annihilate each other,
    and when the annihilator of the action vanishes and A_0 is
    generated, A is the direct sum of the class algebras.
    Returns (suite, partition, class spaces).
    """
    m = B.A.dim
    suite = SuiteReport("weight-classes")
    partition = _partition(wdec.lam, dec.gamma, wdec.lam, wdec.AH)
    up_r = [_upper(f.mat) for f in dec.gamma]
    up_w = {f: _upper(f.mat) for f in wdec.lam}

    def zero_vectors(weights):
        vecs = []
        for beta in weights:
            sp_n = wdec.index.get(-beta)
            if sp_n is None:
                continue
            for x in sp_n.basis:
                for y in wdec.index[beta].basis:
                    out = B.A.product(sv_from_seq(x), sv_from_seq(y))
                    if out is None:
                        raise SplitError("product window too small",
                                         f"A_(-beta) A_beta undetermined"
                                         f" for weight beta = {beta!r}")
                    vecs.append(sv_to_tuple(out, m))
        for i, j in combinations_with_replacement(range(len(dec.roots)), 2):
            (f1, s1), (f2, s2) = dec.roots[i], dec.roots[j]
            pair = vadd(up_r[i], up_r[j])
            for beta in weights:
                if not viszero(vadd(pair, up_w[beta])):
                    continue
                for x in s1.basis:
                    for y in s2.basis:
                        cols = B.rho.bilinear(sv_from_seq(x),
                                              sv_from_seq(y))
                        for a in wdec.index[beta].basis:
                            out = op_apply(cols, sv_from_seq(a))
                            if out is None:
                                raise SplitError(
                                    "anchor window too small",
                                    f"rho(L_gamma, L_delta) A_beta"
                                    f" undetermined for roots {f1!r},"
                                    f" {f2!r} and weight {beta!r}")
                            vecs.append(sv_to_tuple(out, m))
        return vecs

    spaces = []
    inside = suite.add(CheckReport("zero-parts-in-A0"))
    for cls in partition:
        zero_part = SubspaceQ(m, zero_vectors(cls))
        graded = SubspaceQ.sum_of([wdec.index[f] for f in cls], m)
        inside.tick()
        if not wdec.zero.contains_space(zero_part):
            inside.record({"class": [f.key() for f in cls]})
        total = zero_part.sum_with(graded)
        if total.dim != zero_part.dim + graded.dim:
            raise InternalError("weight class sum is not direct")
        spaces.append(total)

    annih = suite.add(CheckReport("classes-annihilate"))
    for i, j in combinations(range(len(spaces)), 2):
        for x in spaces[i].basis:
            for y in spaces[j].basis:
                out = B.A.product(sv_from_seq(x), sv_from_seq(y))
                if out is None:
                    annih.skip()
                    continue
                annih.tick()
                if not viszero(sv_to_tuple(out, m)):
                    annih.record({"classes": [i, j]})

    ds = suite.add(CheckReport("A-direct-sum"))
    z = centers(B)["Z_L_A"]
    gen = SubspaceQ(m, zero_vectors(list(wdec.lam)))
    if z.dim == 0 and gen == wdec.zero:
        total = SubspaceQ.sum_of(spaces, m)
        ds.tick()
        if total.dim != sum(s.dim for s in spaces) or total.dim != m:
            ds.record({"total_dim": total.dim})
    else:
        why = []
        if z.dim:
            why.append("Z_L(A) is nonzero")
        if gen != wdec.zero:
            why.append(f"A_0 generated dim {gen.dim} of {wdec.zero.dim}")
        ds.block("hypothesis failed: " + ", ".join(why))

    return suite, partition, spaces
