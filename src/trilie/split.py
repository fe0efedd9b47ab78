"""Root and weight decompositions relative to a splitting subalgebra.

Given a bundle and an abelian, twist-stable subalgebra H, the bracket
with two H-slots and the anchor on H-pairs become commuting families
of operators; their simultaneous rational eigenspaces grade L and A by
antisymmetric bilinear forms on H (roots and weights).  The gradings
mirror each other, [h1,h2,x] = gamma(h1,h2) alpha(x) on L and
rho(h1,h2) a = lambda(h1,h2) phi(a) on A, so one engine, `_grade`,
builds both from a side: the pair operator (ad or rho), the twist
(alpha or phi) and the window messages.  On top of the decomposition
this module implements the connection-of-roots equivalence, class
ideals with their closure, orthogonality and ideal laws, the two
direct-sum theorems, and the weight-side mirror.  The ideal law and
the center Z_rho(L) read the bracket table by basis index
(`core3lie.by_index`), so they visit only the basis brackets that a
stored or missing triple touches; the others are zero.  Connections
walk pullback orbits, which close within `_orbit_bound(dim H)` steps
or never.

All arithmetic is exact.  Failure to split over Q is reported, never
patched: the decomposition either exhausts the space with rational
eigenvalues or raises SplitError with the failing condition, which
includes a twist that is not invertible, a window that leaves an
operator of H undetermined and a pullback orbit that does not close.
A computed result that breaks an invariant the theory guarantees (an
eigenvector off its eigenvalue, a connection relation that is not an
equivalence) raises InternalError: that is a bug here, not bad input.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import lru_cache, partial
from itertools import (combinations, combinations_with_replacement,
                       product, starmap)
from math import lcm

from .core3lie import ad_columns, by_index
from .exactq import (
    MatrixQ,
    SubspaceQ,
    eigenspace,
    mat_apply_sv,
    mat_from_columns_sv,
    qstr,
    rational_spectrum,
    sv_axpy,
    sv_from_seq,
    sv_to_tuple,
    vadd,
    viszero,
    vsub,
)
from .report import CheckReport, SuiteReport, stored_on
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


def _powers(mat: MatrixQ, ks, inverse: MatrixQ | None = None) -> dict:
    """{k: mat^k} for every k from min(0, *ks) to max(0, *ks).

    Positive powers are successive products of mat, negative ones of its
    inverse: `inverse` when given, else computed once and only when a k
    is negative.
    """
    out = {0: MatrixQ.identity(mat.nrows)}
    for sign, top in ((1, max(ks)), (-1, -min(ks))):
        if top > 0:
            base = (mat if sign > 0 else
                    inverse if inverse is not None else mat.inverse())
            out[sign] = cur = base
            for k in range(2, top + 1):
                out[sign * k] = cur = cur @ base
    return out


def pullback_root(form: RootForm, AH: MatrixQ, k: int) -> RootForm:
    """The form composed with alpha^{-k} in both slots.

    pullback_root(gamma, AH, k) is the root of the image space
    alpha^k(L_gamma); AH is the matrix of alpha restricted to H in the
    same basis the form is written in.
    """
    P = _powers(AH, (-k,))[-k]
    return RootForm(P.transpose() @ form.mat @ P)


# -- decompositions ------------------------------------------------------


class Decomposition:
    """L graded by roots (zero part L_0 = H) or A by weights (A_0).

    `pieces` are the (form, space) pairs in form key order; `index`
    maps a form to its space and `sparse` to its basis as sparse
    vectors.  AH is the matrix of alpha on H in H's basis, and
    twist_inv the inverse of the twist the space is graded by (alpha
    for roots, phi for weights).
    """

    __slots__ = ("H", "AH", "pieces", "forms", "index", "sparse", "zero",
                 "twist_inv")

    def __init__(self, H, AH, pieces, zero, twist_inv):
        self.H = H
        self.AH = AH
        self.twist_inv = twist_inv
        self.pieces = tuple(pieces)
        self.forms = tuple(form for form, _ in self.pieces)
        self.index = dict(self.pieces)
        self.sparse = {form: [sv_from_seq(v) for v in space.basis]
                       for form, space in self.pieces}
        self.zero = zero


@stored_on("_frame")
def _h_frame(B: RinehartBundle, H: SubspaceQ):
    """Validate H; return (its basis as sparse vectors, alpha on H,
    alpha^-1, (alpha on H)^-1), kept with the bundle while H is the same
    object, so the root and the weight decompositions validate H once
    and every later stage of the same H reuses the two inverses."""
    n = B.L.n
    if H.ambient != n:
        raise ValueError("H does not live in L")
    if H.dim == 0:
        raise ValueError("H must be nonzero")
    svs = [sv_from_seq(v) for v in H.basis]
    for i, j, k in combinations_with_replacement(range(H.dim), 3):
        vec = B.L.sc.trilinear(svs[i], svs[j], svs[k])
        if vec is None:
            raise SplitError("bracket window too small",
                             f"[H,H,H] undetermined at basis triple"
                             f" {(i, j, k)}")
        if vec:
            raise SplitError("not abelian", f"basis triple {(i, j, k)}")
    try:
        alpha_inv = B.L.alpha.inverse()
    except ValueError:
        raise SplitError("alpha not invertible") from None
    coords = [H.coordinates(B.L.alpha.apply(v)) for v in H.basis]
    if None in coords:
        raise SplitError("H not alpha-stable")
    AH = MatrixQ(coords).transpose()
    try:
        AH_inv = AH.inverse()
    except ValueError:
        raise SplitError("H not alpha-stable", "alpha collapses H") from None
    return svs, AH, alpha_inv, AH_inv


def _grade(H: SubspaceQ, frame, twist: MatrixQ, twist_inv: MatrixQ,
           pair_columns, name: str, window: str,
           unsplit: str) -> Decomposition:
    """Grade a space by simultaneous eigenvalues of twist^{-1} op(h_a, h_b).

    `frame` is what `_h_frame` returns, twist_inv the inverse of twist
    and `pair_columns(u, v)` the columns of the pair operator `name`.
    A None column raises SplitError(window); eigenspaces that do not
    exhaust the space raise SplitError(unsplit).  The eigen-identity op(h_a, h_b) v =
    form(h_a, h_b) twist(v) is re-verified from the same columns on
    every reported generator, so a successful return is a proof.
    """
    svs, AH = frame[:2]
    h, ambient = H.dim, twist.nrows
    columns = {}
    # refine the whole space along the rational eigenvalues of each
    # operator; an eigenspace that is everything leaves a piece as it is
    cands = [(SubspaceQ.full(ambient), {})]
    for a, b in combinations(range(h), 2):
        cols = pair_columns(svs[a], svs[b])
        if any(c is None for c in cols):
            raise SplitError(window, f"{name}(h_{a}, h_{b}) undetermined")
        columns[a, b] = cols
        op = twist_inv @ mat_from_columns_sv(cols, ambient)
        eigen = [(lam, eigenspace(op, lam))
                 for lam in sorted(rational_spectrum(op))]
        nxt = []
        for space, ev in cands:
            for lam, espace in eigen:
                piece = (space if espace.dim == ambient
                         else space.intersect(espace))
                if piece.dim:
                    nxt.append((piece, {**ev, (a, b): lam}))
        cands = nxt
    total = sum(space.dim for space, _ in cands)
    if total < ambient:
        raise SplitError(unsplit, f"eigenspaces span {total} of {ambient}")

    zero = SubspaceQ.zero(ambient)
    pieces = []
    for space, ev in cands:
        form = RootForm(MatrixQ([[ev.get((a, b), 0) - ev.get((b, a), 0)
                                  for b in range(h)] for a in range(h)]))
        if form.is_zero():
            zero = space
        else:
            pieces.append((form, space))
    pieces.sort(key=lambda item: item[0].key())
    dec = Decomposition(H, AH, pieces, zero, twist_inv)

    for form, space in dec.pieces:
        for v, vs in zip(space.basis, dec.sparse[form]):
            image = twist.apply(v)
            for (a, b), cols in columns.items():
                lam = form.mat.rows[a][b]
                want = tuple(lam * c for c in image)
                if sv_to_tuple(mat_apply_sv(cols, vs), ambient) != want:
                    raise InternalError(f"eigenvector fails the {name}"
                                        f" eigen-identity")
    return dec


def root_decompose(B: RinehartBundle, H: SubspaceQ) -> Decomposition:
    """Grade L by simultaneous eigenvalues of alpha^{-1} ad(h_i, h_j).

    The zero part must be exactly H.
    """
    frame = _h_frame(B, H)
    dec = _grade(H, frame, B.L.alpha, frame[2], partial(ad_columns, B.L),
                 "ad", "bracket window too small", "not split over Q")
    if not dec.zero.contains_space(H):
        raise SplitError("not split over Q", "H escapes its own eigenspace")
    if dec.zero != H:
        raise SplitError("L_0 strictly larger than H",
                         f"dim L_0 = {dec.zero.dim}, dim H = {H.dim}")
    return dec


def weight_decompose(B: RinehartBundle, H: SubspaceQ) -> Decomposition:
    """Grade A by simultaneous eigenvalues of phi^{-1} rho(h_i, h_j)."""
    frame = _h_frame(B, H)
    try:
        phi_inv = B.A.phi.inverse()
    except ValueError:
        raise SplitError("phi not invertible") from None
    return _grade(H, frame, B.A.phi, phi_inv, B.rho.bilinear, "rho",
                  "anchor window too small", "A not split over Q")


# -- the graded-structure regression suite -------------------------------


# the twist powers k of laws 1 and 2
_THM1_POWERS = (-2, -1, 0, 1, 2)


def _pullback_uppers(forms, AH: MatrixQ, k: int, AH_inv: MatrixQ) -> list:
    """Strict upper triangles of pullback_root(f, AH, k), one per form;
    AH_inv is the inverse of AH."""
    P = _powers(AH, (-k,), AH_inv)[-k]
    Pt = P.transpose()
    return [_upper(Pt @ f.mat @ P) for f in forms]


def _upper_index(dec: Decomposition) -> dict:
    """Strict upper triangle of each form -> its piece; zero -> zero part.

    Forms are antisymmetric, so the upper triangle determines one, and a
    sum of forms is looked up by the sum of their triangles.
    """
    h = dec.H.dim
    index = {_upper(form.mat): space for form, space in dec.pieces}
    index[(0,) * (h * (h - 1) // 2)] = dec.zero
    return index


def _law(report: CheckReport, target, values, witness) -> None:
    """Count the values of a "vanish or land in the target" law.

    None is undetermined, a skip.  Any other value must vanish when
    target is None, else lie in the subspace target, or it records
    `witness`.
    """
    for vec in values:
        if vec is None:
            report.skip()
            continue
        report.tick()
        if vec if target is None else not target.contains_sv(vec):
            report.record(witness)


def check_thm1_properties(B: RinehartBundle, dec: Decomposition,
                          wdec: Decomposition) -> SuiteReport:
    """The six graded-structure laws, checked exactly on generators.

    Powers of the twists move graded pieces onto the pullback-indexed
    pieces (laws 1 and 2, equalities); bracket, product, action and
    anchor add gradings, with a single pullback where the bracket or
    anchor is involved (laws 3, 5 use none; see each check).  A target
    index that is not a root/weight forces the value to vanish.
    """
    suite = SuiteReport("thm1")
    l_index, a_index = _upper_index(dec), _upper_index(wdec)
    AH_inv = _h_frame(B, dec.H)[3]

    for name, twist, side, index, key in (
            ("phi-moves-weights", B.A.phi, wdec, a_index, "weight"),
            ("alpha-moves-roots", B.L.alpha, dec, l_index, "root")):
        report = suite.add(CheckReport(name))
        powers = _powers(twist, _THM1_POWERS, side.twist_inv)
        for k in _THM1_POWERS:
            P = powers[k]
            pulled = _pullback_uppers(side.forms, side.AH, k, AH_inv)
            for (form, space), up in zip(side.pieces, pulled):
                target = index.get(up)
                report.tick()
                if target is None or target != SubspaceQ(
                        P.nrows, [P.apply(v) for v in space.basis]):
                    report.record({key: form.key(), "k": k})

    # pullback is linear, so a pulled-back sum is the sum of pullbacks
    gam, lam = dec.forms, wdec.forms
    up_r = [_upper(f.mat) for f in gam]
    up_w = [_upper(f.mat) for f in lam]
    pb_r = _pullback_uppers(gam, dec.AH, 1, AH_inv)
    pb_w = _pullback_uppers(lam, dec.AH, 1, AH_inv)
    sv_r = [dec.sparse[f] for f in gam]
    sv_w = [wdec.sparse[f] for f in lam]

    c3 = suite.add(CheckReport("bracket-adds-roots"))
    for i, j, k in combinations_with_replacement(range(len(gam)), 3):
        _law(c3, l_index.get(vadd(vadd(pb_r[i], pb_r[j]), pb_r[k])),
             starmap(B.L.sc.trilinear, product(sv_r[i], sv_r[j], sv_r[k])),
             {"roots": [gam[i].key(), gam[j].key(), gam[k].key()]})

    c4 = suite.add(CheckReport("product-adds-weights"))
    for i, j in combinations_with_replacement(range(len(lam)), 2):
        _law(c4, a_index.get(vadd(up_w[i], up_w[j])),
             starmap(B.A.product, product(sv_w[i], sv_w[j])),
             {"weights": [lam[i].key(), lam[j].key()]})

    c5 = suite.add(CheckReport("action-adds-grading"))
    for w, sa, uw in zip(lam, sv_w, up_w):
        for g, sl, ur in zip(gam, sv_r, up_r):
            _law(c5, l_index.get(vadd(uw, ur)),
                 starmap(B.act.act, product(sa, sl)),
                 {"weight": w.key(), "root": g.key()})

    c6 = suite.add(CheckReport("anchor-adds-grading"))
    for i, j in combinations_with_replacement(range(len(gam)), 2):
        pair = vadd(pb_r[i], pb_r[j])
        ops = [B.rho.bilinear(x, y) for x, y in product(sv_r[i], sv_r[j])]
        for w, sa, pw in zip(lam, sv_w, pb_w):
            _law(c6, a_index.get(vadd(pair, pw)),
                 starmap(mat_apply_sv, product(ops, sa)),
                 {"roots": [gam[i].key(), gam[j].key()], "weight": w.key()})

    return suite


# -- connection of roots -------------------------------------------------


@lru_cache(maxsize=None)
def _orbit_bound(h: int) -> int:
    """The longest pullback orbit that closes, for dim H = h.

    Pulling back is an invertible linear map T of the d = h(h-1)/2
    dimensional space of forms.  If T^L F = F, then T^L fixes the span
    Z of the orbit of F, so the orbit length is the order of T on Z: a
    rational matrix of finite order and size at most d.  Its minimal
    polynomial divides x^L - 1, so it is a product of distinct
    cyclotomic polynomials Phi_k, of degrees phi(k) summing to at most
    d, and the order is the lcm of those k.  phi(k) >= sqrt(k / 2), so
    each k is at most 2 d^2.  The bound is the largest such lcm, found
    by a 0/1 knapsack over k: 1, 2, 6, 30 for h = 1, 2, 3, 4.  It grows
    fast (13,860 at h = 8), so past small H an orbit that never closes
    is refused only after a long walk.
    """
    d = h * (h - 1) // 2
    top = 2 * d * d
    phi = list(range(top + 1))      # Euler's totient, by a sieve
    for p in range(2, top + 1):
        if phi[p] == p:
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    reach = {0: {1}}    # degree used -> the lcms reached with it
    for k in range(2, top + 1):
        for used in sorted(reach, reverse=True):
            if used + phi[k] <= d:
                reach.setdefault(used + phi[k], set()).update(
                    lcm(m, k) for m in reach[used])
    return max(max(lcms) for lcms in reach.values())


def _orbit(form: RootForm, AH: MatrixQ, inverse: MatrixQ):
    """The pullback orbit {form(alpha^k, alpha^k)} as a list.

    Pulling back is invertible, so an orbit that closes returns to
    `form` itself, within `_orbit_bound` steps; one that has not by
    then is infinite, a SplitError.  inverse is AH^-1, which the
    caller computes once for all its walks.
    """
    out = [form]
    cur = form
    # a step is pullback_root(cur, AH, 1), the same as pullback_root by
    # -1 under the inverse
    for _ in range(_orbit_bound(AH.nrows)):
        cur = pullback_root(cur, inverse, -1)
        if cur == form:
            return out
        out.append(cur)
    raise SplitError("pullback orbit does not close",
                     f"{form!r} has an infinite orbit under alpha on H")


def _alphabet(gamma, lam, h: int):
    forms = _signed(gamma) | _signed(lam) | {zero_form(h)}
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
    inverse = AH.inverse()
    src_orbit = _orbit(src, AH, inverse)
    dst_orbit = _orbit(dst, AH, inverse)
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
    inverse = AH.inverse()
    if chain[0] not in set(_orbit(src, AH, inverse)):
        return False
    plus_minus = _signed(gamma)
    accept = _signed(_orbit(dst, AH, inverse))
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


def _partition(forms, gamma, lam, AH, AH_inv) -> tuple:
    """Partition `forms` by connection, verifying the equivalence laws.

    Returns the classes as tuples of forms in key order, ordered by
    their first form.  AH_inv is the inverse of AH.

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
    orbits = [_orbit(f, AH, AH_inv) for f in forms]
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
    # each class once, from its first member
    return tuple(tuple(forms[j] for j in range(n) if conn[i][j])
                 for i in range(n) if conn[i].index(True) == i)


def root_classes(gamma, lam, AH: MatrixQ) -> tuple:
    return _partition(gamma, gamma, lam, AH, AH.inverse())


# -- class ideals --------------------------------------------------------


# I = L_{0,[gamma]} (+) L_{[gamma]} for one connection class
ClassIdeal = namedtuple("ClassIdeal", "roots zero_part space")


def _generators(ambient: int, op, factors, window: str, detail: str):
    """Yield op(x_1, .., x_k) as dense vectors over every tuple of
    sparse vectors, one from each factor, in product order; a value
    the window leaves undetermined raises SplitError(window, detail)."""
    for args in product(*factors):
        vec = op(*args)
        if vec is None:
            raise SplitError(window, detail)
        yield sv_to_tuple(vec, ambient)


def _zero_part_vectors(B: RinehartBundle, dec: Decomposition,
                       wdec: Decomposition, roots) -> list:
    """Generators of A_{-xi} L_xi sums plus zero-sum triple brackets."""
    n = B.L.n
    vecs = []
    for xi in roots:
        if -xi in wdec.index:
            vecs.extend(_generators(
                n, B.act.act, (wdec.sparse[-xi], dec.sparse[xi]),
                "action window too small",
                f"A_(-xi) L_xi undetermined for root xi = {xi!r}"))
    ups = [_upper(f.mat) for f in roots]
    for i, j, k in combinations_with_replacement(range(len(roots)), 3):
        if viszero(vadd(vadd(ups[i], ups[j]), ups[k])):
            xi, eta, delta = roots[i], roots[j], roots[k]
            vecs.extend(_generators(
                n, B.L.sc.trilinear,
                (dec.sparse[xi], dec.sparse[eta], dec.sparse[delta]),
                "bracket window too small",
                f"[L_xi, L_eta, L_delta] undetermined for the zero-sum"
                f" roots {xi!r}, {eta!r}, {delta!r}"))
    return vecs


def _weight_zero_vectors(B: RinehartBundle, dec: Decomposition,
                         wdec: Decomposition, weights) -> list:
    """Generators of A_{-beta} A_beta sums plus the anchor images
    rho(L_gamma, L_delta) A_beta with gamma + delta + beta = 0."""
    m = B.A.dim
    vecs = []
    for beta in weights:
        if -beta in wdec.index:
            vecs.extend(_generators(
                m, B.A.product, (wdec.sparse[-beta], wdec.sparse[beta]),
                "product window too small",
                f"A_(-beta) A_beta undetermined for weight beta = {beta!r}"))
    gam = dec.forms
    up_r = [_upper(f.mat) for f in gam]
    up_w = [_upper(f.mat) for f in weights]
    for i, j in combinations_with_replacement(range(len(gam)), 2):
        pair = vadd(up_r[i], up_r[j])
        for beta, uw in zip(weights, up_w):
            if not viszero(vadd(pair, uw)):
                continue
            ops = [B.rho.bilinear(x, y)
                   for x, y in product(dec.sparse[gam[i]], dec.sparse[gam[j]])]
            vecs.extend(_generators(
                m, mat_apply_sv, (ops, wdec.sparse[beta]),
                "anchor window too small",
                f"rho(L_gamma, L_delta) A_beta undetermined for roots"
                f" {gam[i]!r}, {gam[j]!r} and weight {beta!r}"))
    return vecs


def class_ideal(B: RinehartBundle, dec: Decomposition,
                wdec: Decomposition, roots) -> ClassIdeal:
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
    return ClassIdeal(tuple(roots), zero_part, space)


def check_class_ideal_laws(B: RinehartBundle, dec: Decomposition,
                           wdec: Decomposition,
                           partition):
    """Closure, orthogonality and ideal laws for every class ideal.

    Returns (suite, ideals).  Closure: [I,I,I] in I, alpha(I) in I,
    A I in I.  Orthogonality: brackets with generators from two (and
    three) distinct classes vanish.  These are evaluated on every
    instance of generators.  Ideal law: [x, e_i, e_j] in I for each
    generator x of I and each pair i <= j.  It is evaluated, in
    ascending (i, j) order, only at the k pairs that a stored or
    missing triple puts with an index of the support of x; the other
    n(n+1)/2 - k brackets are zero, in I, and counted as checked.

    The stronger anchor absorption rho(I,L)(A) L in I is deliberately
    not required here: it only follows from the bracket laws when the
    A-action on L is everywhere defined, and on windowed bundles it
    can fail through perfectly determined entries (the action of an
    anchor image that escapes I).  The ideal-law oracle of
    tests/test_rinehart.py (`rinehart_ideal_check`) checks it on
    bundles where it is meaningful.
    """
    ideals = [class_ideal(B, dec, wdec, cls) for cls in partition]
    gens = [[sv_from_seq(v) for v in ci.space.basis] for ci in ideals]
    n = B.L.n
    bracket = B.L.sc.trilinear
    suite = SuiteReport("class-ideals")

    close_b = suite.add(CheckReport("closure-bracket"))
    close_t = suite.add(CheckReport("closure-twist"))
    close_a = suite.add(CheckReport("closure-action"))
    for idx, (ci, g) in enumerate(zip(ideals, gens)):
        for i, j, k in combinations_with_replacement(range(len(g)), 3):
            _law(close_b, ci.space, [bracket(g[i], g[j], g[k])],
                 {"class": idx, "triple": [i, j, k]})
        for v in ci.space.basis:
            close_t.tick()
            if not ci.space.contains(B.L.alpha.apply(v)):
                close_t.record({"class": idx})
        for a in range(B.A.dim):
            _law(close_a, ci.space, (B.act.act({a: 1}, x) for x in g),
                 {"class": idx, "a": a})

    ortho = suite.add(CheckReport("orthogonality"))
    for i, j in combinations(range(len(ideals)), 2):
        _law(ortho, None, (bracket(x, y, z) for x, y in
                           combinations_with_replacement(gens[i], 2)
                           for z in gens[j]), {"classes": [i, i, j]})
        _law(ortho, None, (bracket(x, y, z) for x in gens[i] for y, z in
                           combinations_with_replacement(gens[j], 2)),
             {"classes": [i, j, j]})
    for i, j, k in combinations(range(len(ideals)), 3):
        _law(ortho, None, starmap(bracket, product(gens[i], gens[j], gens[k])),
             {"classes": [i, j, k]})

    ideal_law = suite.add(CheckReport("three-lie-ideal"))
    view = by_index(B.L)
    pairs = n * (n + 1) // 2
    for idx, (ci, g) in enumerate(zip(ideals, gens)):
        for x in g:
            values: dict = {}
            for m, c in x.items():
                for pq, entry in view[m].items():
                    if entry is None:
                        values[pq] = None
                        continue
                    acc = values.setdefault(pq, {})
                    if acc is not None:
                        sv_axpy(acc, c * entry[1], entry[0])
            ideal_law.tick(pairs - len(values))
            for pq in sorted(values):
                _law(ideal_law, ci.space, [values[pq]],
                     {"class": idx, "pair": list(pq)})

    return suite, ideals


# -- direct-sum theorems -------------------------------------------------


def _direct_sum(report: CheckReport, why: list, parts, ambient: int,
                witness) -> None:
    """The conclusion of a direct-sum theorem: blocked when a hypothesis
    failed (`why` names them), else the parts must sum directly to the
    whole space or `witness(their sum)` is recorded."""
    if why:
        report.block("hypothesis failed: " + ", ".join(why))
        return
    total = SubspaceQ.sum_of(parts, ambient)
    report.tick()
    if total.dim != sum(p.dim for p in parts) or total.dim != ambient:
        report.record(witness(total))


def direct_sum_decompose(B: RinehartBundle, dec: Decomposition,
                         wdec: Decomposition, ideals) -> SuiteReport:
    """Evaluate the two hypotheses and, when they hold, the direct sum.

    Hypothesis 1: the bracket-and-anchor center of L is zero.
    Hypothesis 2: H is generated by the A_{-xi} L_xi images together
    with the zero-sum triple brackets, over the whole root system.
    When both hold the class ideals (as `check_class_ideal_laws`
    returns them) must sum directly to L; a failed hypothesis blocks
    the direct-sum check and is reported with its defect instead.
    """
    n = B.L.n
    suite = SuiteReport("direct-sum")

    c1 = suite.add(CheckReport("center-trivial"))
    c1.tick()
    z = centers(B)["Z_rho_L"]
    if z.dim:
        c1.record({"dim": z.dim, "generator": [qstr(x) for x in z.basis[0]]})

    c2 = suite.add(CheckReport("H-generated"))
    gen = SubspaceQ(n, _zero_part_vectors(B, dec, wdec, dec.forms))
    if not dec.H.contains_space(gen):
        raise InternalError("generated space escapes H")
    c2.tick()
    if gen != dec.H:
        missing = [v for v in dec.H.basis if not gen.contains(v)]
        c2.record({"generated_dim": gen.dim, "H_dim": dec.H.dim,
                   "gap": [[qstr(x) for x in v] for v in missing[:2]]})

    c3 = suite.add(CheckReport("ideal-direct-sum"))
    parts = [ci.space for ci in ideals]
    _direct_sum(c3, [c.name for c in (c1, c2) if not c.passed], parts, n,
                lambda t: {"total_dim": t.dim,
                           "parts": [p.dim for p in parts]})
    return suite


# -- the weight-side mirror ----------------------------------------------


def weight_class_decompose(B: RinehartBundle, dec: Decomposition,
                           wdec: Decomposition):
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
    partition = _partition(wdec.forms, dec.forms, wdec.forms, wdec.AH,
                           _h_frame(B, wdec.H)[3])

    spaces = []
    inside = suite.add(CheckReport("zero-parts-in-A0"))
    for cls in partition:
        zero_part = SubspaceQ(m, _weight_zero_vectors(B, dec, wdec, cls))
        graded = SubspaceQ.sum_of([wdec.index[f] for f in cls], m)
        inside.tick()
        if not wdec.zero.contains_space(zero_part):
            inside.record({"class": [f.key() for f in cls]})
        total = zero_part.sum_with(graded)
        if total.dim != zero_part.dim + graded.dim:
            raise InternalError("weight class sum is not direct")
        spaces.append(total)

    annih = suite.add(CheckReport("classes-annihilate"))
    gens = [[sv_from_seq(v) for v in s.basis] for s in spaces]
    for i, j in combinations(range(len(spaces)), 2):
        _law(annih, None, starmap(B.A.product, product(gens[i], gens[j])),
             {"classes": [i, j]})

    ds = suite.add(CheckReport("A-direct-sum"))
    z = centers(B)["Z_L_A"]
    gen = SubspaceQ(m, _weight_zero_vectors(B, dec, wdec, wdec.forms))
    why = []
    if z.dim:
        why.append("Z_L(A) is nonzero")
    if gen != wdec.zero:
        why.append(f"A_0 generated dim {gen.dim} of {wdec.zero.dim}")
    _direct_sum(ds, why, spaces, m, lambda t: {"total_dim": t.dim})

    return suite, partition, spaces
