"""Built-in example bundles and seeded construction families.

Every generator returns a finite-dimensional RinehartBundle whose basis
is a list of monic monomials x^a y^b z^c e^{kz}, held as their exponent
keys (or an abstract table for the small hand-built algebras).  A
product of two basis monomials is the sum of their keys, and a bracket
or anchor value is the closed-form Jacobian bracket of three keys (see
`symfun`): at most two terms with integer coefficients.  Results that
leave the chosen window are stored as missing entries, never silently
dropped or truncated.

Basis orderings are fixed and documented per generator, so identical
parameters always produce identical bundles.
"""

from __future__ import annotations

import random
from itertools import combinations

from .construct import TwistInput, bundle_direct_sum
from .core3lie import Hom3Lie, StructureConstants3
from .exactq import MatrixQ, mat_from_columns_sv, qnorm
from .repmod import PairAction
from .rinehart import CommAlgebra, ModuleAction, RinehartBundle
from .symfun import jacobian_terms, key_product, key_text

MAX_DEGREE = 6
MAX_WINDOW = 6

CORPUS_NAMES = (
    "jacobian-weak",
    "tb-rinehart",
    "l1-hom",
    "rho-prime",
    "tprime-split",
    "toy-split",
    "d4",
    "two-block",
)


class _Basis:
    """Ordered basis of monic monomials, given by their exponent keys.

    A value's coordinates are read off its terms by one lookup per
    term; a term key outside the basis means the value left the window.
    """

    __slots__ = ("keys", "index", "labels")

    def __init__(self, keys):
        self.keys = list(keys)
        self.index = {}
        for idx, key in enumerate(self.keys):
            if key in self.index:
                raise ValueError("duplicate basis monomial")
            self.index[key] = idx
        self.labels = tuple(key_text(key) for key in self.keys)

    def __len__(self):
        return len(self.keys)

    def coords(self, terms):
        """The coordinates of a sum of (key, coefficient) terms with
        distinct keys, or None when a key lies outside the basis."""
        out = {}
        for key, coeff in terms:
            idx = self.index.get(key)
            if idx is None:
                return None
            out[idx] = coeff
        return out

    def product(self, key, other):
        """The coordinates of the product of two monic monomials."""
        return self.coords(((key_product(key, other), 1),))


def _anchor_columns(lb: _Basis, ab: _Basis, sign: int, offset: int,
                    dim: int) -> dict:
    """The anchor rho(e_i, e_j) a = sign [e_i, e_j, a] on the basis ab,
    placed at indices offset.. of an algebra of dimension dim, whose
    other columns are zero; pairs whose columns all vanish are left
    out."""
    ops = {}
    for i, j in combinations(range(len(lb)), 2):
        ki, kj = lb.keys[i], lb.keys[j]
        cols = [{} for _ in range(dim)]
        for a, ka in enumerate(ab.keys):
            col = ab.coords((key, sign * c)
                            for key, c in jacobian_terms(ki, kj, ka))
            cols[a + offset] = col if col is None else {
                p + offset: c for p, c in col.items()}
        if any(c is None or c for c in cols):
            ops[(i, j)] = cols
    return ops


def _action_table(lb: _Basis, ab: _Basis, offset: int) -> dict:
    """a . x = a x for the basis ab placed at indices offset.. of A;
    zero products are left out, those leaving the window are None."""
    table = {}
    for a, ka in enumerate(ab.keys):
        for x, kx in enumerate(lb.keys):
            vec = lb.product(ka, kx)
            if vec is None or vec:
                table[(a + offset, x)] = vec
    return table


def _function_bundle(name: str, l_keys, a_keys, alpha_sign: int,
                     rho_sign: int, meta=None) -> RinehartBundle:
    """Assemble a bundle from monomial bases via the Jacobian bracket."""
    lb, ab = _Basis(l_keys), _Basis(a_keys)
    n, m = len(lb), len(ab)

    sc = _bracket_table(lb)
    alpha = MatrixQ.identity(n).scale(alpha_sign)

    prod = {}
    for i, ki in enumerate(ab.keys):
        for j in range(i, m):
            prod[(i, j)] = ab.product(ki, ab.keys[j])
    unit = ab.coords([((0, 0, 0, 0), 1)])
    if unit is None:
        raise ValueError("unit is outside the algebra window")
    A = CommAlgebra(m, prod, MatrixQ.identity(m), unit)
    rho = PairAction(n, m, _anchor_columns(lb, ab, rho_sign, 0, m))
    act = ModuleAction(m, n, _action_table(lb, ab, 0))
    return RinehartBundle(Hom3Lie(sc, alpha), A, rho, act, name=name,
                          L_labels=lb.labels, A_labels=ab.labels,
                          meta=meta)


def _bracket_table(lb: _Basis) -> StructureConstants3:
    """Jacobian brackets of the basis triples; those leaving the window
    are missing."""
    table, missing = {}, []
    keys = lb.keys
    for i, j, k in combinations(range(len(lb)), 3):
        vec = lb.coords(jacobian_terms(keys[i], keys[j], keys[k]))
        if vec is None:
            missing.append((i, j, k))
        elif vec:
            table[(i, j, k)] = vec
    return StructureConstants3(len(lb), table, missing)


def _exp_bases(K: int):
    """L-basis x, y, then x e^{kz}, y e^{kz}, x e^{-kz}, y e^{-kz} for
    k = 1..K; A-basis 1, e^{z}, e^{-z}, ..., e^{-Kz}."""
    l_keys, a_keys = [(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 0, 0)]
    for k in range(1, K + 1):
        for s in (k, -k):
            l_keys += [(1, 0, 0, s), (0, 1, 0, s)]
            a_keys.append((0, 0, 0, s))
    return l_keys, a_keys


def _check_bounds(value: int, cap: int, what: str, low: int = 0) -> int:
    value = int(value)
    if not low <= value <= cap:
        raise ValueError(f"{what} {value} out of bounds ({low}..{cap})")
    return value


def _poly_monomials(degree: int):
    """The keys of all monic monomials in x, y, z up to total degree,
    1 first."""
    keys = []
    for total in range(degree + 1):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                keys.append((a, b, total - a - b, 0))
    return keys


def jacobian_weak(degree_cap: int = 3) -> RinehartBundle:
    """Functions of x, y, z with the Jacobian bracket acting on itself.

    L = A = polynomials of total degree <= cap, bracket and anchor both
    the Jacobian determinant, untwisted.  The anchor is a derivation
    but not A-linear: rho(x*x, y) = 2x d/dz while x*rho(x, y) = x d/dz,
    so the weak laws hold and, from degree cap 2 on, the full laws
    fail.  Below cap 2 there is no x*x to break them, and the bundle is
    a full one.
    """
    d = _check_bounds(degree_cap, MAX_DEGREE, "degree cap")
    keys = _poly_monomials(d)
    flags = {"jacobi": True, "hom_jacobi": True, "multiplicative": True,
             "weak_rinehart": True, "full_rinehart": d < 2}
    return _function_bundle("jacobian-weak", keys, keys, 1, 1,
                            meta={"degree_cap": d, "flags": flags})


def _tb_bases(degree_cap: int):
    t_keys = []
    for i in range(degree_cap + 1):
        t_keys += [(1, 0, i, 0), (0, 1, i, 0)]
    b_keys = [(0, 0, i, 0) for i in range(degree_cap + 1)]
    return t_keys, b_keys


def tb_rinehart(degree_cap: int = 3) -> RinehartBundle:
    """T = <x q(z), y q(z)> over B = Q[z], both truncated in z-degree.

    Basis order: x, y, x z, y z, ... (z-degree major).  Untwisted; the
    anchor rho(u, v) = [u, v, .] is B-linear here, so the full suite
    passes.
    """
    d = _check_bounds(degree_cap, MAX_DEGREE, "degree cap")
    t_keys, b_keys = _tb_bases(d)
    flags = {"jacobi": True, "hom_jacobi": True, "multiplicative": True,
             "weak_rinehart": True, "full_rinehart": True}
    return _function_bundle("tb-rinehart", t_keys, b_keys, 1, 1,
                            meta={"degree_cap": d, "flags": flags})


def l1_hom(degree_cap: int = 1, window: int = 1) -> RinehartBundle:
    """h(x,y) e^{kz} functions with the sign-reversed twist.

    A regular Hom 3-Lie algebra packaged over the trivial coefficient
    algebra: alpha = -Id is an automorphism and a bracket homomorphism.
    Basis order: frequencies 0, 1, -1, 2, ...; within a frequency the
    monomials of x, y by (degree, x-power descending).
    """
    d = _check_bounds(degree_cap, MAX_DEGREE, "degree cap")
    K = _check_bounds(window, MAX_WINDOW, "window")
    freqs = [0]
    for k in range(1, K + 1):
        freqs.extend((k, -k))
    lb = _Basis((a, total - a, 0, k) for k in freqs
                for total in range(d + 1) for a in range(total, -1, -1))
    n = len(lb)
    alg = Hom3Lie(_bracket_table(lb), MatrixQ.identity(n).scale(-1))
    A = CommAlgebra(1, {(0, 0): {0: 1}}, MatrixQ.identity(1), {0: 1})
    rho = PairAction(n, 1, {})
    act = ModuleAction(1, n, {(0, i): {i: 1} for i in range(n)})
    flags = {"hom_jacobi": True, "multiplicative": True,
             "weak_rinehart": True, "full_rinehart": True}
    return RinehartBundle(alg, A, rho, act, name="l1-hom",
                          L_labels=lb.labels, A_labels=("1",),
                          meta={"degree_cap": d, "window": K,
                                "flags": flags})


def rho_prime(degree_cap: int = 3, window: int | None = None
              ) -> RinehartBundle:
    """The sign-twisted anchor bundles: alpha = -Id, rho' = -[.,.,a].

    Without a window this is the full function space of jacobian-weak
    with the reversed structure maps (a regular weak bundle whose
    anchor kernel is exactly the constants); like jacobian-weak it
    fails the full laws from degree cap 2 on and is full below.  With a
    window it is the T/B pair of tb-rinehart carrying the same twist,
    which is a full Hom bundle.
    """
    if window is None:
        d = _check_bounds(degree_cap, MAX_DEGREE, "degree cap")
        keys = _poly_monomials(d)
        flags = {"hom_jacobi": True, "multiplicative": True,
                 "weak_rinehart": True, "full_rinehart": d < 2}
        return _function_bundle("rho-prime", keys, keys, -1, -1,
                                meta={"degree_cap": d, "flags": flags})
    K = _check_bounds(window, MAX_WINDOW, "window")
    t_keys, b_keys = _tb_bases(K)
    flags = {"hom_jacobi": True, "multiplicative": True,
             "weak_rinehart": True, "full_rinehart": True}
    return _function_bundle("rho-prime", t_keys, b_keys, -1, -1,
                            meta={"window": K, "flags": flags})


def tprime_split(window: int = 3) -> RinehartBundle:
    """The split showcase: T' = <x, y, 1, x e^{kz}, y e^{kz}>.

    Basis order: x, y, 1, then for k = 1..K the quadruple x e^{kz},
    y e^{kz}, x e^{-kz}, y e^{-kz}; coefficients 1, e^{kz}, e^{-kz}.
    Twist alpha = -Id, phi = Id, anchor rho' = -[.,.,a].  H = <x, y, 1>
    is attached to the metadata.  Note 1 in L is not an A-module basis
    image (e^{kz} * 1 leaves the span), so those action entries are
    window-missing; every split computation stays clear of them.
    """
    K = _check_bounds(window, MAX_WINDOW, "window")
    if K < 1:
        raise ValueError("window 0 leaves no graded part")
    l_keys, a_keys = _exp_bases(K)
    l_keys.insert(2, (0, 0, 0, 0))
    meta = {"window": K,
            "H": [[1 if c == r else 0 for c in range(3 + 4 * K)]
                  for r in range(3)],
            "flags": {"hom_jacobi": True, "multiplicative": True,
                      "weak_rinehart": True, "full_rinehart": True}}
    return _function_bundle("tprime-split", l_keys, a_keys, -1, -1,
                            meta=meta)


def toy_split(window: int = 0) -> RinehartBundle:
    """A minimal split bundle for the decomposition machinery.

    Window 0: the 3-dimensional toy [h1, h2, u] = u over A = Q with a
    trivial anchor; H = <h1, h2>, one root.  Window K >= 1: the
    constant-free variant of tprime-split with alpha = Id and the
    plain adjoint anchor, whose H is generated by A_{-k} acting on the
    graded parts (the positive control for the direct-sum theorem).
    """
    K = _check_bounds(window, MAX_WINDOW, "window")
    if K == 0:
        sc = StructureConstants3(3, {(0, 1, 2): {2: 1}})
        alg = Hom3Lie(sc, MatrixQ.identity(3))
        A = CommAlgebra(1, {(0, 0): {0: 1}}, MatrixQ.identity(1), {0: 1})
        rho = PairAction(3, 1, {})
        act = ModuleAction(1, 3, {(0, i): {i: 1} for i in range(3)})
        meta = {"window": 0, "H": [[1, 0, 0], [0, 1, 0]],
                "flags": {"jacobi": True, "hom_jacobi": True,
                          "multiplicative": True, "weak_rinehart": True,
                          "full_rinehart": True}}
        return RinehartBundle(alg, A, rho, act, name="toy-split",
                              L_labels=("h1", "h2", "u"),
                              A_labels=("1",), meta=meta)
    l_keys, a_keys = _exp_bases(K)
    n = 2 + 4 * K
    meta = {"window": K,
            "H": [[1 if c == r else 0 for c in range(n)]
                  for r in range(2)],
            "flags": {"jacobi": True, "hom_jacobi": True,
                      "multiplicative": True, "weak_rinehart": True,
                      "full_rinehart": True}}
    return _function_bundle("toy-split", l_keys, a_keys, 1, 1,
                            meta=meta)


# -- the 4-dimensional simple algebra and its coefficient hosts ----------


def d4_structure() -> dict:
    """[e0,e1,e2] = e3 and cyclic relatives, all coefficients +1."""
    return {(0, 1, 2): {3: 1}, (0, 1, 3): {2: 1},
            (0, 2, 3): {1: 1}, (1, 2, 3): {0: 1}}


def _truncated_poly_algebra(m: int, phi: MatrixQ | None = None
                            ) -> CommAlgebra:
    """Q[z]/(z^m) on the basis 1, z, ..., z^{m-1}; products are exact."""
    table = {}
    for i in range(m):
        for j in range(i, m):
            if i + j < m:
                table[(i, j)] = {i + j: 1}
    return CommAlgebra(m, table, phi if phi is not None
                       else MatrixQ.identity(m), {0: 1})


def d4_bundle(window: int = 2) -> RinehartBundle:
    """The simple algebra over Q[z]/(z^{K+1}) with the nilpotents acting
    as zero.

    A scalar action is the only module structure compatible with the
    bracket here, and a nilpotent scalar is zero; the bundle is the
    classical host that the twist family deforms.
    """
    K = _check_bounds(window, MAX_WINDOW, "window")
    m = K + 1
    sc = StructureConstants3(4, d4_structure())
    alg = Hom3Lie(sc, MatrixQ.identity(4))
    A = _truncated_poly_algebra(m)
    rho = PairAction(4, m, {})
    act = ModuleAction(m, 4, {(0, x): {x: 1} for x in range(4)})
    flags = {"jacobi": True, "hom_jacobi": True,
             "multiplicative": True, "weak_rinehart": True,
             "full_rinehart": True}
    return RinehartBundle(alg, A, rho, act, name="d4",
                          L_labels=("e0", "e1", "e2", "e3"),
                          meta={"window": K, "flags": flags})


def _toy_factor_over(A: CommAlgebra, alg: Hom3Lie, lb: _Basis,
                     ab: _Basis, a_offset: int, tag: str) -> RinehartBundle:
    """The toy bundle on alg acting through one factor of the product
    algebra A: basis indices a_offset.. of A are the basis ab of this
    factor, and the other factor multiplies to zero on this summand."""
    n = len(lb)
    rho = PairAction(n, A.dim, _anchor_columns(lb, ab, 1, a_offset, A.dim))
    act = ModuleAction(A.dim, n, _action_table(lb, ab, a_offset))
    return RinehartBundle(alg, A, rho, act, name=tag,
                          L_labels=tuple(f"{s}{tag}" for s in lb.labels))


def two_block_factors(window: int = 1
                      ) -> tuple[RinehartBundle, RinehartBundle]:
    """The two blocks of two-block: window-K toy bundles over the
    product A = A1 x A2 of their coefficient algebras.

    A has the componentwise product and unit (1, 1).  Its basis is 1,
    e^{z}, e^{-z}, ..., e^{-Kz} of the first factor, then the same of
    the second; block j acts through factor j only, so the annihilator
    of the action of A on the sum of the blocks is zero.
    """
    K = _check_bounds(window, MAX_WINDOW, "window", low=1)
    lb, ab = (_Basis(keys) for keys in _exp_bases(K))
    span = len(ab)
    m = 2 * span
    prod = {}
    for offset in (0, span):
        for i in range(span):
            for j in range(i, span):
                vec = ab.product(ab.keys[i], ab.keys[j])
                key = (i + offset, j + offset)
                if vec is None:
                    prod[key] = None
                else:
                    prod[key] = {p + offset: c for p, c in vec.items()}
    A = CommAlgebra(m, prod, MatrixQ.identity(m), {0: 1, span: 1})
    alg = Hom3Lie(_bracket_table(lb), MatrixQ.identity(len(lb)))
    return (_toy_factor_over(A, alg, lb, ab, 0, "'"),
            _toy_factor_over(A, alg, lb, ab, span, "''"))


def two_block(window: int = 1) -> RinehartBundle:
    """The direct sum of the two blocks of `two_block_factors`; the
    split of the sum must recover the blocks."""
    B1, B2 = two_block_factors(window)
    B = bundle_direct_sum(B1, B2, name="two-block")
    n1 = B1.L.n
    n = B.L.n
    h_rows = []
    for r in (0, 1, n1, n1 + 1):
        h_rows.append([1 if c == r else 0 for c in range(n)])
    B.meta.update({"window": int(window), "H": h_rows,
                   "A_labels_note": "factor one then factor two",
                   "flags": {"jacobi": True, "hom_jacobi": True,
                             "multiplicative": True,
                             "weak_rinehart": True,
                             "full_rinehart": True}})
    return B


def generate(name: str, degree_cap: int | None = None,
             window: int | None = None,
             seed: int | None = None) -> RinehartBundle:
    """Build a named corpus bundle.

    An unknown name, or an option the named bundle does not read,
    raises ValueError: no bundle reads a seed, and rho-prime reads its
    degree cap only without a window.
    """
    if name not in CORPUS_NAMES:
        raise ValueError(f"unknown corpus name {name!r}")
    reads, bundle = ("window",), name
    if name in ("jacobian-weak", "tb-rinehart"):
        reads = ("degree-cap",)
    elif name == "l1-hom":
        reads = ("degree-cap", "window")
    elif name == "rho-prime" and window is None:
        reads = ("degree-cap",)
    elif name == "rho-prime":
        bundle = "rho-prime with --window"
    for option, value in (("degree-cap", degree_cap), ("window", window),
                          ("seed", seed)):
        if value is not None and option not in reads:
            raise ValueError(f"corpus {bundle} does not read --{option}")
    if name == "jacobian-weak":
        return jacobian_weak(3 if degree_cap is None else degree_cap)
    if name == "tb-rinehart":
        return tb_rinehart(3 if degree_cap is None else degree_cap)
    if name == "l1-hom":
        return l1_hom(1 if degree_cap is None else degree_cap,
                      1 if window is None else window)
    if name == "rho-prime":
        return rho_prime(3 if degree_cap is None else degree_cap, window)
    if name == "tprime-split":
        return tprime_split(3 if window is None else window)
    if name == "toy-split":
        return toy_split(0 if window is None else window)
    if name == "d4":
        return d4_bundle(2 if window is None else window)
    return two_block(1 if window is None else window)


# -- seeded families for the construction regressions ---------------------


def _sign_tuple(index: int):
    """The eight diagonal bracket automorphisms of the simple algebra."""
    d1 = 1 if index & 1 else -1
    d2 = 1 if index & 2 else -1
    d3 = 1 if index & 4 else -1
    return (d1, d2, d3, d1 * d2 * d3)


def _phi_matrix(m: int, coeffs) -> MatrixQ:
    """Unit-preserving endomorphism of Q[z]/(z^m) sending z to
    sum coeffs[i] z^{i+1}, extended multiplicatively."""
    image = {i + 1: qnorm(c) for i, c in enumerate(coeffs)
             if i + 1 < m and c != 0}
    cols = [{0: 1}]
    power = {0: 1}
    for _ in range(1, m):
        nxt = {}
        for p, cp in power.items():
            for q, cq in image.items():
                if p + q < m:
                    nxt[p + q] = nxt.get(p + q, 0) + cp * cq
        power = {k: qnorm(v) for k, v in nxt.items() if v != 0}
        cols.append(dict(power))
    return mat_from_columns_sv(cols, m)


def twist_family(seed: int):
    """Seeded (host, twist data) pairs over the simple-algebra hosts.

    The twisting endomorphisms are a diagonal bracket automorphism on
    L and a unit-preserving nilpotent-shifting endomorphism on A; the
    compatibility laws hold because the anchor is zero and nilpotents
    act as zero.
    """
    rng = random.Random(0x7157 + seed)
    window = 1 + seed % 2
    base = d4_bundle(window=window)
    m = window + 1
    alpha_new = MatrixQ.diagonal(_sign_tuple(rng.randrange(8)))
    coeffs = [rng.randint(-2, 2) for _ in range(m - 1)]
    phi_new = _phi_matrix(m, coeffs)
    return base, TwistInput(base, alpha_new, phi_new)


def tensor_family(seed: int):
    """Seeded (L, A, rho) inputs for the tensor construction.

    Two shapes.  "anchored" pairs an abelian algebra with a scaled
    Euler derivation of Q[z]/(z^m) assigned to one index pair, so the
    output carries a nonzero anchor and the identity suite is
    exercised nontrivially.  The "plain" variants tensor the simple
    algebra with Q[z]/(z^m) under varying twists and a zero action.

    Bracket and action are never nonzero together.  A nonzero action
    feeds alpha-images of bracket vectors back into a nonzero bracket
    and the Jacobi law of the output breaks; the representation laws
    hr1..hr3 do not exclude that, so the seeded inputs keep the two
    regimes separate.
    """
    rng = random.Random(0x7E45 + seed)
    kind = seed % 20
    if kind < 12:
        if kind < 10:
            n, m = 3 + kind % 3, 2
        else:
            n, m = (3, 3) if kind == 10 else (4, 3)
        signs = tuple(rng.choice((1, -1)) for _ in range(n))
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        # hr1 with a diagonal twist needs equal signs on the pair
        signs = signs[:i] + (signs[j],) + signs[i + 1:]
        alg = Hom3Lie(StructureConstants3(n, {}), MatrixQ.diagonal(signs))
        c1 = rng.choice((1, -1, 2))
        A = _truncated_poly_algebra(m, _phi_matrix(m, [c1]))
        q0 = rng.choice((1, 2, -1, -2, 3))
        # phi-twisted Euler: the k c1^(k-1) scaling keeps hd1/hd2
        cols = [{k: k * q0 * c1 ** (k - 1)} if k else {} for k in range(m)]
        return alg, A, PairAction(n, m, {(i, j): cols}), "anchored"
    signs = _sign_tuple(rng.randrange(8))
    if kind < 14:
        alg = Hom3Lie(StructureConstants3(4, d4_structure()),
                      MatrixQ.diagonal(signs))
        c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
        A = _truncated_poly_algebra(3, _phi_matrix(3, [c1, c2]))
        return alg, A, PairAction(4, 3, {}), "plain3"
    if kind == 14:
        s = rng.choice((1, -1))
        alg = Hom3Lie(StructureConstants3(6, dict(d4_structure())),
                      MatrixQ.diagonal(signs + (s, s)))
        c1 = rng.randint(-2, 2)
        A = _truncated_poly_algebra(2, _phi_matrix(2, [c1]))
        return alg, A, PairAction(6, 2, {}), "plain2"
    alg = Hom3Lie(StructureConstants3(4, d4_structure()),
                  MatrixQ.diagonal(signs))
    c1 = rng.randint(-2, 2)
    A = _truncated_poly_algebra(2, _phi_matrix(2, [c1]))
    return alg, A, PairAction(4, 2, {}), "plain2"
