"""Exact rational linear algebra built on fractions.Fraction.

Scalars are plain ints wherever the value is integral and Fraction otherwise;
the two mix freely in arithmetic and compare (and hash) equal when they
should. Everything here is exact, there are no floats anywhere in the
package. Keeping integral values as int is a deliberate speed choice: the
structure constants we push through these routines are almost always
integers, and int arithmetic is roughly an order of magnitude faster than
Fraction arithmetic.

The operators and spanning sets are mostly zeros, so the dense kernels
skip zero entries: `rref` eliminates over the pivot row's nonzero
columns, and `MatrixQ @` and `MatrixQ.apply` sum over nonzero entries
only.  Each normalises its input entries once, so integral results come
back as int.  Subspace membership is sparse: `SubspaceQ.contains_sv`
reduces a vector over its own nonzero entries, and the dense
`contains` and `coordinates` go through it.

Bit masks.  The law kernels settle most instances before any arithmetic
by ANDs and ORs of int masks over positions: bit k stands for position
k of a list of sparse vectors (the columns of an operator, the entries
of a bracket row).  `masks` builds the three masks every kernel reads,
those of the None (undetermined) entries, of the nonzero entries and,
per output index r, of the entries with r in their support; `operand`
pairs a signed column list with its first two.  `bits` turns a support
into a mask and `ones` walks a mask's set bits in ascending order, so
work done bit by bit keeps the order of a loop over every position.
`ones` walks the mask's bytes through a table of each byte value's
bits, so its cost is linear in the mask's width, not in the width
times the number of set bits.

Pair tables.  The laws read antisymmetric tables of column lists
stored at pairs p < q, the bracket rows [e_p, e_q, .] and the anchor
operators rho(e_p, e_q), at twisted arguments (alpha e_i, alpha e_j).
`pair_bilinear` is the one evaluator of such a sum; where alpha is a
signed permutation it mostly returns stored lists themselves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Q = int | Fraction


def qnorm(x):
    """Collapse Fraction(n, 1) to int n; leave everything else alone."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _normed(row) -> list:
    """qnorm of every entry; int entries, the common case, pass as they are."""
    return [x if type(x) is int else qnorm(x) for x in row]


def qparse(value):
    """Parse a scalar from JSON-ish input: int, or "p/q" / "p" strings."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return qnorm(value)
    if isinstance(value, str):
        try:
            return qnorm(Fraction(value.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {value!r}: {exc}") from None
    if isinstance(value, float):
        raise ValueError(
            f"floats are not accepted (got {value!r}); write exact rationals like \"5/2\""
        )
    raise ValueError(f"not a rational scalar: {value!r}")


def qstr(x) -> str:
    x = qnorm(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


# vectors are plain tuples of scalars

def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v):
    if c == 1:
        return tuple(v)
    return tuple(qnorm(c * a) for a in v)


def viszero(v) -> bool:
    return all(a == 0 for a in v)


def rref(rows: Iterable[Sequence]) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns).

    Entries are normalised once on the way in.  Elimination then runs
    over the pivot row's nonzero columns only, on the rows with a
    nonzero entry at the pivot column, so zero entries cost nothing.
    """
    m = [_normed(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row = m[r]
        # rows r.. are zero left of c, so the pivot row's support starts at c
        support = [j for j in range(c, ncols) if row[j]]
        pv = row[c]
        if pv != 1:
            inv = 1 / Fraction(pv)
            for j in support:
                row[j] = qnorm(inv * row[j])
        for i in range(nrows):
            other = m[i]
            f = other[c]
            if f and i != r:
                for j in support:
                    other[j] = qnorm(other[j] - f * row[j])
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m[:r]], pivots


def kernel_basis(rows: Iterable[Sequence], ncols: int) -> list[tuple]:
    """Basis of the null space of the matrix with the given rows."""
    red, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = qnorm(-red[i][fc])
        basis.append(tuple(v))
    return basis


class MatrixQ:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rws = tuple(tuple(_normed(r)) for r in rows)
        self.rows = rws
        self.nrows = len(rws)
        if rws:
            widths = {len(r) for r in rws}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols does not match rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    @staticmethod
    def identity(n: int) -> "MatrixQ":
        return MatrixQ([[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @staticmethod
    def zeros(n: int, m: int) -> "MatrixQ":
        return MatrixQ([[0] * m for _ in range(n)], ncols=m)

    @staticmethod
    def diagonal(entries) -> "MatrixQ":
        es = [qnorm(e) for e in entries]
        n = len(es)
        return MatrixQ([[es[i] if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixQ)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(qstr(x) for x in r) for r in self.rows)
        return f"MatrixQ[{self.nrows}x{self.ncols}: {body}]"

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return MatrixQ(
            [vadd(a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols
        )

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return MatrixQ(
            [vsub(a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols
        )

    def __neg__(self) -> "MatrixQ":
        return MatrixQ([vscale(-1, r) for r in self.rows], ncols=self.ncols)

    def scale(self, c) -> "MatrixQ":
        return MatrixQ([vscale(c, r) for r in self.rows], ncols=self.ncols)

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        right = [[(j, b) for j, b in enumerate(row) if b]
                 for row in other.rows]
        out = []
        for r in self.rows:
            acc = [0] * other.ncols
            for a, terms in zip(r, right):
                if a:
                    for j, b in terms:
                        acc[j] += a * b
            out.append(acc)
        return MatrixQ(out, ncols=other.ncols)

    def apply(self, v) -> tuple:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        terms = [(k, x) for k, x in enumerate(v) if x]
        return tuple(qnorm(sum(r[k] * x for k, x in terms))
                     for r in self.rows)

    def transpose(self) -> "MatrixQ":
        return MatrixQ(list(zip(*self.rows)) if self.rows else [], ncols=self.nrows)

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of non-square matrix")
        return qnorm(sum(self.rows[i][i] for i in range(self.nrows)))

    def inverse(self) -> "MatrixQ":
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        aug = [list(self.rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        red, pivots = rref(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return MatrixQ([r[n:] for r in red], ncols=n)

    def is_invertible(self) -> bool:
        _, pivots = rref(self.rows)
        return self.is_square() and len(pivots) == self.nrows


def char_poly(mat: MatrixQ) -> tuple:
    """Characteristic polynomial det(tI - M), coefficients descending, monic.

    The strongly connected components of the off-diagonal support of M
    (i -> j when M[i][j] != 0) order the basis so that M is block
    triangular, and the characteristic polynomial of a block-triangular
    matrix is the product of those of its diagonal blocks.  Each block
    is run through Faddeev-LeVerrier (exact, division only by 1..k for
    a block of size k); a diagonal entry d alone is the factor t - d.
    So a diagonal or zero matrix costs no matrix product, and a dense
    one costs what Faddeev-LeVerrier on the whole matrix does.
    """
    if not mat.is_square():
        raise ValueError("char_poly of non-square matrix")
    rows = mat.rows
    support = [[j for j, x in enumerate(row) if x != 0 and j != i]
               for i, row in enumerate(rows)]
    coeffs = (1,)
    for block in _strong_components(support):
        if len(block) == 1:
            factor = (1, qnorm(-rows[block[0]][block[0]]))
        else:
            factor = _faddeev_leverrier(
                MatrixQ([[rows[i][j] for j in block] for i in block]))
        coeffs = _poly_mul(coeffs, factor)
    return coeffs


def _faddeev_leverrier(mat: MatrixQ) -> tuple:
    """det(tI - M) of a square block by Faddeev-LeVerrier."""
    n = mat.nrows
    coeffs = [1]
    acc = MatrixQ.identity(n)
    for k in range(1, n + 1):
        acc = mat @ acc
        ck = qnorm(Fraction(-acc.trace(), k))
        coeffs.append(ck)
        if k < n:
            acc = acc + MatrixQ.identity(n).scale(ck)
    return tuple(coeffs)


def _poly_mul(p: Sequence, q: Sequence) -> tuple:
    """Product of two polynomials, coefficients descending."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a != 0:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(qnorm(c) for c in out)


def _strong_components(succ: list) -> list[list[int]]:
    """Strongly connected components of the digraph i -> succ[i].

    Tarjan (1972), with an explicit stack of (vertex, successor
    iterator) frames in place of recursion.
    """
    n = len(succ)
    index: list = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        frames = [(root, iter(succ[root]))]
        while frames:
            v, it = frames[-1]
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def _divisors(n: int, limit: int) -> list[int]:
    # positive divisors of n >= 1 up to limit, by trial division
    out = []
    i = 1
    while i <= limit and i * i <= n:
        if n % i == 0:
            out.append(i)
            if i * i != n and n // i <= limit:
                out.append(n // i)
        i += 1
    out.sort()
    return out


def _root_bound(ints: list) -> int:
    """An integer R with |z| <= R at every complex root z of the integer
    polynomial with descending coefficients ints: Fujiwara's bound
    2 max_k |a_(d-k) / a_d|^(1/k), the constant term halved, with each
    k-th root rounded up to an integer."""
    d = len(ints) - 1
    lead = abs(ints[0])
    best = 0
    for k in range(1, d + 1):
        num = abs(ints[k])
        den = 2 * lead if k == d else lead
        if num <= best ** k * den:
            continue
        # the least t with t^k * den >= num, between lo and hi
        lo, hi = best, max(2 * best, 1)
        while hi ** k * den < num:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid ** k * den >= num:
                hi = mid
            else:
                lo = mid
        best = hi
    return 2 * best


def rational_roots(coeffs: Sequence) -> dict:
    """All rational roots (with multiplicity) of a polynomial over Q.

    Coefficients descending, leading coefficient nonzero. Complete: a root
    p/q in lowest terms of an integer polynomial has p | constant term,
    q | leading coefficient and |p/q| <= R, the root bound of
    `_root_bound`, so only the divisors p <= R q are listed; every
    candidate is verified by exact Horner with deflation for
    multiplicities.
    """
    cs = [qnorm(c) for c in coeffs]
    if not cs or cs[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    roots: dict = {}
    while len(cs) > 1 and cs[-1] == 0:
        roots[0] = roots.get(0, 0) + 1
        cs.pop()
    if len(cs) == 1:
        return roots
    den = 1
    for c in cs:
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    bound = _root_bound(ints)
    lead = abs(ints[0])
    lead_divs = _divisors(lead, lead)
    cands = set()
    for p in _divisors(abs(ints[-1]), bound * lead):
        for q in lead_divs:
            if p <= bound * q:
                cand = qnorm(Fraction(p, q))
                cands.add(cand)
                cands.add(-cand)
    cur: list = list(ints)
    for cand in sorted(cands, key=lambda x: (Fraction(x).denominator, abs(x), x < 0)):
        while len(cur) > 1:
            # exact synthetic division at cand
            acc = cur[0]
            quot = [cur[0]]
            for c in cur[1:]:
                acc = qnorm(acc * cand + c)
                quot.append(acc)
            if acc != 0:
                break
            roots[cand] = roots.get(cand, 0) + 1
            cur = quot[:-1]
    return roots


def rational_spectrum(mat: MatrixQ) -> dict:
    """Rational eigenvalues with algebraic multiplicities."""
    return rational_roots(char_poly(mat))


def eigenspace(mat: MatrixQ, lam) -> "SubspaceQ":
    n = mat.nrows
    shifted = mat - MatrixQ.identity(n).scale(lam)
    return SubspaceQ(n, kernel_basis(shifted.rows, n))


class SubspaceQ:
    """Subspace of Q^n in canonical form: basis rows are the RREF.

    Equal subspaces compare (and hash) equal regardless of the spanning set
    they were built from.  Membership is tested on sparse vectors: the
    basis rows are kept, the first time a test needs them, as a map from
    pivot column to the row's other nonzero entries.
    """

    __slots__ = ("ambient", "basis", "_pivots", "_rows")

    def __init__(self, ambient: int, vectors: Iterable = ()):
        rows = []
        for v in vectors:
            if len(v) != ambient:
                raise ValueError(
                    "vector length does not match ambient dimension")
            if not viszero(v):
                rows.append(v)
        red, pivots = rref(rows)
        self.ambient = ambient
        self.basis = tuple(red)
        self._pivots = tuple(pivots)
        self._rows = None

    @staticmethod
    def zero(ambient: int) -> "SubspaceQ":
        return SubspaceQ(ambient)

    @staticmethod
    def full(ambient: int) -> "SubspaceQ":
        return SubspaceQ(ambient, MatrixQ.identity(ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceQ)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        rows = "; ".join(" ".join(qstr(x) for x in r) for r in self.basis)
        return f"SubspaceQ[dim {self.dim} of Q^{self.ambient}: {rows}]"

    def contains_sv(self, vec: dict) -> bool:
        """Whether the sparse vector {index: coeff} lies in the subspace.

        In RREF the coefficient of the basis row with pivot p is vec's
        entry at p, so vec minus its expansion is zero at every pivot;
        what is left at the other columns is the sum of vec's own
        non-pivot entries and -vec[p] times row p over the pivots p in
        vec's support.  Only vec's nonzero entries are visited.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = {
                p: [(j, x) for j, x in enumerate(row) if x and j != p]
                for p, row in zip(self._pivots, self.basis)}
        residual: dict = {}
        for j, c in vec.items():
            row = rows.get(j)
            if row is None:
                residual[j] = residual.get(j, 0) + c
            else:
                for k, x in row:
                    residual[k] = residual.get(k, 0) - c * x
        return not any(residual.values())

    def coordinates(self, v):
        """Coefficients of v in the canonical basis, or None if v is outside.

        RREF makes this a read-off: the coefficient of basis row i is the
        entry of v at that row's pivot column.
        """
        if len(v) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        if not self.contains_sv({i: x for i, x in enumerate(v) if x}):
            return None
        return tuple(v[p] for p in self._pivots)

    def contains(self, v) -> bool:
        return self.coordinates(v) is not None

    def contains_space(self, other: "SubspaceQ") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum_with(self, other: "SubspaceQ") -> "SubspaceQ":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return SubspaceQ(self.ambient, list(self.basis) + list(other.basis))

    @staticmethod
    def sum_of(spaces: Sequence["SubspaceQ"], ambient: int) -> "SubspaceQ":
        vecs: list = []
        for s in spaces:
            if s.ambient != ambient:
                raise ValueError("ambient mismatch")
            vecs.extend(s.basis)
        return SubspaceQ(ambient, vecs)

    def intersect(self, other: "SubspaceQ") -> "SubspaceQ":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        r, s = self.dim, other.dim
        if r == 0 or s == 0:
            return SubspaceQ.zero(self.ambient)
        rows = []
        for i in range(self.ambient):
            rows.append(
                [self.basis[j][i] for j in range(r)]
                + [qnorm(-other.basis[j][i]) for j in range(s)]
            )
        vecs = []
        for k in kernel_basis(rows, r + s):
            v = [0] * self.ambient
            for j in range(r):
                if k[j] != 0:
                    kj = k[j]
                    v = [qnorm(a + kj * b) for a, b in zip(v, self.basis[j])]
            vecs.append(tuple(v))
        return SubspaceQ(self.ambient, vecs)


# -- sparse vectors ----------------------------------------------------
#
# Hot loops in the axiom checkers use plain dicts {index: coeff} with no
# stored zeros.  Mutating accumulators in place keeps the instance count
# of Fraction objects down.

SVec = dict


def sv_axpy(acc: dict, scalar, vec: dict) -> None:
    """acc += scalar * vec, in place, dropping entries that cancel."""
    if scalar == 0 or not vec:
        return
    for idx, coeff in vec.items():
        new = acc.get(idx, 0) + scalar * coeff
        # qnorm, inlined: this is the innermost loop of the law kernels
        if type(new) is Fraction and new.denominator == 1:
            new = new.numerator
        if new == 0:
            acc.pop(idx, None)
        else:
            acc[idx] = new


def sv_scale(vec: dict, scalar) -> dict:
    if scalar == 0:
        return {}
    return {idx: qnorm(scalar * coeff) for idx, coeff in vec.items()}


# A sparse table maps a pair of basis indices to the sparse vector of
# their product.  An absent key is a zero product; a None entry is a
# product outside the representable window, and whatever is computed
# from it is None as well.

_EMPTY: dict = {}


def sv_table(table, key_ok, dim_out: int, what: str) -> dict:
    """Validated copy of a sparse table, in the form the evaluators expect.

    A key rejected by key_ok(i, j), or an output coordinate outside
    0..dim_out-1, raises ValueError.  None entries are kept; zero
    coefficients, and the entries they leave empty, are dropped, so two
    tables describe the same map exactly when they compare equal.
    """
    out: dict = {}
    for key, vec in (table or {}).items():
        if not key_ok(*key):
            raise ValueError(f"{what} key {key} out of range")
        if vec is None:
            out[key] = None
            continue
        vec = {p: c for p, c in vec.items() if c != 0}
        if any(not 0 <= p < dim_out for p in vec):
            raise ValueError(f"{what} coordinate out of range")
        if vec:
            out[key] = vec
    return out


def pair_bilinear(table: dict, dim: int, u: dict, v: dict) -> list:
    """The columns of the sum of u_p v_q T(p, q) over p != q.

    T(p, q) is table[(p, q)] for p < q and -table[(q, p)] for p > q, a
    list of dim columns, each a sparse vector or None; an absent pair
    is zero.  A column of the sum is None where a term's column is.
    A single term c T(p, q) is the stored list itself when c is 1 and
    its columns scaled by c otherwise; a zero column of a longer sum is
    the shared empty vector.  The result is shared: callers must not
    mutate it.
    """
    terms = []
    for p, cp in u.items():
        for q, cq in v.items():
            if p != q:
                cols = table.get((p, q) if p < q else (q, p))
                if cols is not None:
                    terms.append((cp * cq if p < q else -cp * cq, cols))
    if len(terms) == 1:
        (c, cols), = terms
        return cols if c == 1 else [col and sv_scale(col, c) for col in cols]
    out = []
    for k in range(dim):
        acc = {}
        for c, cols in terms:
            col = cols[k]
            if col is None:
                acc = None
                break
            if col:
                sv_axpy(acc, c, col)
        out.append(acc if acc is None or acc else _EMPTY)
    return out


def sv_bilinear(table: dict, u, v):
    """Sum of u_i v_j table[(i, j)]; None if u, v or a needed entry is None."""
    if u is None or v is None:
        return None
    out: dict = {}
    for i, ci in u.items():
        for j, cj in v.items():
            vec = table.get((i, j), _EMPTY)
            if vec is None:
                return None
            if vec:
                sv_axpy(out, ci * cj, vec)
    return out


def bits(indices) -> int:
    """A set of indices (the support of a sparse vector) as a bit mask."""
    out = 0
    for m in indices:
        out |= 1 << m
    return out


# _BYTE_ONES[b]: the set bits of the byte value b, ascending
_BYTE_ONES = tuple(tuple(k for k in range(8) if b >> k & 1)
                   for b in range(256))


def ones(mask: int):
    """The indices of the set bits of mask, in ascending order.

    Walks the bytes of mask, least significant first, and looks each
    one up in `_BYTE_ONES`, so a mask of w bits costs O(w / 8) steps
    plus one per set bit.  A mask with at most four set bits is walked
    from its lowest set bit instead: four steps of O(w / 64) cost less
    than the conversion to bytes.
    """
    if mask.bit_count() <= 4:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    for at, byte in enumerate(data):
        if byte:
            at <<= 3
            for k in _BYTE_ONES[byte]:
                yield at + k


def masks(cols, dim: int = 0) -> tuple:
    """(none, nonzero, has) of a list of sparse vectors or None.

    Bit k of none (nonzero) is set when cols[k] is None (a nonzero
    vector); has[r], for r < dim, marks the k whose vector has r in its
    support.  With the default dim 0, has is empty.
    """
    none = nonzero = 0
    has = [0] * dim
    for k, vec in enumerate(cols):
        if vec is None:
            none |= 1 << k
        elif vec:
            nonzero |= 1 << k
            if dim:
                for r in vec:
                    has[r] |= 1 << k
    return none, nonzero, has


def operand(cols, sign=1) -> tuple:
    """(sign * cols, none, nonzero) with the masks of `masks`; cols
    itself is left as it is."""
    if sign != 1:
        cols = [None if c is None else sv_scale(c, sign) for c in cols]
    none, nonzero, _ = masks(cols)
    return cols, none, nonzero


def sv_from_seq(seq) -> dict:
    return {i: qnorm(c) for i, c in enumerate(seq) if c != 0}


def sv_to_tuple(vec: dict, n: int) -> tuple:
    out = [0] * n
    for idx, coeff in vec.items():
        out[idx] = coeff
    return tuple(out)


def mat_columns_sv(mat: "MatrixQ") -> list:
    """Columns of a matrix as sparse vectors."""
    cols = [{} for _ in range(mat.ncols)]
    for i, row in enumerate(mat.rows):
        for j, coeff in enumerate(row):
            if coeff != 0:
                cols[j][i] = coeff
    return cols


def mat_from_columns_sv(cols: list, n: int) -> "MatrixQ":
    """The n x n matrix whose j-th column is the sparse vector cols[j]."""
    return MatrixQ([[cols[j].get(i, 0) for j in range(n)] for i in range(n)])


def mat_apply_sv(cols: list, vec: dict):
    """Apply a matrix, given as sparse columns, to a sparse vector;
    None when a column it reads is None (undetermined)."""
    out: dict = {}
    for idx, coeff in vec.items():
        col = cols[idx]
        if col is None:
            return None
        sv_axpy(out, coeff, col)
    return out
