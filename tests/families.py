"""Seeded (algebra, representation) pairs shared by the test modules."""

import random
from itertools import combinations

from trilie.core3lie import Hom3Lie, StructureConstants3
from trilie.corpus import _phi_matrix, _sign_tuple, d4_structure
from trilie.exactq import MatrixQ
from trilie.repmod import HomRepresentation, PairAction


def rep_family(seed: int):
    """Seeded (algebra, representation) pairs for the axiom
    equivalence regression.

    Variants: an abelian pair acting on a truncated polynomial algebra
    by a scaled Euler derivation; a fully abelian algebra with all
    anchor operators proportional to one square-zero matrix; and a
    deliberately incompatible twist on the first variant, kept so the
    caller sees representations that fail the entry law.
    """
    rng = random.Random(0x2E9D + seed)
    kind = seed % 10
    if kind < 4 or kind == 9:
        signs = _sign_tuple(rng.randrange(8))
        s = rng.choice((1, -1))
        alg = Hom3Lie(StructureConstants3(6, d4_structure()),
                      MatrixQ.diagonal(signs + (s, s)))
        m = 2 + (seed // 10) % 3
        q0 = rng.choice((1, 2, -1, -2))
        cols = [{j: j * q0} if j else {} for j in range(m)]
        if kind == 9 and m >= 3:
            # phi(z) = z + z^2 does not commute with the Euler operator
            phi = _phi_matrix(m, [1, 1])
        else:
            phi = _phi_matrix(m, [rng.choice((1, -1, 2))])
        rho = PairAction(6, m, {(4, 5): cols})
        return alg, HomRepresentation(rho, phi)
    alg = Hom3Lie(StructureConstants3(4, {}), MatrixQ.identity(4))
    m = 3 + seed % 2
    ops = {}
    for i, j in combinations(range(4), 2):
        c = rng.randint(-2, 2)
        if c:
            cols = [{} for _ in range(m)]
            cols[m - 1] = {0: c}
            ops[(i, j)] = cols
    rho = PairAction(4, m, ops)
    return alg, HomRepresentation(rho, MatrixQ.identity(m))
