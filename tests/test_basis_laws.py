"""The basis laws of A and of the action against their literal loops.

`check_commutative_associative`, `check_phi_multiplicative`,
`check_unit`, `check_action_module`, `check_action_unital` and
`check_action_twist` are generators of (index, lhs, rhs) over one
shared loop, and `check_rho_derivations` builds its report law by law.
The references below are the loops they replace, one per law, and the
derivation check that kept a report per law and merged the two.
Reports must agree exactly: verdict, checked and skipped counts,
failure counts and witnesses in order, on corpus bundles whose
product, action and anchor entries and whose phi are perturbed at
seeded places.
"""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from test_law_kernels import CORPUS_CASES
from trilie.corpus import generate
from trilie.exactq import MatrixQ, bits, masks, mat_apply_sv, sv_axpy
from trilie.report import MAX_FAILURES, CheckReport
from trilie.repmod import HomRepresentation, PairAction
from trilie.rinehart import (
    CommAlgebra,
    ModuleAction,
    RinehartBundle,
    check_action_module,
    check_action_twist,
    check_action_unital,
    check_commutative_associative,
    check_phi_multiplicative,
    check_rho_derivations,
    check_unit,
)


# --- references -----------------------------------------------------------


def reference_assoc(A) -> CheckReport:
    rep = CheckReport("assoc")
    n = A.dim
    for i in range(n):
        ei = {i: 1}
        for j in range(i, n):
            pij = A.basis_product(i, j)
            for k in range(j, n):
                lhs = A.product(pij, {k: 1})
                rhs = A.product(ei, A.basis_product(j, k))
                if lhs is None or rhs is None:
                    rep.skip()
                    continue
                if lhs == rhs:
                    rep.tick()
                else:
                    rep.record({"i": i, "j": j, "k": k})
    return rep


def reference_phi_hom(A) -> CheckReport:
    rep = CheckReport("phi-hom")
    cols = A._phi_cols
    for i in range(A.dim):
        for j in range(i, A.dim):
            lhs = A.phi_apply(A.basis_product(i, j))
            rhs = A.product(cols[i], cols[j])
            if lhs is None or rhs is None:
                rep.skip()
                continue
            if lhs == rhs:
                rep.tick()
            else:
                rep.record({"i": i, "j": j})
    return rep


def reference_unit(A) -> CheckReport:
    rep = CheckReport("unit")
    if A.unit is None:
        rep.block("no unit declared")
        return rep
    for i in range(A.dim):
        prod = A.product(A.unit, {i: 1})
        if prod is None:
            rep.skip()
        elif prod == {i: 1}:
            rep.tick()
        else:
            rep.record({"i": i})
    return rep


def reference_action_module(B) -> CheckReport:
    rep = CheckReport("action-assoc")
    A, act = B.A, B.act
    for a in range(A.dim):
        for b in range(a, A.dim):
            prod = A.basis_product(a, b)
            for m in range(B.L.n):
                lhs = act.act(prod, {m: 1})
                rhs = act.act({a: 1}, act.basis_act(b, m))
                if lhs is None or rhs is None:
                    rep.skip()
                    continue
                if lhs == rhs:
                    rep.tick()
                else:
                    rep.record({"a": a, "b": b, "m": m})
    return rep


def reference_action_unital(B) -> CheckReport:
    rep = CheckReport("action-unital")
    if B.A.unit is None:
        rep.block("no unit declared")
        return rep
    for m in range(B.L.n):
        out = B.act.act(B.A.unit, {m: 1})
        if out is None:
            rep.skip()
        elif out == {m: 1}:
            rep.tick()
        else:
            rep.record({"m": m})
    return rep


def reference_action_twist(B) -> CheckReport:
    rep = CheckReport("action-twist")
    acols = B.L._alpha_cols
    pc = B.A._phi_cols
    for a in range(B.A.dim):
        for m in range(B.L.n):
            ax = B.act.basis_act(a, m)
            lhs = None if ax is None else mat_apply_sv(acols, ax)
            rhs = B.act.act(pc[a], acols[m])
            if lhs is None or rhs is None:
                rep.skip()
                continue
            if lhs == rhs:
                rep.tick()
            else:
                rep.record({"a": a, "m": m})
    return rep


def _sum_of_products(A, terms, cols):
    out = {}
    for v, k in terms:
        term = A.product(v, cols[k])
        if term is None:
            return None
        sv_axpy(out, 1, term)
    return out


def reference_rho_derivations(A, rho) -> CheckReport:
    """hd1 and hd2 pair by pair into a report each, merged into one."""
    n = A.dim
    phic = A._phi_cols
    prods = {}
    for i, j in combinations_with_replacement(range(n), 2):
        p = A.basis_product(i, j)
        prods[(i, j)] = p, A.phi_apply(p)
    triples = list(combinations_with_replacement(range(n), 3))
    laws = [(CheckReport("hd1"), len(prods), []),
            (CheckReport("hd2"), len(triples), [])]

    def instance(law, where, p, terms):
        need = bits(p) | bits(k for _, k in terms)
        laws[law][2].append((where, p, terms, need))

    for (i, j), (p, _) in prods.items():
        if p is not None:
            instance(0, {"i": i, "j": j}, p, ((phic[i], j), (phic[j], i)))
    for i, j, k in triples:
        (pij, fij), fjk, fik = prods[(i, j)], prods[(j, k)][1], prods[(i, k)][1]
        p = A.product(pij, {k: 1})
        if not (p is None or fij is None or fjk is None or fik is None):
            instance(1, {"i": i, "j": j, "k": k}, p,
                     ((fij, k), (fjk, i), (fik, j)))

    for pair, cols in sorted(rho.ops.items()):
        gaps = masks(cols)[0]
        for part, count, live in laws:
            part.skip(count - len(live))
            for where, p, terms, need in live:
                rhs = None if need & gaps else _sum_of_products(A, terms, cols)
                if rhs is None:
                    part.skip()
                elif mat_apply_sv(cols, p) == rhs:
                    part.tick()
                else:
                    part.record({"pair": pair, **where})

    out = CheckReport("rho-derivation")
    for part, _, _ in laws:
        out.checked += part.checked
        out.skipped += part.skipped
        out.failure_count += part.failure_count
        for wit in part.failures:
            if len(out.failures) < MAX_FAILURES:
                out.failures.append({"law": part.name, **wit})
        if part.passed is False:
            out.passed = False
    return out


# --- seeded perturbations of the corpus -----------------------------------


_VALUES = (1, -1, 2, None)


def _entry(rng, dim):
    """A replacement table entry: None, or e_r times 1, -1 or 2."""
    value = rng.choice(_VALUES)
    return None if value is None else {rng.randrange(dim): value}


def perturbed(B, seed: int) -> RinehartBundle:
    """B with up to two product, two action and three anchor entries
    set to e_r times 1, -1 or 2, or to None, at places the seed picks;
    on half the seeds one entry of phi set to 1, -1 or 2, and on every
    fifth seed no declared unit."""
    rng = random.Random(seed)
    n, m = B.L.n, B.A.dim
    product = dict(B.A.table)
    for _ in range(rng.randint(0, 2)):
        i, j = sorted((rng.randrange(m), rng.randrange(m)))
        product[(i, j)] = _entry(rng, m)
    action = dict(B.act.table)
    for _ in range(rng.randint(0, 2)):
        action[(rng.randrange(m), rng.randrange(n))] = _entry(rng, n)
    ops = {key: list(cols) for key, cols in B.rho.ops.items()}
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(list(combinations(range(n), 2)))
        cols = ops.setdefault(key, [{} for _ in range(m)])
        cols[rng.randrange(m)] = _entry(rng, m)
    phi = [list(row) for row in B.A.phi.rows]
    if rng.randrange(2):
        phi[rng.randrange(m)][rng.randrange(m)] = rng.choice((1, -1, 2))
    unit = None if seed % 5 == 4 else B.A.unit
    A = CommAlgebra(m, product, MatrixQ(phi), unit)
    return RinehartBundle(B.L, A, PairAction(n, m, ops),
                          ModuleAction(m, n, action))


LAWS = (
    (lambda B: check_commutative_associative(B.A),
     lambda B: reference_assoc(B.A)),
    (lambda B: check_phi_multiplicative(B.A),
     lambda B: reference_phi_hom(B.A)),
    (lambda B: check_unit(B.A), lambda B: reference_unit(B.A)),
    (check_action_module, reference_action_module),
    (check_action_unital, reference_action_unital),
    (check_action_twist, reference_action_twist),
    (lambda B: check_rho_derivations(B.A, B.rep),
     lambda B: reference_rho_derivations(B.A, B.rho)),
)

SEEDS = range(40)


@pytest.mark.parametrize(
    "name, params", CORPUS_CASES,
    ids=["-".join([name, *map(str, params.values())])
         for name, params in CORPUS_CASES])
def test_basis_laws_match_the_loops_on_perturbed_bundles(name, params):
    base = generate(name, **params)
    for B in [base, *(perturbed(base, seed) for seed in SEEDS)]:
        for check, reference in LAWS:
            assert check(B) == reference(B)


def test_every_law_fails_and_skips_on_some_perturbation():
    """The perturbations reach every branch of every law: some bundle
    fails it and some bundle skips an instance of it; the two unit laws
    are also blocked where no unit is declared."""
    failed, skipped, blocked = Counter(), Counter(), Counter()
    for name, params in CORPUS_CASES:
        base = generate(name, **params)
        for seed in SEEDS:
            B = perturbed(base, seed)
            for check, _ in LAWS:
                report = check(B)
                failed[report.name] += report.failure_count > 0
                skipped[report.name] += report.skipped > 0
                blocked[report.name] += report.passed is None
    names = {"assoc", "phi-hom", "unit", "action-assoc", "action-unital",
             "action-twist", "rho-derivation"}
    assert set(+failed) == set(+skipped) == names
    assert set(+blocked) == {"unit", "action-unital"}


def test_derivation_witnesses_run_law_by_law():
    """hd1 over every stored pair comes before hd2: with two broken
    anchor operators, the kept witnesses are those of hd1 on both
    pairs, in pair order, and then those of hd2."""
    B = generate("tb-rinehart", degree_cap=2)
    ops = {key: list(cols) for key, cols in B.rho.ops.items()}
    first, last = sorted(ops)[0], sorted(ops)[-1]
    for key in (first, last):
        ops[key][0] = {**(ops[key][0] or {}), 0: 7}
    rho = PairAction(B.L.n, B.A.dim, ops)
    report = check_rho_derivations(B.A, HomRepresentation(rho, B.A.phi))
    assert report == reference_rho_derivations(B.A, rho)
    assert (first, last) == ((0, 1), (4, 5))
    assert report.failure_count == 9 > MAX_FAILURES
    assert [(w["law"], w["pair"]) for w in report.failures] == [
        ("hd1", first)] * 3 + [("hd1", last), ("hd2", first)]
