"""Corpus generators: shapes, declared flags, bounds, determinism."""

import pytest

from trilie.bundleio import FLAG_CHECKS, dumps_bundle, loads_bundle
from trilie.corpus import (
    CORPUS_NAMES,
    MAX_DEGREE,
    MAX_WINDOW,
    d4_bundle,
    generate,
    tensor_family,
    tprime_split,
    twist_family,
    two_block,
)
from trilie.exactq import SubspaceQ

from families import rep_family


def test_every_name_generates():
    for name in CORPUS_NAMES:
        B = generate(name)
        assert B.L.n > 0 and B.A.dim > 0
        assert "flags" in B.meta


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        generate("no-such-bundle")


def test_bounds_enforced():
    with pytest.raises(ValueError):
        generate("tb-rinehart", degree_cap=MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        generate("tprime-split", window=MAX_WINDOW + 1)
    with pytest.raises(ValueError):
        generate("tprime-split", window=0)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_declared_flags_are_true_claims(name):
    B = generate(name)
    for flag, value in B.meta["flags"].items():
        assert (FLAG_CHECKS[flag](B) is True) == value, (name, flag)


@pytest.mark.parametrize("name", ("jacobian-weak", "rho-prime"))
@pytest.mark.parametrize("cap", (0, 1, 2))
def test_function_space_bundles_load_at_small_degree_caps(name, cap):
    """The full laws fail through rho(x*x, y), which needs degree 2, so
    below cap 2 these bundles are full ones and say so: the file they
    write loads with its flags verified."""
    B = generate(name, degree_cap=cap)
    assert B.meta["flags"]["full_rinehart"] is (cap < 2)
    loads_bundle(dumps_bundle(B))


def test_generate_is_deterministic():
    for name in ("tprime-split", "two-block", "d4"):
        a, b = generate(name), generate(name)
        assert a.L.sc == b.L.sc
        assert a.L.alpha == b.L.alpha
        assert a.rho == b.rho
        assert a.act.table == b.act.table


def test_tprime_carries_its_splitting_subalgebra():
    B = tprime_split(3)
    H = SubspaceQ(B.L.n, B.meta["H"])
    assert H.dim == 3
    for label in ("x", "y", "1"):
        idx = B.L_labels.index(label)
        vec = [0] * B.L.n
        vec[idx] = 1
        assert H.contains(tuple(vec))


def test_d4_bundle_has_no_subalgebra_metadata():
    B = d4_bundle(2)
    assert "H" not in B.meta


def test_two_block_structure():
    B = two_block(1)
    n1, n2 = B.meta["split"]
    assert B.L.n == n1 + n2
    H = SubspaceQ(B.L.n, B.meta["H"])
    assert H.dim == 4


def test_seeded_families_are_deterministic():
    for seed in (0, 7, 19):
        a1, A1, r1, v1 = tensor_family(seed)
        a2, A2, r2, v2 = tensor_family(seed)
        assert v1 == v2 and a1.sc == a2.sc and a1.alpha == a2.alpha
        assert A1.table == A2.table and A1.phi == A2.phi and r1 == r2

        b1, i1 = twist_family(seed)
        b2, i2 = twist_family(seed)
        assert i1.alpha_new == i2.alpha_new and i1.phi_new == i2.phi_new

        l1, rep1 = rep_family(seed)
        l2, rep2 = rep_family(seed)
        assert l1.sc == l2.sc and rep1.action == rep2.action
        assert rep1.phi == rep2.phi


def test_tensor_family_keeps_regimes_separate():
    # a nonzero action comes only with an abelian bracket
    for seed in range(40):
        alg, A, rho, variant = tensor_family(seed)
        assert alg.n * A.dim <= 12
        if rho.ops:
            assert variant == "anchored"
            assert not alg.sc.table
        else:
            assert alg.sc.table


def test_windowed_bundles_record_missing_entries():
    B = tprime_split(2)
    assert B.L.sc.missing
    assert any(v is None for v in B.act.table.values())
