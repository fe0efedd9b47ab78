"""Seeded benchmark inputs.

The seed picks a signed permutation S of the L basis (seed 0 is the
identity).  Each input is the corpus bundle rewritten in the basis
S e_x, so verdicts and instance counts are the same for every seed while
the files differ.
"""

from __future__ import annotations

import random

from trilie import construct, corpus
from trilie.bundleio import dumps_bundle
from trilie.exactq import MatrixQ


def signed_permutation(n: int, seed: int) -> MatrixQ:
    """S with S e_x = sign[x] e_perm[x]; the identity for seed 0."""
    perm = list(range(n))
    signs = [1] * n
    if seed:
        rng = random.Random(seed)
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        rows[perm[x]][x] = signs[x]
    return MatrixQ(rows)


def seeded_bundle(name: str, params: dict, seed: int, keep_flags: bool):
    """The corpus bundle rewritten in the seed's signed-permutation basis.

    Name, metadata and declared flags carry over; ``H`` is mapped to the
    new coordinates by S^-1.  Without ``keep_flags`` the flags are dropped,
    so loading the file runs no law checks.
    """
    B = corpus.generate(name, **params)
    S = signed_permutation(B.L.n, seed)
    labels = None
    if B.L_labels:
        labels = [("-" if S.rows[y][x] < 0 else "") + B.L_labels[y]
                  for x in range(B.L.n)
                  for y in range(B.L.n) if S.rows[y][x]]
    out = construct.change_basis(B, S, l_labels=labels, name=B.name)
    meta = dict(B.meta)
    if "H" in meta:
        sinv = S.inverse()
        meta["H"] = [list(sinv.apply(row)) for row in meta["H"]]
    if not keep_flags:
        meta.pop("flags", None)
    out.meta = meta
    return out


def write_inputs(ops, seed: int, directory) -> dict:
    """Build and write every op's input file; returns key -> facts."""
    facts = {}
    for op in ops:
        B = seeded_bundle(op.bundle, op.params, seed, op.keep_flags)
        text = dumps_bundle(B)
        path = directory / f"{op.key}.json"
        path.write_text(text, encoding="utf-8")
        facts[op.key] = {"path": str(path), "dim_L": B.L.n, "dim_A": B.A.dim,
                         "bytes": len(text.encode("utf-8"))}
    return facts
