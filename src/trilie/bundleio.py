"""Canonical JSON serialization for bundles.

The on-disk format is versioned, sparse and exact: rationals are
"p/q" strings, zero entries are never written, and window-missing
entries are explicit nulls.  Saving is canonical (sorted keys, sorted
entry lists, compact separators, trailing newline), so loading a saved
file and saving it again is byte-identical.

Loading trusts nothing: shapes and index ranges are validated entry by
entry, and every flag declared in the file is re-verified against the
reconstructed bundle, including negative flags, which must fail their
suite exactly as declared.  The reports behind those verdicts stay on
the loaded bundle (see `report.stored_on`): the suites run on it later
reuse them rather than checking the same laws a second time.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .core3lie import (
    Hom3Lie,
    StructureConstants3,
    check_hom_jacobi,
    check_jacobi,
    check_multiplicative,
)
from .exactq import MatrixQ, qparse, qstr
from .repmod import PairAction
from .rinehart import (
    CommAlgebra,
    ModuleAction,
    RinehartBundle,
    check_full_rinehart,
    check_weak_rinehart,
)

FORMAT_VERSION = "1"


class BundleLoadError(ValueError):
    """A bundle file failed to parse or validate; message says where."""


def _fail(where: str, why: str):
    raise BundleLoadError(f"{where}: {why}")


# -- encoding -------------------------------------------------------------


def _enc_q(x) -> str:
    return qstr(x)


def _enc_sv(vec: dict) -> list:
    return [[i, _enc_q(c)] for i, c in sorted(vec.items())]


def _enc_mat(mat: MatrixQ) -> list:
    out = []
    for r, row in enumerate(mat.rows):
        for c, x in enumerate(row):
            if x:
                out.append([r, c, _enc_q(x)])
    return out


def _enc_table(table: dict) -> list:
    """[i, j, vector] rows of a sparse product table, None kept."""
    return [[i, j, None if vec is None else _enc_sv(vec)]
            for (i, j), vec in sorted(table.items())]


def bundle_to_obj(B: RinehartBundle) -> dict:
    sc = B.L.sc
    bracket = [[i, j, k, _enc_sv(vec)]
               for (i, j, k), vec in sorted(sc.table.items())]
    rho = []
    for (i, j), cols in sorted(B.rho.ops.items()):
        rho.append([i, j, [None if col is None else _enc_sv(col)
                           for col in cols]])
    meta = dict(B.meta)
    flags = meta.pop("flags", {})
    h_rows = meta.pop("H", None)
    obj = {
        "format_version": FORMAT_VERSION,
        "name": B.name,
        "L": {
            "dim": sc.n,
            "bracket": bracket,
            "missing": [list(t) for t in sorted(sc.missing)],
            "alpha": _enc_mat(B.L.alpha),
        },
        "A": {
            "dim": B.A.dim,
            "mult": _enc_table(B.A.table),
            "phi": _enc_mat(B.A.phi),
            "unit": None if B.A.unit is None else _enc_sv(B.A.unit),
        },
        "action": _enc_table(B.act.table),
        "rho": rho,
        "flags": dict(flags),
        "metadata": meta,
    }
    if h_rows is not None:
        obj["H"] = [_enc_sv({i: c for i, c in enumerate(row) if c})
                    for row in h_rows]
    if B.L_labels:
        obj["L_labels"] = list(B.L_labels)
    if B.A_labels:
        obj["A_labels"] = list(B.A_labels)
    return obj


def dumps_bundle(B: RinehartBundle) -> str:
    return json.dumps(bundle_to_obj(B), sort_keys=True,
                      separators=(",", ":")) + "\n"


# -- decoding -------------------------------------------------------------


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$")


def _dec_q(obj, where: str) -> Fraction:
    if not isinstance(obj, str):
        _fail(where, f"rational must be a \"p/q\" string, got {obj!r}")
    # Fraction would also accept "0.5" or "1e3"; the format does not
    if not _RATIONAL_RE.fullmatch(obj):
        _fail(where, f"bad rational {obj!r} (want \"p\" or \"p/q\")")
    try:
        return qparse(obj)
    except (ValueError, ZeroDivisionError) as exc:
        _fail(where, f"bad rational {obj!r} ({exc})")


def _dec_index(obj, dim: int, where: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        _fail(where, f"index must be an integer, got {obj!r}")
    if not 0 <= obj < dim:
        _fail(where, f"index {obj} out of range 0..{dim - 1}")
    return obj


def _dec_sv(obj, dim: int, where: str) -> dict:
    if not isinstance(obj, list):
        _fail(where, "sparse vector must be a list of [index, value]")
    out = {}
    for entry in obj:
        if not (isinstance(entry, list) and len(entry) == 2):
            _fail(where, f"bad sparse entry {entry!r}")
        i = _dec_index(entry[0], dim, where)
        if i in out:
            _fail(where, f"duplicate index {i}")
        c = _dec_q(entry[1], where)
        if c == 0:
            _fail(where, f"explicit zero at index {i} (must be omitted)")
        out[i] = c
    return out


def _dec_mat(obj, nrows: int, ncols: int, where: str) -> MatrixQ:
    if not isinstance(obj, list):
        _fail(where, "matrix must be a list of [row, col, value]")
    grid = [[Fraction(0)] * ncols for _ in range(nrows)]
    seen = set()
    for entry in obj:
        if not (isinstance(entry, list) and len(entry) == 3):
            _fail(where, f"bad matrix entry {entry!r}")
        r = _dec_index(entry[0], nrows, where)
        c = _dec_index(entry[1], ncols, where)
        if (r, c) in seen:
            _fail(where, f"duplicate matrix entry ({r},{c})")
        seen.add((r, c))
        x = _dec_q(entry[2], where)
        if x == 0:
            _fail(where, f"explicit zero at ({r},{c}) (must be omitted)")
        grid[r][c] = x
    return MatrixQ(grid)


def _dec_list(section: dict, key: str, where: str) -> list:
    """The list of entries under `key`; absent means empty."""
    entries = section.get(key, [])
    if not isinstance(entries, list):
        _fail(where, "must be a list")
    return entries


def _dec_dim(section: dict, where: str) -> int:
    dim = section.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        _fail(where, f"dim must be a positive integer, got {dim!r}")
    return dim


FLAG_CHECKS = {
    "jacobi": lambda B: check_jacobi(B.L).passed,
    "hom_jacobi": lambda B: check_hom_jacobi(B.L).passed,
    "multiplicative": lambda B: check_multiplicative(B.L).passed,
    "weak_rinehart": lambda B: check_weak_rinehart(B).passed,
    "full_rinehart": lambda B: check_full_rinehart(B).passed,
}


def verify_flags(B: RinehartBundle, flags: dict) -> None:
    """Re-check every declared flag; raise on the first mismatch."""
    for name in sorted(flags):
        declared = flags[name]
        checker = FLAG_CHECKS.get(name)
        if checker is None:
            _fail("flags", f"unknown flag {name!r}")
        if not isinstance(declared, bool):
            _fail("flags", f"flag {name!r} must be true or false")
        actual = bool(checker(B))
        if actual != declared:
            _fail("flags", f"flag {name!r} declared {declared} "
                  f"but verification found {actual}")


def obj_to_bundle(obj) -> RinehartBundle:
    if not isinstance(obj, dict):
        _fail("top level", "bundle file must be a JSON object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        _fail("format_version", f"unsupported version {version!r}")

    lsec = obj.get("L")
    if not isinstance(lsec, dict):
        _fail("L", "missing or malformed section")
    n = _dec_dim(lsec, "L.dim")
    table = {}
    for entry in _dec_list(lsec, "bracket", "L.bracket"):
        if not (isinstance(entry, list) and len(entry) == 4):
            _fail("L.bracket", f"bad entry {entry!r}")
        i, j, k = (_dec_index(entry[t], n, "L.bracket") for t in range(3))
        if not i < j < k:
            _fail("L.bracket", f"triple ({i},{j},{k}) is not strictly "
                  "increasing; only canonical representatives are stored")
        if (i, j, k) in table:
            _fail("L.bracket", f"duplicate triple ({i},{j},{k})")
        table[(i, j, k)] = _dec_sv(entry[3], n, f"L.bracket[{i},{j},{k}]")
    missing = set()
    for entry in _dec_list(lsec, "missing", "L.missing"):
        if not (isinstance(entry, list) and len(entry) == 3):
            _fail("L.missing", f"bad entry {entry!r}")
        i, j, k = (_dec_index(entry[t], n, "L.missing") for t in range(3))
        if not i < j < k:
            _fail("L.missing", f"triple ({i},{j},{k}) is not sorted")
        if (i, j, k) in table:
            _fail("L.missing", f"triple ({i},{j},{k}) is also in bracket")
        missing.add((i, j, k))
    alpha = _dec_mat(lsec.get("alpha", []), n, n, "L.alpha")
    try:
        alg = Hom3Lie(StructureConstants3(n, table, missing), alpha)
    except ValueError as exc:
        _fail("L", str(exc))

    asec = obj.get("A")
    if not isinstance(asec, dict):
        _fail("A", "missing or malformed section")
    m = _dec_dim(asec, "A.dim")
    mult = {}
    for entry in _dec_list(asec, "mult", "A.mult"):
        if not (isinstance(entry, list) and len(entry) == 3):
            _fail("A.mult", f"bad entry {entry!r}")
        i = _dec_index(entry[0], m, "A.mult")
        j = _dec_index(entry[1], m, "A.mult")
        if i > j:
            _fail("A.mult", f"pair ({i},{j}) is not ordered")
        if (i, j) in mult:
            _fail("A.mult", f"duplicate pair ({i},{j})")
        mult[(i, j)] = (None if entry[2] is None
                        else _dec_sv(entry[2], m, f"A.mult[{i},{j}]"))
    phi = _dec_mat(asec.get("phi", []), m, m, "A.phi")
    unit_obj = asec.get("unit")
    unit = None if unit_obj is None else _dec_sv(unit_obj, m, "A.unit")
    try:
        A = CommAlgebra(m, mult, phi, unit)
    except ValueError as exc:
        _fail("A", str(exc))

    act_table = {}
    for entry in _dec_list(obj, "action", "action"):
        if not (isinstance(entry, list) and len(entry) == 3):
            _fail("action", f"bad entry {entry!r}")
        a = _dec_index(entry[0], m, "action")
        x = _dec_index(entry[1], n, "action")
        if (a, x) in act_table:
            _fail("action", f"duplicate pair ({a},{x})")
        act_table[(a, x)] = (None if entry[2] is None
                             else _dec_sv(entry[2], n, f"action[{a},{x}]"))
    try:
        act = ModuleAction(m, n, act_table)
    except ValueError as exc:
        _fail("action", str(exc))

    ops = {}
    for entry in _dec_list(obj, "rho", "rho"):
        if not (isinstance(entry, list) and len(entry) == 3):
            _fail("rho", f"bad entry {entry!r}")
        i = _dec_index(entry[0], n, "rho")
        j = _dec_index(entry[1], n, "rho")
        if i >= j:
            _fail("rho", f"pair ({i},{j}) is not strictly increasing")
        if (i, j) in ops:
            _fail("rho", f"duplicate pair ({i},{j})")
        cols = entry[2]
        if not (isinstance(cols, list) and len(cols) == m):
            _fail("rho", f"operator ({i},{j}) must list {m} columns")
        ops[(i, j)] = [None if col is None
                       else _dec_sv(col, m, f"rho[{i},{j}]")
                       for col in cols]
    try:
        rho = PairAction(n, m, ops)
    except ValueError as exc:
        _fail("rho", str(exc))

    flags = obj.get("flags", {})
    if not isinstance(flags, dict):
        _fail("flags", "must be an object")
    meta_obj = obj.get("metadata", {})
    if not isinstance(meta_obj, dict):
        _fail("metadata", "must be an object")
    for key in ("H", "flags"):
        if key in meta_obj:
            _fail("metadata", f"{key!r} belongs at the top level")
    meta = dict(meta_obj)
    if flags:
        meta["flags"] = dict(flags)

    if "H" in obj:
        rows = obj["H"]
        if not isinstance(rows, list) or not rows:
            _fail("H", "must be a nonempty list of sparse vectors")
        dense = []
        for idx, row in enumerate(rows):
            vec = _dec_sv(row, n, f"H[{idx}]")
            dense.append([vec.get(c, Fraction(0)) for c in range(n)])
        meta["H"] = dense

    name = obj.get("name", "")
    if not isinstance(name, str):
        _fail("name", "must be a string")
    l_labels = obj.get("L_labels")
    a_labels = obj.get("A_labels")
    for label_list, what, want in ((l_labels, "L_labels", n),
                                   (a_labels, "A_labels", m)):
        if label_list is None:
            continue
        if (not isinstance(label_list, list) or len(label_list) != want
                or not all(isinstance(s, str) for s in label_list)):
            _fail(what, f"must be a list of {want} strings")

    try:
        B = RinehartBundle(alg, A, rho, act, name=name,
                           L_labels=l_labels, A_labels=a_labels,
                           meta=meta)
    except ValueError as exc:
        _fail("bundle", str(exc))

    if flags:
        verify_flags(B, flags)
    return B


def loads_bundle(text: str) -> RinehartBundle:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleLoadError(
            f"parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return obj_to_bundle(obj)


def load_bundle(path: str) -> RinehartBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise BundleLoadError(f"cannot read {path}: {exc}") from exc
    return loads_bundle(text)
