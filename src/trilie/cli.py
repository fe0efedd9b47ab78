"""Command line front end.

Subcommands
-----------
corpus NAME      build a named example bundle and write its file
check PATH       run an axiom suite against a bundle file
decompose PATH   root/weight decomposition report relative to H
connect PATH     connection classes of roots, or one src/dst query
construct ...    twist or tensor-extend, writing the resulting bundle

Exit codes: 0 every asserted property held, 1 at least one checked
property failed, 2 input or validation error, 3 internal error: a
computed result broke an invariant the theory guarantees, which is a
bug in trilie and says nothing about the input, 141 standard output
was closed before the report was written (as in `trilie ... | head`),
so no verdict was delivered.  Reports are emitted as
canonical JSON (deterministic for identical inputs and seed) or
human-readable text; timing lines appear only in text reports so the
JSON form stays byte-stable.

The direct-sum hypothesis checks (center-trivial, H-generated) are
evaluations, not assertions: the report carries their outcome and
witnesses, but a failed hypothesis alone never flips the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement

from . import corpus
from .bundleio import (
    BundleLoadError,
    dumps_bundle,
    load_bundle,
)
from .construct import ConstructionError, TwistInput, tensor_extension, twist
from .core3lie import check_hom_jacobi, check_multiplicative
from .exactq import MatrixQ, SubspaceQ, qstr
from .repmod import HomRepresentation, check_hr4, \
    check_hr4_equivalence, check_hom_rep
from .report import CheckReport, SuiteReport
from .rinehart import (
    RinehartBundle,
    check_anchor_derivations,
    check_commutative_associative,
    check_full_rinehart,
    check_identity_suite,
    check_phi_multiplicative,
    check_unit,
    check_weak_rinehart,
    suite_verdicts,
)
from .split import (
    InternalError,
    SplitError,
    check_class_ideal_laws,
    check_thm1_properties,
    connected,
    connection_chain_valid,
    direct_sum_decompose,
    root_classes,
    root_decompose,
    weight_class_decompose,
    weight_decompose,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_STDOUT = 141    # 128 + SIGPIPE, as a shell reports it

# evaluated, reported, but never an assertion by themselves
HYPOTHESIS_CHECKS = frozenset({"center-trivial", "H-generated"})

SUITE_NAMES = ("core", "rep", "rinehart", "identities", "split",
               "classes", "all")


class CliError(Exception):
    """Input or validation problem; message goes to stderr, exit 2."""


# -- H resolution ---------------------------------------------------------


def auto_subalgebra(B: RinehartBundle) -> SubspaceQ:
    """Guess a splitting subalgebra from the bracket table.

    Seed: basis vectors whose determined brackets all vanish.  Then a
    greedy pass in basis order adds vectors that keep the span abelian
    (on determined triples) and stable under alpha.  The result is a
    convenience, never authoritative; decomposition re-checks all of
    its own hypotheses.
    """
    n = B.L.n
    sc = B.L.sc
    central = []
    for i in range(n):
        ok = True
        for j in range(n):
            for k in range(j, n):
                vec = sc.trilinear({i: 1}, {j: 1}, {k: 1})
                if vec:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            central.append(i)

    members = list(central)
    span = SubspaceQ(n, [tuple(1 if c == i else 0 for c in range(n))
                         for i in members]) if members else SubspaceQ.zero(n)

    def abelian_and_stable(idxs):
        vecs = [{i: 1} for i in idxs]
        for a, b, c in combinations_with_replacement(range(len(vecs)), 3):
            out = sc.trilinear(vecs[a], vecs[b], vecs[c])
            if out is None or out:
                return False
        sp = SubspaceQ(n, [tuple(1 if col == i else 0 for col in range(n))
                           for i in idxs])
        for v in sp.basis:
            if not sp.contains(B.L.alpha.apply(v)):
                return False
        return True

    for i in range(n):
        if i in members or span.contains(
                tuple(1 if c == i else 0 for c in range(n))):
            continue
        trial = sorted(members + [i])
        if abelian_and_stable(trial):
            members = trial
            span = SubspaceQ(n, [tuple(1 if c == m else 0
                                       for c in range(n))
                                 for m in members])
    if not members:
        raise CliError("could not find a candidate subalgebra; "
                       "pass --H with an explicit basis file")
    return span


def resolve_h(B: RinehartBundle, spec: str | None) -> SubspaceQ:
    n = B.L.n
    if spec == "auto" or (spec is None and "H" not in B.meta):
        return auto_subalgebra(B)
    if spec in (None, "file"):
        if "H" not in B.meta:
            raise CliError("bundle file declares no H; use --H auto or "
                           "a path to a basis file")
        return _nonzero_h(n, B.meta["H"], "bundle H")
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read H file {spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"H file {spec}: parse error at line "
                       f"{exc.lineno}: {exc.msg}") from exc
    rows = obj.get("H") if isinstance(obj, dict) else obj
    if not isinstance(rows, list) or not rows:
        raise CliError(f"H file {spec}: expected a list of sparse rows")
    from .bundleio import _dec_sv
    dense = []
    for idx, row in enumerate(rows):
        try:
            vec = _dec_sv(row, n, f"H[{idx}]")
        except BundleLoadError as exc:
            raise CliError(f"H file {spec}: {exc}") from exc
        dense.append(tuple(vec.get(c, 0) for c in range(n)))
    return _nonzero_h(n, dense, f"H file {spec}")


def _nonzero_h(n: int, rows, where: str) -> SubspaceQ:
    """The span of the given H rows; `where` names their source."""
    H = SubspaceQ(n, [tuple(row) for row in rows])
    if H.dim == 0:
        raise CliError(f"{where}: the rows span zero; H must be nonzero")
    return H


# -- report plumbing ------------------------------------------------------


def _emit(args, obj: dict, text_lines) -> None:
    if args.report == "json":
        # a witness form can hold a non-integral rational: "p/q", as
        # every other rational in a report is written
        print(json.dumps(obj, sort_keys=True, separators=(",", ":"),
                         default=qstr))
    else:
        for line in text_lines:
            print(line)


def _suite_failures(suites, ignore=frozenset()):
    names = []
    for suite in suites:
        for check in suite.checks:
            if check.passed is False and check.name not in ignore:
                names.append(f"{suite.name}.{check.name}")
    return names


def _space_rows(space: SubspaceQ):
    return [[qstr(c) for c in row] for row in space.basis]


def _form_obj(form):
    return [[qstr(c) for c in row] for row in form.mat.rows]


def _elapsed_line(t0):
    return f"elapsed: {int((time.monotonic() - t0) * 1000)} ms"


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is an input
    error, as a path that cannot be read is."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


@contextmanager
def _output_claimed(path: str | None):
    """Open the output file before the work that fills it, so that a
    path which cannot be written is refused first.

    The file is opened for append, which creates a missing file and
    leaves an existing one as it is until `_write_text` writes it.  If
    the work then fails before the text is written, a file created here
    is still empty and is removed again; a failure after the write,
    such as a closed stdout for the summary line, keeps the file.
    """
    if not path:
        yield
        return
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    try:
        yield
    except BaseException:
        if (not existed and os.path.isfile(path)
                and not os.path.getsize(path)):
            os.remove(path)
        raise


# -- corpus ---------------------------------------------------------------


def cmd_corpus(args) -> int:
    with _output_claimed(args.output):
        try:
            B = corpus.generate(args.name, degree_cap=args.degree_cap,
                                window=args.window, seed=args.seed)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        text = dumps_bundle(B)
        if args.output:
            _write_text(args.output, text)
            if args.report == "text":
                print(f"wrote {args.output}: {B.name}, dim L = {B.L.n}, "
                      f"dim A = {B.A.dim}")
        else:
            sys.stdout.write(text)
    return EXIT_OK


# -- check ----------------------------------------------------------------


def _core_suite(B: RinehartBundle) -> SuiteReport:
    suite = SuiteReport("core")
    suite.add(check_hom_jacobi(B.L))
    suite.add(check_multiplicative(B.L))
    suite.add(check_commutative_associative(B.A))
    suite.add(check_phi_multiplicative(B.A))
    suite.add(check_unit(B.A))
    return suite


def _rep_suite(B: RinehartBundle) -> SuiteReport:
    hom_rep = check_hom_rep(B.L, B.rep)
    return SuiteReport(hom_rep.name, [*hom_rep.checks,
                                      check_hr4(B.L, B.rep),
                                      check_hr4_equivalence(B.L, B.rep)])


def _rinehart_suite(B: RinehartBundle):
    weak = check_weak_rinehart(B)
    full = check_full_rinehart(B)
    extra = SuiteReport("anchor")
    extra.add(check_anchor_derivations(B))
    return [weak, full, extra]


def _split_sections(B: RinehartBundle, h_spec, want_classes: bool):
    """Decomposition suites; SplitError becomes a failed check."""
    H = resolve_h(B, h_spec)
    suites = []
    gate = SuiteReport("decomposition")
    status = gate.add(CheckReport("splits-over-H"))
    suites.append(gate)
    try:
        dec = root_decompose(B, H)
        wdec = weight_decompose(B, H)
        # a pullback orbit that does not close fails here, as in decompose
        partition = (root_classes(dec.forms, wdec.forms, dec.AH)
                     if want_classes else None)
    except SplitError as exc:
        status.tick()
        status.record({"code": exc.code, "detail": exc.detail})
        return suites
    status.tick()
    status.detail = (f"{len(dec.forms)} roots, {len(wdec.forms)} weights, "
                     f"dim H = {H.dim}")
    suites.append(check_thm1_properties(B, dec, wdec))
    if want_classes:
        suites.extend(_class_stages(B, dec, wdec, partition)[0])
    return suites


def _class_stages(B: RinehartBundle, dec, wdec, partition):
    """Class ideals, direct sum and weight classes, in that order.

    Returns (suites, ideals, weight partition).  A SplitError (a window
    hole met while building a class, or a weight orbit that does not
    close) ends the stages with a failed class-stages check; the suites
    computed before it are kept.
    """
    suites, ideals, wpart = [], [], None
    try:
        laws, ideals = check_class_ideal_laws(B, dec, wdec, partition)
        suites.append(laws)
        suites.append(direct_sum_decompose(B, dec, wdec, ideals))
        wsuite, wpart, _ = weight_class_decompose(B, dec, wdec)
        suites.append(wsuite)
    except SplitError as exc:
        gate = SuiteReport("classes")
        status = gate.add(CheckReport("class-stages"))
        status.tick()
        status.record({"code": exc.code, "detail": exc.detail})
        suites.append(gate)
    return suites, ideals, wpart


def cmd_check(args) -> int:
    B = load_bundle(args.path)
    # "classes" subsumes "split", so "all" runs the split gate once
    order = (("core", "rep", "rinehart", "identities", "classes")
             if args.suite == "all" else (args.suite,))
    suites = []
    for name in order:
        if name == "core":
            suites.append(_core_suite(B))
        elif name == "rep":
            suites.append(_rep_suite(B))
        elif name == "rinehart":
            suites.extend(_rinehart_suite(B))
        elif name == "identities":
            suites.append(check_identity_suite(B))
        elif name in ("split", "classes"):
            sub = _split_sections(B, args.H, name == "classes")
            suites.extend(sub)
    failures = _suite_failures(suites, ignore=HYPOTHESIS_CHECKS)
    t0 = args._t0
    obj = {
        "command": "check",
        "bundle": B.name,
        "suite": args.suite,
        "seed": args.seed,
        "passed": not failures,
        "failures": failures,
        "sections": [s.to_dict() for s in suites],
    }
    lines = [f"check {B.name!r} suite={args.suite}"]
    for s in suites:
        lines.append(s.to_text())
    lines.append("PASS" if not failures
                 else "FAIL: " + ", ".join(failures))
    lines.append(_elapsed_line(t0))
    _emit(args, obj, lines)
    return EXIT_OK if not failures else EXIT_FAILED


# -- decompose ------------------------------------------------------------


def cmd_decompose(args) -> int:
    B = load_bundle(args.path)
    H = resolve_h(B, args.H)
    try:
        dec = root_decompose(B, H)
        wdec = weight_decompose(B, H)
        partition = root_classes(dec.forms, wdec.forms, dec.AH)
    except SplitError as exc:
        obj = {"command": "decompose", "bundle": B.name,
               "passed": False, "split_error": exc.code,
               "detail": exc.detail}
        _emit(args, obj, [f"decompose {B.name!r}: {exc}",
                          _elapsed_line(args._t0)])
        return EXIT_FAILED

    thm1 = check_thm1_properties(B, dec, wdec)
    stages, ideals, wpart = _class_stages(B, dec, wdec, partition)
    suites = [thm1, *stages]
    failures = _suite_failures(suites, ignore=HYPOTHESIS_CHECKS)

    classes = [[dec.forms.index(form) for form in cls]
               for cls in partition]
    wclasses = [] if wpart is None else [
        [wdec.forms.index(form) for form in cls] for cls in wpart]
    obj = {
        "command": "decompose",
        "bundle": B.name,
        "seed": args.seed,
        "passed": not failures,
        "failures": failures,
        "H": _space_rows(dec.H),
        "roots": [{"matrix": _form_obj(form),
                   "space": _space_rows(space),
                   "dim": space.dim}
                  for form, space in dec.pieces],
        "L0": _space_rows(dec.zero),
        "weights": [{"matrix": _form_obj(form),
                     "space": _space_rows(space),
                     "dim": space.dim}
                    for form, space in wdec.pieces],
        "A0": _space_rows(wdec.zero),
        "root_classes": classes,
        "weight_classes": wclasses,
        "ideals": [{"roots": [dec.forms.index(f) for f in ci.roots],
                    "zero_part": _space_rows(ci.zero_part),
                    "dim": ci.space.dim}
                   for ci in ideals],
        "sections": [s.to_dict() for s in suites],
    }
    lines = [f"decompose {B.name!r}: dim H = {dec.H.dim}, "
             f"{len(dec.forms)} roots, {len(wdec.forms)} weights"]
    for i, (form, space) in enumerate(dec.pieces):
        lines.append(f"  root {i}: matrix {_form_obj(form)} "
                     f"space dim {space.dim}")
    for i, (form, space) in enumerate(wdec.pieces):
        lines.append(f"  weight {i}: matrix {_form_obj(form)} "
                     f"space dim {space.dim}")
    lines.append(f"  root classes: {classes}")
    lines.append(f"  weight classes: {wclasses}")
    for s in suites:
        lines.append(s.to_text())
    lines.append("PASS" if not failures
                 else "FAIL: " + ", ".join(failures))
    lines.append(_elapsed_line(args._t0))
    _emit(args, obj, lines)
    return EXIT_OK if not failures else EXIT_FAILED


# -- connect --------------------------------------------------------------


def cmd_connect(args) -> int:
    if (args.src is None) != (args.dst is None):
        raise CliError("--src and --dst must be given together")
    B = load_bundle(args.path)
    H = resolve_h(B, args.H)
    try:
        dec = root_decompose(B, H)
        wdec = weight_decompose(B, H)
        if args.src is None:
            partition = root_classes(dec.forms, wdec.forms, dec.AH)
        else:
            for label, idx in (("--src", args.src), ("--dst", args.dst)):
                if not 0 <= idx < len(dec.forms):
                    raise CliError(f"{label} {idx} out of range "
                                   f"0..{len(dec.forms) - 1}")
            src, dst = dec.forms[args.src], dec.forms[args.dst]
            ok, chain = connected(dec.forms, wdec.forms, dec.AH, src, dst)
    except SplitError as exc:
        obj = {"command": "connect", "bundle": B.name,
               "passed": False, "split_error": exc.code,
               "detail": exc.detail}
        _emit(args, obj, [f"connect {B.name!r}: {exc}"])
        return EXIT_FAILED

    if args.src is not None:
        chain = chain or []  # None when dst is in another class
        valid = (connection_chain_valid(chain, dec.forms, wdec.forms,
                                        dec.AH, src, dst)
                 if chain else ok)
        obj = {"command": "connect", "bundle": B.name,
               "src": args.src, "dst": args.dst, "connected": ok,
               "chain": [_form_obj(f) for f in chain],
               "chain_valid": valid}
        _emit(args, obj, [f"connect {B.name!r}: root {args.src} ~ "
                          f"root {args.dst}: {ok}",
                          f"  chain length {len(chain)}, valid: {valid}",
                          _elapsed_line(args._t0)])
        return EXIT_OK
    classes = [[dec.forms.index(f) for f in cls]
               for cls in partition]
    obj = {"command": "connect", "bundle": B.name,
           "roots": [_form_obj(f) for f in dec.forms],
           "classes": classes}
    _emit(args, obj, [f"connect {B.name!r}: {len(dec.forms)} roots, "
                      f"{len(classes)} classes: {classes}",
                      _elapsed_line(args._t0)])
    return EXIT_OK


# -- construct ------------------------------------------------------------


def _read_matrix_file(path: str, n: int, m: int, key: str) -> MatrixQ:
    from .bundleio import _dec_mat
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: parse error at line {exc.lineno}: "
                       f"{exc.msg}") from exc
    entries = obj.get(key) if isinstance(obj, dict) else obj
    try:
        return _dec_mat(entries, n, m, key)
    except BundleLoadError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write_result(args, B: RinehartBundle) -> int:
    # flags are verified again on load, so they must be measured,
    # never assumed from the construction that produced the bundle; a
    # suite flag is a verdict, settled by the suite's first failing check
    weak, full = suite_verdicts(B)
    B.meta["flags"] = {
        "hom_jacobi": check_hom_jacobi(B.L).passed is True,
        "multiplicative": check_multiplicative(B.L).passed is True,
        "weak_rinehart": weak,
        "full_rinehart": full,
    }
    text = dumps_bundle(B)
    if args.output:
        _write_text(args.output, text)
        if args.report == "text":
            print(f"wrote {args.output}: dim L = {B.L.n}, "
                  f"dim A = {B.A.dim}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_construct(args) -> int:
    with _output_claimed(args.output):
        return _construct(args)


def _construct(args) -> int:
    if args.kind == "twist":
        if args.seed is not None:
            base, inp = corpus.twist_family(args.seed)
        else:
            if not args.path:
                raise CliError("construct twist needs a base bundle "
                               "path or --seed")
            base = load_bundle(args.path)
            if not args.maps:
                raise CliError("construct twist needs --maps FILE "
                               "with alpha and phi entries")
            alpha = _read_matrix_file(args.maps, base.L.n, base.L.n,
                                      "alpha")
            phi = _read_matrix_file(args.maps, base.A.dim, base.A.dim,
                                    "phi")
            inp = TwistInput(base, alpha, phi)
        try:
            out = twist(inp, name=args.name or f"{base.name}-twisted")
        except ConstructionError as exc:
            raise CliError(str(exc)) from exc
        return _write_result(args, out)

    if args.seed is not None:
        alg, A, rho, variant = corpus.tensor_family(args.seed)
        rep = HomRepresentation(rho, A.phi)
        l_labels = a_labels = None
    else:
        if not args.path:
            raise CliError("construct tensor needs an input bundle "
                           "path or --seed")
        inp_bundle = load_bundle(args.path)
        alg, A, rep = inp_bundle.L, inp_bundle.A, inp_bundle.rep
        l_labels, a_labels = inp_bundle.L_labels, inp_bundle.A_labels
    try:
        out = tensor_extension(alg, A, rep, name=args.name or "tensor",
                               l_labels=l_labels, a_labels=a_labels)
    except ConstructionError as exc:
        where = f"--seed {args.seed}" if args.seed is not None else args.path
        raise CliError(f"{where}: {exc}") from exc
    return _write_result(args, out)


# -- argument parsing -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilie",
        description="Exact verification and decomposition of "
                    "(Hom) 3-Lie-Rinehart bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_h=False):
        p.add_argument("--report", choices=("json", "text"),
                       default="text")
        p.add_argument("--seed", type=int, default=None)
        if with_h:
            p.add_argument("--H", dest="H", default=None, metavar="SPEC",
                           help="splitting subalgebra: 'auto', 'file' "
                                "(use the bundle's own), or a path to "
                                "a JSON basis file; default prefers "
                                "the bundle's H, then auto")

    p = sub.add_parser("corpus", help="generate a built-in example")
    p.add_argument("name", choices=corpus.CORPUS_NAMES)
    p.add_argument("--degree-cap", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("check", help="run an axiom suite")
    p.add_argument("path")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    common(p, with_h=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="root/weight decomposition")
    p.add_argument("path")
    common(p, with_h=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("connect", help="connection classes of roots")
    p.add_argument("path")
    p.add_argument("--src", type=int, default=None)
    p.add_argument("--dst", type=int, default=None)
    common(p, with_h=True)
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("construct", help="twist or tensor-extend")
    p.add_argument("kind", choices=("twist", "tensor"))
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--maps", default=None,
                   help="JSON file with alpha and phi matrix entries "
                        "(twist only)")
    p.add_argument("--name", default=None)
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=cmd_construct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.monotonic()
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the exit flush would raise again on the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (CliError, ValueError) as exc:
        # BundleLoadError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InternalError as exc:
        print(f"internal error (a bug in trilie, not in the input): {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
