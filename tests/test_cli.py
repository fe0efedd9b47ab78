"""End-to-end command line behavior: exit codes, JSON determinism,
file round trips.  Everything runs in process through main(argv),
except the entry-point smoke tests: `python -m trilie` and the console
script declared in pyproject.toml run as subprocesses from the source
tree, and the installed `trilie` runs only where it is on PATH."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from trilie import cli, construct, core3lie, corpus, repmod, rinehart, split
from trilie.bundleio import dumps_bundle, load_bundle
from trilie.cli import main
from trilie.core3lie import StructureConstants3
from trilie.corpus import d4_bundle, toy_split, two_block
from trilie.exactq import MatrixQ
from trilie.report import SuiteReport, stored_on
from trilie.rinehart import CommAlgebra, ModuleAction, RinehartBundle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus_file(tmp_path, capsys, name, *extra):
    path = tmp_path / f"{name}.json"
    code, _, err = run(capsys, "corpus", name, "-o", str(path), *extra)
    assert code == 0, err
    return str(path)


# -- corpus ----------------------------------------------------------------


def test_corpus_stdout_matches_library_serialization(capsys):
    code, out, _ = run(capsys, "corpus", "d4")
    assert code == 0
    assert out == dumps_bundle(d4_bundle())
    code2, out2, _ = run(capsys, "corpus", "d4")
    assert (code2, out2) == (0, out)


def test_corpus_writes_loadable_file(tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "toy-split", "--window", "2")
    B = load_bundle(path)
    assert B.name == "toy-split" and B.L.n == 10


def test_corpus_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "heisenberg"])
    assert exc.value.code == 2


def test_corpus_rejects_out_of_range_window(capsys):
    code, _, err = run(capsys, "corpus", "toy-split", "--window", "9")
    assert code == 2
    assert "window" in err


@pytest.mark.parametrize("window", ["-1", "0", "7"])
def test_two_block_window_bounds_name_its_lower_bound(capsys, window):
    code, out, err = run(capsys, "corpus", "two-block", "--window", window)
    assert (code, out) == (2, "")
    assert err == f"error: window {window} out of bounds (1..6)\n"


# -- check -----------------------------------------------------------------


def test_check_passing_bundle_exits_zero(tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "toy-split", "--window", "2")
    code, out, _ = run(capsys, "check", path, "--report", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True and obj["failures"] == []
    names = [s["suite"] for s in obj["sections"]]
    assert names[0] == "core" and "thm1" in names and "class-ideals" in names
    # "all" must not run the split gate twice
    assert names.count("decomposition") == 1


def test_check_failing_bundle_exits_one(tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "jacobian-weak")
    code, out, _ = run(capsys, "check", path, "--suite", "rinehart",
                       "--report", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["passed"] is False
    assert any("full-rinehart" in f for f in obj["failures"])


def test_check_json_is_deterministic_and_untimed(tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "tprime-split", "--window", "2")
    code1, out1, _ = run(capsys, "check", path, "--suite", "core",
                         "--report", "json")
    code2, out2, _ = run(capsys, "check", path, "--suite", "core",
                         "--report", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "elapsed" not in out1
    code3, out3, _ = run(capsys, "check", path, "--suite", "core")
    assert code3 == 0 and "elapsed:" in out3


def test_failed_hypothesis_does_not_flip_exit_code(tmp_path, capsys):
    # tprime: both direct-sum hypotheses fail, every assertion holds
    path = corpus_file(tmp_path, capsys, "tprime-split", "--window", "2")
    code, out, _ = run(capsys, "check", path, "--suite", "classes",
                       "--report", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    ds = next(s for s in obj["sections"] if s["suite"] == "direct-sum")
    status = {c["name"]: c["status"] for c in ds["checks"]}
    assert status["center-trivial"] == "fail"
    assert status["H-generated"] == "fail"
    assert status["ideal-direct-sum"] == "blocked"


@pytest.mark.parametrize("section, key, value", [
    ("L", "bracket", "x"),
    ("L", "missing", 5),
    ("L", "missing", None),
    ("A", "mult", 7),
    (None, "action", True),
    (None, "rho", 3),
])
def test_malformed_section_type_exits_two(tmp_path, capsys, section, key,
                                          value):
    obj = json.loads(dumps_bundle(d4_bundle()))
    (obj[section] if section else obj)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "check", str(path))
    where = f"{section}.{key}" if section else key
    assert code == 2
    assert err.startswith(f"error: {where}: must be a list")


@pytest.mark.parametrize("key, value", [("H", 5), ("flags", {"jacobi": 1})])
def test_reserved_key_inside_metadata_exits_two(tmp_path, capsys, key,
                                                value):
    """H and flags are read from the top level only; inside metadata
    they are refused on load, not handed on to the commands."""
    obj = json.loads(dumps_bundle(d4_bundle()))
    obj["metadata"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert err.startswith(f"error: metadata: {key!r} belongs at the top level")


def test_check_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "/no/such/bundle.json")
    assert code == 2 and "error:" in err


def test_corpus_to_an_unwritable_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "d4.json"
    code, out, err = run(capsys, "corpus", "d4", "-o", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


def test_construct_to_an_unwritable_path_exits_two(tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "d4")
    target = tmp_path / "missing" / "tensor.json"
    code, out, err = run(capsys, "construct", "tensor", path,
                         "-o", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")


def test_an_unwritable_path_is_refused_before_the_work(tmp_path, capsys,
                                                        monkeypatch):
    path = corpus_file(tmp_path, capsys, "d4")
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("ran before the output path was opened")

    monkeypatch.setattr(cli, "tensor_extension", spy)
    monkeypatch.setattr(corpus, "generate", spy)
    target = str(tmp_path / "missing" / "out.json")
    for argv in (("corpus", "two-block", "--window", "3"),
                 ("construct", "tensor", path)):
        code, out, err = run(capsys, *argv, "-o", target)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
    assert calls == []


def test_a_refused_run_leaves_no_file(tmp_path, capsys):
    """The output is opened before the work; a run refused after that
    removes the file it created and leaves an existing one unchanged."""
    base = corpus_file(tmp_path, capsys, "d4")
    maps = tmp_path / "maps.json"
    # 2 e0 is no bracket endomorphism of the simple algebra
    maps.write_text(json.dumps({
        "alpha": [[0, 0, "2"]] + [[i, i, "1"] for i in range(1, 4)],
        "phi": [[i, i, "1"] for i in range(3)],
    }))
    target = tmp_path / "twisted.json"
    code, _, err = run(capsys, "construct", "twist", base,
                       "--maps", str(maps), "-o", str(target))
    assert code == 2 and "alpha-bracket-endo" in err
    assert not target.exists()
    code, _, _ = run(capsys, "corpus", "d4", "--seed", "9",
                     "-o", str(target))
    assert code == 2 and not target.exists()
    target.write_text("kept")
    code, _, _ = run(capsys, "construct", "twist", base,
                     "--maps", str(maps), "-o", str(target))
    assert code == 2 and target.read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ("d4", "--degree-cap", "3"),
    ("d4", "--seed", "9"),
    ("jacobian-weak", "--window", "4"),
    ("tb-rinehart", "--window", "2"),
    ("tprime-split", "--degree-cap", "5"),
    ("rho-prime", "--window", "1", "--degree-cap", "3"),
], ids="-".join)
def test_corpus_refuses_an_option_its_bundle_does_not_read(capsys, argv):
    """An option the named bundle would ignore is an input error, not a
    default bundle written as if the option had been read."""
    code, out, err = run(capsys, "corpus", *argv)
    assert (code, out) == (2, "")
    refused = argv[-2]
    assert err.startswith(f"error: corpus {argv[0]}")
    assert err.rstrip().endswith(f"does not read {refused}")


# -- decompose and connect ---------------------------------------------------


def test_decompose_tprime_report(tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "tprime-split", "--window", "3")
    code, out, _ = run(capsys, "decompose", path, "--report", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert len(obj["roots"]) == 6 and len(obj["weights"]) == 6
    assert obj["root_classes"] == [[0, 1, 2, 3, 4, 5]]
    assert obj["A0"] == [["1"] + ["0"] * 6]
    assert obj["ideals"][0]["dim"] == 14
    assert [r["dim"] for r in obj["roots"]] == [2] * 6


def test_decompose_reports_split_failure(tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "tb-rinehart", "--degree-cap", "3")
    B = load_bundle(path)
    hfile = tmp_path / "H.json"
    rows = [[[B.L_labels.index("x"), "1"]], [[B.L_labels.index("y"), "1"]]]
    hfile.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "decompose", path, "--H", str(hfile),
                       "--report", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["passed"] is False
    assert obj["split_error"] == "not split over Q"


def test_connect_classes_and_query(tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "tprime-split", "--window", "3")
    code, out, _ = run(capsys, "connect", path, "--report", "json")
    assert code == 0
    assert json.loads(out)["classes"] == [[0, 1, 2, 3, 4, 5]]

    # roots sort by matrix key: index 2 is gamma_1, index 1 is gamma_2
    code, out, _ = run(capsys, "connect", path, "--src", "2", "--dst", "1",
                       "--report", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["connected"] is True and obj["chain_valid"] is True
    assert len(obj["chain"]) == 3

    code, _, err = run(capsys, "connect", path, "--src", "0")
    assert code == 2 and "--src and --dst" in err
    code, _, err = run(capsys, "connect", path, "--src", "0", "--dst", "99")
    assert code == 2 and "out of range" in err


def test_connect_checks_its_flags_before_decomposing(tmp_path, capsys,
                                                    monkeypatch):
    path = corpus_file(tmp_path, capsys, "toy-split", "--window", "2")

    def no_decomposition(*args):
        raise AssertionError("decomposed before the usage check")

    monkeypatch.setattr(cli, "root_decompose", no_decomposition)
    code, _, err = run(capsys, "connect", path, "--dst", "0")
    assert code == 2 and "--src and --dst" in err


def test_connect_query_across_classes(tmp_path, capsys):
    # roots 0 and 1 of two-block lie in different classes; a query
    # answered "no" is still an answer, so it exits 0
    path = corpus_file(tmp_path, capsys, "two-block", "--window", "1")
    code, out, _ = run(capsys, "connect", path, "--report", "json")
    assert json.loads(out)["classes"] == [[0, 3], [1, 2]]
    code, out, _ = run(capsys, "connect", path, "--src", "0", "--dst", "1",
                       "--report", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["connected"] is False
    assert obj["chain"] == [] and obj["chain_valid"] is False
    code, out, _ = run(capsys, "connect", path, "--src", "0", "--dst", "1")
    assert code == 0
    assert ": False" in out and "chain length 0, valid: False" in out


def test_window_holes_in_the_split_are_reported_not_raised(tmp_path,
                                                           capsys):
    # at degree cap 2 the bracket window leaves ad(h_a, h_b) undetermined
    path = corpus_file(tmp_path, capsys, "jacobian-weak", "--degree-cap", "2")
    code, out, _ = run(capsys, "decompose", path, "--report", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["passed"] is False
    assert obj["split_error"] == "bracket window too small"
    assert obj["detail"].startswith("ad(h_") and "undetermined" in obj["detail"]

    code, out, _ = run(capsys, "check", path, "--suite", "classes",
                       "--report", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["failures"] == ["decomposition.splits-over-H"]
    gate = obj["sections"][0]["checks"][0]
    assert gate["witnesses"][0]["code"] == "bracket window too small"
    assert "undetermined" in gate["witnesses"][0]["detail"]


@pytest.mark.parametrize("command", [("decompose",),
                                     ("check", "--suite", "split")])
@pytest.mark.parametrize("source", ["H file", "bundle H"])
def test_zero_h_is_refused_with_its_source(tmp_path, capsys, command,
                                           source):
    """An H whose rows span zero exits 2 naming the file or the
    bundle's own H, not the bare split hypothesis."""
    obj = json.loads(dumps_bundle(toy_split()))
    extra = ()
    if source == "H file":
        hfile = tmp_path / "H.json"
        hfile.write_text(json.dumps([[], []]))
        extra = ("--H", str(hfile))
        where = f"H file {hfile}"
    else:
        obj["H"] = [[]]
        where = "bundle H"
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command[0], str(path), *command[1:],
                         *extra)
    assert code == 2 and out == ""
    assert err == f"error: {where}: the rows span zero; H must be nonzero\n"


def test_connect_reports_the_detail_of_a_split_error(tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "jacobian-weak", "--degree-cap", "2")
    code, out, _ = run(capsys, "connect", path, "--report", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["split_error"] == "bracket window too small"
    assert obj["detail"] == "ad(h_3, h_4) undetermined"


def _two_block_with_hole(table):
    """two-block with one product or action entry outside the window:
    A_{-xi} L_xi for the first root meets the action entry (1, 4), and
    A_{-beta} A_beta for the first weight the product entry (1, 2)."""
    B = two_block(1)
    if table == "action":
        act = dict(B.act.table)
        act[(1, 4)] = None
        return RinehartBundle(B.L, B.A, B.rho,
                              ModuleAction(B.A.dim, B.L.n, act), name=table)
    prod = dict(B.A.table)
    prod[(1, 2)] = None
    A = CommAlgebra(B.A.dim, prod, B.A.phi, B.A.unit)
    return RinehartBundle(B.L, A, B.rho, B.act, name=table)


@pytest.mark.parametrize("table, code, kept", [
    ("action", "action window too small", []),
    ("product", "product window too small", ["class-ideals", "direct-sum"]),
])
def test_window_holes_in_the_class_stages_are_failed_checks(
        tmp_path, capsys, table, code, kept):
    path = tmp_path / "hole.json"
    path.write_text(dumps_bundle(_two_block_with_hole(table)))
    rc, out, _ = run(capsys, "check", str(path), "--suite", "classes",
                     "--report", "json")
    assert rc == 1
    obj = json.loads(out)
    assert obj["failures"] == ["classes.class-stages"]
    names = [sec["suite"] for sec in obj["sections"]]
    assert names == ["decomposition", "thm1", *kept, "classes"]
    witness = obj["sections"][-1]["checks"][0]["witnesses"][0]
    assert witness["code"] == code
    assert "undetermined" in witness["detail"]
    assert "RootForm[0 -1 0 0; 1 0 0 0;" in witness["detail"]

    rc, out, _ = run(capsys, "decompose", str(path), "--report", "json")
    assert rc == 1
    obj = json.loads(out)
    assert obj["failures"] == ["classes.class-stages"]
    assert [sec["suite"] for sec in obj["sections"]] == names[1:]
    assert len(obj["roots"]) == 4 and len(obj["weights"]) == 4


def test_broken_invariant_is_an_internal_error_not_an_input_error(
        tmp_path, capsys, monkeypatch):
    path = corpus_file(tmp_path, capsys, "d4")
    # a connection search that reaches nothing breaks reflexivity
    monkeypatch.setattr(split, "_connect_search", lambda *args: set())
    code, out, err = run(capsys, "decompose", path, "--report", "json")
    assert code == 3 and out == ""
    assert "internal error" in err and "not reflexive" in err
    assert not issubclass(split.InternalError, ValueError)

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"format_version": "1", "L": {"dim": 0}}')
    code, _, err = run(capsys, "decompose", str(malformed))
    assert code == 2 and "L.dim" in err


def test_a_pullback_orbit_that_never_closes_is_a_split_error(
        tmp_path, capsys, monkeypatch):
    """toy-split window 1, flags stripped, alpha scaled by 2: alpha is
    2 Id on H, so pulling a root back divides it by 4 and no orbit
    closes.  decompose and connect report a split error after the
    bounded walk, and check keeps its other sections."""
    obj = json.loads(dumps_bundle(toy_split(1)))
    obj["flags"] = {}
    obj["L"]["alpha"] = [[i, j, str(2 * int(v))]
                         for i, j, v in obj["L"]["alpha"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(obj))
    calls = []
    real = split.pullback_root

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(split, "pullback_root", counted)
    detail = "RootForm[0 -1/2; 1/2 0] has an infinite orbit under alpha on H"
    for argv in (["decompose"], ["connect"],
                 ["connect", "--src", "0", "--dst", "1"]):
        calls.clear()
        code, out, err = run(capsys, argv[0], str(path), *argv[1:],
                             "--report", "json")
        assert (code, err) == (1, "")
        got = json.loads(out)
        assert got["split_error"] == "pullback orbit does not close"
        assert got["detail"] == detail
        assert len(calls) == split._orbit_bound(2) == 2

    code, out, err = run(capsys, "check", str(path), "--report", "json")
    assert (code, err) == (1, "")
    got = json.loads(out)
    assert [sec["suite"] for sec in got["sections"]] == [
        "core", "hom-rep", "weak-rinehart", "full-rinehart", "anchor",
        "identities", "decomposition"]
    assert "decomposition.splits-over-H" in got["failures"]
    gate = got["sections"][-1]["checks"][0]
    assert gate["witnesses"] == [{"code": "pullback orbit does not close",
                                  "detail": detail}]

    # the split suite runs no connection search; its witnesses name
    # roots with non-integral entries, written as in every report
    code, out, err = run(capsys, "check", str(path), "--suite", "split",
                         "--report", "json")
    assert (code, err) == (1, "")
    moves = json.loads(out)["sections"][1]["checks"][1]
    assert moves["name"] == "alpha-moves-roots"
    assert moves["witnesses"][0] == {"k": -2,
                                     "root": [[0, "-1/2"], ["1/2", 0]]}


# SHA-256 of the `--report json` stdout of each split command, with its
# exit code, on the corpus files as `trilie corpus` writes them.  They
# were recorded from the separate root and weight implementations
# that the one grading engine of split.py replaced, so any refactor of
# split.py must reproduce these reports byte for byte.
SPLIT_COMMANDS = {
    "decompose": ("decompose",),
    "classes": ("check", "--suite", "classes"),
    "connect": ("connect",),
    "connect-0-1": ("connect", "--src", "0", "--dst", "1"),
}
SPLIT_PINS = {
    ("two-block", "2"): {
        "decompose": (0, "defa011584ae2d73f1c58057243950ff"
                         "0f6a5c979b68a8f2668ef4e752750246"),
        "classes": (0, "9b281b3c4c21d88d9a86137f3771f9dc"
                       "4d365b89dcaeb85bc44ff75f5da76b0f"),
        "connect": (0, "9582a91b4bb19712383110e60fb0f848"
                       "40bf479fbf72b61012cef93af6454fb6"),
        "connect-0-1": (0, "cfdbe2fa2fd75e0113456f097861edcf"
                           "24b7fbcc83b9a7bc30d1176c9d04c396"),
    },
    ("tprime-split", "3"): {
        "decompose": (0, "f927f5b7fc3148f25157228e4ca26cfc"
                         "f6a72d157f62ff5dcc60c40b558e1c9d"),
        "classes": (0, "372dad076570f12709bd50500481eeaa"
                       "fa4475c43f4c53e9cad504889e541fec"),
        "connect": (0, "999eba2fb2800a4a818940c4cb953c08"
                       "4856f91691ebfd178ebd4e9f5960c467"),
        "connect-0-1": (0, "4c5fa8945b779ed775c6c3e9303a5c53"
                           "d459e1229453fcc21f90d20cb43a8966"),
    },
    # the two shapes of the benchmark's split workload, recorded before
    # exactq skipped zero entries and tested membership sparsely
    ("two-block", "3"): {
        "decompose": (0, "24ccf11f6125ac6a5c200559d04a3386"
                         "523a6d9b650a9f37e9d8b224994c3d0d"),
        "classes": (0, "760ed13e8dd4fe46a3de0643c688d72d"
                       "51c04f2a921e2f016ab3d46a3e57289b"),
        "connect": (0, "78765e3313f6283006899f691e0c80de"
                       "a6bfdb2da4ce88d8fa0875cea094ee92"),
        "connect-0-1": (0, "c775556bfcc58c1b51d8bd78b190c670"
                           "00cebeeff6fd08538c4fdaa79bd052c7"),
    },
    ("tprime-split", "4"): {
        "decompose": (0, "0a974fb987f0fd91bf3f73b605b6ddf8"
                         "96bf71f616d0e903ef7b734961404162"),
        "classes": (0, "b168f025fc7eb33da3b355051027b035"
                       "008d9f7d5e315ad546aa2fe679fbc558"),
        "connect": (0, "2b417cf8b0b6310bacf03955577ccd3f"
                       "69f0e2bede5e125cd5d0543a54170af7"),
        "connect-0-1": (0, "c3778941e7e43942fe116de2597fa75f"
                           "3baf4af1021b2e52792f765daa93c913"),
    },
}


@pytest.mark.parametrize("name, window", sorted(SPLIT_PINS))
def test_split_reports_match_their_pinned_bytes(tmp_path, capsys, name,
                                                window):
    path = corpus_file(tmp_path, capsys, name, "--window", window)
    got = {}
    for key, argv in SPLIT_COMMANDS.items():
        code, out, _ = run(capsys, argv[0], path, *argv[1:],
                           "--report", "json")
        got[key] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == SPLIT_PINS[name, window]


# SHA-256 of the stdout of `trilie corpus NAME [OPTION VALUE]`: every
# name at its defaults, the parameter sets of the benchmark's inputs
# and a few more.  Pinned before the corpus built its bundles from the
# closed-form bracket on monomial keys.
CORPUS_PINS = {
    ("jacobian-weak",): "1213e4ec317e60fb6fffc4bec20a9354"
                        "7f5b9dafab307e19a3b21da16fdabb27",
    ("tb-rinehart",): "4d0b6161afd8b8136a2dd164a015818e"
                      "b2922cfc74efce493992808caed657b4",
    ("l1-hom",): "0b096361b9c99832f35138a728ee569e"
                 "ccff29e954517fbbfa76d9cd9f84c710",
    ("rho-prime",): "296b0f381e7edc6aac98bfab735a4300"
                    "e2063b1e479f4ccaec777e9be869bbac",
    ("tprime-split",): "52927eeeba82709dd592f2a9dab2b17e"
                       "e1478c1331d6bf75aef7216bb0ce4bb4",
    ("toy-split",): "71783212e930789e2479762e2be11a4b"
                    "85c7181c79acefa983371bc8e73c5042",
    ("d4",): "bc486432fb0297e8b65196e954644e52"
             "96ca397e1e27940f140072f7799a9768",
    ("two-block",): "e08671facc923ae16f9c08ce405a3b70"
                    "9d49fd519610cd968c64b720bcd03881",
    ("jacobian-weak", "--degree-cap", "3"):
        "1213e4ec317e60fb6fffc4bec20a9354"
        "7f5b9dafab307e19a3b21da16fdabb27",
    ("two-block", "--window", "1"):
        "e08671facc923ae16f9c08ce405a3b70"
        "9d49fd519610cd968c64b720bcd03881",
    ("two-block", "--window", "3"):
        "c46fee07049552bec27ef1a948efbb4e"
        "1864b63e26b90ddfbe36a9cb923fba08",
    ("tprime-split", "--window", "2"):
        "0573960273e4d395c4afa328c67fecd0"
        "0dc0cd3bbcda562457870d18f2dcb1c3",
    ("tprime-split", "--window", "4"):
        "d881d3dc7ebbd962054693dd58dd3fc1"
        "b7b26581e2728d34a05baa401b220fd1",
    ("tb-rinehart", "--degree-cap", "3"):
        "4d0b6161afd8b8136a2dd164a015818e"
        "b2922cfc74efce493992808caed657b4",
    ("rho-prime", "--window", "1"):
        "231bc3bf36859e28600096a786fa0779"
        "5038c4f18ccd01c0b26d3fd6a72e249d",
    ("toy-split", "--window", "1"):
        "4d1fd5015e54d1ed620ce912cc69b7ed"
        "befabe7aed397531fcb1a38773bae817",
    ("l1-hom", "--window", "2"):
        "5b7bae2ea35dbb3136092d761d080bd3"
        "095c17c6d4764b9b9094864d7c4dc506",
}


@pytest.mark.parametrize("argv", sorted(CORPUS_PINS), ids="-".join)
def test_corpus_output_matches_its_pinned_bytes(capsys, argv):
    code, out, _ = run(capsys, "corpus", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_PINS[argv]


# (exit code, SHA-256 of `check --suite SUITE --report json`) of the
# law suites, which run on load too: flagged corpus files, pinned before
# the mask kernels of hr2, Leibniz and action-rho-compat.  The identity
# suite's pins were taken before its action and x4 masks; jacobian-weak
# at degree cap 3, which fails identities 4-6 and leaves most of their
# (a, b) to the product window, before its group sums and product masks.
LAW_PINS = {
    ("jacobian-weak", "--degree-cap", "2"): {
        "rinehart": (1, "3dd1b1ce75db43eedf53f7fa965a8f68"
                        "f99d84e9d420f10cdcaa987ec4f79dcb"),
        "rep": (0, "b01a0f3013a66658277dce8e20118900"
                   "40ecc160e87345511413710fea0681b0"),
        "identities": (1, "1f1b7f59dd65bf3ee1b88f5454dbb5db"
                          "c1fa381f89a736f5f54dbbf465814980"),
    },
    ("jacobian-weak", "--degree-cap", "3"): {
        "identities": (1, "e3eb305cd13b1d3ccfb6ad4d1e867ac3"
                          "6a3be159aa8ff1ac93c3a011c6ab3646"),
    },
    ("tb-rinehart", "--degree-cap", "3"): {
        "rinehart": (0, "0cd182f8a44d2322fa32da6c7c31dd6c"
                        "690e7822c9196ffcacc24faf317c96ca"),
        "rep": (0, "ec3de255da87eda96a1738c9393788a6"
                   "13b811bf620f067f13729bbd349967fa"),
        "identities": (0, "a3c6ec66ac94b0765836e764654caf25"
                          "e33d81767241ec8d9e2021242a73f4b2"),
    },
    ("two-block", "--window", "1"): {
        "rinehart": (0, "dea86321ac463801dd914ffa7fd36e7b"
                        "0faf21f6e33237852ff5acddafacee50"),
        "rep": (0, "71643272c0d25999305e6f0de3557645"
                   "bea5063befb975568e613ec45c3c3ee6"),
        "identities": (0, "c9b3014dc43aace8acfaccf24ce44a1d"
                          "91be4a4ad8bfccb829de1c4429685288"),
    },
    ("tprime-split", "--window", "2"): {
        "rinehart": (0, "f2635deda72187862f3e0e5ea1fe3deb"
                        "c3085bd8d78e01c2f04e7dadb9c235e6"),
        "rep": (0, "70e8a17bcd153689990d3eb075dd3024"
                   "6cec3b935a5669453fa65f1ca0cf83f6"),
        "identities": (0, "6d22c8e43715a841eff8ec17f9af73e2"
                          "0ca1bf55e400b22260a7dd08c1c05764"),
    },
}


@pytest.mark.parametrize("name, option, value", sorted(LAW_PINS))
def test_law_reports_match_their_pinned_bytes(tmp_path, capsys, name,
                                              option, value):
    path = corpus_file(tmp_path, capsys, name, option, value)
    got = {}
    for suite in LAW_PINS[name, option, value]:
        code, out, _ = run(capsys, "check", path, "--suite", suite,
                           "--report", "json")
        got[suite] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == LAW_PINS[name, option, value]


# The write path: SHA-256 of the bundle `construct tensor` writes for
# tb-rinehart at degree cap 3 (the 32/4 tensor, its flags measured
# before it is written), and (exit code, SHA-256 of `check --suite
# SUITE --report json`) on that file, which verifies the flags on load.
# Pinned before the law kernels walked masks byte by byte, settled
# hr3's undetermined pairs per p and built Hom-Jacobi's alpha rows from
# the bracket rows.
TENSOR_PIN = ("19db826dc22385460056dfeec87c67c8"
              "307bb054c607aad07a48a2de73036f01")
TENSOR_CHECK_PINS = {
    "core": (1, "2e25c8561a9662dea4c954cfed8ee27b"
                "3a1cd62a62b134f6ede5b77c7c33eb58"),
    "rep": (0, "0ec318884cc762769ff318aa16d4b737"
               "157f1d13a584e0a9118d8fd13179e1b8"),
}


def test_tensor_output_and_its_reports_match_their_pinned_bytes(
        tmp_path, capsys):
    path = corpus_file(tmp_path, capsys, "tb-rinehart", "--degree-cap", "3")
    out_path = tmp_path / "tensor.json"
    code, _, err = run(capsys, "construct", "tensor", path,
                       "-o", str(out_path))
    assert code == 0, err
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == TENSOR_PIN
    got = {}
    for suite in TENSOR_CHECK_PINS:
        code, out, _ = run(capsys, "check", str(out_path), "--suite", suite,
                           "--report", "json")
        got[suite] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == TENSOR_CHECK_PINS


# -- construct ---------------------------------------------------------------


def test_construct_twist_seed_output_is_verified(tmp_path, capsys):
    out_path = tmp_path / "twisted.json"
    code, _, err = run(capsys, "construct", "twist", "--seed", "3",
                       "-o", str(out_path))
    assert code == 0, err
    B = load_bundle(str(out_path))  # load re-verifies the flag claims
    assert B.meta["flags"]["full_rinehart"] is True
    assert B.meta["construction"] == "twist"


def test_construct_tensor_seed_output_checks_clean(tmp_path, capsys):
    out_path = tmp_path / "tensor.json"
    code, _, err = run(capsys, "construct", "tensor", "--seed", "0",
                       "-o", str(out_path))
    assert code == 0, err
    code, out, _ = run(capsys, "check", str(out_path), "--suite", "core",
                       "--report", "json")
    assert code == 0 and json.loads(out)["passed"] is True


def test_construct_tensor_refuses_an_oversized_output_first(
        tmp_path, capsys, monkeypatch):
    """jacobian-weak at degree cap 3 would give a 400-dimensional
    tensor with C(400, 3) = 10,586,800 triples.  It is refused with
    exit 2, named by its input, before the hypotheses are checked or a
    bracket table is built."""
    path = corpus_file(tmp_path, capsys, "jacobian-weak",
                       "--degree-cap", "3")

    def never(*args, **kwargs):
        raise AssertionError("ran before the size was checked")

    monkeypatch.setattr(construct, "tensor_preconditions", never)
    monkeypatch.setattr(construct, "StructureConstants3", never)
    code, out, err = run(capsys, "construct", "tensor", path,
                         "-o", str(tmp_path / "tensor.json"))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: tensor output too large: dimension "
                   "400 = 20 x 20 (dim A x dim L) gives C(400, 3) = "
                   "10,586,800 triples, more than the 200,000 a tensor "
                   "is built with\n")
    assert not (tmp_path / "tensor.json").exists()


def test_construct_tensor_reuses_the_input_reports(tmp_path, capsys,
                                                   monkeypatch):
    """Loading the flagged input computes its hr1-hr3 report; the
    tensor preconditions reuse it, so the hr1-hr3 body runs once for
    the input.  The output fails Hom-Jacobi, which settles its suite
    flags before hr1-hr3 is reached."""
    path = corpus_file(tmp_path, capsys, "tb-rinehart", "--degree-cap", "2")
    runs = spy_hom_rep(monkeypatch)
    code, _, err = run(capsys, "construct", "tensor", path,
                       "-o", str(tmp_path / "tensor.json"))
    assert code == 0, err
    assert runs == [6]


def spy_hom_rep(monkeypatch) -> list:
    """The dim L of each algebra the hr1-hr3 body runs on, one entry
    per run, from then on."""
    runs = []
    body = repmod.check_hom_rep.__wrapped__

    def spied(alg, rep):
        runs.append(alg.n)
        return body(alg, rep)

    stored = stored_on("_hom_rep", owner=1)(spied)
    for module in (repmod, rinehart, construct, cli):
        monkeypatch.setattr(module, "check_hom_rep", stored)
    return runs


def test_construct_tensor_passing_output_runs_each_weak_part_once(
        tmp_path, capsys, monkeypatch):
    """The tensor of d4 passes every flag, so its weak verdict runs the
    whole weak suite and keeps it: hr1-hr3 and Leibniz run once for the
    input, on load, and once for the output."""
    path = corpus_file(tmp_path, capsys, "d4")
    runs = spy_hom_rep(monkeypatch)
    leibniz = []
    body = rinehart.check_bracket_action_leibniz

    def counted(B):
        leibniz.append(B.L.n)
        return body(B)

    monkeypatch.setattr(rinehart, "check_bracket_action_leibniz", counted)
    out = tmp_path / "tensor.json"
    code, _, err = run(capsys, "construct", "tensor", path, "-o", str(out))
    assert code == 0, err
    assert runs == leibniz == [4, 12]
    assert all(json.loads(out.read_text())["flags"].values())


def spy_masked_ops(monkeypatch) -> list:
    """The pair actions `masked_ops` builds its table for, one entry
    per build, from then on."""
    builds = []
    body = repmod.masked_ops.__wrapped__

    def spied(act):
        builds.append(act)
        return body(act)

    stored = stored_on("_masked")(spied)
    for module in (repmod, rinehart):
        monkeypatch.setattr(module, "masked_ops", stored)
    return builds


def test_construct_tensor_computes_each_law_of_a_and_anchor_table_once(
        tmp_path, capsys, monkeypatch):
    """The input and the output of a tensor share their algebra A.
    Loading the flagged input, the tensor preconditions and the flags
    of the output all read its assoc, phi-hom and unit reports, which
    are computed once.  The input's anchor table is built once; the
    output fails Hom-Jacobi, which settles its suite flags before any
    check reads its anchor table."""
    path = corpus_file(tmp_path, capsys, "tb-rinehart", "--degree-cap", "3")
    laws = Counter()
    basis_law = rinehart._basis_law

    def spied(name, keys, instances):
        laws[name] += 1
        return basis_law(name, keys, instances)

    monkeypatch.setattr(rinehart, "_basis_law", spied)
    builds = spy_masked_ops(monkeypatch)
    code, _, err = run(capsys, "construct", "tensor", path,
                       "-o", str(tmp_path / "tensor.json"))
    assert code == 0, err
    assert (laws["assoc"], laws["phi-hom"], laws["unit"]) == (1, 1, 1)
    assert [act.dim_l for act in builds] == [8]


def test_rinehart_suite_builds_the_anchor_table_once(tmp_path, capsys,
                                                     monkeypatch):
    """hom-rep, hr4, the derivations, Leibniz and action-rho-compat
    all read one masked table of the anchor."""
    path = corpus_file(tmp_path, capsys, "jacobian-weak", "--degree-cap",
                       "3")
    builds = spy_masked_ops(monkeypatch)
    code, _, _ = run(capsys, "check", path, "--suite", "rinehart",
                     "--report", "json")
    assert code == 1
    assert len(builds) == 1


def test_decompose_computes_the_centers_once(tmp_path, capsys,
                                             monkeypatch):
    """The direct-sum and weight-class stages both read the centers of
    the bundle; they are computed once and kept with it.  The spy is
    `rinehart.kernel_basis`, which only centers calls: once for Z_L(A)
    in A (dim 7) and once for Z_rho(L) in L (dim 15)."""
    path = corpus_file(tmp_path, capsys, "tprime-split", "--window", "3")
    runs = []
    body = rinehart.kernel_basis

    def spied(rows, ncols):
        runs.append(ncols)
        return body(rows, ncols)

    monkeypatch.setattr(rinehart, "kernel_basis", spied)
    code, _, err = run(capsys, "decompose", path, "--report", "json")
    assert code == 0, err
    assert runs == [7, 15]


def test_decompose_reads_the_bracket_table_by_index(tmp_path, capsys,
                                                    monkeypatch):
    """On two-block w3 (n = 28) the per-index view of the bracket table
    (`core3lie.by_index`) is built once, for the three-lie-ideal law,
    and read again by centers.  Neither looks up a triple of its own:
    centers makes no `lookup` call, and the law no `trilinear` call,
    which the closure and orthogonality laws before it still make.  A
    phase names the stage that is running: the class-ideal laws until
    the three-lie-ideal report is added, then the law until they
    return, and centers."""
    path = corpus_file(tmp_path, capsys, "two-block", "--window", "3")
    phase = [None]
    calls = Counter()
    builds = []

    def during(name, body):
        def spied(*args):
            phase[0] = name
            try:
                return body(*args)
            finally:
                phase[0] = None
        return spied

    def counted(name, body):
        def spied(self, *args):
            calls[name, phase[0]] += 1
            return body(self, *args)
        return spied

    def add(self, check, body=SuiteReport.add):
        if phase[0] == "classes" and check.name == "three-lie-ideal":
            phase[0] = "law"
        return body(self, check)

    def by_index(alg, body=core3lie.by_index):
        builds.append(getattr(alg, "_by_index", None) is None)
        return body(alg)

    monkeypatch.setattr(cli, "check_class_ideal_laws",
                        during("classes", split.check_class_ideal_laws))
    monkeypatch.setattr(split, "centers", during("centers", rinehart.centers))
    monkeypatch.setattr(SuiteReport, "add", add)
    for module in (split, rinehart):
        monkeypatch.setattr(module, "by_index", by_index)
    for name in ("lookup", "trilinear"):
        monkeypatch.setattr(StructureConstants3, name,
                            counted(name, getattr(StructureConstants3, name)))
    code, _, err = run(capsys, "decompose", path, "--report", "json")
    assert code == 0, err
    assert builds == [True, False]
    assert calls["trilinear", "classes"] > 0
    assert calls["trilinear", "law"] == calls["lookup", "law"] == 0
    assert calls["lookup", "centers"] == 0


# The split invariants of `decompose --report json` at the widest
# window of the corpus, on files without flags: exit code, root and
# weight counts, class sizes, and per check (status, checked, skipped,
# failures).
WIDE_SPLIT_PINS = {
    "two-block": (0, 24, 24, [12, 12], [12, 12], [
        ("thm1.phi-moves-weights", "pass", 120, 0, 0),
        ("thm1.alpha-moves-roots", "pass", 120, 0, 0),
        ("thm1.bracket-adds-roots", "pass", 19472, 1328, 0),
        ("thm1.product-adds-weights", "pass", 252, 48, 0),
        ("thm1.action-adds-grading", "pass", 984, 168, 0),
        ("thm1.anchor-adds-grading", "pass", 27440, 1360, 0),
        ("class-ideals.closure-bracket", "pass", 5264, 1288, 0),
        ("class-ideals.closure-twist", "pass", 52, 0, 0),
        ("class-ideals.closure-action", "pass", 1184, 168, 0),
        ("class-ideals.orthogonality", "pass", 18252, 0, 0),
        ("class-ideals.three-lie-ideal", "pass", 67792, 3864, 0),
        ("direct-sum.center-trivial", "pass", 1, 0, 0),
        ("direct-sum.H-generated", "pass", 1, 0, 0),
        ("direct-sum.ideal-direct-sum", "pass", 1, 0, 0),
        ("weight-classes.zero-parts-in-A0", "pass", 2, 0, 0),
        ("weight-classes.classes-annihilate", "pass", 169, 0, 0),
        ("weight-classes.A-direct-sum", "pass", 1, 0, 0)]),
    "tprime-split": (0, 12, 12, [12], [12], [
        ("thm1.phi-moves-weights", "pass", 60, 0, 0),
        ("thm1.alpha-moves-roots", "pass", 60, 0, 0),
        ("thm1.bracket-adds-roots", "pass", 2248, 664, 0),
        ("thm1.product-adds-weights", "pass", 54, 24, 0),
        ("thm1.action-adds-grading", "pass", 204, 84, 0),
        ("thm1.anchor-adds-grading", "pass", 3064, 680, 0),
        ("class-ideals.closure-bracket", "pass", 2632, 644, 0),
        ("class-ideals.closure-twist", "pass", 26, 0, 0),
        ("class-ideals.closure-action", "pass", 254, 84, 0),
        ("class-ideals.orthogonality", "pass", 0, 0, 0),
        ("class-ideals.three-lie-ideal", "pass", 7896, 1932, 0),
        ("direct-sum.center-trivial", "fail", 1, 0, 1),
        ("direct-sum.H-generated", "fail", 1, 0, 1),
        ("direct-sum.ideal-direct-sum", "blocked", 0, 0, 0),
        ("weight-classes.zero-parts-in-A0", "pass", 1, 0, 0),
        ("weight-classes.classes-annihilate", "pass", 0, 0, 0),
        ("weight-classes.A-direct-sum", "pass", 1, 0, 0)]),
}


@pytest.mark.parametrize("name", sorted(WIDE_SPLIT_PINS))
def test_decompose_at_window_6_keeps_its_split_invariants(tmp_path, capsys,
                                                          name):
    B = corpus.generate(name, window=6)
    B.meta.pop("flags")
    path = tmp_path / f"{name}-w6.json"
    path.write_text(dumps_bundle(B))
    code, out, _ = run(capsys, "decompose", str(path), "--report", "json")
    obj = json.loads(out)
    got = (code, len(obj["roots"]), len(obj["weights"]),
           sorted(len(c) for c in obj["root_classes"]),
           sorted(len(c) for c in obj["weight_classes"]),
           [(f"{s['suite']}.{c['name']}", c["status"], c["checked"],
             c["skipped"], c["failures"])
            for s in obj["sections"] for c in s["checks"]])
    assert got == WIDE_SPLIT_PINS[name]


def test_construct_twist_from_maps_file(tmp_path, capsys):
    base = corpus_file(tmp_path, capsys, "d4")
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps({
        "alpha": [[i, i, "-1"] for i in range(4)],
        "phi": [[i, i, "1"] for i in range(3)],
    }))
    out_path = tmp_path / "d4t.json"
    code, _, err = run(capsys, "construct", "twist", base,
                       "--maps", str(maps), "-o", str(out_path))
    assert code == 0, err
    B = load_bundle(str(out_path))
    assert B.name == "d4-twisted"
    assert B.L.alpha == MatrixQ.diagonal((-1, -1, -1, -1))


def test_construct_twist_requires_maps_or_seed(tmp_path, capsys):
    base = corpus_file(tmp_path, capsys, "d4")
    code, _, err = run(capsys, "construct", "twist", base)
    assert code == 2 and "--maps" in err
    code, _, err = run(capsys, "construct", "twist")
    assert code == 2 and "--seed" in err


# -- entry points ------------------------------------------------------------


REPO = Path(__file__).resolve().parents[1]

# The wrapper pip writes for a console-script entry point.
CONSOLE_SCRIPT = """\
#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {func}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({func}())
"""


def source_env(**extra):
    """The environment of a child that imports trilie from src/."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_cli(cmd, env=None):
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=120)


def assert_trilie_runs(tmp_path, env=None):
    """`trilie` as found on env's PATH: output and each way out of main."""
    proc = run_cli(["trilie", "corpus", "d4"], env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["name"] == "d4"
    # a verdict code is main's return value (d4's class is not an ideal)
    bundle = tmp_path / "d4.json"
    bundle.write_text(proc.stdout)
    proc = run_cli(["trilie", "decompose", str(bundle)], env)
    assert proc.returncode == 1, proc.stderr
    # a usage error leaves through argparse's SystemExit
    proc = run_cli(["trilie", "corpus", "nope"], env)
    assert proc.returncode == 2, proc.stderr
    assert "usage: trilie" in proc.stderr


def test_module_entry_point_runs():
    proc = run_cli([sys.executable, "-m", "trilie", "corpus", "d4"],
                   source_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["name"] == "d4"


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_quietly_without_a_verdict(tmp_path, buffered):
    """A report that cannot be written is neither a pass (0) nor a
    failure (1): main returns 141 and prints no traceback, whether the
    write fails in print or in the flush of a buffered stdout."""
    bundle = tmp_path / "d4.json"
    bundle.write_text(dumps_bundle(d4_bundle()))
    env = source_env(PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "trilie", "decompose", str(bundle),
             "--report", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""


def test_console_script_runs(tmp_path):
    """The declared console script, from a generated wrapper, no install."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["trilie"]
    module, func = target.split(":")
    script = tmp_path / "trilie"
    script.write_text(CONSOLE_SCRIPT.format(
        python=sys.executable, module=module, func=func))
    script.chmod(0o755)
    path = os.pathsep.join(
        p for p in (str(tmp_path), os.environ.get("PATH")) if p)
    assert_trilie_runs(tmp_path, source_env(PATH=path))


@pytest.mark.skipif(shutil.which("trilie") is None,
                    reason="no installed trilie console script on PATH")
def test_installed_console_script_runs(tmp_path):
    assert_trilie_runs(tmp_path)
