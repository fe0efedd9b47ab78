"""Bundle serialization: canonical emission, strict loading."""

import argparse
import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from trilie import cli, rinehart
from trilie.bundleio import (
    BundleLoadError,
    bundle_to_obj,
    dumps_bundle,
    load_bundle,
    loads_bundle,
)
from trilie.core3lie import (
    check_hom_jacobi,
    check_jacobi,
    check_multiplicative,
)
from trilie.corpus import generate, jacobian_weak, toy_split, tprime_split
from trilie.repmod import check_hom_rep, check_hr4


def reload_obj(obj):
    return loads_bundle(json.dumps(obj))


@pytest.fixture(scope="module")
def toy_obj():
    return bundle_to_obj(toy_split(0))


@pytest.mark.parametrize("name", ("toy-split", "d4", "two-block",
                                  "tprime-split"))
def test_round_trip_is_byte_identical(name):
    B = generate(name)
    text = dumps_bundle(B)
    B2 = loads_bundle(text)
    assert dumps_bundle(B2) == text
    assert B2.L.sc == B.L.sc
    assert B2.L.alpha == B.L.alpha
    assert B2.rho == B.rho
    assert B2.act.table == B.act.table


def test_canonical_emission_is_sorted_and_terminated():
    text = dumps_bundle(toy_split(0))
    assert text.endswith("\n")
    obj = json.loads(text)
    assert json.dumps(obj, sort_keys=True,
                      separators=(",", ":")) + "\n" == text


def test_parse_error_reports_position():
    with pytest.raises(BundleLoadError) as err:
        loads_bundle('{"name": "x",\n  broken')
    assert "line" in str(err.value)


def test_rejects_unsorted_bracket_triple(toy_obj):
    obj = copy.deepcopy(toy_obj)
    i, j, k, vec = obj["L"]["bracket"][0]
    obj["L"]["bracket"][0] = [j, i, k, vec]
    with pytest.raises(BundleLoadError) as err:
        reload_obj(obj)
    assert f"({j},{i},{k})" in str(err.value)
    assert "canonical" in str(err.value)


def test_rejects_explicit_zero(toy_obj):
    obj = copy.deepcopy(toy_obj)
    obj["L"]["bracket"][0][3].append([0, "0"])
    with pytest.raises(BundleLoadError) as err:
        reload_obj(obj)
    assert "zero" in str(err.value)


def test_rejects_duplicate_index(toy_obj):
    obj = copy.deepcopy(toy_obj)
    entry = obj["L"]["bracket"][0][3]
    entry.append(list(entry[0]))
    with pytest.raises(BundleLoadError) as err:
        reload_obj(obj)
    assert "duplicate" in str(err.value)


def test_rejects_bad_rational(toy_obj):
    for bad in ("0.5", "1/0", "", "x"):
        obj = copy.deepcopy(toy_obj)
        obj["L"]["bracket"][0][3][0][1] = bad
        with pytest.raises(BundleLoadError):
            reload_obj(obj)


def test_rejects_out_of_range_index(toy_obj):
    obj = copy.deepcopy(toy_obj)
    obj["L"]["bracket"][0][3][0][0] = 99
    with pytest.raises(BundleLoadError):
        reload_obj(obj)


def test_rejects_stored_and_missing_conflict():
    obj = bundle_to_obj(tprime_split(2))
    i, j, k, _ = obj["L"]["bracket"][0]
    obj["L"]["missing"].append([i, j, k])
    with pytest.raises(BundleLoadError):
        reload_obj(obj)


def test_rejects_false_flag_claim(toy_obj):
    obj = copy.deepcopy(toy_obj)
    obj["flags"]["jacobi"] = False
    with pytest.raises(BundleLoadError) as err:
        reload_obj(obj)
    assert "jacobi" in str(err.value)
    assert "False" in str(err.value)


def test_rejects_unknown_flag(toy_obj):
    obj = copy.deepcopy(toy_obj)
    obj["flags"]["filippov"] = True
    with pytest.raises(BundleLoadError) as err:
        reload_obj(obj)
    assert "filippov" in str(err.value)


def test_rejects_wrong_label_count(toy_obj):
    obj = copy.deepcopy(toy_obj)
    obj["L_labels"] = ["a", "b"]
    with pytest.raises(BundleLoadError):
        reload_obj(obj)


def test_rejects_wrong_h_row_length(toy_obj):
    obj = copy.deepcopy(toy_obj)
    obj["H"][0].append([7, "1"])
    with pytest.raises(BundleLoadError):
        reload_obj(obj)


def test_windowed_round_trip_preserves_missing():
    B = tprime_split(2)
    B2 = loads_bundle(dumps_bundle(B))
    assert B2.L.sc.missing == B.L.sc.missing
    missing_actions = {k for k, v in B.act.table.items() if v is None}
    missing_actions2 = {k for k, v in B2.act.table.items() if v is None}
    assert missing_actions == missing_actions2


def test_a_declared_zero_unit_stays_declared(tmp_path, capsys):
    """"unit": [] declares the unit 0, which is not "no unit": the
    round trip keeps it, the unit law fails at every basis vector and
    `check --suite rinehart` says so."""
    obj = bundle_to_obj(generate("tb-rinehart", degree_cap=1))
    obj["A"]["unit"] = []
    obj["flags"] = {}
    text = json.dumps(obj)
    B = loads_bundle(text)
    assert B.A.unit == {}
    assert json.loads(dumps_bundle(B))["A"]["unit"] == []
    del obj["A"]["unit"]
    assert loads_bundle(json.dumps(obj)).A != B.A
    unit = rinehart.check_unit(B.A)
    assert unit.passed is False
    assert unit.failures == [{"i": i} for i in range(B.A.dim)]
    path = tmp_path / "zero-unit.json"
    path.write_text(text)
    assert cli.main(["check", str(path), "--suite", "rinehart",
                     "--report", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "weak-rinehart.unit" in report["failures"]


# -- each law once per bundle ----------------------------------------------


def stored_reports(B):
    """Every report a bundle and its parts keep once computed."""
    return {
        "jacobi": check_jacobi(B.L),
        "hom-jacobi": check_hom_jacobi(B.L),
        "multiplicative": check_multiplicative(B.L),
        "assoc": rinehart.check_commutative_associative(B.A),
        "phi-hom": rinehart.check_phi_multiplicative(B.A),
        "unit": rinehart.check_unit(B.A),
        "hom-rep": check_hom_rep(B.L, B.rep),
        "hr4": check_hr4(B.L, B.rep),
        "anchor": rinehart.check_anchor_derivations(B),
        "weak": rinehart.check_weak_rinehart(B),
        "full": rinehart.check_full_rinehart(B),
    }


def test_load_and_rinehart_suite_run_each_law_once(tmp_path, monkeypatch):
    path = tmp_path / "jw2.json"
    path.write_text(dumps_bundle(jacobian_weak(2)))
    runs = []
    body = rinehart.check_bracket_action_leibniz

    def counted(B):
        runs.append(B)
        return body(B)

    monkeypatch.setattr(rinehart, "check_bracket_action_leibniz", counted)
    B = load_bundle(str(path))      # verifies weak_rinehart, full_rinehart
    weak, full, anchor = cli._rinehart_suite(B)
    assert len(runs) == 1
    assert weak.passed is True and full.passed is False
    assert anchor.checks == [rinehart.check_anchor_derivations(B)]


@pytest.mark.parametrize("name", ("jacobian-weak", "tb-rinehart", "d4",
                                  "two-block"))
def test_warm_reports_equal_fresh_ones(name, tmp_path):
    """Reports reused by the flag check, every suite and the flags of a
    written bundle are the ones a cold bundle computes."""
    params = {"degree_cap": 2} if name in ("jacobian-weak",
                                           "tb-rinehart") else {}
    text = dumps_bundle(generate(name, **params))
    warm = loads_bundle(text)
    cli._core_suite(warm)
    cli._rep_suite(warm)
    cli._rinehart_suite(warm)
    args = argparse.Namespace(output=str(tmp_path / "out.json"),
                              report="json")
    assert cli._write_result(args, warm) == 0
    hot = stored_reports(warm)
    assert all(hot[key] is again
               for key, again in stored_reports(warm).items())
    bare = json.loads(text)
    del bare["flags"]
    cold = stored_reports(loads_bundle(json.dumps(bare)))
    for key, report in hot.items():
        assert report.to_dict() == cold[key].to_dict(), key


# -- fuzzing: any malformed file is a BundleLoadError ---------------------


FUZZ_BASES = {
    "d4": bundle_to_obj(generate("d4")),
    "tb-rinehart d1": bundle_to_obj(generate("tb-rinehart", degree_cap=1)),
}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.sampled_from(["1/0", "0", "-1", "1/2", "x", "", "e0"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(
                       ["dim", "bracket", "missing", "H", "flags", "x"]),
                       inner, max_size=3)),
    max_leaves=8)


def _children(obj):
    if isinstance(obj, dict):
        return sorted(obj)
    if isinstance(obj, list):
        return list(range(len(obj)))
    return []


@st.composite
def _place(draw, obj):
    """A position in a JSON tree: a walk of 0 to 4 steps from the root,
    so the sections and their entries are drawn as often as the deep
    leaves."""
    path = ()
    for _ in range(draw(st.integers(0, 4))):
        keys = _children(obj)
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        path += (key,)
        obj = obj[key]
    return path


def _replaced(obj, path, value):
    if not path:
        return value
    out = copy.deepcopy(obj)
    holder = out
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return out


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_replaced_value_loads_or_is_a_load_error(data):
    base = FUZZ_BASES[data.draw(st.sampled_from(sorted(FUZZ_BASES)))]
    path = data.draw(_place(base))
    obj = _replaced(base, path, data.draw(_JSON_VALUES))
    try:
        loads_bundle(json.dumps(obj))
    except BundleLoadError:
        pass
