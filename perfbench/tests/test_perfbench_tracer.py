"""The tracer sees every layer and changes no output."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402
from trilie import bundleio, cli, exactq, rinehart  # noqa: E402
from trilie.bundleio import dumps_bundle  # noqa: E402
from inputs import seeded_bundle  # noqa: E402

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def report(path, capsys):
    code = cli.main(["check", str(path), "--suite", "all",
                     "--report", "json"])
    return code, capsys.readouterr().out


def test_traced_report_is_byte_identical_and_counts_repeat(tmp_path,
                                                           capsys):
    path = tmp_path / "tprime-split-w1.json"
    path.write_text(dumps_bundle(
        seeded_bundle("tprime-split", {"window": 1}, 0, True)))
    plain = report(path, capsys)
    original_main = cli.main
    tracer = Tracer().install()
    try:
        first = report(path, capsys)
        first_stats = aggregate([tracer.spans])
        tracer.spans.clear()
        second = report(path, capsys)
        second_stats = aggregate([tracer.spans])
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert first == plain and second == plain
    calls = {name: st["calls"] for name, st in first_stats.items()}
    assert calls == {name: st["calls"] for name, st in second_stats.items()}
    for name in ("cli.main", "bundleio.load_bundle", "bundleio.verify_flags",
                 "rinehart.check_weak_rinehart",
                 "rinehart.check_identity_suite", "split.root_decompose",
                 "exactq.rref"):
        assert calls.get(name, 0) >= 1, name


def test_install_rebinds_every_alias():
    original = rinehart.check_weak_rinehart
    tracer = Tracer().install()
    try:
        wrapped = rinehart.check_weak_rinehart
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert cli.check_weak_rinehart is wrapped
        assert bundleio.check_weak_rinehart is wrapped
        assert exactq.rref.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert rinehart.check_weak_rinehart is original
    assert cli.check_weak_rinehart is original


def test_aggregate_self_time_and_recursion():
    spans = [["a", 0.0, 10.0, -1, None],
             ["b", 1.0, 4.0, 0, None],
             ["a", 5.0, 7.0, 0, None],
             ["b", 7.5, 8.0, 2, None]]
    stats = aggregate([spans])
    assert stats["a"]["calls"] == 2
    assert stats["a"]["total_s"] == 10.0
    assert stats["a"]["self_s"] == (10.0 - 3.0 - 2.0) + (2.0 - 0.5)
    assert stats["b"]["total_s"] == 3.5


def test_benchmark_json_names_match_the_runner():
    spec = json.loads(BENCHMARK.read_text())
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
