"""Seeded benchmark inputs: a new basis, the same verdicts and counts."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from trilie import cli, corpus  # noqa: E402
from trilie.bundleio import dumps_bundle  # noqa: E402
from inputs import seeded_bundle, signed_permutation  # noqa: E402

SMALL = [("tprime-split", {"window": 1}), ("two-block", {"window": 1})]


def verdicts(tmp_path, capsys, text):
    path = tmp_path / "bundle.json"
    path.write_text(text, encoding="utf-8")
    code = cli.main(["check", str(path), "--suite", "all",
                     "--report", "json"])
    report = json.loads(capsys.readouterr().out)
    checks = [[s["suite"], c["name"], c["status"], c["checked"],
               c["skipped"], c["failures"]]
              for s in report["sections"] for c in s["checks"]]
    return code, report["failures"], checks


@pytest.mark.parametrize("name,params", SMALL)
def test_seeds_keep_verdicts_and_counts(tmp_path, capsys, name, params):
    results = [verdicts(tmp_path, capsys,
                        dumps_bundle(seeded_bundle(name, params, seed, True)))
               for seed in (0, 1, 2)]
    assert results[0][0] == 0 and results[0][2]
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("name,params", SMALL)
def test_seed_zero_is_the_corpus_file(name, params):
    plain = dumps_bundle(corpus.generate(name, **params))
    assert dumps_bundle(seeded_bundle(name, params, 0, True)) == plain
    assert dumps_bundle(seeded_bundle(name, params, 1, True)) != plain


def test_dropping_flags_keeps_h():
    B = seeded_bundle("tprime-split", {"window": 1}, 2, False)
    assert "flags" not in B.meta and "H" in B.meta


def test_signed_permutation_is_seeded():
    S = signed_permutation(9, 5)
    assert S == signed_permutation(9, 5)
    assert S != signed_permutation(9, 6)
    assert signed_permutation(9, 0) == signed_permutation(9, 0).identity(9)
    for line in (S.rows, S.transpose().rows):
        assert all(sorted(abs(x) for x in row) == [0] * 8 + [1]
                   for row in line)
