"""Workload definitions and the correctness summary of an op's result.

A workload is a fixed list of ops.  Each op runs one ``trilie`` command
on one corpus bundle written to a file (see ``inputs.py``).  This module
imports nothing from ``trilie``, so the benchmark runner stays small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` with ``{in}``/``{out}`` filled in per run."""

    key: str
    bundle: str
    params: dict
    keep_flags: bool
    argv: tuple

    @property
    def kind(self) -> str:
        return self.argv[0]


def _check(suite):
    return ("check", "{in}", "--suite", suite, "--report", "json")


_DECOMPOSE = ("decompose", "{in}", "--report", "json")
_TENSOR = ("construct", "tensor", "{in}", "-o", "{out}")

# One workload per op group, so that each optimization moves the
# workload it is meant to and leaves the others as controls.
WORKLOADS = {
    "axioms": [
        Op("jacobian-weak-d3", "jacobian-weak", {"degree_cap": 3}, True,
           _check("rinehart")),
    ],
    "identities": [
        Op("two-block-w1", "two-block", {"window": 1}, True,
           _check("identities")),
        Op("tprime-split-w2", "tprime-split", {"window": 2}, True,
           _check("identities")),
    ],
    "split": [
        Op("two-block-w3", "two-block", {"window": 3}, False, _DECOMPOSE),
        Op("tprime-split-w4", "tprime-split", {"window": 4}, False,
           _DECOMPOSE),
    ],
    "construct": [
        Op("tb-rinehart-d3", "tb-rinehart", {"degree_cap": 3}, True,
           _TENSOR),
    ],
}


def summarize(op: Op, exit_code: int, stdout: bytes, out_file: bytes | None):
    """What the reference pins for one op result; seed-independent."""
    summary = {"exit": exit_code}
    if op.kind == "construct":
        obj = json.loads(out_file)
        summary.update(dim_L=obj["L"]["dim"], dim_A=obj["A"]["dim"],
                       flags=obj["flags"])
        return summary
    obj = json.loads(stdout)
    summary["failures"] = obj["failures"]
    summary["checks"] = [
        [f"{sec['suite']}.{c['name']}", c["status"], c["checked"],
         c["skipped"], c["failures"]]
        for sec in obj["sections"] for c in sec["checks"]]
    if op.kind == "decompose":
        summary["split"] = {
            "roots": len(obj["roots"]),
            "weights": len(obj["weights"]),
            "root_class_sizes": sorted(len(c) for c in obj["root_classes"]),
            "weight_class_sizes": sorted(len(c)
                                         for c in obj["weight_classes"]),
        }
    return summary
