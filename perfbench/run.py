"""Benchmark for the ``trilie`` command line tool.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload axioms --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each op runs ``python -m trilie ...`` in a fresh process, started
through ``spawn.py``, on input files made from ``--seed``.  One client
runs the ops one after another (a closed loop) on one CPU, next to the
tick counter of ``ticks.py``.  A pass is one run of every op of the
workload; passes repeat while another one fits in ``--seconds`` (there
is always one).  Every op's result is checked against ``reference.json``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs untraced and traced passes (through ``tracer.py``)
in turn, and reports per-layer metrics.  The last line of
standard output is one JSON object; the lines before it give the run
context and one row per op.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ticks import TICKS_PER_S, Ticker, pin_to_one_cpu
from tracer import Tracer, aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_BATCH_S = 0.5
SETUP_MIN_BATCHES = 7
SETUP_PER_PASS = 2
OP_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"wall_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> (span name, field); fields come from tracer.aggregate
_SPAN_METRICS = [
    ("bundleio.load_bundle.self_s", "bundleio.load_bundle", "self_s"),
    ("bundleio.verify_flags_s", "bundleio.verify_flags", "total_s"),
    ("bundleio.dumps_bundle_s", "bundleio.dumps_bundle", "total_s"),
    ("core3lie.check_hom_jacobi.calls", "core3lie.check_hom_jacobi", "calls"),
    ("core3lie.check_hom_jacobi_s", "core3lie.check_hom_jacobi", "total_s"),
    ("core3lie.check_multiplicative.calls", "core3lie.check_multiplicative",
     "calls"),
    ("core3lie.check_multiplicative_s", "core3lie.check_multiplicative",
     "total_s"),
    ("repmod.check_hom_rep.calls", "repmod.check_hom_rep", "calls"),
    ("repmod.check_hom_rep_s", "repmod.check_hom_rep", "total_s"),
    ("repmod.check_hr4_equivalence_s", "repmod.check_hr4_equivalence",
     "total_s"),
    ("rinehart.check_weak_rinehart.calls", "rinehart.check_weak_rinehart",
     "calls"),
    ("rinehart.check_weak_rinehart_s", "rinehart.check_weak_rinehart",
     "total_s"),
    ("rinehart.check_full_rinehart.calls", "rinehart.check_full_rinehart",
     "calls"),
    ("rinehart.check_anchor_derivations.calls",
     "rinehart.check_anchor_derivations", "calls"),
    ("rinehart.check_identity_suite_s", "rinehart.check_identity_suite",
     "total_s"),
    ("split.root_decompose_s", "split.root_decompose", "total_s"),
    ("split.weight_decompose_s", "split.weight_decompose", "total_s"),
    ("split.root_classes_s", "split.root_classes", "total_s"),
    ("split.check_thm1_properties_s", "split.check_thm1_properties",
     "total_s"),
    ("split.check_class_ideal_laws_s", "split.check_class_ideal_laws",
     "total_s"),
    ("split.direct_sum_decompose_s", "split.direct_sum_decompose", "total_s"),
    ("split.weight_class_decompose_s", "split.weight_class_decompose",
     "total_s"),
    ("exactq.rref.calls", "exactq.rref", "calls"),
    ("exactq.rref.self_s", "exactq.rref", "self_s"),
    ("exactq.char_poly.calls", "exactq.char_poly", "calls"),
    ("exactq.char_poly_s", "exactq.char_poly", "total_s"),
    ("construct.tensor_preconditions_s", "construct.tensor_preconditions",
     "total_s"),
    ("construct.tensor_extension.self_s", "construct.tensor_extension",
     "self_s"),
    ("cli.resolve_h_s", "cli.resolve_h", "total_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]
# measured on the benchmark's own set-up, per set-up repetition
_SETUP_METRICS = [
    ("construct.change_basis_s", "construct.change_basis", "total_s"),
    ("corpus.generate_s", "corpus.generate", "total_s"),
]
IDENTITIES = [f"identity-{k}" for k in range(1, 7)]


def per_layer_units() -> dict:
    units = {}
    for name, _, field in _SPAN_METRICS + _SETUP_METRICS:
        units[name] = "count" if field == "calls" else "s"
    units["bundleio.out_bytes"] = "bytes"
    for ident in IDENTITIES:
        units[f"rinehart.{ident}.checked"] = "count"
        units[f"rinehart.{ident}.skipped"] = "count"
        units[f"rinehart.{ident}.skip_share"] = "ratio"
    units["trace.wall_norm_s"] = "s"
    units["trace.overhead_norm_s"] = "s"
    return units


def _stat(stats, span, field):
    return stats[span][field] if span in stats else 0


def layer_values(stats) -> dict:
    """Per-layer values of one pass from its merged span statistics."""
    values = {name: _stat(stats, span, field)
              for name, span, field in _SPAN_METRICS}
    dumps = stats.get("bundleio.dumps_bundle", {"info": []})
    values["bundleio.out_bytes"] = sum(i["bytes"] for i in dumps["info"])
    suites = stats.get("rinehart.check_identity_suite", {"info": []})
    for ident in IDENTITIES:
        checked = sum(i[ident][0] for i in suites["info"])
        skipped = sum(i[ident][1] for i in suites["info"])
        values[f"rinehart.{ident}.checked"] = checked
        values[f"rinehart.{ident}.skipped"] = skipped
        values[f"rinehart.{ident}.skip_share"] = (
            skipped / (checked + skipped) if checked + skipped else 0.0)
    return values


# -- running one op ---------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_op(op, facts, workdir, traced, op_id):
    """Run one op in a fresh process; returns its raw result."""
    out_path = workdir / f"{op.key}.out.json"
    out_path.unlink(missing_ok=True)
    argv = [a.replace("{in}", str(facts["path"])).replace("{out}",
                                                          str(out_path))
            for a in op.argv]
    spans_path = workdir / f"{op_id}.spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
               op_id, "--", *argv]
    else:
        cmd = [sys.executable, "-m", "trilie", *argv]
    stdout_path = workdir / f"{op.key}.stdout"
    stderr_path = workdir / f"{op.key}.stderr"
    done = subprocess.run(
        [sys.executable, str(HERE / "spawn.py"), str(stdout_path),
         str(stderr_path), str(OP_TIMEOUT_S), str(workdir / "ticks"), "--",
         *cmd],
        stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), check=True)
    result = json.loads(done.stdout)
    result.update(
        op=op, op_id=op_id, traced=traced,
        stdout=stdout_path.read_bytes(), stderr=stderr_path.read_bytes(),
        out_file=out_path.read_bytes() if out_path.exists() else None,
        spans_path=spans_path if traced else None)
    return result


def check_result(raw, facts, reference, summarize) -> dict:
    """One output row: timing, sizes, SHA-256 and the reference verdict."""
    op = raw["op"]
    canonical = raw["out_file"] if op.kind == "construct" else raw["stdout"]
    canonical = canonical or b""
    try:
        summary = summarize(op, raw["exit"], raw["stdout"], raw["out_file"])
    except (ValueError, KeyError, TypeError):
        summary = None
    ok = summary == reference[op.key]
    if not ok:
        tail = raw["stderr"].decode(errors="replace")[-400:]
        print(f"op {raw['op_id']} differs from the reference "
              f"(exit {raw['exit']}): {tail}", file=sys.stderr)
    return {"op": raw["op_id"], "traced": raw["traced"],
            "time_s": raw["end"] - raw["start"],
            "norm_s": raw["ticks"] / TICKS_PER_S, "exit": raw["exit"],
            "dim_L": facts["dim_L"], "dim_A": facts["dim_A"],
            "in_bytes": facts["bytes"], "out_bytes": len(canonical),
            "sha256": hashlib.sha256(canonical).hexdigest(),
            "max_rss_mb": raw["max_rss_mb"], "ok": ok}


def run_pass(ops, facts, workdir, traced, pass_no):
    """Runs every op once; a pass's times are the sums of its ops'."""
    raws = [run_op(op, facts[op.key], workdir, traced,
                   f"{op.key}.p{pass_no}") for op in ops]
    wall = sum(r["end"] - r["start"] for r in raws)
    return raws, wall, sum(r["ticks"] for r in raws) / TICKS_PER_S


# -- one workload ---------------------------------------------------------


def commit_id() -> str:
    """HEAD commit, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


class Setup:
    """Builds the inputs, timing each build; spans too when traced.

    Builds run in batches of at least ``SETUP_BATCH_S`` seconds, long
    enough for the tick counter to get its share of the CPU; a batch
    gives the mean time and ticks of its builds.  Batches are spread
    over the run (before the first pass and after each pass) so that
    their median is not taken from one moment only.
    """

    def __init__(self, ops, seed, workdir, ticker, tracer=None):
        from inputs import write_inputs
        self.build = lambda: write_inputs(ops, seed, workdir)
        self.ticker = ticker
        self.tracer = tracer
        self.times, self.norms, self.stats = [], [], []
        self.facts = None

    def batch(self, count=1):
        for _ in range(count):
            gc.collect()
            ticks = self.ticker.ticks()
            t0 = time.perf_counter()
            builds = 0
            while not builds or time.perf_counter() - t0 < SETUP_BATCH_S:
                if self.tracer is not None:
                    self.tracer.spans.clear()
                self.facts = self.build()
                builds += 1
                if self.tracer is not None:
                    self.stats.append(aggregate([self.tracer.spans]))
            self.times.append((time.perf_counter() - t0) / builds)
            ticks = self.ticker.ticks() - ticks
            self.norms.append(ticks / builds / TICKS_PER_S)

    def top_up(self):
        self.batch(max(0, SETUP_MIN_BATCHES - len(self.times)))


def run_passes(ops, setup, workdir, seconds, trace, check):
    """Passes while one more fits in ``seconds``; returns their results."""
    rows, walls, norms, traced_norms, pass_stats = [], [], [], [], []
    started = time.perf_counter()
    while True:
        pass_no = len(walls) + len(traced_norms)
        raws, wall, norm = run_pass(ops, setup.facts, workdir, False,
                                    pass_no)
        plain_rows = [check(r) for r in raws]
        rows += plain_rows
        walls.append(wall)
        norms.append(norm)
        if trace:
            # a traced pass next to each untraced one gives the overhead
            # and the reports to compare byte for byte
            raws, traced_wall, traced_norm = run_pass(
                ops, setup.facts, workdir, True, pass_no + 1)
            traced_rows = [check(r) for r in raws]
            span_lists = []
            for raw, row, plain in zip(raws, traced_rows, plain_rows):
                row["ok"] = row["ok"] and row["sha256"] == plain["sha256"]
                spans = json.loads(raw["spans_path"].read_text())
                span_lists.append(spans["spans"])
            rows += traced_rows
            traced_norms.append(traced_norm)
            pass_stats.append(layer_values(aggregate(span_lists)))
            wall += traced_wall
        setup.batch(SETUP_PER_PASS)
        # start another pass only if one more like it still fits
        if time.perf_counter() - started + wall > seconds:
            return rows, walls, norms, traced_norms, pass_stats


def run_workload(name, seed, seconds, trace):
    import workloads

    ops = workloads.WORKLOADS[name]
    reference = json.loads((HERE / "reference.json").read_text())[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    tracer = Tracer().install() if trace else None
    try:
        with Ticker(workdir / "ticks") as ticker:
            setup = Setup(ops, seed, workdir, ticker, tracer)
            setup.batch()

            def check(raw):
                return check_result(raw, setup.facts[raw["op"].key],
                                    reference, workloads.summarize)

            rows, walls, norms, traced_norms, pass_stats = run_passes(
                ops, setup, workdir, seconds, trace, check)
            setup.top_up()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        # median_low keeps counts whole: a traced value is one pass's
        values = {key: statistics.median_low(p[key] for p in pass_stats)
                  for key in pass_stats[0]}
        for metric, span, field in _SETUP_METRICS:
            values[metric] = statistics.median_low(
                _stat(s, span, field) for s in setup.stats)
        values["trace.wall_norm_s"] = statistics.median_low(traced_norms)
        values["trace.overhead_norm_s"] = statistics.median(
            t - n for t, n in zip(traced_norms, norms))
        units = per_layer_units()
    else:
        values = {"wall_norm_s": statistics.median(norms),
                  "peak_rss_mb": max(r["max_rss_mb"] for r in rows),
                  "setup_s": statistics.median(setup.norms)}
        units = END_TO_END_UNITS
    metrics = {key: {"value": values[key], "unit": units[key]}
               for key in units}
    failed = sum(not r["ok"] for r in rows)
    return {"workload": name, "seed": seed, "trace": trace,
            "context": run_context(seed),
            "wall_s": statistics.median(walls),
            "setup_wall_s": statistics.median(setup.times),
            "setup_norms_s": setup.norms, "setup_times_s": setup.times,
            "rows": rows, "attempted": len(rows), "failed": failed,
            "metrics": metrics}


def run_context(seed) -> dict:
    return {"commit": commit_id(), "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def print_record(record):
    ctx = record["context"]
    print(f"# workload {record['workload']}  seed {ctx['seed']}  "
          f"commit {ctx['commit']}  nproc {ctx['nproc']}  "
          f"python {ctx['python']}  trace {record['trace']}")
    print("# op  traced  time_s  norm_s  exit  dim_L/A  in_bytes  out_bytes  "
          "max_rss_mb  ok  sha256")
    for r in record["rows"]:
        print(f"{r['op']}  {int(r['traced'])}  {r['time_s']:.4f}  "
              f"{r['norm_s']:.4f}  "
              f"{r['exit']}  {r['dim_L']}/{r['dim_A']}  {r['in_bytes']}  "
              f"{r['out_bytes']}  {r['max_rss_mb']:.1f}  {int(r['ok'])}  "
              f"{r['sha256']}")
    share = record["failed"] / record["attempted"]
    parts = [f"{k} {m['value']:.6g} {m['unit']}"
             for k, m in record["metrics"].items()]
    parts += [f"wall_s {record['wall_s']:.6g} s",
              f"setup_wall_s {record['setup_wall_s']:.6g} s"]
    print(f"# {record['workload']}: " + ", ".join(parts)
          + f", fail_share {share:.6g} ratio ({record['failed']}/"
          f"{record['attempted']} ops)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trilie" / "__init__.py").is_file():
        print(f"error: no trilie sources under {SRC}", file=sys.stderr)
        return 2
    # ops load compiled bytecode, as an installed package would, even
    # where PYTHONDONTWRITEBYTECODE keeps them from writing it themselves
    compileall.compile_dir(SRC / "trilie", quiet=1)
    sys.path.insert(0, str(SRC))
    import workloads

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    # the ops, the set-up and the tick counter share one CPU
    pin_to_one_cpu()
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
        print_record(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m
                   for r in records for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
