"""Spans around trilie's public functions, recorded from outside.

``Tracer.install`` replaces each function named in ``TARGETS`` by a
wrapper in every ``trilie`` module that holds the same function object,
so calls made through ``from x import f`` names, through ``bundleio``'s
flag lambdas and through ``exactq`` globals are all seen.  Spans
(name, start, end, parent) stay in memory until ``write``.

Run as a script, it is the traced CLI driver for one op::

    python perfbench/tracer.py SPANS_JSON OP_ID -- check F.json --suite all

It installs the wrappers, calls ``trilie.cli.main`` with the arguments
after ``--``, writes the spans and exits with main's return code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TARGETS = {
    "bundleio": ("load_bundle", "verify_flags", "dumps_bundle"),
    "core3lie": ("check_hom_jacobi", "check_multiplicative"),
    "repmod": ("check_hom_rep", "check_hr4_equivalence"),
    "rinehart": ("check_weak_rinehart", "check_full_rinehart",
                 "check_anchor_derivations", "check_identity_suite"),
    "split": ("root_decompose", "weight_decompose", "root_classes",
              "check_thm1_properties", "check_class_ideal_laws",
              "direct_sum_decompose", "weight_class_decompose"),
    "exactq": ("rref", "char_poly"),
    "construct": ("tensor_preconditions", "tensor_extension",
                  "change_basis"),
    "cli": ("resolve_h", "main"),
    "corpus": ("generate",),
}


def _identity_counts(suite):
    return {c.name: [c.checked, c.skipped] for c in suite.checks}


# facts taken from a traced function's return value, kept on its span
OBSERVE = {
    "rinehart.check_identity_suite": _identity_counts,
    "bundleio.dumps_bundle": lambda text: {"bytes": len(text.encode())},
}


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, info]
        self._stack = []
        self._undo = []     # (module, attribute, original)

    def _wrap(self, name, fn):
        observe = OBSERVE.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                span[4] = observe(result)
            return result

        return traced

    def install(self):
        for short in TARGETS:
            importlib.import_module(f"trilie.{short}")
        modules = [m for key, m in sys.modules.items()
                   if key == "trilie" or key.startswith("trilie.")]
        for short, names in TARGETS.items():
            home = sys.modules[f"trilie.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def write(self, path, op_id):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "spans": self.spans}, fh)


def aggregate(span_lists):
    """Per span name: call count, time of outermost spans, self time.

    Takes the span lists of one or more processes.  Self time is a span's
    duration minus the time its direct child spans cover; a name nested
    inside itself counts only its outer span in the total, so recursion
    is not counted twice.
    """
    stats = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, info in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, info) in enumerate(spans):
            st = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "info": []})
            st["calls"] += 1
            st["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                st["total_s"] += end - start
            if info is not None:
                st["info"].append(info)
    return stats


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON OP_ID -- TRILIE_ARGS...",
              file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer().install()
    from trilie import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path, op_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
