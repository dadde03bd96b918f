"""Out-of-program tracing of hopfquiver's layers.

`Tracer.install()` wraps the public functions of each layer module, plus the
few hot methods named in `METHODS`, wherever a `hopfquiver` module or class
holds them.  Names imported with `from .x import y` live in several module
namespaces; wrapping only the defining module would record nothing for calls
made through the others.

Each wrapped call is a span: name, start, end, parent span and problem id.
Aggregates (calls, total time, self time) cover every call.  Span records are
kept for the first `SPANS_PER_NAME` calls of each name in each problem, so
that hot calls such as scalar products do not fill memory; a dropped span's
children name its nearest recorded ancestor as parent.  The span file ends
with one aggregate line giving, per name, the calls, times, spans kept and
whether spans were dropped (`truncated`); read totals from it, not from the
span lines.  Self time is a span's duration minus the time its child spans
cover, where a child covers its whole wrapper, tracer bookkeeping included.

A name missing from the program is skipped, and its metrics read 0, so the
tracer keeps working while the program is refactored.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from math import comb

LAYER_MODULES = (
    "problem", "quiver", "groups", "cyclotomic", "pathcoalg", "majid", "structure", "cli",
)
# (module, class, method, span name); `__rmul__` is the same function as
# `__mul__` and is wrapped with it
METHODS = (
    ("cyclotomic", "Scalar", "__mul__", "cyclotomic.scalar_mul"),
    ("cyclotomic", "Scalar", "inverse", "cyclotomic.scalar_inverse"),
    ("majid", "MajidStructure", "multiply_paths", "majid.multiply_paths"),
    ("majid", "MajidStructure", "antipode_path", "majid.antipode_path"),
    ("problem", "ProblemSpec", "structure", "problem.ProblemSpec.structure"),
)
# private functions that are layer boundaries in their own right
PRIVATE = (("cli", "_write_reports", "cli.report_write"),)
SPANS_PER_NAME = 25


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counters = defaultdict(float)
        self.spans: list[tuple] = []
        self.problem = None
        self._recorded = defaultdict(int)  # (problem, name) -> spans kept
        self._stack: list[list] = []  # [child time, span id for children]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._structures: list = []
        self._readings = defaultdict(int)  # problem -> readings tried

    # -- installation --------------------------------------------------------

    def install(self):
        pkg = "hopfquiver"
        targets = {}  # id(original) -> (original, span name)
        for mod_name in LAYER_MODULES:
            mod = sys.modules.get(f"{pkg}.{mod_name}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{mod_name}.{attr}")
        for mod_name, attr, name in PRIVATE:
            obj = getattr(sys.modules.get(f"{pkg}.{mod_name}"), attr, None)
            if inspect.isfunction(obj):
                targets[id(obj)] = (obj, name)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(f"{pkg}.{mod_name}"), cls_name, None)
            obj = vars(cls).get(attr) if cls is not None else None
            if inspect.isfunction(obj):
                targets[id(obj)] = (obj, name)
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == pkg or mod_name.startswith(pkg + ".")):
                continue
            for owner in [mod] + [c for c in vars(mod).values()
                                  if inspect.isclass(c) and c.__module__ == mod_name]:
                for attr, obj in list(vars(owner).items()):
                    if id(obj) in wrappers and obj is targets[id(obj)][0]:
                        self._patches.append((owner, attr, obj))
                        setattr(owner, attr, wrappers[id(obj)])

    def uninstall(self):
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name):
        before, after = _HOOKS.get(name, (None, None))
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = clock()
            parent = stack[-1][1] if stack else None
            key = (self.problem, name)
            span_id = None
            if self._recorded[key] < SPANS_PER_NAME:
                self._recorded[key] += 1
                self._next_id += 1
                span_id = self._next_id
            frame = [0.0, span_id if span_id is not None else parent]
            token = before(self, args) if before else None
            result = exc = None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if span_id is not None:
                    self.spans.append((span_id, name, start, end, parent, self.problem))
                if after:
                    after(self, args, token, result, exc)
                # the caller's child time covers this whole wrapper, so the
                # tracer's own bookkeeping is not charged to its self time
                if stack:
                    stack[-1][0] += clock() - entry

        return traced

    def start_problem(self, pid):
        self.problem = pid

    def end_problem(self):
        for s in self._structures:
            self.counters["mul_cache_size"] += len(getattr(s, "_mul_cache", ()))
            self.counters["antipode_cache_size"] += len(getattr(s, "_antipode_cache", ()))
        self._structures.clear()
        self.problem = None

    def readings_of(self, pid) -> int:
        return self._readings.get(pid, 0)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, problem in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "problem": problem}) + "\n")
            kept = defaultdict(int)
            for (_, name), n in self._recorded.items():
                kept[name] += n
            fh.write(json.dumps({"aggregate": {
                name: {"calls": c, "total_s": t, "self_s": s, "spans": kept[name],
                       "truncated": kept[name] < c}
                for name, (c, t, s) in sorted(self.stats.items())}}) + "\n")


# -- hooks that read layer-specific counts -------------------------------------


def _before_multiply(tracer, args):
    structure, p, q = args[0], args[1], args[2]
    miss = (p, q) not in getattr(structure, "_mul_cache", {})
    return miss, tracer.counters["comultiply_tuples"]


def _after_multiply(tracer, args, token, result, exc):
    miss, tuples_before = token
    p, q = args[1], args[2]
    n = len(p.arrows) + len(q.arrows)
    if miss and n > 0 and exc is None:
        tracer.counters["shuffles"] += comb(n, len(p.arrows))
        tracer.counters["miss_tuples"] += tracer.counters["comultiply_tuples"] - tuples_before


def _after_comultiply(tracer, args, token, result, exc):
    if exc is None:
        tracer.counters["comultiply_tuples"] += len(getattr(result, "terms", ()))


def _after_paths(tracer, args, token, result, exc):
    if exc is None:
        tracer.counters["basis_paths"] += sum(len(d) for d in result)


def _after_structure(tracer, args, token, result, exc):
    if exc is None:
        tracer._structures.append(result)


def _after_crossed_product(tracer, args, token, result, exc):
    if exc is not None:
        if type(exc).__name__ != "IsoCheckFailed":
            return
        readings = len(getattr(sys.modules["hopfquiver.structure"], "_READINGS", (None,)))
    else:
        counts = getattr(getattr(result, "iso_report", None), "counts", {})
        readings = 1 + sum(v for k, v in counts.items() if k.startswith("rejected_reading_"))
    tracer.counters["readings_tried"] += readings
    tracer._readings[tracer.problem] += readings


_HOOKS = {
    "majid.multiply_paths": (_before_multiply, _after_multiply),
    "pathcoalg.iterated_comultiply": (None, _after_comultiply),
    "quiver.paths_up_to": (None, _after_paths),
    "problem.ProblemSpec.structure": (None, _after_structure),
    "structure.crossed_product": (None, _after_crossed_product),
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one pass of the workload: (value, unit)."""
    st, ctr = tracer.stats, tracer.counters

    def calls(name):
        return st[name][0] / passes if name in st else 0

    def self_s(name):
        return st[name][2] / passes if name in st else 0.0

    def total_s(name):
        return st[name][1] / passes if name in st else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    mul_calls = calls("majid.multiply_paths")
    misses = ctr["mul_cache_size"] / passes
    anti_calls = calls("majid.antipode_path")
    return {
        # inclusive: parsing calls into groups, quiver and majid constructors
        "problem.load_problem_s": (total_s("problem.load_problem"), "s"),
        "quiver.paths_up_to_s": (self_s("quiver.paths_up_to"), "s"),
        "quiver.basis_paths": (ctr["basis_paths"] / passes, "count"),
        "groups.verify_cocycle_s": (self_s("groups.verify_cocycle"), "s"),
        "groups.verify_cocycle_calls": (calls("groups.verify_cocycle"), "count"),
        "cyclotomic.scalar_mul_calls": (calls("cyclotomic.scalar_mul"), "count"),
        "cyclotomic.scalar_mul_s": (self_s("cyclotomic.scalar_mul"), "s"),
        "cyclotomic.scalar_inverse_calls": (calls("cyclotomic.scalar_inverse"), "count"),
        "cyclotomic.scalar_inverse_s": (self_s("cyclotomic.scalar_inverse"), "s"),
        "pathcoalg.iterated_comultiply_calls": (calls("pathcoalg.iterated_comultiply"), "count"),
        "pathcoalg.iterated_comultiply_tuples": (ctr["comultiply_tuples"] / passes, "count"),
        "pathcoalg.iterated_comultiply_s": (self_s("pathcoalg.iterated_comultiply"), "s"),
        "pathcoalg.path_splits_calls": (calls("pathcoalg.path_splits"), "count"),
        "majid.multiply_paths_calls": (mul_calls, "count"),
        "majid.multiply_paths_misses": (misses, "count"),
        "majid.mul_cache_hit_ratio": (ratio(mul_calls - misses, mul_calls), "ratio"),
        "majid.multiply_paths_s": (self_s("majid.multiply_paths"), "s"),
        "majid.antipode_path_calls": (anti_calls, "count"),
        "majid.antipode_cache_hit_ratio": (
            ratio(anti_calls - ctr["antipode_cache_size"] / passes, anti_calls), "ratio"),
        "majid.verify_bimodule_s": (self_s("majid.verify_bimodule"), "s"),
        "majid.verify_majid_axioms_s": (self_s("majid.verify_majid_axioms"), "s"),
        "majid.shuffle_yield": (ratio(ctr["shuffles"], ctr["miss_tuples"]), "ratio"),
        "structure.blocks_s": (self_s("structure.blocks"), "s"),
        "structure.verify_translations_s": (self_s("structure.verify_translations"), "s"),
        "structure.matrix_rank_s": (self_s("structure.matrix_rank"), "s"),
        "structure.block_product_check_s": (self_s("structure.block_product_check"), "s"),
        "structure.crossed_product_s": (self_s("structure.crossed_product"), "s"),
        "structure.readings_tried": (ctr["readings_tried"] / passes, "count"),
        "structure.primitives_s": (self_s("structure.primitives"), "s"),
        "structure.cocommutative_check_s": (self_s("structure.cocommutative_check"), "s"),
        "cli.run_tasks_s": (self_s("cli.run_tasks"), "s"),
        "cli.report_write_s": (self_s("cli.report_write"), "s"),
    }
