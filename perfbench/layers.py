"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public names of every module of the program:
module-level functions wherever a module of the program has bound them (the
modules import names by value, so `abelcycles.criteria.count_distinct_roots`
is wrapped as well as `abelcycles.poly.count_distinct_roots`), and public
methods on the classes that define them, plus `CubicField.__call__`.

Every wrapped call is counted. A call opens a span (name, start, end, parent)
when it crosses from one layer into another, or when its name is one of
`NAMED_SPANS`; calls inside a layer only count. A layer's self time is the
length of its spans minus the spans they caused. Spans stay in memory and
are written out when the run ends. A public name that a later version of the
program no longer has simply yields no calls.
"""

from __future__ import annotations

import csv
import enum
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("poly", "trig", "abel", "planar", "criteria", "serialize", "gallery",
          "oracle", "cli")
NAMED_SPANS = {
    "oracle.displacement_map",
    "oracle.count_cycles_in_V",
    "criteria.obstruction_report",
    "gallery.reproduce",
    "cli.cmd_check",
    "cli.cmd_oracle",
    "cli.cmd_reproduce",
    "cli.cmd_transform",
}
STURM = ("poly.count_distinct_roots", "poly.isolate_real_roots",
         "poly.sign_implication", "poly.find_strict_interval")
CHARTS = ("trig.TrigPoly.tan_chart", "trig.TrigPoly.half_angle_chart")
ETA_TRIED = ("criteria.check_no_cycle", "criteria.check_at_most_one")
FIELD_CALL = "oracle.CubicField.__call__"
MAX_SPANS = 2_000_000

# (name, unit) in the order they are printed
METRICS = (
    ("poly.sturm_calls", "count"),
    ("poly.evaluate_calls", "count"),
    ("poly.self_s", "s"),
    ("trig.chart_calls", "count"),
    ("trig.sign_report_calls", "count"),
    ("trig.self_s", "s"),
    ("abel.self_s", "s"),
    ("planar.self_s", "s"),
    ("criteria.eta_tried", "count"),
    ("criteria.self_s", "s"),
    ("criteria.obstruction_s", "s"),
    ("gallery.reproduce_s", "s"),
    ("serialize.self_s", "s"),
    ("oracle.sweep_s", "s"),
    ("oracle.sweeps_per_op", "count"),
    ("oracle.field_calls", "count"),
    ("oracle.field_evals_per_bounded_sample", "count"),
    ("oracle.locate_s", "s"),
    ("oracle.refine_field_calls", "count"),
    ("cli.self_s", "s"),
)


def _public_callables(module):
    """(owner, attribute, function, qualified name) for the public functions
    of `module` and the public methods of its classes."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, f"{layer}.{name}"
        elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__call__":
                    continue
                if isinstance(member, (staticmethod, classmethod)) or inspect.isfunction(member):
                    yield obj, attr, member, f"{layer}.{name}.{attr}"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)  # per layer
        self.named_incl_s = defaultdict(float)
        self.named_self_s = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.field_batch = 0
        self.refine_field_calls = 0
        self.bounded_samples = 0
        self.oracle_sweeps = 0
        self.components = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._op = ""

    def begin_op(self, op):
        self._op = op.name

    # --- wrapping --------------------------------------------------------

    def _wrap(self, fn, qual: str):
        layer = qual.split(".", 1)[0]
        named = qual in NAMED_SPANS
        calls = self.calls
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if qual == FIELD_CALL:
                tracer._field_call(args)
            if not named and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            rec = [qual, layer, clock(), 0.0]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                length = end - rec[2]
                own = length - rec[3]
                tracer.self_s[layer] += own
                if named:
                    tracer.named_incl_s[qual] += length
                    tracer.named_self_s[qual] += own
                if stack:
                    stack[-1][3] += length
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((tracer._op, qual, rec[2], end,
                                         stack[-1][0] if stack else ""))
                else:
                    tracer.dropped_spans += 1
            if named:
                tracer._after(qual, result)
            return result

        return wrapper

    def _field_call(self, args):
        if len(args) >= 3:
            self.field_batch += getattr(args[2], "size", 1)
        for rec in reversed(self._stack):
            if rec[0] == "oracle.count_cycles_in_V":
                self.refine_field_calls += 1
                break
            if rec[0] == "oracle.displacement_map":
                break

    def _after(self, qual: str, result):
        if qual == "oracle.displacement_map":
            self.bounded_samples += sum(1 for s in result if not s.escaped)
            if any(rec[0] == "cli.cmd_oracle" for rec in self._stack):
                self.oracle_sweeps += 1
        elif qual == "oracle.count_cycles_in_V":
            self.components += len(result.components)

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"abelcycles.{layer}")
            for owner, attr, member, qual in list(_public_callables(module)):
                if isinstance(member, (staticmethod, classmethod)):
                    wrapped = type(member)(self._wrap(member.__func__, qual))
                else:
                    wrapped = self._wrap(member, qual)
                    originals[id(member)] = (member, wrapped)
                self._restore.append((owner, attr, member))
                setattr(owner, attr, wrapped)
        # module-level functions are also bound, by value, in the modules
        # that import them
        for name, module in list(sys.modules.items()):
            if not name.startswith("abelcycles.") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results ---------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        c = self.calls

        def per_pass(x):
            return x / passes

        return {name: (value, unit) for (name, unit), value in zip(METRICS, (
            per_pass(sum(c[q] for q in STURM)),
            per_pass(c["poly.RationalPoly.evaluate"]),
            per_pass(self.self_s["poly"]),
            per_pass(sum(c[q] for q in CHARTS)),
            per_pass(c["trig.definite_sign_report"]),
            per_pass(self.self_s["trig"]),
            per_pass(self.self_s["abel"]),
            per_pass(self.self_s["planar"]),
            per_pass(sum(c[q] for q in ETA_TRIED)),
            per_pass(self.self_s["criteria"]),
            per_pass(self.named_incl_s["criteria.obstruction_report"]),
            per_pass(self.named_incl_s["gallery.reproduce"]),
            per_pass(self.self_s["serialize"]),
            per_pass(self.named_incl_s["oracle.displacement_map"]),
            self.oracle_sweeps / self.components if self.components else 0.0,
            per_pass(c[FIELD_CALL]),
            self.field_batch / self.bounded_samples if self.bounded_samples else 0.0,
            per_pass(self.named_self_s["oracle.count_cycles_in_V"]),
            per_pass(self.refine_field_calls),
            per_pass(self.self_s["cli"]),
        ))}

    def write_spans(self, path: Path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["op", "name", "start", "end", "parent"])
            writer.writerows(self.spans)
            if self.dropped_spans:
                writer.writerow(["", f"({self.dropped_spans} spans not kept)", "", "", ""])
