"""Span recorder for the traced benchmark run.

The engine has no instrumentation of its own, so the traced run wraps the
public functions of each ``rgroups`` module from the outside, at every name
through which callers reach them.  A function imported into another module
(``criterion`` calls ``charlat.stabilizer`` as ``char_stabilizer``) is
replaced in every ``rgroups`` namespace that holds it; methods are replaced
on their class.  A target that no longer exists is recorded as absent, so
the benchmark keeps running when a later version renames or removes it.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
written out once, at the end of the run.  Hot leaf functions only get a
call counter, which costs far less than a span.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


# (target, span name, extra counters): each extra counter maps a name suffix
# to a function of (args, kwargs, result) whose value is summed per call.
SPAN_TARGETS = [
    ("rgroups.rootsys:build_root_system", "rootsys.build_root_system", {}),
    ("rgroups.rootsys:generate_weyl", "rootsys.generate_weyl",
     {"elements": lambda a, k, r: len(r)}),
    ("rgroups.rootsys:WeylGroup.closure", "rootsys.closure", {}),
    ("rgroups.levi:analyze", "levi.analyze", {}),
    ("rgroups.levi:relative_roots", "levi.relative_roots", {}),
    ("rgroups.levi:relative_weyl_group", "levi.relative_weyl_group", {}),
    ("rgroups.levi:reflections_in_WM", "levi.reflections_in_WM",
     {"found": lambda a, k, r: len(r), "scanned": lambda a, k, r: len(a[1].reps)}),
    ("rgroups.levi:decompose_WM", "levi.decompose_WM", {}),
    ("rgroups.levi:certify", "levi.certify", {}),
    ("rgroups.charlat:stabilizer", "charlat.stabilizer",
     {"scanned": lambda a, k, r: len(a[1]), "hits": lambda a, k, r: len(r)}),
    ("rgroups.charlat:eval_on_coroot", "charlat.eval_on_coroot", {}),
    ("rgroups.criterion:SigmaOracle.validate_pairs", "criterion.validate_pairs", {}),
    ("rgroups.criterion:SigmaOracle.datum_stabilizer", "criterion.datum_stabilizer", {}),
    ("rgroups.criterion:SigmaOracle.all_twists_trivial", "criterion.all_twists_trivial", {}),
    ("rgroups.criterion:knapp_stein_ladder", "criterion.knapp_stein_ladder", {}),
    ("rgroups.criterion:r_group", "criterion.r_group", {}),
    ("rgroups.criterion:delta_1", "criterion.delta_1", {}),
    ("rgroups.criterion:decide_ps_unramified", "criterion.decide_ps", {}),
    ("rgroups.criterion:decide_gps", "criterion.decide_gps", {}),
]

COUNT_TARGETS = [
    ("rgroups.charlat:same_character", "charlat.same_character"),
    ("rgroups.charlat:weyl_act", "charlat.weyl_act"),
    ("rgroups.rootsys:canonical_word", "rootsys.canonical_word"),
    ("rgroups.levi:RelativeData.rayperm", "levi.rayperm"),
    ("rgroups._rat:primitive", "rat.primitive"),
]


def _resolve(target):
    """(owner, attribute, original) for 'module:func' or 'module:Class.meth';
    None when any part is missing."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Recorder:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self.absent = []
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def region(self, name):
        """Span around a block of the benchmark's own code."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)
            self.counts[name + ".calls"] += 1

    def _span_wrapper(self, name, fn, extras):
        region = self.region
        counts = self.counts

        def wrapper(*args, **kwargs):
            with region(name):
                result = fn(*args, **kwargs)
            for suffix, measure in extras.items():
                counts[f"{name}.{suffix}"] += measure(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _install(self, target, wrapper_for):
        resolved = _resolve(target)
        if resolved is None:
            self.absent.append(target)
            return
        owner, attr, original = resolved
        wrapper = wrapper_for(original)
        if isinstance(owner, type):
            self._patch(owner, attr, original, wrapper)
            return
        # Replace the function at every rgroups name bound to it.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rgroups" and not mod_name.startswith("rgroups."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        for target, name, extras in SPAN_TARGETS:
            self._install(target, lambda fn, n=name, e=extras: self._span_wrapper(n, fn, e))
        for target, name in COUNT_TARGETS:
            self._install(target, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_ms(self) -> dict:
        """Self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3
        return out

    def write(self, path):
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


class NullRecorder:
    """Stand-in for untraced passes of code that opens regions."""

    @contextmanager
    def region(self, name):
        yield


# Per-layer metrics of the traced run: (metric, unit, better).  Times are
# self times in ms; everything is summed over the traced pass.
SELF_MS = [
    "charlat.stabilizer", "charlat.eval_on_coroot",
    "criterion.validate_pairs", "criterion.knapp_stein_ladder",
    "criterion.all_twists_trivial", "criterion.datum_stabilizer",
    "criterion.r_group", "criterion.delta_1",
    "criterion.decide_ps", "criterion.decide_gps",
    "rootsys.generate_weyl", "rootsys.build_root_system", "rootsys.closure",
    "levi.analyze", "levi.relative_roots", "levi.relative_weyl_group",
    "levi.reflections_in_WM", "levi.decompose_WM", "levi.certify",
    "cli.startup", "cli.parse", "cli.run", "cli.render",
]
CALLS = [
    "charlat.stabilizer", "charlat.same_character", "charlat.weyl_act",
    "rootsys.closure", "rootsys.canonical_word", "levi.rayperm", "rat.primitive",
]
PER_LAYER = (
    [(f"{n}.ms", "ms", "lower") for n in SELF_MS]
    + [(f"{n}.calls", "count", "lower") for n in CALLS]
    + [
        ("charlat.stabilizer.scanned", "count", "lower"),
        ("charlat.stabilizer.hit_ratio", "ratio", "higher"),
        ("rootsys.weyl_elements", "count", "lower"),
        ("levi.reflections_in_WM.hit_ratio", "ratio", "higher"),
        ("levi.levis_certified", "count", "higher"),
        ("cli.output_bytes", "bytes", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def layer_metrics(rec: Recorder, measured: dict) -> dict:
    """Every per-layer metric from a recorder; ``measured`` supplies the
    values the recorder does not hold (startup, output bytes, overhead)."""
    ms = rec.self_ms()
    counts = rec.counts

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    values = {f"{n}.ms": ms.get(n, 0.0) for n in SELF_MS}
    values.update({f"{n}.calls": counts[f"{n}.calls"] for n in CALLS})
    values.update({
        "charlat.stabilizer.scanned": counts["charlat.stabilizer.scanned"],
        "charlat.stabilizer.hit_ratio": ratio("charlat.stabilizer.hits", "charlat.stabilizer.scanned"),
        "rootsys.weyl_elements": counts["rootsys.generate_weyl.elements"],
        "levi.reflections_in_WM.hit_ratio": ratio("levi.reflections_in_WM.found", "levi.reflections_in_WM.scanned"),
        "levi.levis_certified": counts["levi.certify.calls"],
        "cli.output_bytes": 0,
    })
    values.update(measured)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
