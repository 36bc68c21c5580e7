"""Per-layer tracing from the benchmark's side of the library boundary.

``Tracer.install()`` wraps tuttekit's public functions and rebinds every
module namespace that holds them, including names bound by
``from ... import`` and dict tables of handlers such as ``cli._XB_ROUTES``.
``src/`` is not modified; ``uninstall()`` restores every binding.

A call wrapper records calls and self time (its duration minus the wrapped
calls nested inside it).  A generator wrapper times each ``next()`` and
counts the items.  Aggregates are always kept; individual call spans (name,
op index, parent span, start, end) are kept in memory up to ``SPAN_CAP``
and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 100_000

# (module, function) -> kind; "gen" wraps a generator function
CALLS = [
    ("combinatorics", "enumerate_set_partitions", "gen"),
    ("graphs", "canonical_form", "call"),
    ("graphs", "connected_partitions", "gen"),
    ("graphs", "contract_edge_set", "call"),
    ("graphs", "internal_edge_count", "call"),
    ("graphs", "is_bright_star_forest", "call"),
    ("graphs", "star_forest_canonical_map", "call"),
    ("symfun", "mtilde_to_m", "call"),
    ("symfun", "m_to_e", "call"),
    ("symfun", "m_to_p", "call"),
    ("invariants", "tutte_sym", "call"),
    ("invariants", "chromatic_sym", "call"),
    ("invariants", "tutte_from_contractions", "call"),
    ("invariants", "tutte_from_connected_partitions", "call"),
    ("invariants", "tutte_sym_delcon", "call"),
    ("invariants", "chromatic_sym_delcon", "call"),
    ("kernel", "is_tutte_friendly", "call"),
    ("kernel", "is_x_friendly", "call"),
    ("kernel", "b_value", "call"),
    ("kernel", "reduce_to_star_forests", "call"),
    ("kernel", "replay_certificate", "call"),
    ("kernel", "kernel_membership", "call"),
    ("kernel", "combination_tutte_sym", "call"),
    ("kernel", "witness_graph", "call"),
    ("kernel", "witness_mtilde_coefficient", "call"),
    ("quasi", "tq", "call"),
    ("quasi", "xq", "call"),
    ("quasi", "tq_from_connected_partitions", "call"),
    ("quasi", "tq_from_arc_subsets", "call"),
    ("quasi", "truncate_symfunc", "call"),
    ("cli", "main", "call"),
]

# both deletion-contraction entry points report as one layer
ALIASES = {
    "invariants.tutte_sym_delcon": "invariants.delcon",
    "invariants.chromatic_sym_delcon": "invariants.delcon",
}

TPOLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")

FRIENDLY_SCANS = ("kernel.is_tutte_friendly", "kernel.is_x_friendly")


class _Frame:
    __slots__ = ("name", "span", "child")

    def __init__(self, name: str, span: int):
        self.name = name
        self.span = span
        self.child = 0.0


class Tracer:
    """Aggregates per wrapped name: [calls or items, self or busy seconds]."""

    def __init__(self, bell):
        self.bell = bell
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self.top_s = 0.0  # time inside outermost wrapped calls
        self.scan_partitions = 0
        self.scan_bell = 0
        self.degrees: set[int] = set()
        self.steps: dict[str, int] = defaultdict(int)
        self.colorings = 0
        self._next_span = 0
        self._restore: list = []
        self._hooks = self._post_hooks()

    # -- wrappers --------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        self._next_span += 1
        frame = _Frame(name, self._next_span)
        self.stack.append(frame)
        return frame

    def _leave(self, frame: _Frame, t0: float, t1: float, count_span: bool) -> float:
        self.stack.pop()
        d = t1 - t0
        if self.stack:
            self.stack[-1].child += d
        else:
            self.top_s += d
        if count_span:
            if len(self.spans) < SPAN_CAP:
                parent = self.stack[-1].span if self.stack else 0
                self.spans.append((self.op, frame.span, parent, frame.name, t0, t1))
            else:
                self.dropped += 1
        return d

    def wrap_call(self, name: str, fn):
        tracer = self
        stat = self.stats[name]
        post = self._hooks.get(name)

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                d = tracer._leave(frame, t0, t1, True)
                stat[0] += 1
                stat[1] += d - frame.child
            if post is not None:
                post(args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, name: str, fn):
        tracer = self
        stat = self.stats[name]
        in_scan = name == "combinatorics.enumerate_set_partitions"

        class TracedIter:
            __slots__ = ("it", "scan")

            def __init__(self, it, scan):
                self.it = it
                self.scan = scan

            def __iter__(self):
                return self

            def __next__(self):
                frame = tracer._enter(name)
                t0 = perf_counter()
                try:
                    item = next(self.it)
                finally:
                    t1 = perf_counter()
                    stat[1] += tracer._leave(frame, t0, t1, False)
                stat[0] += 1
                if self.scan:
                    tracer.scan_partitions += 1
                return item

        def traced(*args, **kwargs):
            scan = in_scan and bool(tracer.stack) and tracer.stack[-1].name in FRIENDLY_SCANS
            return TracedIter(fn(*args, **kwargs), scan)

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def wrap_method(self, name: str, fn):
        tracer = self
        stat = self.stats[name]

        def traced(*args):
            frame = tracer._enter(name)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                t1 = perf_counter()
                d = tracer._leave(frame, t0, t1, False)
                stat[0] += 1
                stat[1] += d - frame.child

        return traced

    def _post_hooks(self):
        def scan(args, _result):
            self.scan_bell += self.bell(args[0].n)

        def degrees(args, _result):
            self.degrees.update(sum(lam) for lam in args[0].terms)

        def steps(_args, result):
            for step in result[1].steps:
                self.steps[step.gen] += 1

        def colorings(args, _result):
            D, N = args[0], args[1]
            self.colorings += N ** D.n

        return {
            "kernel.is_tutte_friendly": scan,
            "kernel.is_x_friendly": scan,
            "symfun.m_to_e": degrees,
            "symfun.m_to_p": degrees,
            "kernel.reduce_to_star_forests": steps,
            "quasi.tq": colorings,
            "quasi.xq": colorings,
        }

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        for mod_name, _, _ in CALLS:
            importlib.import_module(f"tuttekit.{mod_name}")
        modules = [m for name, m in sys.modules.items() if name == "tuttekit" or name.startswith("tuttekit.")]
        for mod_name, fn_name, kind in CALLS:
            original = getattr(sys.modules[f"tuttekit.{mod_name}"], fn_name)
            name = ALIASES.get(f"{mod_name}.{fn_name}", f"{mod_name}.{fn_name}")
            wrapper = (self.wrap_gen if kind == "gen" else self.wrap_call)(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m.__dict__, attr, original))
                        setattr(m, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, v in list(value.items()):
                            if v is original:
                                self._restore.append((value, key, original))
                                value[key] = wrapper
        from tuttekit.combinatorics import TPoly

        for op in TPOLY_OPS:
            original = TPoly.__dict__[op]
            self._restore.append((TPoly, op, original))
            setattr(TPoly, op, self.wrap_method("combinatorics.TPoly", original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, type):
                setattr(target, key, original)
            else:
                target[key] = original
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["op", "span", "parent", "name", "start_s", "end_s"],
                                 "dropped": self.dropped}) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self, memo_growth: int) -> dict[str, float]:
        """Per-layer metric values named as in BENCHMARK.json."""
        s = self.stats
        out: dict[str, float] = {}
        for name, (count, seconds) in list(s.items()):
            gen = name in ("combinatorics.enumerate_set_partitions", "graphs.connected_partitions")
            out[f"{name}.{'items' if gen else 'calls'}"] = count
            out[f"{name}.{'busy_s' if gen else 'self_s'}"] = seconds
        out["combinatorics.TPoly.ops"] = s["combinatorics.TPoly"][0]
        delcon_calls = s["invariants.delcon"][0]
        out["invariants.delcon.memo_hit_ratio"] = (
            (delcon_calls - memo_growth) / delcon_calls if delcon_calls else 0.0
        )
        out["kernel.friendly_scan.partitions"] = self.scan_partitions
        out["kernel.friendly_scan.scanned_over_bell"] = (
            self.scan_partitions / self.scan_bell if self.scan_bell else 0.0
        )
        out["symfun.degrees_built"] = len(self.degrees)
        for gen in ("loop", "multi", "os_plus", "iso"):
            out[f"kernel.reduce.steps.{gen}"] = self.steps[gen]
        out["quasi.colorings"] = self.colorings
        return out
