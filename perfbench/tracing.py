"""Spans and counters around the library's layer boundaries, for the traced run.

Probes wrap the names each layer *calls through*: ``eval_oracle`` imports
``evaluate``, ``linprog`` and ``convex_hull`` by name, ``witness_oracle``
imports ``evaluate_dir`` and ``reconstruct`` imports ``convex_hull``, so a
wrapper on the defining module alone would never fire.  A binding that no
longer exists is reported missing and its metrics are left out; they never
read as 0.

Calls at layer boundaries become spans (name, start, end, parent span,
request id).  The hot kernels (``evaluate``, ``evaluate_dir``, ``eval_ds``)
run millions of times in a witness run, so they are folded into per-parent
timers instead.  A span's self time is its duration minus the time covered by
its child spans and by the outermost hot-kernel calls beneath it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Probe:
    name: str
    bindings: Tuple[str, ...]  # "module:attr" or "module:Class.attr"
    hot: bool
    must_fire: Tuple[str, ...]  # workloads on which the probe has to record a call


PROBES = (
    Probe("slp.evaluate", ("newtonpoly.eval_oracle:evaluate",), True, ("eval-corpus", "eval-f5")),
    Probe("slp.evaluate_dir", ("newtonpoly.witness_oracle:evaluate_dir",), True, ("witness-slp",)),
    Probe("eval_oracle.support_estimate", ("newtonpoly.eval_oracle:support_estimate",), False, ("eval-corpus", "eval-f5")),
    Probe("eval_oracle.adaptive_superset", ("newtonpoly.eval_oracle:adaptive_superset",), False, ("eval-corpus", "eval-f5")),
    Probe("eval_oracle.linprog", ("newtonpoly.eval_oracle:linprog",), False, ("eval-corpus", "eval-f5")),
    Probe("witness_oracle.make_line", ("newtonpoly.witness_oracle:make_line",), False, ("witness-sparse", "witness-slp")),
    Probe("witness_oracle.track_paths", ("newtonpoly.witness_oracle:track_paths",), False, ("witness-sparse", "witness-slp")),
    Probe(
        "witness_oracle.SparseLineBackend.eval_ds",
        ("newtonpoly.witness_oracle:SparseLineBackend.eval_ds",),
        True,
        ("witness-sparse",),
    ),
    Probe(
        "witness_oracle.SlpLineBackend.eval_ds",
        ("newtonpoly.witness_oracle:SlpLineBackend.eval_ds",),
        True,
        ("witness-slp",),
    ),
    Probe("witness_oracle.initial_roots", ("newtonpoly.witness_oracle:initial_roots",), False, ("witness-sparse", "witness-slp")),
    Probe("witness_oracle.classify_paths", ("newtonpoly.witness_oracle:classify_paths",), False, ("witness-sparse", "witness-slp")),
    Probe("witness_oracle.verify_rates", ("newtonpoly.witness_oracle:verify_rates",), False, ("witness-sparse", "witness-slp")),
    Probe(
        "witness_oracle.witness_vertex_query",
        ("newtonpoly.witness_oracle:witness_vertex_query",),
        False,
        ("witness-sparse", "witness-slp"),
    ),
    Probe("reconstruct.reconstruct", ("newtonpoly.reconstruct:reconstruct",), False, ("eval-corpus", "eval-f5", "witness-sparse", "witness-slp")),
    Probe(
        "reconstruct.query",
        ("newtonpoly.reconstruct:EvalVertexOracle.query", "newtonpoly.reconstruct:WitnessVertexOracle.query"),
        False,
        ("eval-corpus", "eval-f5", "witness-sparse", "witness-slp"),
    ),
    Probe("reconstruct.support", ("newtonpoly.reconstruct:EvalVertexOracle.support",), False, ("eval-corpus", "eval-f5")),
    # hull calls from reconstruct() also count as polytope.convex_hull spans
    Probe("reconstruct.convex_hull", ("newtonpoly.reconstruct:convex_hull",), False, ("eval-corpus", "eval-f5", "witness-sparse", "witness-slp")),
    Probe(
        "polytope.convex_hull",
        ("newtonpoly.polytope:convex_hull", "newtonpoly.eval_oracle:convex_hull"),
        False,
        ("hull", "eval-corpus"),
    ),
)


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    raised: int = 0


def _resolve(binding: str):
    """(owner, attribute) for a binding, or None if it no longer exists."""
    module_name, path = binding.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if getattr(owner, attr, None) is None:
        return None
    return owner, attr


def _instruction_mix(program) -> Tuple[int, int, int]:
    ops = Counter(ins[0] for ins in program.instructions)
    return len(program.instructions), ops["add"], ops["mul"]


class Tracer:
    """Records spans and counters while a request is open; passes calls
    straight through otherwise, so untimed checks stay untraced."""

    def __init__(self):
        self.request: Optional[int] = None
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.stats: Dict[str, SpanStats] = defaultdict(SpanStats)
        self.hot: Dict[Tuple[str, Optional[str]], List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[list] = []  # open spans: [span id, name, start, child seconds]
        self._next_id = 0
        self._hot_depth = 0
        self._programs: Dict[int, Tuple[object, Counter]] = {}  # id -> (program, calls per kernel)
        self._installed: List[Tuple[object, str, object]] = []

    # -- requests ---------------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request

    def end(self) -> None:
        self.request = None

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            start = time.perf_counter()
            frame = [tracer._next_id, name, start, 0.0]
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                st = tracer.stats[name]
                st.calls += 1
                st.seconds += duration
                st.self_seconds += duration - frame[3]
                st.raised += not ok
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append((frame[0], name, start, end, parent, tracer.request))
            if after is not None:
                after(args, result)
            return result

        return traced

    def hot_kernel(self, name: str, fn, program_arg: Optional[int] = None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            tracer._hot_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._hot_depth -= 1
                stack = tracer._stack
                cell = tracer.hot[(name, stack[-1][1] if stack else None)]
                cell[0] += 1
                cell[1] += duration
                if stack and not tracer._hot_depth:
                    stack[-1][3] += duration
                if program_arg is not None:
                    program = args[program_arg]
                    entry = tracer._programs.get(id(program))
                    if entry is None:
                        entry = tracer._programs[id(program)] = (program, Counter())
                    entry[1][name] += 1

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every probe; note the ones that are gone."""
        hooks = {
            "eval_oracle.adaptive_superset": self._count_candidates,
            "polytope.convex_hull": self._count_hull,
            "reconstruct.reconstruct": self._count_report,
        }
        for probe in PROBES:
            for binding in probe.bindings:
                found = _resolve(binding)
                if found is None:
                    self.missing.append(binding)
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                if probe.hot:
                    program_arg = 0 if probe.name.startswith("slp.") else None
                    wrapped = self.hot_kernel(probe.name, original, program_arg)
                elif probe.name == "reconstruct.convex_hull":
                    wrapped = self.span("polytope.convex_hull", original, self._count_rebuild)
                else:
                    wrapped = self.span(probe.name, original, hooks.get(probe.name))
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _count_candidates(self, args, result) -> None:
        self.counts["eval_oracle.candidates"] += len(result[0])

    def _count_hull(self, args, result) -> None:
        self.counts["polytope.convex_hull.points_in"] += len(args[0])
        self.counts["polytope.convex_hull.facets_out"] += len(result.facets)

    def _count_report(self, args, result) -> None:
        self.counts["reconstruct.queries"] += result.queries
        self.counts["reconstruct.indeterminate"] += result.indeterminate

    def _count_rebuild(self, args, result) -> None:
        self.counts["reconstruct.hull_rebuilds"] += 1
        self._count_hull(args, result)

    # -- derived metrics --------------------------------------------------

    def probe_calls(self, name: str) -> int:
        if name in self.stats:
            return self.stats[name].calls
        if name == "reconstruct.convex_hull":
            return self.counts["reconstruct.hull_rebuilds"]
        return int(sum(cell[0] for (kernel, _), cell in self.hot.items() if kernel == name))

    def missing_probes(self) -> List[str]:
        """Probes none of whose bindings exist any more."""
        return [p.name for p in PROBES if all(b in self.missing for b in p.bindings)]

    def self_check(self, workload: str) -> List[str]:
        """Probes that exist but recorded no call on a workload they must fire on."""
        missing = set(self.missing_probes())
        return [
            p.name
            for p in PROBES
            if workload in p.must_fire and p.name not in missing and self.probe_calls(p.name) == 0
        ]

    def metrics(self, polytopes: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics: totals per traced polytope, plus ratios.

        ``slp.instructions`` and ``numbers.scaled_ops`` are computed, not
        counted: calls times each program's instruction mix, with a scaled
        add or mul as 1 op and a dual-number add as 2 and mul as 4 (3 muls
        plus 1 add).
        """
        per = 1.0 / max(polytopes, 1)
        out: Dict[str, Tuple[float, str]] = {}
        gone = set(self.missing_probes())

        def hot_total(name, parent=None):
            calls = secs = 0.0
            for (kernel, par), (c, s) in self.hot.items():
                if kernel == name and (parent is None or par == parent):
                    calls += c
                    secs += s
            return calls, secs

        def ratio(num, den):
            return num / den if den else 0.0

        def put(metric, probe, value, unit):
            if probe not in gone:
                out[metric] = (value, unit)

        for name in ("slp.evaluate", "slp.evaluate_dir", "witness_oracle.SparseLineBackend.eval_ds", "witness_oracle.SlpLineBackend.eval_ds"):
            calls, secs = hot_total(name)
            put(f"{name}.calls", name, calls * per, "calls/polytope")
            put(f"{name}.s", name, secs * per, "s/polytope")

        instructions = scaled_ops = 0
        for program, calls in self._programs.values():
            length, adds, muls = _instruction_mix(program)
            instructions += length * (calls["slp.evaluate"] + calls["slp.evaluate_dir"])
            scaled_ops += (adds + muls) * calls["slp.evaluate"] + (2 * adds + 4 * muls) * calls["slp.evaluate_dir"]
        if not {"slp.evaluate", "slp.evaluate_dir"} <= gone:
            out["slp.instructions"] = (instructions * per, "instr/polytope")
            out["numbers.scaled_ops"] = (scaled_ops * per, "ops/polytope")

        def span_metrics(name, fields):
            st = self.stats.get(name, SpanStats())
            values = {
                "calls": (st.calls * per, "calls/polytope"),
                "s": (st.seconds * per, "s/polytope"),
                "self_s": (st.self_seconds * per, "s/polytope"),
                "failed_ratio": (ratio(st.raised, st.calls), "ratio"),
            }
            for field in fields:
                put(f"{name}.{field}", name, *values[field])

        span_metrics("eval_oracle.support_estimate", ("calls", "s", "self_s", "failed_ratio"))
        evals, _ = hot_total("slp.evaluate", "eval_oracle.support_estimate")
        put(
            "eval_oracle.evals_per_estimate",
            "eval_oracle.support_estimate",
            ratio(evals, self.stats.get("eval_oracle.support_estimate", SpanStats()).calls),
            "evals/estimate",
        )
        span_metrics("eval_oracle.adaptive_superset", ("s", "self_s"))
        put("eval_oracle.candidates", "eval_oracle.adaptive_superset", self.counts["eval_oracle.candidates"] * per, "count/polytope")
        span_metrics("eval_oracle.linprog", ("calls", "s"))

        span_metrics("witness_oracle.track_paths", ("calls", "s", "self_s"))
        corrections = sum(
            hot_total(kernel, "witness_oracle.track_paths")[0]
            for kernel in ("witness_oracle.SparseLineBackend.eval_ds", "witness_oracle.SlpLineBackend.eval_ds")
        )
        put(
            "witness_oracle.eval_ds_per_track",
            "witness_oracle.track_paths",
            ratio(corrections, self.stats.get("witness_oracle.track_paths", SpanStats()).calls),
            "evals/track",
        )
        for name in ("initial_roots", "classify_paths", "verify_rates"):
            span_metrics(f"witness_oracle.{name}", ("s",))
        span_metrics("witness_oracle.witness_vertex_query", ("calls", "failed_ratio"))

        span_metrics("reconstruct.reconstruct", ("self_s",))
        put("reconstruct.hull_rebuilds", "reconstruct.convex_hull", self.counts["reconstruct.hull_rebuilds"] * per, "count/polytope")
        span_metrics("reconstruct.query", ("calls",))
        span_metrics("reconstruct.support", ("calls",))
        put(
            "reconstruct.indeterminate_ratio",
            "reconstruct.reconstruct",
            ratio(self.counts["reconstruct.indeterminate"], self.counts["reconstruct.queries"]),
            "ratio",
        )

        span_metrics("polytope.convex_hull", ("calls", "s"))
        put("polytope.convex_hull.points_in", "polytope.convex_hull", self.counts["polytope.convex_hull.points_in"] * per, "count/polytope")
        put("polytope.convex_hull.facets_out", "polytope.convex_hull", self.counts["polytope.convex_hull.facets_out"] * per, "count/polytope")
        return out

    def span_records(self) -> List[dict]:
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "request": request}
            for sid, name, start, end, parent, request in self.spans
        ]

