"""Layer spans for the traced benchmark run.

The benchmark reads the layers from outside: in traced mode it replaces
each public call listed in :data:`LAYERS` with a wrapper that records a
span (name, start, end, parent span) in compact in-memory arrays, and
restores the originals afterwards. Untimed runs never install the
wrappers, so the timed code is the program's own, unmodified.

A layer's self time is its span's duration minus the time its direct
child spans cover. Spans are grouped into runs (one per repetition);
:meth:`Tracer.metrics` turns one run's spans into the per-layer numbers
and :meth:`Tracer.write` stores every span once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: (span name, module, attribute path, runs in the parent process on
#: the process backend). Two targets may share a span name.
LAYERS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("traffic.arrivals", "repro.traffic.matrix", "TrafficMatrix.arrivals",
     True),
    ("traffic.make_packet", "workloads", "CalcFeed.__call__", False),
    ("traffic.make_packet", "workloads", "NetChainFeed.__call__", False),
    ("exec.inject", "repro.exec.core", "ExecutionCore.inject", False),
    ("exec.route", "repro.exec.core", "ExecutionCore.route_departures",
     False),
    ("exec.schedule_services", "repro.exec.core",
     "ExecutionCore.schedule_services", False),
    ("engine.process_batch", "repro.engine.batch",
     "BatchEngine.process_batch", False),
    ("classifier.classify", "repro.engine.classifier",
     "CompiledClassifier.classify", False),
    # BatchEngine calls the compiler through its own module global.
    ("classifier.compile", "repro.engine.batch", "compile_classifier",
     False),
    ("core.admit", "repro.core.pipeline", "MenshenPipeline.admit", False),
    ("rmt.execute", "repro.core.pipeline", "MenshenPipeline.execute", False),
    ("core.commit", "repro.core.pipeline", "MenshenPipeline.commit", False),
    ("scheduler.enqueue", "repro.engine.scheduler",
     "EgressScheduler.enqueue", False),
    ("scheduler.advance_to", "repro.engine.scheduler",
     "EgressScheduler.advance_to", False),
    ("scheduler.next_departure", "repro.engine.scheduler",
     "EgressScheduler.next_departure_at", False),
    ("scheduler.drain", "repro.engine.scheduler",
     "EgressScheduler.drain_all", False),
    ("sim.run", "repro.sim.kernel", "Simulator.run", False),
    ("sim.schedule", "repro.sim.kernel", "Simulator.schedule", False),
    ("parallel.plan", "repro.exec.parallel", "build_timeline_plans", True),
    ("parallel.run", "repro.exec.parallel", "run_fabric_timeline", True),
    ("api.admit", "repro.api.switch", "Switch.admit", True),
    ("fabric.place", "repro.fabric.tenant", "FabricTenant.place", True),
    ("api.update", "repro.api.switch", "Tenant.update", True),
    ("api.table_insert", "repro.api.switch", "TableHandle.insert", True),
)

#: Spans whose return value carries a count the metrics need:
#: span name -> function(args, result) -> amount added to the run.
_AMOUNTS: Dict[str, Callable] = {
    "scheduler.advance_to": lambda args, result: len(result),
    "sim.run": lambda args, result: args[0].events_processed,
}

#: Root spans the benchmark itself opens around each repetition.
SETUP, TIMED = "bench.setup", "bench.timed"

#: Per-layer metrics: name -> (unit, how it is read from the spans).
#: ``("total", span)`` and ``("self", span)`` are seconds per repetition,
#: ``("count", span)`` the number of spans, ``("amount", span)`` the sum
#: of the span's :data:`_AMOUNTS`; the rest are filled by the caller.
SPAN_METRICS: Dict[str, Tuple[str, Tuple[str, str]]] = {
    "traffic.arrivals_s": ("s", ("total", "traffic.arrivals")),
    "traffic.make_packet_s": ("s", ("total", "traffic.make_packet")),
    "traffic.packets": ("count", ("count", "traffic.make_packet")),
    "exec.inject_self_s": ("s", ("self", "exec.inject")),
    "exec.route_self_s": ("s", ("self", "exec.route")),
    "exec.schedule_services_self_s": ("s", ("self",
                                             "exec.schedule_services")),
    "exec.injects": ("count", ("count", "exec.inject")),
    "engine.process_batch_self_s": ("s", ("self", "engine.process_batch")),
    "classifier.classify_s": ("s", ("total", "classifier.classify")),
    "classifier.compile_s": ("s", ("total", "classifier.compile")),
    "core.admit_s": ("s", ("total", "core.admit")),
    "core.commit_self_s": ("s", ("self", "core.commit")),
    "rmt.execute_s": ("s", ("total", "rmt.execute")),
    "scheduler.enqueue_s": ("s", ("total", "scheduler.enqueue")),
    "scheduler.advance_to_s": ("s", ("total", "scheduler.advance_to")),
    "scheduler.advance_calls": ("count", ("count", "scheduler.advance_to")),
    "scheduler.next_departure_s": ("s", ("total",
                                          "scheduler.next_departure")),
    "scheduler.next_departure_calls": ("count",
                                       ("count", "scheduler.next_departure")),
    "scheduler.departures": ("count", ("amount", "scheduler.advance_to")),
    "scheduler.drain_s": ("s", ("total", "scheduler.drain")),
    "sim.kernel_self_s": ("s", ("self", "sim.run")),
    "sim.schedule_s": ("s", ("total", "sim.schedule")),
    "sim.events": ("count", ("amount", "sim.run")),
    "parallel.plan_s": ("s", ("total", "parallel.plan")),
    "parallel.run_s": ("s", ("total", "parallel.run")),
    "api.admit_s": ("s", ("total", "api.admit")),
    "api.admits": ("count", ("count", "api.admit")),
    "fabric.place_s": ("s", ("total", "fabric.place")),
    "api.update_s": ("s", ("total", "api.update")),
    "api.updates": ("count", ("count", "api.update")),
    "api.table_insert_s": ("s", ("total", "api.table_insert")),
}


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder; install() patches the layers, uninstall() restores."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: spans are recorded only between begin_run() and end_run()
        self._active = [False]
        #: (first span index, span index past the end) per run
        self.runs: List[Tuple[int, int]] = []
        self.amounts: List[Dict[str, int]] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span: str, fn):
        name_id = self._id(span)
        amount = _AMOUNTS.get(span)
        ids, parents = self.name_id, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        amounts, active = self.amounts, self._active

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if amount is not None:
                run = amounts[-1]
                run[span] = run.get(span, 0) + amount(args, result)
            return result

        return traced

    def install(self, parent_only: bool = False) -> None:
        """Wrap every layer call (only the parent-side ones when the
        data plane runs in worker processes)."""
        for span, module, path, in_parent in LAYERS:
            if parent_only and not in_parent:
                continue
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def begin_run(self) -> None:
        self.runs.append((len(self.name_id), len(self.name_id)))
        self.amounts.append({})
        self._active[0] = True

    def end_run(self) -> None:
        self._active[0] = False
        first, _ = self.runs[-1]
        self.runs[-1] = (first, len(self.name_id))

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a benchmark-owned root span."""
        return self._wrap(name, fn)(*args)

    # -- analysis ------------------------------------------------------------

    def run_totals(self, run: int):
        """Per span name: (count, total seconds, self seconds) in one run."""
        first, last = self.runs[run]
        ids, parents = self.name_id, self.parent
        starts, ends = self.start, self.end
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = parents[i]
            if p >= first:
                child[p - first] += ends[i] - starts[i]
        count: Dict[str, int] = {}
        total: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        for i in range(first, last):
            name = self.names[ids[i]]
            dur = ends[i] - starts[i]
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i - first]
        return count, total, self_s

    def metrics(self) -> Dict[str, float]:
        """Median over runs of every :data:`SPAN_METRICS` entry, plus
        ``trace.unattributed_share``: the share of the timed call that
        no layer span covers."""
        per_run: Dict[str, List[float]] = {m: [] for m in SPAN_METRICS}
        per_run["trace.unattributed_share"] = []
        for run in range(len(self.runs)):
            count, total, self_s = self.run_totals(run)
            amounts = self.amounts[run]
            for metric, (_unit, (kind, span)) in SPAN_METRICS.items():
                if kind == "count":
                    value = count.get(span, 0)
                elif kind == "amount":
                    value = amounts.get(span, 0)
                elif kind == "self":
                    value = self_s.get(span, 0.0)
                else:
                    value = total.get(span, 0.0)
                per_run[metric].append(value)
            timed = total.get(TIMED, 0.0)
            per_run["trace.unattributed_share"].append(
                self_s.get(TIMED, 0.0) / timed if timed else 0.0)
        return {metric: statistics.median(values) if values else 0.0
                for metric, values in per_run.items()}

    def write(self, path: str) -> None:
        """Store every span: one JSON header line, then the raw arrays
        (name id int32, parent index int32, start float64, end float64,
        in that order, native byte order)."""
        header = {"names": self.names, "runs": self.runs,
                  "spans": len(self.name_id),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(out)


def layer_units() -> Dict[str, str]:
    """Unit of every span-derived per-layer metric."""
    units = {metric: unit for metric, (unit, _) in SPAN_METRICS.items()}
    units["trace.unattributed_share"] = "fraction"
    return units

