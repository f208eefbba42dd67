"""Compiled-classifier throughput: the compiled level vs the scalar walk.

Uniform, cache-hostile firewall traffic (flows drawn uniformly from a
2^16-flow space — ``repro.traffic.cache_hostile_stream``) and Zipf-0.99
traffic through three data paths over identically configured switches:

* ``scalar``   — ``switch.process`` per packet (the baseline),
* ``batched``  — ``BatchEngine`` with the compiled level off (every
  packet takes the interpreted pipeline walk),
* ``compiled`` — the full engine, where packets are served by the
  tenant's :class:`~repro.engine.classifier.CompiledClassifier` instead
  of the interpreted pipeline.

Acceptance gate: on uniform traffic the compiled level serves > 90% of
packets and the engine clears >= 3x the scalar packet rate — the
NuevoMatchUp result (a computational cache that does not depend on
flows repeating), reproduced on the behavioral pipeline. Results are
emitted as a table and JSON via ``conftest.report``.
"""

from __future__ import annotations

import pathlib
import sys
import time

from conftest import report
from repro.api import Switch
from repro.traffic import ZipfFlows, cache_hostile_stream, flow_stream, workload

# All randomized traffic derives from the repository-wide test seed.
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))
from seeds import rng as make_rng  # noqa: E402

PACKETS = 6000
ZIPF_FLOWS = 256
SPEEDUP_GATE = 3.0


def _build():
    switch = Switch.build().create()
    workload("firewall").admit(switch, vid=1)
    return switch


def _pps(run) -> float:
    start = time.perf_counter()
    run()
    return PACKETS / (time.perf_counter() - start)


def _measure(traffic: str, packets):
    scalar = _build()
    scalar_pps = _pps(lambda: [scalar.process(p.copy()) for p in packets])

    batched = _build().engine(enable_classifier=False)
    batched_pps = _pps(
        lambda: batched.process_batch([p.copy() for p in packets]))

    compiled = _build().engine(enable_classifier=True)
    compiled_pps = _pps(
        lambda: compiled.process_batch([p.copy() for p in packets]))

    counters = compiled.counters
    share = counters.compiled_hits / max(counters.packets, 1)
    return [
        {"traffic": traffic, "path": "scalar", "pps": round(scalar_pps),
         "vs_scalar": 1.0, "compiled_share": "-"},
        {"traffic": traffic, "path": "batched", "pps": round(batched_pps),
         "vs_scalar": round(batched_pps / scalar_pps, 2),
         "compiled_share": "-"},
        {"traffic": traffic, "path": "compiled",
         "pps": round(compiled_pps),
         "vs_scalar": round(compiled_pps / scalar_pps, 2),
         "compiled_share": round(share, 3)},
    ]


def test_classifier_throughput():
    spec = workload("firewall")
    uniform = cache_hostile_stream(spec, 1, make_rng(700), PACKETS)
    zipf = flow_stream(spec, 1, make_rng(701), PACKETS,
                       ZipfFlows(ZIPF_FLOWS, skew=0.99))

    rows = _measure("uniform-2^16", uniform) + _measure("zipf-0.99", zipf)
    by_path = {(r["traffic"], r["path"]): r for r in rows}
    compiled = by_path[("uniform-2^16", "compiled")]
    report("classifier_throughput",
           "Compiled classifier: firewall, packets/sec", rows,
           headline={"uniform_pps": compiled["pps"],
                     "uniform_vs_scalar": compiled["vs_scalar"],
                     "zipf_0.99_pps": by_path[("zipf-0.99",
                                               "compiled")]["pps"]})

    assert compiled["compiled_share"] > 0.9, (
        "uniform traffic should be served by the compiled level, got "
        f"share {compiled['compiled_share']}")

    # The acceptance gate: >= 3x the scalar walk on uniform
    # (cache-hostile) traffic.
    gate = compiled["vs_scalar"]
    assert gate >= SPEEDUP_GATE, (
        f"the compiled engine is only {gate}x scalar on uniform "
        f"traffic (gate: {SPEEDUP_GATE}x)")
