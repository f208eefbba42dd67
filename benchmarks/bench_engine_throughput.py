"""Engine throughput: scalar vs batched vs batched+compiled.

Zipf-distributed firewall flow traffic (skews 0.9 and 0.99 — the YCSB
workload shapes) through three data paths over identically configured
switches:

* ``scalar``           — ``switch.process`` per packet (the baseline),
* ``batched``          — ``BatchEngine`` with the compiled level off
  (every packet takes the scalar walk: pure batching overhead/benefit),
* ``batched+compiled`` — the full two-level engine, where the tenant's
  compiled classifier serves every packet it can.

Acceptance gate: at zipf 0.99 the full engine must clear >= 3x the
scalar packet rate. Results are emitted as a table and JSON via
``conftest.report``.
"""

from __future__ import annotations

import pathlib
import sys
import time

from conftest import report
from repro.api import Switch
from repro.traffic import ZipfFlows, flow_stream, workload

# All randomized traffic derives from the repository-wide test seed.
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))
from seeds import rng as make_rng  # noqa: E402

PACKETS = 6000
FLOWS = 256
SPEEDUP_GATE = 3.0


def _build():
    switch = Switch.build().create()
    workload("firewall").admit(switch, vid=1)
    return switch


def _packets(skew: float, offset: int):
    spec = workload("firewall")
    return flow_stream(spec, 1, make_rng(offset), PACKETS,
                       ZipfFlows(FLOWS, skew=skew))


def _pps(run) -> float:
    start = time.perf_counter()
    run()
    return PACKETS / (time.perf_counter() - start)


def _measure(skew: float, offset: int):
    packets = _packets(skew, offset)

    scalar = _build()
    scalar_pps = _pps(lambda: [scalar.process(p.copy()) for p in packets])

    plain = _build().engine(enable_classifier=False)
    plain_pps = _pps(
        lambda: plain.process_batch([p.copy() for p in packets]))

    engine = _build().engine(enable_classifier=True)
    engine_pps = _pps(
        lambda: engine.process_batch([p.copy() for p in packets]))
    counters = engine.counters

    return [
        {"skew": skew, "path": "scalar", "pps": round(scalar_pps),
         "speedup": 1.0, "compiled_share": "-"},
        {"skew": skew, "path": "batched", "pps": round(plain_pps),
         "speedup": round(plain_pps / scalar_pps, 2),
         "compiled_share": "-"},
        {"skew": skew, "path": "batched+compiled", "pps": round(engine_pps),
         "speedup": round(engine_pps / scalar_pps, 2),
         "compiled_share": round(
             counters.compiled_hits / max(counters.packets, 1), 3)},
    ]


def test_engine_throughput_zipf():
    rows = _measure(0.9, offset=300) + _measure(0.99, offset=301)
    by_skew = {row["skew"]: {} for row in rows}
    for row in rows:
        by_skew[row["skew"]][row["path"]] = row
    top = by_skew[0.99]["batched+compiled"]
    report("engine_throughput",
           "Engine throughput: firewall zipf flows, packets/sec", rows,
           headline={"zipf_0.99_pps": top["pps"],
                     "zipf_0.99_speedup": top["speedup"]})

    # The acceptance gate: >= 3x scalar at zipf 0.99.
    gate = top["speedup"]
    assert gate >= SPEEDUP_GATE, (
        f"batched+compiled is only {gate}x scalar at zipf 0.99 "
        f"(gate: {SPEEDUP_GATE}x)")
