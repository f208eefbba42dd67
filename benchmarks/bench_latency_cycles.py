"""§5.2 latency: pipeline cycles and nanoseconds vs. the paper's numbers,
plus a throughput benchmark of the behavioral simulator itself.

Paper calibration points: 64 B -> 79 cycles / 505.6 ns (NetFPGA) and
106 cycles / 424 ns (Corundum); 1500 B -> 146 cycles / ~934-960 ns and
112 cycles / ~448-516 ns.
"""

from __future__ import annotations

import pytest

from conftest import report
from repro.api import Switch
from repro.modules import calc
from repro.sim import CORUNDUM_LATENCY, NETFPGA_LATENCY

PAPER_POINTS = [
    # (platform, size, cycles, ns)
    ("netfpga", 64, 79, 505.6),
    ("netfpga", 1500, 146, 934.4),
    ("corundum", 64, 106, 424.0),
    ("corundum", 1500, 112, 448.0),
]


def test_latency_cycles_table(benchmark):
    rows = []
    for platform, size, paper_cycles, paper_ns in PAPER_POINTS:
        model = NETFPGA_LATENCY if platform == "netfpga" \
            else CORUNDUM_LATENCY
        rows.append({
            "platform": platform,
            "size_B": size,
            "paper_cycles": paper_cycles,
            "model_cycles": round(model.cycles(size), 1),
            "paper_ns": paper_ns,
            "model_ns": round(model.latency_ns(size), 1),
        })
    report("latency_cycles", "§5.2 latency: paper vs model", rows)
    for row in rows:
        assert row["model_cycles"] == pytest.approx(row["paper_cycles"],
                                                    abs=0.5)
    benchmark(lambda: [NETFPGA_LATENCY.cycles(s)
                       for s in range(64, 1501, 64)])


def test_behavioral_pipeline_packet_rate(benchmark):
    """How fast the *behavioral* simulator forwards packets — a sanity
    benchmark of the reproduction itself, not a paper figure."""
    sw = Switch()
    pipe = sw.pipeline
    tenant = sw.admit("calc", calc.P4_SOURCE, vid=1)
    calc.install(tenant)
    packet = calc.make_packet(1, calc.OP_ADD, 3, 4)

    def forward():
        return pipe.process(packet.copy())

    result = benchmark(forward)
    assert result.forwarded
