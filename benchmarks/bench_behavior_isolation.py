"""§5.1 behavior isolation: the paper's two concurrent-module trios.

{CALC, Firewall, NetCache} and {Load Balancing, Source Routing,
NetChain} run simultaneously with interleaved traffic; each module must
behave exactly as it would alone. Also benchmarks the multi-module
forwarding rate of the behavioral pipeline.
"""

from __future__ import annotations

import pathlib
import sys

from conftest import report
from repro.api import Switch, Tenant
from repro.core import MenshenPipeline
from repro.engine import BatchEngine
from repro.modules import (
    calc,
    firewall,
    load_balancer,
    netcache,
    netchain,
    source_routing,
)
from repro.runtime import MenshenController
from repro.traffic import ZipfFlows, flow_stream, workload

# Randomized traffic derives from the repository-wide test seed.
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))
from seeds import rng as make_rng  # noqa: E402


def _trio_a():
    pipe = MenshenPipeline()
    ctl = MenshenController(pipe)
    ctl.load_module(1, calc.P4_SOURCE, "calc")
    calc.install(Tenant.attach(ctl, 1), port=1)
    ctl.load_module(2, firewall.P4_SOURCE, "firewall")
    firewall.install(Tenant.attach(ctl, 2), blocked=[("10.0.0.66", 53)],
                             allowed=[("10.0.0.1", 80, 4)])
    ctl.load_module(3, netcache.P4_SOURCE, "netcache")
    netcache.install(Tenant.attach(ctl, 3), cached=[(0xAAAA, 0, 42)])
    return pipe, ctl


def _trio_b():
    pipe = MenshenPipeline()
    ctl = MenshenController(pipe)
    ctl.load_module(1, load_balancer.P4_SOURCE, "lb")
    load_balancer.install(Tenant.attach(ctl, 1),
                                  flows=[("10.0.0.1", 1111, 2, 8001)])
    ctl.load_module(2, source_routing.P4_SOURCE, "srcroute")
    source_routing.install(Tenant.attach(ctl, 2))
    ctl.load_module(3, netchain.P4_SOURCE, "netchain")
    netchain.install(Tenant.attach(ctl, 3), port=6)
    return pipe, ctl


def test_behavior_isolation_trio_a(benchmark):
    pipe, _ctl = _trio_a()
    rounds = 50
    checks = {"calc_correct": 0, "firewall_block": 0, "firewall_allow": 0,
              "netcache_hit": 0}
    for i in range(rounds):
        r = pipe.process(calc.make_packet(1, calc.OP_ADD, i, i + 1))
        if calc.read_result(r.packet) == (2 * i + 1) % (1 << 32):
            checks["calc_correct"] += 1
        r = pipe.process(firewall.make_packet(2, "10.0.0.66", 53))
        if r.dropped:
            checks["firewall_block"] += 1
        r = pipe.process(firewall.make_packet(2, "10.0.0.1", 80))
        if r.forwarded and r.egress_port == 4:
            checks["firewall_allow"] += 1
        r = pipe.process(netcache.make_get(3, 0xAAAA))
        if netcache.read_value(r.packet) == 42:
            checks["netcache_hit"] += 1
    rows = [{"check": k, "passed": v, "of": rounds}
            for k, v in checks.items()]
    report("behavior_isolation_trio_a",
           "§5.1 behavior isolation: CALC + Firewall + NetCache", rows)
    assert all(v == rounds for v in checks.values())

    packet = calc.make_packet(1, calc.OP_ADD, 1, 2)
    benchmark(lambda: pipe.process(packet.copy()))


def test_behavior_isolation_trio_b(benchmark):
    pipe, _ctl = _trio_b()
    rounds = 50
    checks = {"lb_steered": 0, "srcroute_port": 0, "netchain_monotonic": 0}
    last_seq = 0
    for i in range(rounds):
        r = pipe.process(load_balancer.make_packet(1, "10.0.0.1", 1111))
        if r.egress_port == 2 and load_balancer.read_dport(r.packet) == 8001:
            checks["lb_steered"] += 1
        r = pipe.process(source_routing.make_packet(2, (i % 7) + 1))
        if r.egress_port == (i % 7) + 1:
            checks["srcroute_port"] += 1
        r = pipe.process(netchain.make_packet(3))
        seq = netchain.read_seq(r.packet)
        if seq == last_seq + 1:
            checks["netchain_monotonic"] += 1
        last_seq = seq
    rows = [{"check": k, "passed": v, "of": rounds}
            for k, v in checks.items()]
    report("behavior_isolation_trio_b",
           "§5.1 behavior isolation: LB + SourceRouting + NetChain", rows)
    assert all(v == rounds for v in checks.values())

    packet = netchain.make_packet(3)
    benchmark(lambda: pipe.process(packet.copy()))


def test_multi_module_forwarding_rate(benchmark):
    """Forwarding rate with three concurrent tenants, scalar vs engine.

    Traffic comes from the typed workload subsystem (zipf flow structure
    per tenant) instead of hand-rolled packet loops; the batched engine
    must agree with the scalar pipeline on every packet while serving
    it from the tenants' compiled classifiers.
    """
    specs = [workload("calc"), workload("firewall"), workload("qos")]
    rng = make_rng(400)
    streams = [flow_stream(spec, vid, rng, 300,
                           ZipfFlows(spec.n_flows, skew=0.9))
               for vid, spec in enumerate(specs, start=1)]
    pkts = [p for trio in zip(*streams) for p in trio]

    def build():
        switch = Switch.build().create()
        for vid, spec in enumerate(specs, start=1):
            spec.admit(switch, vid=vid)
        return switch

    scalar = build()
    scalar_results = [scalar.process(p.copy()) for p in pkts]
    batched = build()
    engine = batched.engine()
    engine_results = engine.process_batch([p.copy() for p in pkts])

    agree = sum(
        a.dropped == b.dropped and a.egress_port == b.egress_port
        and (a.packet is None or a.packet.tobytes() == b.packet.tobytes())
        for a, b in zip(scalar_results, engine_results))
    rows = [{"path": "scalar", "packets": len(pkts), "agree": "-",
             "compiled_hits": 0},
            {"path": "engine", "packets": len(pkts), "agree": agree,
             "compiled_hits": engine.counters.compiled_hits}]
    report("multi_module_forwarding_rate",
           "Multi-tenant forwarding: scalar vs batched engine", rows)
    assert agree == len(pkts)
    assert engine.counters.compiled_hits > 0

    benchmark(lambda: engine.process_batch([p.copy() for p in pkts[:90]]))
