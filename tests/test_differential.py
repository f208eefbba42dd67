"""Differential testing: the behavioral pipeline vs per-module golden
models over randomized (seeded) traffic.

Each module gets a few hundred randomized packets; a pure-Python golden
model predicts the expected transformation, and the pipeline must agree
on every packet. This catches integration bugs none of the unit layers
see (encoding/decoding through reconfiguration packets, PHV allocation,
key slotting, deparser writeback)."""

import pytest

from repro.api import Switch
from repro.core import MenshenPipeline
from repro.modules import calc, firewall, load_balancer, netcache, qos, source_routing
from repro.net import Ipv4Address

from seeds import SEED, rng as make_rng  # noqa: F401

ROUNDS = 200


def fresh(module, vid=3, **pipeline_kw):
    switch = Switch(pipeline=MenshenPipeline(**pipeline_kw))
    return switch.pipeline, switch.admit(module.NAME, module.P4_SOURCE,
                                         vid=vid)


class TestCalcDifferential:
    def test_randomized_opcodes_and_operands(self):
        pipe, tenant = fresh(calc)
        calc.install(tenant, port=1)
        rng = make_rng(0)
        for _ in range(ROUNDS):
            op = rng.choice([calc.OP_ADD, calc.OP_SUB, calc.OP_ECHO, 99])
            a = rng.randrange(1 << 32)
            b = rng.randrange(1 << 32)
            result = pipe.process(calc.make_packet(3, op, a, b))
            assert calc.read_result(result.packet) == \
                calc.reference_result(op, a, b), (op, a, b)


class TestFirewallDifferential:
    def test_randomized_acl(self):
        pipe, tenant = fresh(firewall)
        rng = make_rng(1)
        blocked = [(f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
                    rng.randrange(1, 65536)) for _ in range(2)]
        allowed = [(f"10.1.{rng.randrange(256)}.{rng.randrange(256)}",
                    rng.randrange(1, 65536), rng.randrange(1, 8))
                   for _ in range(2)]
        firewall.install(tenant, blocked=blocked, allowed=allowed)

        def golden(src, dport):
            if (src, dport) in blocked:
                return "drop"
            for a_src, a_dport, a_port in allowed:
                if (src, dport) == (a_src, a_dport):
                    return a_port
            return 0  # pass-through, default egress

        candidates = ([b for b in blocked]
                      + [(s, d) for s, d, _p in allowed]
                      + [(f"10.2.0.{i}", 1000 + i) for i in range(4)])
        for _ in range(ROUNDS):
            src, dport = rng.choice(candidates)
            result = pipe.process(firewall.make_packet(3, src, dport))
            expected = golden(src, dport)
            if expected == "drop":
                assert result.dropped, (src, dport)
            else:
                assert result.forwarded and result.egress_port == expected


class TestQosDifferential:
    def test_randomized_classes(self):
        pipe, tenant = fresh(qos)
        classes = [(5060, qos.DSCP_EF), (8801, qos.DSCP_AF41),
                   (4789, 18), (6081, 10)]
        qos.install(tenant, classes=classes)
        table = dict(classes)
        rng = make_rng(2)
        ports = [c[0] for c in classes] + [80, 443, 53]
        for _ in range(ROUNDS):
            dport = rng.choice(ports)
            result = pipe.process(qos.make_packet(3, dport))
            assert qos.read_dscp(result.packet) == table.get(dport, 0)


class TestLoadBalancerDifferential:
    def test_randomized_flows(self):
        pipe, tenant = fresh(load_balancer)
        rng = make_rng(3)
        flows = [(f"10.0.0.{i}", 1000 + i, (i % 7) + 1, 8000 + i)
                 for i in range(4)]
        load_balancer.install(tenant, flows=flows)
        table = {(Ipv4Address(src).value, sport): (port, dport)
                 for src, sport, port, dport in flows}
        for _ in range(ROUNDS):
            if rng.random() < 0.7:
                src, sport, _p, _d = rng.choice(flows)
            else:
                src, sport = f"10.9.0.{rng.randrange(8)}", 555
            result = pipe.process(load_balancer.make_packet(3, src, sport))
            key = (Ipv4Address(src).value, sport)
            if key in table:
                port, dport = table[key]
                assert result.egress_port == port
                assert load_balancer.read_dport(result.packet) == dport
            else:
                assert result.egress_port == 0
                assert load_balancer.read_dport(result.packet) == 20000


class TestSourceRoutingDifferential:
    def test_randomized_ports_and_tags(self):
        pipe, tenant = fresh(source_routing)
        source_routing.install(tenant)
        rng = make_rng(4)
        for _ in range(ROUNDS):
            port = rng.randrange(8)
            good_tag = rng.random() < 0.6
            tag = source_routing.VALID_TAG if good_tag \
                else rng.randrange(1 << 16)
            result = pipe.process(
                source_routing.make_packet(3, port, tag=tag))
            if tag == source_routing.VALID_TAG:
                assert result.egress_port == port
            else:
                assert result.egress_port == 0


class TestNetcacheDifferential:
    def test_randomized_gets_with_shadow_store(self):
        pipe, tenant = fresh(netcache)
        cached = [(0x100 + i, i, 1000 + i) for i in range(4)]
        netcache.install(tenant, cached=cached)
        store = {key: value for key, _slot, value in cached}
        rng = make_rng(5)
        expected_ops = 0
        for _ in range(ROUNDS):
            if rng.random() < 0.6:
                key = rng.choice(list(store))
            else:
                key = 0x900 + rng.randrange(16)
            result = pipe.process(netcache.make_get(3, key))
            expected_ops += 1
            assert netcache.read_value(result.packet) == store.get(key, 0)
            assert netcache.read_stat(result.packet) == expected_ops
