"""End-to-end tests of the eight evaluated modules (Table 3), including
the paper's §5.1 behavior-isolation experiments."""

import pytest

from repro.modules import (
    calc,
    firewall,
    load_balancer,
    multicast,
    netcache,
    netchain,
    qos,
    source_routing,
)
from repro.modules.registry import ALL_MODULES, module_by_name, module_names
from repro.net import parse_layers
from repro.api import Switch


def fresh():
    sw = Switch()
    return sw.pipeline, sw


class TestCalc:
    def test_all_opcodes(self):
        pipe, sw = fresh()
        tenant = sw.admit("calc", calc.P4_SOURCE, vid=1)
        calc.install(tenant, port=2)
        cases = [(calc.OP_ADD, 100, 23), (calc.OP_SUB, 50, 8),
                 (calc.OP_ECHO, 77, 0), (calc.OP_SUB, 1, 2)]
        for op, a, b in cases:
            res = pipe.process(calc.make_packet(1, op, a, b))
            assert calc.read_result(res.packet) == \
                calc.reference_result(op, a, b), (op, a, b)

    def test_egress_port_from_entry(self):
        pipe, sw = fresh()
        tenant = sw.admit("calc", calc.P4_SOURCE, vid=1)
        calc.install(tenant, port=5)
        res = pipe.process(calc.make_packet(1, calc.OP_ADD, 1, 1))
        assert res.egress_port == 5

    def test_unknown_opcode_passthrough(self):
        pipe, sw = fresh()
        tenant = sw.admit("calc", calc.P4_SOURCE, vid=1)
        calc.install(tenant)
        res = pipe.process(calc.make_packet(1, 99, 5, 5))
        assert res.forwarded
        assert calc.read_result(res.packet) == 0


class TestFirewall:
    def test_block_and_allow(self):
        pipe, sw = fresh()
        tenant = sw.admit("firewall", firewall.P4_SOURCE, vid=2)
        firewall.install(
            tenant,
            blocked=[("10.0.0.66", 53)],
            allowed=[("10.0.0.1", 80, 4)])
        blocked = pipe.process(firewall.make_packet(2, "10.0.0.66", 53))
        assert blocked.dropped and blocked.drop_reason == "discard"
        allowed = pipe.process(firewall.make_packet(2, "10.0.0.1", 80))
        assert allowed.forwarded and allowed.egress_port == 4

    def test_unmatched_traffic_passes(self):
        pipe, sw = fresh()
        tenant = sw.admit("firewall", firewall.P4_SOURCE, vid=2)
        firewall.install(tenant, blocked=[("10.0.0.66", 53)])
        res = pipe.process(firewall.make_packet(2, "10.0.0.9", 53))
        assert res.forwarded

    def test_block_is_exact_on_both_fields(self):
        pipe, sw = fresh()
        tenant = sw.admit("firewall", firewall.P4_SOURCE, vid=2)
        firewall.install(tenant, blocked=[("10.0.0.66", 53)])
        assert pipe.process(
            firewall.make_packet(2, "10.0.0.66", 54)).forwarded


class TestLoadBalancer:
    def test_flow_steering(self):
        pipe, sw = fresh()
        tenant = sw.admit("load_balancer", load_balancer.P4_SOURCE, vid=3)
        load_balancer.install(tenant, flows=[
                              ("10.0.0.1", 1111, 2, 8001),
            ("10.0.0.1", 2222, 3, 8002),
        ])
        res1 = pipe.process(load_balancer.make_packet(3, "10.0.0.1", 1111))
        assert res1.egress_port == 2
        assert load_balancer.read_dport(res1.packet) == 8001
        res2 = pipe.process(load_balancer.make_packet(3, "10.0.0.1", 2222))
        assert res2.egress_port == 3
        assert load_balancer.read_dport(res2.packet) == 8002


class TestQos:
    def test_dscp_marking(self):
        pipe, sw = fresh()
        tenant = sw.admit("qos", qos.P4_SOURCE, vid=4)
        qos.install(tenant)
        voice = pipe.process(qos.make_packet(4, 5060))
        assert qos.read_dscp(voice.packet) == qos.DSCP_EF
        video = pipe.process(qos.make_packet(4, 8801))
        assert qos.read_dscp(video.packet) == qos.DSCP_AF41
        other = pipe.process(qos.make_packet(4, 9999))
        assert qos.read_dscp(other.packet) == 0

    def test_version_ihl_preserved(self):
        pipe, sw = fresh()
        tenant = sw.admit("qos", qos.P4_SOURCE, vid=4)
        qos.install(tenant)
        res = pipe.process(qos.make_packet(4, 5060))
        assert parse_layers(res.packet)["ipv4"].version == 4
        assert parse_layers(res.packet)["ipv4"].ihl == 5


class TestSourceRouting:
    def test_port_comes_from_packet(self):
        pipe, sw = fresh()
        tenant = sw.admit("source_routing", source_routing.P4_SOURCE, vid=5)
        source_routing.install(tenant)
        for port in (1, 3, 7):
            res = pipe.process(source_routing.make_packet(5, port))
            assert res.egress_port == port

    def test_invalid_tag_misses(self):
        pipe, sw = fresh()
        tenant = sw.admit("source_routing", source_routing.P4_SOURCE, vid=5)
        source_routing.install(tenant)
        res = pipe.process(source_routing.make_packet(5, 3, tag=0x1111))
        assert res.egress_port == 0  # no matching tag: no routing action


class TestNetCache:
    def test_cache_hit_returns_value(self):
        pipe, sw = fresh()
        tenant = sw.admit("netcache", netcache.P4_SOURCE, vid=6)
        netcache.install(tenant, cached=[
                         (0xAAAA, 0, 1234), (0xBBBB, 1, 5678)])
        res = pipe.process(netcache.make_get(6, 0xAAAA))
        assert netcache.read_value(res.packet) == 1234
        res = pipe.process(netcache.make_get(6, 0xBBBB))
        assert netcache.read_value(res.packet) == 5678

    def test_cache_miss_leaves_zero(self):
        pipe, sw = fresh()
        tenant = sw.admit("netcache", netcache.P4_SOURCE, vid=6)
        netcache.install(tenant, cached=[(0xAAAA, 0, 1234)])
        res = pipe.process(netcache.make_get(6, 0xCCCC))
        assert netcache.read_value(res.packet) == 0

    def test_op_counter_increments(self):
        pipe, sw = fresh()
        tenant = sw.admit("netcache", netcache.P4_SOURCE, vid=6)
        netcache.install(tenant, cached=[(0xAAAA, 0, 1)])
        stats = [netcache.read_stat(
            pipe.process(netcache.make_get(6, 0xAAAA)).packet)
            for _ in range(3)]
        assert stats == [1, 2, 3]
        assert sw.controller.register_read(6, "op_stats", 0) == 3

    def test_value_update_via_control_plane(self):
        pipe, sw = fresh()
        tenant = sw.admit("netcache", netcache.P4_SOURCE, vid=6)
        netcache.install(tenant, cached=[(0xAAAA, 0, 1)])
        sw.controller.register_write(6, "values", 0, 999)
        res = pipe.process(netcache.make_get(6, 0xAAAA))
        assert netcache.read_value(res.packet) == 999


class TestNetChain:
    def test_sequencer_monotonic(self):
        pipe, sw = fresh()
        tenant = sw.admit("netchain", netchain.P4_SOURCE, vid=7)
        netchain.install(tenant, port=3)
        seqs = [netchain.read_seq(
            pipe.process(netchain.make_packet(7)).packet)
            for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_egress_from_entry(self):
        pipe, sw = fresh()
        tenant = sw.admit("netchain", netchain.P4_SOURCE, vid=7)
        netchain.install(tenant, port=3)
        assert pipe.process(netchain.make_packet(7)).egress_port == 3


class TestMulticast:
    def test_replication(self):
        pipe, sw = fresh()
        pipe.traffic_manager.set_mcast_group(5, [1, 2, 3])
        tenant = sw.admit("multicast", multicast.P4_SOURCE, vid=8)
        multicast.install(tenant, groups=[("224.0.0.7", 5)])
        res = pipe.process(multicast.make_packet(8, "224.0.0.7"))
        assert res.mcast_group == 5
        for port in (1, 2, 3):
            assert pipe.traffic_manager.queue_len(port) == 1
        assert pipe.traffic_manager.queue_len(0) == 0

    def test_non_group_traffic_unicast(self):
        pipe, sw = fresh()
        pipe.traffic_manager.set_mcast_group(5, [1, 2])
        tenant = sw.admit("multicast", multicast.P4_SOURCE, vid=8)
        multicast.install(tenant, groups=[("224.0.0.7", 5)])
        res = pipe.process(multicast.make_packet(8, "10.0.0.9"))
        assert res.mcast_group == 0


class TestRegistry:
    def test_all_eight_present(self):
        assert len(ALL_MODULES) == 8
        assert module_names() == [
            "calc", "firewall", "load_balancer", "qos", "source_routing",
            "netcache", "netchain", "multicast"]

    def test_lookup(self):
        assert module_by_name("calc") is calc
        with pytest.raises(KeyError):
            module_by_name("nope")

    def test_all_modules_compile(self):
        from repro.compiler import compile_module
        for mod in ALL_MODULES:
            compiled = compile_module(mod.P4_SOURCE, mod.NAME)
            assert compiled.table_order, mod.NAME


class TestBehaviorIsolationExperiments:
    """§5.1: run module trios concurrently; each behaves as if alone."""

    def load_trio_a(self):
        pipe, sw = fresh()
        tenant = sw.admit("calc", calc.P4_SOURCE, vid=1)
        calc.install(tenant, port=1)
        tenant = sw.admit("firewall", firewall.P4_SOURCE, vid=2)
        firewall.install(tenant, blocked=[("10.0.0.66", 53)],
                         allowed=[("10.0.0.1", 80, 4)])
        tenant = sw.admit("netcache", netcache.P4_SOURCE, vid=3)
        netcache.install(tenant, cached=[(0xAAAA, 0, 42)])
        return pipe, sw

    def test_calc_firewall_netcache_concurrently(self):
        pipe, _ = self.load_trio_a()
        # Interleave all three modules' traffic.
        for _round in range(3):
            r = pipe.process(calc.make_packet(1, calc.OP_ADD, 10, 5))
            assert calc.read_result(r.packet) == 15
            r = pipe.process(firewall.make_packet(2, "10.0.0.66", 53))
            assert r.dropped
            r = pipe.process(firewall.make_packet(2, "10.0.0.1", 80))
            assert r.egress_port == 4
            r = pipe.process(netcache.make_get(3, 0xAAAA))
            assert netcache.read_value(r.packet) == 42

    def test_trio_a_matches_solo_behavior(self):
        # Golden run: each module alone.
        solo_results = []
        for loader, pkt_maker, reader in [
            (lambda sw: calc.install(
                sw.admit("calc", calc.P4_SOURCE, vid=1)),
             lambda: calc.make_packet(1, calc.OP_SUB, 9, 4),
             lambda r: calc.read_result(r.packet)),
        ]:
            pipe, sw = fresh()
            loader(sw)
            solo_results.append(reader(pipe.process(pkt_maker())))
        # Mixed run.
        pipe, _ = self.load_trio_a()
        pipe.process(netcache.make_get(3, 0xAAAA))
        mixed = calc.read_result(
            pipe.process(calc.make_packet(1, calc.OP_SUB, 9, 4)).packet)
        pipe.process(firewall.make_packet(2, "10.0.0.66", 53))
        assert [mixed] == solo_results

    def test_lb_sourcerouting_netchain_concurrently(self):
        pipe, sw = fresh()
        tenant = sw.admit("lb", load_balancer.P4_SOURCE, vid=1)
        load_balancer.install(tenant, flows=[("10.0.0.1", 1111, 2, 8001)])
        tenant = sw.admit("sr", source_routing.P4_SOURCE, vid=2)
        source_routing.install(tenant)
        tenant = sw.admit("chain", netchain.P4_SOURCE, vid=3)
        netchain.install(tenant, port=6)

        for expected_seq in (1, 2, 3):
            r = pipe.process(load_balancer.make_packet(1, "10.0.0.1", 1111))
            assert r.egress_port == 2
            r = pipe.process(source_routing.make_packet(2, 7))
            assert r.egress_port == 7
            r = pipe.process(netchain.make_packet(3))
            assert netchain.read_seq(r.packet) == expected_seq


class TestWithSystemModule:
    def test_all_modules_compile_against_user_target(self):
        from repro.compiler import CompilerOptions, compile_module
        pipe, sw = fresh()
        sw.install_system(routes={"10.0.0.2": 3})
        target = sw.controller.compile_target()
        for mod in ALL_MODULES:
            compiled = compile_module(
                mod.P4_SOURCE, mod.NAME, CompilerOptions(target=target))
            assert set(compiled.stages_used()) <= {1, 2, 3}, mod.NAME

    def test_system_routing_applies_to_module_traffic(self):
        pipe, sw = fresh()
        sw.install_system(vip_map={"10.99.0.5": "10.0.0.2"},
                          routes={"10.0.0.2": 3})
        tenant = sw.admit("calc", calc.P4_SOURCE, vid=4)
        calc.install(tenant)
        from repro.modules.base import common_packet
        payload = (calc.OP_ADD.to_bytes(2, "big") + (40).to_bytes(4, "big")
                   + (2).to_bytes(4, "big") + (0).to_bytes(4, "big"))
        res = pipe.process(common_packet(4, payload, dst="10.99.0.5"))
        assert res.egress_port == 3  # system route decided the port
        assert calc.read_result(res.packet) == 42  # module logic ran too
        assert str(parse_layers(res.packet)["ipv4"].dst) == "10.0.0.2"

    def test_tenant_counters_per_module(self):
        pipe, sw = fresh()
        sw.install_system(
            vip_map={"10.99.0.5": "10.0.0.2", "10.99.0.6": "10.0.0.2"},
            routes={"10.0.0.2": 1})
        # counter_index defaults to 0 for both vips; use explicit indexes
        # through install order instead: re-install with indexes.
        pipe2, sw2 = fresh()
        sw2.install_system(
            routes={"10.0.0.2": 1}, vip_map={"10.99.0.5": "10.0.0.2"},
            counter_index={"10.99.0.5": 3})
        tenant = sw2.admit("calc", calc.P4_SOURCE, vid=4)
        calc.install(tenant)
        from repro.modules.base import common_packet
        payload = (calc.OP_ECHO.to_bytes(2, "big") + (1).to_bytes(4, "big")
                   + (0).to_bytes(4, "big") + (0).to_bytes(4, "big"))
        pipe2.process(common_packet(4, payload, dst="10.99.0.5"))
        pipe2.process(common_packet(4, payload, dst="10.99.0.5"))
        assert sw2.controller.register_read(0, "tenant_counters", 3) == 2
