"""Integration: the complete paper setup on one pipeline — system-level
module plus all eight evaluated modules, resident simultaneously."""

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
from repro.api import Switch


@pytest.fixture(scope="module")
def deployment():
    sw = Switch()
    pipe = sw.pipeline
    sw.install_system(routes={"10.0.0.2": 7})
    pipe.traffic_manager.set_mcast_group(5, [1, 2])

    tenant = sw.admit("calc", calc.P4_SOURCE, vid=1)
    calc.install(tenant, port=1)
    tenant = sw.admit("firewall", firewall.P4_SOURCE, vid=2)
    firewall.install(tenant, blocked=[("10.0.0.66", 53)],
                     allowed=[("10.0.0.1", 80, 2)])
    tenant = sw.admit("lb", load_balancer.P4_SOURCE, vid=3)
    load_balancer.install(tenant, flows=[("10.0.0.1", 1111, 3, 8001)])
    tenant = sw.admit("qos", qos.P4_SOURCE, vid=4)
    qos.install(tenant)
    tenant = sw.admit("srcroute", source_routing.P4_SOURCE, vid=5)
    source_routing.install(tenant)
    tenant = sw.admit("netcache", netcache.P4_SOURCE, vid=6)
    netcache.install(tenant, cached=[(0xAA, 0, 4242)])
    tenant = sw.admit("netchain", netchain.P4_SOURCE, vid=7)
    netchain.install(tenant, port=6)
    tenant = sw.admit("multicast", multicast.P4_SOURCE, vid=8)
    multicast.install(tenant, groups=[("224.0.0.7", 5)])
    return pipe, sw


class TestAllEightResident:
    def test_all_loaded(self, deployment):
        pipe, sw = deployment
        assert sw.controller.loaded_ids() == [1, 2, 3, 4, 5, 6, 7, 8]
        assert sw.controller.system_module is not None

    def test_modules_spread_across_user_stages(self, deployment):
        pipe, sw = deployment
        # All tables sit in the user stages {1,2,3}; the balancer must
        # have used more than one stage to fit 32 CAM rows of demand.
        stages_used = set()
        for loaded in sw.controller.modules.values():
            stages_used.update(loaded.compiled.stages_used())
        assert stages_used <= {1, 2, 3}
        assert len(stages_used) >= 2

    def test_no_partition_overlaps(self, deployment):
        pipe, sw = deployment
        for stage_idx in range(pipe.params.num_stages):
            taken = []
            for loaded in list(sw.controller.modules.values()) + \
                    [sw.controller.system_module]:
                alloc = loaded.allocation.stage(stage_idx)
                if alloc.match_count:
                    taken.append((loaded.module_id, alloc.match_start,
                                  alloc.match_end))
            taken.sort(key=lambda t: t[1])
            for (m1, s1, e1), (m2, s2, e2) in zip(taken, taken[1:]):
                assert e1 <= s2, (stage_idx, m1, m2)

    def test_every_module_behaves(self, deployment):
        # NOTE: every generated packet's destination (10.0.0.2) is routed
        # by the SYSTEM module's last-stage route table to port 7, which
        # overrides tenant PORT actions — the paper's design: the system
        # module owns physical routing; tenants only steer when the
        # system has no route (see the multicast case below).
        pipe, sw = deployment
        r = pipe.process(calc.make_packet(1, calc.OP_ADD, 20, 22))
        assert calc.read_result(r.packet) == 42
        assert r.egress_port == 7
        assert pipe.process(firewall.make_packet(2, "10.0.0.66", 53)).dropped
        r = pipe.process(firewall.make_packet(2, "10.0.0.1", 80))
        assert r.forwarded and r.egress_port == 7
        r = pipe.process(load_balancer.make_packet(3, "10.0.0.1", 1111))
        assert load_balancer.read_dport(r.packet) == 8001  # rewrite holds
        r = pipe.process(qos.make_packet(4, 5060))
        assert qos.read_dscp(r.packet) == qos.DSCP_EF
        r = pipe.process(source_routing.make_packet(5, 4))
        assert r.forwarded
        r = pipe.process(netcache.make_get(6, 0xAA))
        assert netcache.read_value(r.packet) == 4242
        seq1 = netchain.read_seq(
            pipe.process(netchain.make_packet(7)).packet)
        seq2 = netchain.read_seq(
            pipe.process(netchain.make_packet(7)).packet)
        assert seq2 == seq1 + 1
        # 224.0.0.7 has no system route: the tenant's mcast tag stands.
        r = pipe.process(multicast.make_packet(8, "224.0.0.7"))
        assert r.mcast_group == 5

    def test_interleaved_round_robin(self, deployment):
        pipe, sw = deployment
        # Two full interleaved rounds: behavior stays correct.
        for _ in range(2):
            assert calc.read_result(pipe.process(
                calc.make_packet(1, calc.OP_SUB, 9, 5)).packet) == 4
            assert pipe.process(
                firewall.make_packet(2, "10.0.0.66", 53)).dropped
            assert pipe.process(
                qos.make_packet(4, 9999)).forwarded
            assert netcache.read_value(pipe.process(
                netcache.make_get(6, 0xAA)).packet) == 4242

    def test_system_route_applies_to_every_module(self, deployment):
        pipe, sw = deployment
        # A packet to the routed physical IP gets the system port, no
        # matter which module owns the packet.
        from repro.modules.base import common_packet
        payload = (calc.OP_ECHO.to_bytes(2, "big") + (5).to_bytes(4, "big")
                   + bytes(8))
        r = pipe.process(common_packet(1, payload, dst="10.0.0.2"))
        assert r.egress_port == 7

    def test_unload_one_reload_another(self, deployment):
        pipe, sw = deployment
        sw.controller.unload_module(4)
        assert pipe.process(qos.make_packet(4, 5060)).dropped
        tenant = sw.admit("qos", qos.P4_SOURCE, vid=4)
        qos.install(tenant)
        r = pipe.process(qos.make_packet(4, 5060))
        assert qos.read_dscp(r.packet) == qos.DSCP_EF
