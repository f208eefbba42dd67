"""Egress scheduling: weighted-fair bandwidth isolation on the serving
path (§3.5), rate limiting, and the facade/timeline wiring.

Covers the :class:`repro.engine.scheduler.EgressScheduler` subsystem
end-to-end — PIFO/STFQ fairness, token-bucket rate caps, per-tenant
order preservation, the real-time statistics feed, `Tenant.set_weight`
/ `Tenant.set_rate_limit`, and departure latencies through
`sim/timeline.py` — plus the PIFO-layer edges the scheduler depends on.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Switch, Tenant
from repro.core import MenshenPipeline, PipelineStats
from repro.engine import EgressScheduler, TokenBucket
from repro.errors import ConfigError
from repro.modules import calc
from repro.net import PacketBuilder
from repro.rmt import TrafficManager
from repro.runtime import MenshenController
from repro.sim import ReconfigTimelineExperiment
from repro.traffic import workload
from seeds import rng as make_rng


def pkt(size=200, vid=1):
    return (PacketBuilder().ethernet().vlan(vid=vid).ipv4().udp()
            .payload(b"\x00" * (size - 46)).build())


def vid_of(packet):
    return packet.read_int(14, 2) & 0xFFF


class TestTokenBucket:
    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(1000.0, burst_bytes=500.0)
        bucket.consume(500, 0.0)
        bucket.refill(10.0)  # 10 s x 1000 B/s >> burst
        assert bucket.tokens == 500.0

    def test_eligible_at_future_deficit(self):
        bucket = TokenBucket(100.0, burst_bytes=100.0)
        bucket.consume(100, 0.0)
        # 50 bytes short -> eligible 0.5 s later at 100 B/s.
        assert bucket.eligible_at(50, 0.0) == pytest.approx(0.5)
        assert bucket.eligible_at(50, 1.0) == pytest.approx(1.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            TokenBucket(0.0)
        with pytest.raises(ConfigError):
            TokenBucket(100.0, burst_bytes=-1.0)


class TestEgressSchedulerFairness:
    def test_weighted_fair_sharing_under_backlog(self):
        sched = EgressScheduler(num_ports=1,
                                weights={1: 5.0, 2: 3.0, 3: 2.0})
        for _ in range(300):
            for vid in (1, 2, 3):
                sched.enqueue(pkt(200, vid), 0, module_id=vid)
        served = sched.drain_bytes(0, budget_bytes=200 * 100)
        total = sum(served.values())
        assert served[1] / total == pytest.approx(0.5, abs=0.05)
        assert served[2] / total == pytest.approx(0.3, abs=0.05)
        assert served[3] / total == pytest.approx(0.2, abs=0.05)

    def test_bursty_elephant_cannot_starve_mouse(self):
        # The bug this subsystem fixes: an elephant's backlog used to
        # drain first out of the per-port FIFO (see the FIFO-contrast
        # test in test_pifo_cuckoo.py).
        sched = EgressScheduler(num_ports=1)
        for _ in range(500):
            sched.enqueue(pkt(200, 9), 0, module_id=9)
        for _ in range(50):
            sched.enqueue(pkt(200, 1), 0, module_id=1)
        served = sched.drain_bytes(0, budget_bytes=200 * 80)
        assert served.get(1, 0) >= 200 * 35

    def test_per_tenant_order_never_disturbed(self):
        # Random interleave, random sizes: across tenants the scheduler
        # may reorder, within one tenant never.
        rng = make_rng(7)
        sched = EgressScheduler(num_ports=1, weights={1: 4.0, 2: 1.0})
        sent = {1: [], 2: []}
        for _ in range(400):
            vid = rng.choice((1, 1, 1, 2))
            p = pkt(rng.choice((100, 200, 400, 1500)), vid)
            sent[vid].append(p.tobytes())
            sched.enqueue(p, 0, module_id=vid)
        drained = sched.drain(0)
        got = {1: [], 2: []}
        for p in drained:
            got[vid_of(p)].append(p.tobytes())
        assert got == sent

    def test_weight_change_applies_to_new_packets(self):
        sched = EgressScheduler(num_ports=1)
        sched.set_weight(1, 9.0)
        sched.set_weight(2, 1.0)
        for _ in range(200):
            sched.enqueue(pkt(200, 1), 0, module_id=1)
            sched.enqueue(pkt(200, 2), 0, module_id=2)
        served = sched.drain_bytes(0, budget_bytes=200 * 100)
        assert served[1] / (served[1] + served[2]) \
            == pytest.approx(0.9, abs=0.05)

    def test_bad_weight_rejected(self):
        sched = EgressScheduler()
        with pytest.raises(ConfigError):
            sched.set_weight(1, 0.0)

    def test_port_bounds(self):
        sched = EgressScheduler(num_ports=1)
        with pytest.raises(ConfigError):
            sched.enqueue(pkt(), 1, module_id=1)
        with pytest.raises(ConfigError):
            sched.dequeue(5)


class TestEgressSchedulerTelemetry:
    def test_bytes_out_counts_at_dequeue(self):
        sched = EgressScheduler(num_ports=2)
        sched.enqueue(pkt(100, 1), 0, module_id=1)
        sched.enqueue(pkt(300, 2), 1, module_id=2)
        assert sched.bytes_out == [0, 0]
        sched.drain_all()
        assert sched.bytes_out == [100, 300]

    def test_capacity_drops_per_tenant(self):
        sched = EgressScheduler(num_ports=1, queue_capacity=2)
        assert sched.enqueue(pkt(100, 1), 0, module_id=1) == 1
        assert sched.enqueue(pkt(100, 2), 0, module_id=2) == 1
        assert sched.enqueue(pkt(100, 2), 0, module_id=2) == 0
        assert sched.dropped == 1
        assert sched.tenant(2).dropped == 1
        assert sched.tenant(1).dropped == 0

    def test_queue_depth_and_transmitted_bytes(self):
        sched = EgressScheduler(num_ports=2)
        for _ in range(3):
            sched.enqueue(pkt(100, 7), 0, module_id=7)
        sched.enqueue(pkt(100, 7), 1, module_id=7)
        assert sched.queue_depth(7) == 4
        sched.dequeue(0)
        assert sched.queue_depth(7) == 3
        assert sched.transmitted_bytes(7) == 100

    def test_feeds_pipeline_stats(self):
        stats = PipelineStats()
        sched = EgressScheduler(num_ports=1, stats=stats)
        sched.enqueue(pkt(150, 3), 0, module_id=3)
        sched.enqueue(pkt(150, 3), 0, module_id=3)
        assert stats.egress_queue_depth[3] == 2
        assert stats.egress_bytes_tx.get(3, 0) == 0
        sched.dequeue(0)
        assert stats.egress_queue_depth[3] == 1
        assert stats.egress_bytes_tx[3] == 150

    def test_mcast_replication_and_unknown_group(self):
        sched = EgressScheduler(num_ports=4)
        sched.set_mcast_group(5, [0, 2])
        assert sched.enqueue(pkt(100, 1), 0, mcast_group=5,
                             module_id=1) == 2
        assert sched.queue_len(0) == 1 and sched.queue_len(2) == 1
        assert sched.enqueue(pkt(100, 1), 0, mcast_group=9,
                             module_id=1) == 0
        assert sched.dropped == 1
        assert sched.mcast_ports(5) == [0, 2]
        assert sched.mcast_groups() == {5: [0, 2]}


class TestRateLimiting:
    def test_rate_cap_holds_over_time(self):
        # 10 Mbit/s link; tenant 1 capped at 125 kB/s (1 Mbit/s).
        sched = EgressScheduler(num_ports=1, line_rate_bps=10e6)
        sched.set_rate_limit(1, 125_000.0, burst_bytes=1500.0)
        for _ in range(2000):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
        horizon = 4.0
        departures = sched.advance_to(horizon)
        served = sum(len(d.packet) for d in departures)
        # burst + rate x horizon, within one packet of slack
        assert served <= 1500 + 125_000 * horizon + 1000
        assert served >= 125_000 * horizon * 0.9

    def test_throttled_tenant_is_overtaken_not_blocking(self):
        sched = EgressScheduler(num_ports=1, line_rate_bps=10e6)
        sched.set_rate_limit(1, 1000.0, burst_bytes=1000.0)
        for _ in range(10):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
            sched.enqueue(pkt(1000, 2), 0, module_id=2)
        # Tenant 1 can emit exactly one packet (its burst); tenant 2 is
        # unlimited and must not wait behind tenant 1's backlog.
        departures = sched.advance_to(0.01)
        by_vid = {}
        for d in departures:
            by_vid[d.module_id] = by_vid.get(d.module_id, 0) + 1
        assert by_vid[2] == 10
        assert by_vid.get(1, 0) == 1
        # throttled_waits counts *packets* delayed by the rate limiter,
        # not scheduler scans: exactly one head packet waited here.
        assert sched.tenant(1).throttled_waits == 1

    def test_unlimited_share_goes_to_uncapped_tenant(self):
        # Elephant capped at 10% of the link; mouse takes the rest.
        line = 8e6  # 1 MB/s
        sched = EgressScheduler(num_ports=1, line_rate_bps=line)
        sched.set_rate_limit(1, 100_000.0, burst_bytes=1500.0)
        for _ in range(3000):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
            sched.enqueue(pkt(1000, 2), 0, module_id=2)
        sched.advance_to(2.0)
        tx1 = sched.transmitted_bytes(1)
        tx2 = sched.transmitted_bytes(2)
        assert tx1 <= 1500 + 100_000 * 2.0 + 1000
        assert tx2 >= 0.8 * (2.0 * line / 8 - tx1)

    def test_drain_idles_clock_when_everyone_throttled(self):
        sched = EgressScheduler(num_ports=1)
        sched.set_rate_limit(1, 1000.0, burst_bytes=1000.0)
        for _ in range(3):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
        drained = sched.drain(0)
        assert len(drained) == 3  # rate caps delay, never drop
        # Two extra packets had to wait one refill-second each.
        assert sched.clock == pytest.approx(2.0)

    def test_clear_rate_limit(self):
        sched = EgressScheduler(num_ports=1)
        sched.set_rate_limit(1, 1000.0)
        assert sched.rate_limit_of(1) == 1000.0
        sched.clear_rate_limit(1)
        assert sched.rate_limit_of(1) is None

    def test_invalid_line_rate_rejected(self):
        with pytest.raises(ConfigError):
            EgressScheduler(line_rate_bps=0.0)

    def test_ports_transmit_in_parallel(self):
        # Output links are independent: a backlog on port 0 must not
        # delay (or rate-share with) departures on port 1.
        sched = EgressScheduler(num_ports=2, line_rate_bps=8e6)  # 1 MB/s
        for _ in range(10):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
            sched.enqueue(pkt(1000, 2), 1, module_id=2)
        departures = sched.advance_to(0.0105)  # 10 packet-times + slack
        by_port = {}
        for d in departures:
            by_port[d.port] = by_port.get(d.port, 0) + 1
        assert by_port == {0: 10, 1: 10}
        assert sched.port_clock[0] == pytest.approx(0.0105)
        assert sched.port_clock[1] == pytest.approx(0.0105)
        # Per-port completion times interleave, not serialize.
        first = departures[0]
        assert first.time == pytest.approx(0.001)
        times_p0 = sorted(d.time for d in departures if d.port == 0)
        times_p1 = sorted(d.time for d in departures if d.port == 1)
        assert times_p0 == pytest.approx(times_p1)


class TestFacadeWiring:
    def build(self):
        switch = Switch.build().create()
        spec = workload("firewall")
        t1 = spec.admit(switch, vid=1)
        t2 = spec.admit(switch, vid=2)
        return switch, spec, t1, t2

    def test_engine_installs_scheduler_by_default(self):
        switch, spec, t1, t2 = self.build()
        assert switch.egress_scheduler is None
        switch.engine()
        assert switch.egress_scheduler is not None
        assert switch.pipeline.traffic_manager is switch.egress_scheduler

    def test_scheduled_false_keeps_fifo(self):
        switch, *_ = self.build()
        switch.engine(scheduled=False)
        assert switch.egress_scheduler is None
        assert isinstance(switch.pipeline.traffic_manager, TrafficManager)

    def test_weights_set_before_engine_apply_at_install(self):
        switch, spec, t1, t2 = self.build()
        t1.set_weight(3.0).set_rate_limit(50_000.0, burst_bytes=2000.0)
        engine = switch.engine()
        sched = switch.egress_scheduler
        assert sched.weight_of(1) == 3.0
        assert sched.rate_limit_of(1) == 50_000.0
        assert sched.weight_of(2) == 1.0

    def test_live_weight_and_rate_updates(self):
        switch, spec, t1, t2 = self.build()
        switch.engine()
        t2.set_weight(7.0)
        t2.set_rate_limit(10_000.0)
        assert switch.egress_scheduler.weight_of(2) == 7.0
        assert switch.egress_scheduler.rate_limit_of(2) == 10_000.0
        t2.clear_rate_limit()
        assert switch.egress_scheduler.rate_limit_of(2) is None

    def test_invalid_weight_and_rate_raise(self):
        switch, spec, t1, t2 = self.build()
        with pytest.raises(ValueError):
            t1.set_weight(-1.0)
        with pytest.raises(ValueError):
            t1.set_rate_limit(0.0)

    def test_mcast_groups_survive_scheduler_install(self):
        switch, *_ = self.build()
        switch.pipeline.traffic_manager.set_mcast_group(4, [0, 3])
        switch.engine()
        assert switch.egress_scheduler.mcast_ports(4) == [0, 3]

    def test_queued_packets_survive_scheduler_install(self):
        switch, spec, t1, t2 = self.build()
        switch.process(spec.flow_packet(1, 1))  # flow 1 is allowed
        switch.process(spec.flow_packet(2, 2))  # flow 2 -> tenant 2
        assert switch.pipeline.traffic_manager.total_queued() == 2
        switch.engine()
        scheduler = switch.egress_scheduler
        assert scheduler.total_queued() == 2
        # Carried-over packets keep their owner's attribution (weight,
        # rate limit, queue-depth accounting), read from the VLAN tag.
        assert scheduler.queue_depth(1) == 1
        assert scheduler.queue_depth(2) == 1
        assert scheduler.queue_depth(0) == 0

    def test_engine_twice_reuses_scheduler(self):
        switch, *_ = self.build()
        switch.engine()
        first = switch.egress_scheduler
        switch.engine(line_rate_bps=1e9)
        assert switch.egress_scheduler is first
        assert first.line_rate_bps == 1e9  # upgraded in place

    def test_tenant_counters_carry_egress_stats(self):
        switch, spec, t1, t2 = self.build()
        engine = switch.engine()
        engine.process_batch([spec.flow_packet(1, 1) for _ in range(4)])
        counters = t1.counters()
        assert counters.egress_queue_depth == 4
        assert counters.egress_bytes_tx == 0
        switch.egress_scheduler.drain_all()
        counters = t1.counters()
        assert counters.egress_queue_depth == 0
        assert counters.egress_bytes_tx > 0
        assert t1.scheduler_counters().transmitted == 4

    def test_tenant_stats_report_egress_section(self):
        switch, spec, t1, t2 = self.build()
        switch.engine()
        t1.set_weight(2.5)
        report = t1.stats()
        assert report["egress"]["weight"] == 2.5
        assert report["egress"]["rate_limit_bytes_per_s"] is None


class TestTimelineLatency:
    def build(self, weights):
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        switch = Switch(controller=ctl)
        for vid in (1, 2):
            ctl.load_module(vid, calc.P4_SOURCE, f"calc{vid}")
            calc.install(Tenant.attach(ctl, vid), port=1)
        for vid, w in weights.items():
            switch.tenant(vid).set_weight(w)
        engine = switch.engine(line_rate_bps=5e9)
        exp = ReconfigTimelineExperiment(pipe, duration_s=1.0, bin_s=0.1,
                                         scale=2000.0, engine=engine)
        # Two tenants offering 4 Gbit/s each into a 5 Gbit/s link:
        # sustained contention on the shared egress.
        for vid in (1, 2):
            exp.add_module(
                vid, 4e9, 1500,
                lambda vid=vid: calc.make_packet(vid, calc.OP_ADD, 1, 2,
                                                 pad_to=1500))
        return exp

    def test_latencies_measured_under_contention(self):
        exp = self.build({1: 1.0, 2: 1.0})
        result = exp.run()
        assert result.latencies_s[1] and result.latencies_s[2]
        assert result.mean_latency_s(1) > 0.0
        assert result.max_latency_s(1) >= result.mean_latency_s(1)

    def test_heavier_weight_means_lower_latency(self):
        exp = self.build({1: 8.0, 2: 1.0})
        result = exp.run()
        assert result.mean_latency_s(1) < result.mean_latency_s(2)

    def test_fifo_timeline_has_no_latencies(self):
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        ctl.load_module(1, calc.P4_SOURCE, "calc1")
        calc.install(Tenant.attach(ctl, 1), port=1)
        exp = ReconfigTimelineExperiment(pipe, duration_s=0.2, bin_s=0.1)
        exp.add_module(1, 1e9, 1500,
                       lambda: calc.make_packet(1, calc.OP_ADD, 1, 2,
                                                pad_to=1500))
        result = exp.run()
        assert result.latencies_s == {}


class TestEventDrivenClockSemantics:
    """The advance_to / next_departure_at contract the fabric timeline
    (and the timeline drain loop) depend on."""

    def test_committed_transmission_is_not_redelayed(self):
        # A busy port polled by frequent small advances must not slip:
        # the next transmission's start is committed, so many
        # advance_to calls during it leave the finish time unchanged.
        sched = EgressScheduler(num_ports=1, line_rate_bps=1e3)
        sched.enqueue(pkt(size=1000), 0, module_id=1)  # tx = 8 s
        finish = sched.next_departure_at(0)
        assert finish == pytest.approx(8.0)
        for i in range(100):
            assert sched.advance_to(0.01 * (i + 1)) == []
        deps = sched.advance_to(8.0)
        assert [d.time for d in deps] == [pytest.approx(8.0)]

    def test_next_departure_guarantees_drain_progress(self):
        # Regression: tx time >> step size. Stepping the clock by a
        # fixed bin can serve nothing forever; stepping to
        # next_departure_at always completes the head packet.
        sched = EgressScheduler(num_ports=2, line_rate_bps=1e3)
        sched.enqueue(pkt(size=1000, vid=1), 0, module_id=1)
        sched.enqueue(pkt(size=1000, vid=2), 1, module_id=2)
        bin_s = 1.0  # < 8 s transmission time
        rounds = 0
        while sched.total_queued():
            rounds += 1
            assert rounds < 10, "drain loop made no progress"
            horizon = sched.clock + bin_s
            nexts = [sched.next_departure_at(p) for p in range(2)]
            nexts = [t for t in nexts if t is not None]
            if nexts:
                horizon = max(horizon, min(nexts))
            sched.advance_to(horizon)

    def test_idle_port_clock_still_reaches_now(self):
        sched = EgressScheduler(num_ports=1, line_rate_bps=1e9)
        sched.advance_to(5.0)
        assert sched.port_clock[0] == 5.0
        sched.enqueue(pkt(size=1000), 0, module_id=1)
        # the packet arrived while the port idled at t=5: it cannot
        # depart earlier than that
        assert sched.next_departure_at(0) > 5.0

    def test_per_port_rates_pace_independently(self):
        sched = EgressScheduler(num_ports=2, line_rate_bps=1e9)
        sched.set_port_rate(1, 1e6)  # a slow link on port 1
        sched.enqueue(pkt(size=1000, vid=1), 0, module_id=1)
        sched.enqueue(pkt(size=1000, vid=2), 1, module_id=2)
        assert sched.next_departure_at(0) == pytest.approx(8e-6)
        assert sched.next_departure_at(1) == pytest.approx(8e-3)
        assert sched.port_rate_of(0) == 1e9
        assert sched.port_rate_of(1) == 1e6
        with pytest.raises(ConfigError):
            sched.set_port_rate(0, -1.0)


# ---------------------------------------------------------------------------
# running gauges and the dirty-port contract, over random operations
# ---------------------------------------------------------------------------

GAUGE_PORTS = 3
GAUGE_VIDS = (1, 2, 3)

_vids = st.sampled_from(GAUGE_VIDS)
_ports = st.integers(0, GAUGE_PORTS - 1)
_sizes = st.sampled_from((64, 300, 1500))

#: One scheduler operation; every mutation path the gauges and the
#: dirty set must follow.
gauge_ops = st.one_of(
    st.tuples(st.just("enqueue"), _vids, _ports, _sizes),
    st.tuples(st.just("multicast"), _vids, _sizes),
    st.tuples(st.just("advance"),
              st.sampled_from((0.0, 1e-5, 2e-4, 5e-4, 3e-3))),
    st.tuples(st.just("dequeue"), _ports),
    st.tuples(st.just("drain"), _ports),
    st.tuples(st.just("purge"), _vids),
    st.tuples(st.just("drop_queued")),
    st.tuples(st.just("rate_limit"), _vids,
              st.sampled_from((2e4, 1e5, 1e6)),
              st.sampled_from((None, 1500.0, 4000.0))),
    st.tuples(st.just("clear_rate_limit"), _vids),
    st.tuples(st.just("port_rate"), _ports, st.sampled_from((1e6, 8e6))),
    st.tuples(st.just("line_rate"), st.sampled_from((2e6, 8e6))),
)


def _apply_gauge_op(sched, op, clock):
    """Apply one op; returns the (monotone) time the next advance
    starts from."""
    kind = op[0]
    if kind == "enqueue":
        _, vid, port, size = op
        sched.enqueue(pkt(size=size, vid=vid), port, module_id=vid)
    elif kind == "multicast":
        _, vid, size = op
        sched.enqueue(pkt(size=size, vid=vid), 0, mcast_group=1,
                      module_id=vid)
    elif kind == "advance":
        clock = max(clock, sched.clock) + op[1]
        sched.advance_to(clock)
    elif kind == "dequeue":
        sched.dequeue(op[1])
    elif kind == "drain":
        sched.drain(op[1])
    elif kind == "purge":
        sched.purge(op[1])
    elif kind == "drop_queued":
        sched.drop_queued()
    elif kind == "rate_limit":
        _, vid, rate, burst = op
        sched.set_rate_limit(vid, rate, burst)
    elif kind == "clear_rate_limit":
        sched.clear_rate_limit(op[1])
    elif kind == "port_rate":
        sched.set_port_rate(op[1], op[2])
    elif kind == "line_rate":
        sched.line_rate_bps = op[1]
    return clock


class TestRunningGaugesAndDirtyPorts:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(gauge_ops, min_size=1, max_size=40))
    # Pinned token-bucket cases, each hinging on one marking path:
    # serving one multicast copy drains the bucket the other copy's
    # port consults;
    @example([("rate_limit", 1, 2e4, 1500.0), ("multicast", 1, 1500),
              ("dequeue", 0)])
    # a fresh (full) bucket replaces a drained one under a queued head;
    @example([("rate_limit", 1, 2e4, 1500.0), ("enqueue", 1, 0, 1500),
              ("enqueue", 1, 0, 1500), ("dequeue", 0),
              ("rate_limit", 1, 2e4, 1500.0)])
    # a throttled head is uncapped;
    @example([("rate_limit", 1, 2e4, 1500.0), ("enqueue", 1, 0, 1500),
              ("enqueue", 1, 0, 1500), ("dequeue", 0),
              ("clear_rate_limit", 1)])
    # an advance refills a throttled small head, which then overtakes
    # another tenant's committed (slow, large) transmission;
    @example([("rate_limit", 1, 2e4, 1500.0), ("enqueue", 2, 0, 1500),
              ("enqueue", 1, 0, 1500), ("dequeue", 0), ("dequeue", 0),
              ("port_rate", 0, 1e6), ("enqueue", 1, 0, 64),
              ("enqueue", 2, 0, 1500), ("advance", 3e-3)])
    # a query at an advanced port clock refills a bucket that another
    # port's queued copy consults;
    @example([("rate_limit", 1, 2e4, 1500.0), ("multicast", 1, 1500),
              ("dequeue", 2), ("multicast", 1, 1500),
              ("port_rate", 1, 8e6)])
    # the clock idles forward to a throttled head's committed start
    # while its bucket is already refilled past that instant.
    @example([("enqueue", 2, 1, 1500), ("drain", 1),
              ("rate_limit", 1, 2e4, 1500.0), ("enqueue", 1, 0, 64),
              ("enqueue", 1, 0, 1500), ("dequeue", 0), ("advance", 0.0)])
    def test_gauges_recount_and_clean_ports_keep_their_answer(self, ops):
        stats = PipelineStats()
        sched = EgressScheduler(num_ports=GAUGE_PORTS, queue_capacity=4,
                                line_rate_bps=8e6, stats=stats)
        sched.set_mcast_group(1, [0, 2])
        last = [None] * GAUGE_PORTS   # every port starts idle
        clock = 0.0
        for op in ops:
            clock = _apply_gauge_op(sched, op, clock)

            # Running counters == a brute-force recount of the FIFOs.
            fifos = [state.fifos for state in sched._ports]
            for vid in GAUGE_VIDS:
                depth = sum(len(f.get(vid, ())) for f in fifos)
                assert sched.queue_depth(vid) == depth, (op, vid)
                assert stats.egress_queue_depth.get(vid, 0) == depth, \
                    (op, vid)
            for port in range(GAUGE_PORTS):
                assert sched.queue_len(port) == sum(
                    len(q) for q in fifos[port].values()), (op, port)
            assert sched.total_queued() == sum(
                len(q) for f in fifos for q in f.values())

            # Dirty contract: a port left out of take_dirty() answers
            # exactly as it did when last asked. (A query may itself
            # refill a token bucket and so dirty another port; such a
            # port is reported by the *next* take_dirty().)
            dirty = set(sched.take_dirty())
            for port in range(GAUGE_PORTS):
                answer = sched.next_departure_at(port)
                if port not in dirty and port not in sched._dirty:
                    assert answer == last[port], (op, port)
                last[port] = answer
