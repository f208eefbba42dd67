"""The unified execution core (:mod:`repro.exec`).

The packet-for-packet equivalence of the refactored frontends is
enforced by the existing differential suites
(``tests/test_fabric_differential.py``,
``tests/test_engine_differential.py``); this file covers the core's
own surface — departure routing against stub topologies, the timing
policies' guard rails — and the unified lost-traffic reporting: the
untimed wave path and the event-driven timeline must report the *same*
typed :class:`repro.exec.LostRecord` set for the same dropped traffic.
"""

from types import SimpleNamespace

import pytest

from repro.api import Switch
from repro.errors import FabricError
from repro.exec import (
    ExecutionCore,
    ExecutionSink,
    LostRecord,
    summarize_lost,
    vid_of,
)
from repro.fabric import leaf_spine
from repro.modules import calc
from repro.net.packet import Packet
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix

PACKET_SIZE = 1000
HOSTS = 4


# ---------------------------------------------------------------- stubs

class _RecordingSink(ExecutionSink):
    def __init__(self):
        self.delivered = []
        self.lost = []

    def on_deliver(self, member, port, vid, packet, time):
        self.delivered.append((member, port, vid, time))

    def on_lost(self, member, port, vid, packet, link, time):
        self.lost.append((member, port, vid, link, time))


class _StubLink:
    def __init__(self, name="leafA:1—leafB:2", up=True, delay_s=2e-6):
        self.name = name
        self.up = up
        self.delay_s = delay_s
        self.recorded = []

    def record(self, vid, nbytes):
        self.recorded.append((vid, nbytes))

    def other_end(self, _name):
        return SimpleNamespace(switch="leafB", port=2)


def _stub_member(links):
    return SimpleNamespace(name="leafA", links=links, engine=None,
                           scheduler=None, num_ports=4)


def _packet(vid=1, i=0):
    return calc.make_packet(vid, calc.OP_ADD, i, i + 1,
                            pad_to=PACKET_SIZE)


# ---------------------------------------------------------------- routing

class TestRouting:
    def test_host_port_delivers(self):
        sink = _RecordingSink()
        member = _stub_member(links={})
        core = ExecutionCore([member], sink=sink)
        assert core.route(member, 3, _packet(), vid=1, time=0.5) is None
        assert sink.delivered == [("leafA", 3, 1, 0.5)]

    def test_down_link_loses_with_link_name(self):
        sink = _RecordingSink()
        link = _StubLink(up=False)
        member = _stub_member(links={1: link})
        core = ExecutionCore([member], sink=sink)
        assert core.route(member, 1, _packet(), vid=7) is None
        assert sink.lost == [("leafA", 1, 7, link.name, 0.0)]
        assert link.recorded == []  # lost traffic carries no bytes

    def test_up_link_forwards_with_rewrite_and_accounting(self):
        link = _StubLink(up=True, delay_s=3e-6)
        member = _stub_member(links={1: link})
        core = ExecutionCore([member])
        packet = _packet(vid=5)
        target = core.route(member, 1, packet, vid=5, time=1.0)
        assert target == ("leafB", packet, 1.0 + 3e-6)
        assert packet.ingress_port == 2  # remote end's port
        assert link.recorded == [(5, len(packet))]

    def test_timed_forwarding_without_a_simulator_is_an_error(self):
        member = _stub_member(links={1: _StubLink()})
        core = ExecutionCore([member])  # sim=None
        dep = SimpleNamespace(port=1, packet=_packet(), module_id=1,
                              time=0.0)
        with pytest.raises(FabricError, match="no simulator"):
            core.route_departures(member, [dep])

    def test_unknown_member_is_a_typed_error(self):
        core = ExecutionCore([_stub_member(links={})])
        with pytest.raises(FabricError, match="stranger"):
            core.member("stranger")

    def test_vid_of_falls_back_to_system_vid(self):
        assert vid_of(Packet(bytes(64))) == 0
        assert vid_of(_packet(vid=9)) == 9


class TestAdapters:
    def test_default_sink_observes_nothing(self):
        sink = ExecutionSink()  # every hook is a no-op
        sink.on_result("m", None)
        sink.on_drop(1)
        sink.on_deliver("m", 0, 1, _packet(), 0.0)
        sink.on_lost("m", 0, 1, _packet(), "l", 0.0)


class TestSummarizeLost:
    def test_aggregates_and_orders(self):
        records = summarize_lost([(2, "l1"), (1, "l0"), (2, "l1"),
                                  (1, "l1")])
        assert records == [LostRecord(1, "l0", 1), LostRecord(1, "l1", 1),
                           LostRecord(2, "l1", 2)]


# ------------------------------------------- lost-record unification gate

def _lossy_fabric():
    """2-leaf/1-spine with one tenant whose uplink fails post-placement."""
    fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=HOSTS)
    tenant = fabric.tenant(
        "calc", calc.P4_SOURCE, vid=1,
        installer=lambda t, port: calc.install(t, port=port))
    tenant.place(("leaf0", 0), ("leaf1", 1))
    fabric.set_link_state("leaf0", "spine0", up=False)
    return fabric


class TestLostRecordUnification:
    """The satellite contract: both serving paths, one loss shape."""

    N = 20

    def test_wave_and_timeline_paths_agree_on_dropped_traffic(self):
        # Untimed waves.
        wave_result = _lossy_fabric().process_batch(
            [("leaf0", _packet(i=i)) for i in range(self.N)])
        # Event-driven timeline offering exactly N packets: one demand,
        # phase = gap/2, so floor((duration - gap/2)/gap) + 1 = N.
        pps = 1e6
        matrix = TrafficMatrix()
        matrix.add(1, ("leaf0", 0), ("leaf1", 1),
                   offered_bps=pps * (PACKET_SIZE + 24) * 8,
                   packet_size=PACKET_SIZE,
                   make_packet=lambda: _packet())
        timeline_result = FabricTimelineExperiment(
            _lossy_fabric(), matrix, duration_s=self.N / pps).run()

        expected = [LostRecord(vid=1, link="leaf0:4—spine0:0",
                               count=self.N)]
        assert wave_result.lost_records() == expected
        assert timeline_result.lost_records() == expected
        # and the legacy shapes stay consistent with the typed one
        assert len(wave_result.lost_for(1)) == self.N
        assert timeline_result.lost[1] == self.N

    def test_healthy_run_reports_no_lost_records(self):
        fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=HOSTS)
        tenant = fabric.tenant(
            "calc", calc.P4_SOURCE, vid=1,
            installer=lambda t, port: calc.install(t, port=port))
        tenant.place(("leaf0", 0), ("leaf1", 1))
        result = fabric.process_batch(
            [("leaf0", _packet(i=i)) for i in range(4)])
        assert result.lost_records() == []
        assert len(result.delivered_for(1)) == 4

# ------------------------------------------ dirty-port service differential

class FullScanCore(ExecutionCore):
    """Test oracle: after every hop, query *every* port's next departure
    (the scan the core ran before it tracked dirty ports) and schedule
    from that. The production core must produce the same events.

    On the way it checks the scheduler's side of the bargain: a port
    left out of ``take_dirty()`` must answer exactly as it did on the
    previous scan — otherwise some mutation forgot to mark it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answers = {}

    def schedule_services(self, member) -> None:
        scheduler = member.scheduler
        dirty = set(scheduler.take_dirty())
        for port in range(member.num_ports):
            at = scheduler.next_departure_at(port)
            key = (member.name, port)
            if port not in dirty and key in self.answers:
                assert at == self.answers[key], (
                    f"{key} changed from {self.answers[key]} to {at} "
                    f"at t={self.sim.now} without being marked dirty")
            self.answers[key] = at
            if at is None:
                continue
            if key in self._pending and self._pending[key] <= at + 1e-15:
                continue
            self._pending[key] = at
            self.sim.schedule(max(0.0, at - self.sim.now),
                              lambda m=member, p=port, t=at:
                              self._service(m, p, t))


#: vid -> packet size; mixed, so which head a port picks moves its
#: next departure.
DIFF_SIZES = {1: 600, 2: 200, 3: 900, 5: 400, 6: 1200}
DIFF_DURATION = 4e-3


def _diff_fabric():
    """2 leaves x 2 spines; 1 Gbit/s spine links under 3 Gbit/s host
    ports, so uplinks congest and host and spine ports pace at
    different rates."""
    from repro.fabric.topology import Fabric

    fabric = Fabric(default_link_rate_bps=1e9, host_rate_bps=3e9)
    for leaf in ("leaf0", "leaf1"):
        fabric.add_switch(leaf, builder=Switch.build().ports(HOSTS + 2))
    for spine in ("spine0", "spine1"):
        fabric.add_switch(spine, builder=Switch.build().ports(2))
    for i, leaf in enumerate(("leaf0", "leaf1")):
        for j, spine in enumerate(("spine0", "spine1")):
            fabric.connect(leaf, HOSTS + j, spine, i, delay_s=2e-6)
    return fabric


def _diff_tenants(fabric, matrix, specs):
    """``specs``: (vid, src leaf, dst leaf, spine, offered Gbit/s)."""
    tenants = {}
    for vid, src, dst, spine, gbps in specs:
        tenant = fabric.tenant(
            f"calc{vid}", calc.P4_SOURCE, vid=vid,
            installer=lambda t, port: calc.install(t, port=port))
        tenant.place((src, vid % HOSTS), (dst, vid % HOSTS), via=(spine,))
        size = DIFF_SIZES[vid]
        matrix.add(vid, (src, vid % HOSTS), (dst, vid % HOSTS),
                   offered_bps=gbps * 1e9, packet_size=size,
                   make_packet=lambda vid=vid, size=size: calc.make_packet(
                       vid, calc.OP_ADD, vid, 1, pad_to=size))
        tenants[vid] = tenant
    return tenants


def _write_then_serve(experiment, switch, t, action):
    """At ``t``, apply a control-plane write on ``switch`` and run a
    service pass there at once — before the next packet event can
    dirty its ports for other reasons, so the pass sees exactly which
    ports the write itself marked."""

    def fire():
        action()
        experiment.core.schedule_services(experiment.fabric.switch(switch))

    experiment.schedule_reconfig(0, t, apply=fire)


def _scenario_stfq_weights():
    fabric, matrix = _diff_fabric(), TrafficMatrix()
    tenants = _diff_tenants(fabric, matrix, [
        (1, "leaf0", "leaf1", "spine0", 0.5),
        (2, "leaf0", "leaf1", "spine0", 0.5),
        (3, "leaf0", "leaf1", "spine0", 0.5),
        (5, "leaf1", "leaf0", "spine1", 0.4),
        (6, "leaf1", "leaf0", "spine1", 0.9)])
    for vid, weight in ((1, 1.0), (2, 2.0), (3, 4.0), (5, 3.0), (6, 1.0)):
        tenants[vid].set_weight(weight)
    return FabricTimelineExperiment(fabric, matrix,
                                    duration_s=DIFF_DURATION)


def _scenario_rate_limits():
    fabric, matrix = _diff_fabric(), TrafficMatrix()
    tenants = _diff_tenants(fabric, matrix, [
        (1, "leaf0", "leaf1", "spine0", 0.4),
        (2, "leaf0", "leaf1", "spine0", 0.4),
        (3, "leaf0", "leaf1", "spine1", 0.6),
        (5, "leaf1", "leaf0", "spine1", 0.5),
        (6, "leaf1", "leaf0", "spine0", 0.2)])
    # Both spine0 tenants capped below their offer: that uplink's heads
    # are all throttled at once, so the scheduler idles the link
    # forward to the earliest eligibility.
    tenants[1].set_rate_limit(30e6, burst_bytes=3000)
    tenants[2].set_rate_limit(20e6, burst_bytes=2000)
    tenants[3].set_rate_limit(40e6, burst_bytes=1000)
    tenants[5].set_rate_limit(50e6, burst_bytes=3000)
    experiment = FabricTimelineExperiment(fabric, matrix,
                                          duration_s=DIFF_DURATION)
    leaf0, leaf1 = fabric.switch("leaf0"), fabric.switch("leaf1")
    spine1 = fabric.switch("spine1")

    def at(t, switch, action):
        _write_then_serve(experiment, switch, t, action)

    # Control-plane writes under load, repeated so each lands on a
    # backlogged port many times: reprice an uplink and a spine port,
    # retime every host port, re-arm one tenant's bucket and toggle
    # another's cap on and off. They continue past the offered window,
    # while only throttled backlogs drain.
    for k in range(24):
        t = 0.3e-3 + k * 0.25e-3
        fast = k % 2 == 0
        at(t, "leaf0", lambda r=(1.5e9 if fast else 1e9):
           leaf0.scheduler.set_port_rate(HOSTS + 1, r))
        at(t + 0.05e-3, "spine1", lambda r=(0.6e9 if fast else 1e9):
           spine1.scheduler.set_port_rate(0, r))
        at(t + 0.1e-3, "leaf1", lambda r=(0.4e9 if fast else 3e9):
           setattr(leaf1.scheduler, "line_rate_bps", r))
        at(t + 0.15e-3, "leaf1",
           lambda: leaf1.switch.tenant(5).set_rate_limit(50e6, 3000))
        if fast:
            at(t + 0.2e-3, "leaf0",
               lambda: leaf0.switch.tenant(2).clear_rate_limit())
        else:
            at(t + 0.2e-3, "leaf0",
               lambda: leaf0.switch.tenant(2).set_rate_limit(20e6, 2000))
    return experiment


def _scenario_lifecycle_and_chaos():
    from repro.chaos import ChaosController, ChaosSchedule
    from repro.exec.parallel import TenantUpdateOp

    fabric, matrix = _diff_fabric(), TrafficMatrix()
    tenants = _diff_tenants(fabric, matrix, [
        (1, "leaf0", "leaf1", "spine0", 0.6),
        (2, "leaf0", "leaf1", "spine0", 0.6),
        (3, "leaf0", "leaf1", "spine1", 0.5),
        (5, "leaf1", "leaf0", "spine1", 0.7),
        (6, "leaf1", "leaf0", "spine0", 0.3)])
    tenants[1].set_weight(3.0)
    experiment = FabricTimelineExperiment(fabric, matrix,
                                          duration_s=DIFF_DURATION)
    # A backlogged tenant unloaded mid-run: its queues are purged.
    _write_then_serve(experiment, "leaf0", 0.7e-3, tenants[2].unload)
    experiment.schedule_reconfig(
        1, 1.0e-3, duration_s=0.3e-3,
        op=TenantUpdateOp.for_tenant(tenants[1], calc.P4_SOURCE))
    schedule = ChaosSchedule()
    schedule.crash_switch("spine1", 1.6e-3)
    schedule.restore_switch("spine1", 2.4e-3)
    schedule.flap_link("leaf1", "spine0", 2.8e-3, 3.2e-3)
    ChaosController(fabric).arm(experiment, schedule)
    # Right behind the crash, a pass on the crashed spine's neighbor
    # and one on the spine itself (its queues were just scrubbed).
    _write_then_serve(experiment, "spine1", 1.6e-3, lambda: None)
    return experiment


DIFF_SCENARIOS = {
    "stfq-weights": _scenario_stfq_weights,
    "rate-limits": _scenario_rate_limits,
    "lifecycle-and-chaos": _scenario_lifecycle_and_chaos,
}


def _run_with_core(monkeypatch, core_cls, scenario):
    import repro.sim.fabric_timeline as fabric_timeline

    monkeypatch.setattr(fabric_timeline, "ExecutionCore", core_cls)
    experiment = DIFF_SCENARIOS[scenario]()
    result = experiment.run()
    assert type(experiment.core) is core_cls
    return result, experiment.core.sim.events_processed


class TestDirtyPortService:
    """Dirty-port service schedules exactly the events a scan over
    every port would: same simulated outcome, same event count."""

    @pytest.mark.parametrize("scenario", sorted(DIFF_SCENARIOS))
    def test_matches_full_scan_oracle(self, monkeypatch, scenario):
        expected, expected_events = _run_with_core(
            monkeypatch, FullScanCore, scenario)
        actual, actual_events = _run_with_core(
            monkeypatch, ExecutionCore, scenario)
        assert actual.delivered == expected.delivered
        assert actual.latencies_s == expected.latencies_s
        assert actual.lost == expected.lost
        assert actual.loss_log == expected.loss_log
        assert actual == expected
        assert actual_events == expected_events
        # The scenario really exercised contention.
        assert sum(expected.delivered.values()) > 0
        assert max(max(lat) for lat in expected.latencies_s.values()) \
            > 10 * max(DIFF_SIZES.values()) * 8 / 1e9
