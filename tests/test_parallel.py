"""Sharded parallel execution backend (:mod:`repro.exec.parallel`).

Four contracts lock the backend to the serial oracle:

1. **Counter algebra** — the introspected merge/diff/assign helpers
   cover *every* dataclass field: a newly added counter merges
   automatically, and a field type the algebra cannot merge raises
   ``TypeError`` instead of being silently skipped.
2. **Picklability** — everything that crosses a worker boundary
   (packets, entries, loss records, whole switch specs) round-trips
   through ``pickle`` unchanged.
3. **Shard drivers** — ``run_waves_shard`` / ``run_timeline_shard``
   are plain callables drivable in-process (no subprocess), and a
   single shard reproduces the serial result exactly.
4. **Backend parity** — the process backend is bit-identical to
   serial for waves and timeline runs, including a mid-run tenant
   update whose hosting switches span a worker boundary and a link
   flap that blackholes traffic on a cross-worker link.
"""

import dataclasses
import pickle
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.core.stats import (
    PipelineStats,
    diff_counters,
    merge_counters,
)
from repro.engine.batch import EngineCounters
from repro.errors import ParallelExecError
from repro.exec import LostRecord
from repro.exec.parallel import (
    LinkStateOp,
    TenantUpdateOp,
    WorkerShard,
    _WavesPlan,
    build_timeline_plans,
    default_backend,
    default_workers,
    partition_names,
    resolve_backend,
    run_timeline_shard,
    run_waves_shard,
)
from repro.fabric import Fabric, leaf_spine
from repro.modules import calc
from repro.net.packet import Packet
from repro.rmt.entry_types import TableEntry
from repro.rmt.phv import PHV
from repro.sim.fabric_timeline import FabricTimelineExperiment
from repro.traffic import TrafficMatrix

SWITCHES = ("leaf0", "leaf1", "spine0")


def calc_installer(tenant, port):
    calc.install(tenant, port=port)


def make_pkt_1():
    return calc.make_packet(1, calc.OP_ADD, 7, 1, pad_to=300)


def make_pkt_2():
    return calc.make_packet(2, calc.OP_SUB, 9, 1, pad_to=300)


def build_fabric(link_delay_s=2e-5):
    """2-leaf/1-spine, two tenants routed leaf0 -> leaf1 via spine0.

    With 2 workers the shards are ``[leaf0, leaf1]`` and ``[spine0]``,
    so every tenant's route — and its §4.1 drop window — crosses the
    worker boundary."""
    fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=4,
                        link_delay_s=link_delay_s)
    for vid, weight in ((1, 1.0), (2, 3.0)):
        tenant = fabric.tenant(f"calc{vid}", calc.P4_SOURCE, vid=vid,
                               installer=calc_installer)
        tenant.place(("leaf0", vid - 1), ("leaf1", vid - 1))
        tenant.set_weight(weight)
    return fabric


def mixed_batch(rounds=40):
    pkts = []
    for i in range(rounds):
        pkts.append(calc.make_packet(1, calc.OP_ADD, i, i + 1,
                                     pad_to=200))
        if i % 2 == 0:
            pkts.append(calc.make_packet(2, calc.OP_SUB, 1000 + i, i,
                                         pad_to=300))
    return pkts


def build_matrix():
    matrix = TrafficMatrix()
    matrix.add(1, ("leaf0", 0), ("leaf1", 0), offered_bps=0.4e9,
               packet_size=300, make_packet=make_pkt_1)
    matrix.add(2, ("leaf0", 1), ("leaf1", 1), offered_bps=0.2e9,
               packet_size=300, make_packet=make_pkt_2)
    return matrix


def assert_timeline_equal(rs, rp):
    """Field-by-field equality of two FabricTimelineResults."""
    for f in dataclasses.fields(rs):
        assert getattr(rs, f.name) == getattr(rp, f.name), f.name
    assert rs.lost_records() == rp.lost_records()


# -- 1. counter algebra -------------------------------------------------------


@dataclass
class _ExtendedStats(PipelineStats):
    """PipelineStats plus a counter the merge code has never seen."""

    brand_new_counter: int = 0
    brand_new_map: Dict[str, int] = field(default_factory=dict)


@dataclass
class _BadStats(PipelineStats):
    """A field type the introspected algebra must refuse to merge."""

    history: List[int] = field(default_factory=list)


class TestCounterAlgebra:
    def test_merge_covers_every_field_without_enumeration(self):
        """A counter added to the dataclass merges with zero changes to
        the merge code — the introspection satellite's contract."""
        src = _ExtendedStats()
        src.record_in(7)
        src.record_out(7, 128)
        src.record_drop(7, "window")
        src.record_egress_tx(7, 64)
        src.brand_new_counter = 5
        src.brand_new_map["x"] = 3
        dst = _ExtendedStats()
        dst.merge_from(src)
        dst.merge_from(src)
        assert dst.packets_in == 2
        assert dst.per_module_bytes_out[7] == 256
        assert dst.drop_reasons["window"] == 2
        assert dst.brand_new_counter == 10
        assert dst.brand_new_map == {"x": 6}

    def test_unmergeable_field_raises_instead_of_skipping(self):
        with pytest.raises(TypeError, match="history"):
            merge_counters(_BadStats(), _BadStats())
        with pytest.raises(TypeError, match="history"):
            diff_counters(_BadStats(), _BadStats())

    def test_delta_since_keeps_zero_delta_keys(self):
        """Worker frames keep keys at delta 0, so the merged parent's
        key set matches a serial run's exactly."""
        stats = PipelineStats()
        stats.record_in(3)
        baseline = stats.snapshot()
        stats.record_in(5)
        delta = stats.delta_since(baseline)
        assert delta.per_module_in == {3: 0, 5: 1}

    def test_assign_from_restores_in_place(self):
        stats = PipelineStats()
        stats.record_in(1)
        snap = stats.snapshot()
        per_module = stats.per_module_in
        stats.record_in(2)
        stats.assign_from(snap)
        assert stats.per_module_in is per_module  # identity preserved
        assert dict(stats.per_module_in) == {1: 1}
        # The restored dicts are copies, not aliases of the snapshot.
        stats.record_in(1)
        assert snap.per_module_in[1] == 1

    def test_engine_counters_share_the_algebra(self):
        """EngineCounters' nested per-tenant dataclasses merge and diff
        through the same introspected helpers."""
        src = EngineCounters()
        src.compiled_hits += 1
        src.tenant(1).compiled_hits += 1
        src.classifier_fallbacks["stateful"] = 2
        baseline = src.snapshot()
        src.compiled_hits += 1
        src.tenant(2).compiled_hits += 1
        delta = src.delta_since(baseline)
        assert delta.compiled_hits == 1
        assert delta.per_tenant[1].compiled_hits == 0
        assert delta.per_tenant[2].compiled_hits == 1
        assert delta.classifier_fallbacks == {"stateful": 0}
        dst = EngineCounters()
        dst.merge_from(delta)
        assert dst.per_tenant[2].compiled_hits == 1
        assert dst.per_tenant[1].compiled_hits == 0


# -- 2. picklability ----------------------------------------------------------


class TestPicklability:
    def roundtrip(self, obj):
        return pickle.loads(
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    def test_packet_roundtrip(self):
        pkt = Packet(b"hello", ingress_port=3, arrival_time=1.5)
        out = self.roundtrip(pkt)
        assert out.tobytes() == b"hello"
        assert out.ingress_port == 3
        assert out.arrival_time == 1.5
        out.buf[0] = 0  # still a mutable, independent buffer
        assert pkt.tobytes() == b"hello"

    def test_phv_roundtrip(self):
        phv = PHV.from_container_values(list(range(24)))
        out = self.roundtrip(phv)
        assert out._values == phv._values

    def test_table_entry_roundtrip(self):
        entry = TableEntry.of({"hdr.udp.dstPort": 53}, "block")
        assert self.roundtrip(entry) == entry

    def test_lost_record_roundtrip(self):
        record = LostRecord(vid=2, link="leaf0:4-spine0:0", count=7)
        assert self.roundtrip(record) == record

    def test_switch_spec_roundtrip_replays_identically(self):
        """A pickled FabricSwitch — program, entries, scheduler, flow
        cache — serves the same packets to the same results."""
        original = build_fabric().switch("leaf0")
        revived = self.roundtrip(original)
        assert revived.name == "leaf0"
        assert revived.num_ports == original.num_ports
        batch = mixed_batch(rounds=6)
        res_o = original.engine.process_batch([p.copy() for p in batch])
        res_r = revived.engine.process_batch([p.copy() for p in batch])
        assert [r.egress_port for r in res_o] == \
            [r.egress_port for r in res_r]
        assert original.switch.pipeline.stats.snapshot() == \
            revived.switch.pipeline.stats.snapshot()

    def test_unpicklable_reconfig_is_a_typed_error(self):
        """An opaque ``apply=lambda`` cannot cross a process boundary;
        the backend says so up front instead of a pickle traceback."""
        fabric = build_fabric()
        experiment = FabricTimelineExperiment(
            fabric, build_matrix(), duration_s=1e-4,
            backend="process", workers=2)
        experiment.schedule_reconfig(1, 5e-5, apply=lambda: None)
        with pytest.raises(ParallelExecError, match="declarative"):
            experiment.run()


# -- backend selection --------------------------------------------------------


class TestBackendSelection:
    def test_defaults_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
        assert default_backend() == "serial"
        assert default_workers() is None
        assert resolve_backend(None) == "serial"
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        assert default_backend() == "process"
        assert default_workers() == 2
        assert resolve_backend(None) == "process"
        # An explicit argument beats the environment.
        assert resolve_backend("serial") == "serial"

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="thread"):
            resolve_backend("thread")
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "gpu")
        with pytest.raises(ValueError, match="gpu"):
            default_backend()

    def test_partition_is_contiguous_and_balanced(self):
        names = [f"sw{i}" for i in range(7)]
        blocks = partition_names(names, 3)
        assert blocks == [["sw0", "sw1", "sw2"],
                          ["sw3", "sw4"], ["sw5", "sw6"]]
        assert partition_names(names, 99) == [[n] for n in names]
        assert partition_names(names, 1) == [names]

    def test_zero_delay_cross_worker_link_rejected(self):
        """No propagation delay means no lookahead — conservative sync
        cannot make progress, so the split is refused up front."""
        fabric = Fabric()
        fabric.add_switch("a")
        fabric.add_switch("b")
        fabric.connect("a", 3, "b", 3, delay_s=0.0)
        experiment = FabricTimelineExperiment(
            fabric, TrafficMatrix(), duration_s=1e-4)
        with pytest.raises(ParallelExecError, match="lookahead"):
            build_timeline_plans(experiment, 2)


# -- 3. in-process shard drivers ----------------------------------------------


class TestShardDrivers:
    def test_waves_shard_single_worker_matches_serial(self):
        serial = build_fabric().process_batch(
            [("leaf0", p.copy()) for p in mixed_batch()])

        fabric = build_fabric()
        members = fabric.switches()
        index = {m.name: i for i, m in enumerate(members)}
        plan = _WavesPlan(worker_id=0, spec=b"", member_index=index)
        sent = []
        # A mini-parent: each wave_done's emissions, sorted into
        # serial order, become the next wave until the batch drains.
        state = {"wave": 0,
                 "items": [("leaf0", p.copy()) for p in mixed_batch()]}

        def recv():
            if state["items"]:
                msg = ("wave", state["wave"], state["items"])
                state["wave"] += 1
                state["items"] = []
                return msg
            return ("finish",)

        def send(msg):
            sent.append(msg)
            if msg[0] == "wave_done":
                emissions = sorted(msg[2], key=lambda e: e[:3])
                state["items"] = [(name, packet) for _, _, _, name,
                                  packet in emissions]

        run_waves_shard(plan, WorkerShard(members), recv, send)
        assert state["wave"] == serial.waves
        frame = pickle.loads(sent[-1][2])
        delivered = sorted(frame.delivered, key=lambda d: d[:3])
        assert [d[6].tobytes() for d in delivered] == \
            [d.packet.tobytes() for d in serial.delivered]

    def test_timeline_shard_single_worker_matches_serial(self):
        serial = FabricTimelineExperiment(
            build_fabric(), build_matrix(), duration_s=2e-4).run()

        experiment = FabricTimelineExperiment(
            build_fabric(), build_matrix(), duration_s=2e-4)
        plan = build_timeline_plans(experiment, 1)[0]
        assert plan.in_peers == {} and plan.out_peers == ()
        shard = WorkerShard(pickle.loads(plan.spec))
        sent = []
        run_timeline_shard(plan, shard, iter([("stop",)]).__next__,
                           None, sent.append)
        statuses = [m for m in sent if m[0] == "status"]
        assert statuses and statuses[0][4] == 0  # quiescent after round 0
        frame = pickle.loads(sent[-1][2])
        assert frame.backlog == 0
        delivered: Dict[int, int] = {}
        for vid, _, _, _ in frame.deliveries:
            delivered[vid] = delivered.get(vid, 0) + 1
        assert delivered == serial.delivered
        assert frame.drops == serial.drops
        assert frame.lvt == pytest.approx(serial.elapsed_s)


# -- 4. backend parity --------------------------------------------------------


class TestWavesParity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_process_backend_bit_identical(self, workers):
        batch = mixed_batch()
        fs = build_fabric()
        rs = fs.process_batch([("leaf0", p.copy()) for p in batch],
                              backend="serial")
        fp = build_fabric()
        rp = fp.process_batch([("leaf0", p.copy()) for p in batch],
                              backend="process", workers=workers)
        assert rp.waves == rs.waves
        assert rp.dropped == rs.dropped
        assert rp.lost_records() == rs.lost_records()
        for vid in (1, 2):
            assert [p.tobytes() for p in rp.delivered_for(vid)] == \
                [p.tobytes() for p in rs.delivered_for(vid)]
        assert [(d.switch, d.port, d.vid) for d in rp.delivered] == \
            [(d.switch, d.port, d.vid) for d in rs.delivered]
        for name in SWITCHES:
            assert [r.egress_port for r in rp.results[name]] == \
                [r.egress_port for r in rs.results[name]]
            assert fp.switch(name).switch.pipeline.stats.snapshot() \
                == fs.switch(name).switch.pipeline.stats.snapshot()
            assert fp.switch(name).engine.counters.snapshot() \
                == fs.switch(name).engine.counters.snapshot()
        for vid in (1, 2):
            assert fp.tenant_counters(vid) == fs.tenant_counters(vid)

    def test_arrival_packets_not_mutated(self):
        """The serial path rewrites ingress ports in place; the process
        path works on pickled copies and leaves the caller's packets
        alone — documented, and locked in here."""
        batch = [calc.make_packet(1, calc.OP_ADD, i, 1) for i in range(4)]
        before = [(p.tobytes(), p.ingress_port) for p in batch]
        build_fabric().process_batch([("leaf0", p) for p in batch],
                                     backend="process", workers=2)
        assert [(p.tobytes(), p.ingress_port) for p in batch] == before

    def test_env_selects_process_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        batch = mixed_batch(rounds=4)
        result = build_fabric().process_batch(
            [("leaf0", p.copy()) for p in batch])
        assert result.waves == 3

    def test_forwarding_cycle_still_a_typed_error(self):
        fabric = build_fabric()
        with pytest.raises(Exception) as exc_info:
            fabric.process_batch(
                [("leaf0", p.copy()) for p in mixed_batch(rounds=2)],
                max_hops=1, backend="process", workers=2)
        assert "in flight after 1 hops" in str(exc_info.value)


class TestTimelineParity:
    def run_pair(self, configure=None, duration_s=1e-3):
        results = []
        for backend, workers in (("serial", None), ("process", 2)):
            experiment = FabricTimelineExperiment(
                build_fabric(), build_matrix(), duration_s=duration_s,
                backend=backend, workers=workers)
            if configure is not None:
                configure(experiment)
            results.append(experiment.run())
        return results

    def test_plain_run_bit_identical(self):
        rs, rp = self.run_pair()
        assert rp.delivered and rp.delivered == rs.delivered
        assert_timeline_equal(rs, rp)

    def test_tenant_update_across_worker_boundary(self):
        """A §4.1 reconfig window opened mid-run: tenant 1's hosting
        switches (leaf0, leaf1 on worker 0; spine0 on worker 1) span
        the shard boundary, so the op must fire on both workers — and
        drop in-window packets identically to serial."""
        def configure(experiment):
            tenant = experiment.fabric.tenant_by_vid(1)
            experiment.schedule_reconfig(
                1, start_s=3e-4, duration_s=2e-4,
                op=TenantUpdateOp.for_tenant(tenant, calc.P4_SOURCE))

        rs, rp = self.run_pair(configure)
        assert rs.drops.get(1, 0) > 0  # the window actually dropped
        assert rp.delivered == rs.delivered
        assert_timeline_equal(rs, rp)

    def test_link_flap_across_worker_boundary(self):
        """The leaf0-spine0 link (a cross-worker edge at 2 workers)
        goes down mid-run and comes back: blackholed packets, the loss
        log, and per-link loss attribution all match serial."""
        def configure(experiment):
            experiment.schedule_reconfig(
                1, start_s=3e-4, op=LinkStateOp(
                    a="leaf0", b="spine0", up=False))
            experiment.schedule_reconfig(
                1, start_s=6e-4, op=LinkStateOp(
                    a="leaf0", b="spine0", up=True))

        rs, rp = self.run_pair(configure)
        assert sum(rs.lost.values()) > 0  # the flap actually lost traffic
        assert rp.lost == rs.lost
        assert rp.loss_log == rs.loss_log
        assert_timeline_equal(rs, rp)

    def test_per_switch_counters_match_after_parallel_run(self):
        fabrics, results = [], []
        for backend, workers in (("serial", None), ("process", 2)):
            fabric = build_fabric()
            experiment = FabricTimelineExperiment(
                fabric, build_matrix(), duration_s=5e-4,
                backend=backend, workers=workers)
            results.append(experiment.run())
            fabrics.append(fabric)
        fs, fp = fabrics
        for name in SWITCHES:
            assert fp.switch(name).switch.pipeline.stats.snapshot() \
                == fs.switch(name).switch.pipeline.stats.snapshot()
            assert fp.switch(name).engine.counters.snapshot() \
                == fs.switch(name).engine.counters.snapshot()
        assert fp.stats() == fs.stats()
        for vid in (1, 2):
            assert fp.tenant_counters(vid) == fs.tenant_counters(vid)

    def test_tenant_update_keeps_parent_fabric_in_sync(self):
        """After a process-backend run the parent's FabricTenant must
        reflect the replayed update (same committed source), so later
        serial operations see the post-op fabric."""
        def run(backend, workers=None):
            fabric = build_fabric()
            experiment = FabricTimelineExperiment(
                fabric, build_matrix(), duration_s=5e-4,
                backend=backend, workers=workers)
            tenant = fabric.tenant_by_vid(1)
            experiment.schedule_reconfig(
                1, start_s=2e-4, duration_s=1e-4,
                op=TenantUpdateOp.for_tenant(tenant, calc.P4_SOURCE))
            experiment.run()
            return fabric

        fs = run("serial")
        fp = run("process", workers=2)
        assert fp.tenant_by_vid(1).source == fs.tenant_by_vid(1).source
        # The fabric is still fully operational serially post-run.
        batch = mixed_batch(rounds=3)
        out_s = fs.process_batch([("leaf0", p.copy()) for p in batch])
        out_p = fp.process_batch([("leaf0", p.copy()) for p in batch])
        assert [p.tobytes() for p in out_p.delivered_for(1)] == \
            [p.tobytes() for p in out_s.delivered_for(1)]
