"""Compiled flow classification and the engine's accounting.

Covers the compiler's structure (exact hash, ternary intervals, linear
residual, stateful/uncompilable bails), the engine's two-level hot path
(compiled → scalar) and its counters, epoch-driven rebuild/purge,
invalidation accounting, and the mid-batch layout staleness regression.
"""

import pytest

from repro.api import Switch, Tenant
from repro.core import MenshenPipeline
from repro.core.reconfig import ResourceId, ResourceType, build_reconfig_packet
from repro.engine import BatchEngine, compile_classifier
from repro.errors import ConfigError, PacketError
from repro.modules import firewall
from repro.rmt.encodings import encode_parser_entry
from repro.rmt.key_extractor import CmpOp, KeyExtractEntry
from repro.rmt.phv import ContainerRef, ContainerType
from repro.runtime import MenshenController
from repro.traffic import cache_hostile_stream, workload
from seeds import rng as make_rng


def _firewall_switch(vid=3, **engine_kw):
    switch = Switch.build().create()
    workload("firewall").admit(switch, vid=vid)
    engine = switch.engine(scheduled=False, **engine_kw)
    return switch, engine


def _ternary_pair(install):
    """Two identically configured ternary pipelines + an engine."""

    def build():
        pipe = MenshenPipeline(match_mode="ternary")
        ctl = MenshenController(pipe)
        ctl.load_module(2, firewall.P4_SOURCE_TERNARY, "fw-ternary")
        install(ctl)
        return pipe, ctl

    scalar, _ = build()
    batched, ctl = build()
    return scalar, batched, ctl, BatchEngine(batched, enable_classifier=True)


def _random_fw_packets(rng, count, vid=2):
    packets = []
    for _ in range(count):
        src = ".".join(str(rng.randrange(256)) for _ in range(4))
        packets.append(firewall.make_packet(vid, src, rng.randrange(65536)))
    return packets


def _assert_differential(scalar, engine, packets, context=""):
    scalar_results = [scalar.process(p.copy()) for p in packets]
    engine_results = engine.process_batch([p.copy() for p in packets])
    for i, (a, b) in enumerate(zip(scalar_results, engine_results)):
        where = f"{context} packet {i}"
        assert a.dropped == b.dropped, where
        assert a.drop_reason == b.drop_reason, where
        assert a.egress_port == b.egress_port, where
        assert a.mcast_group == b.mcast_group, where
        assert (a.packet is None) == (b.packet is None), where
        if a.packet is not None:
            assert a.packet.tobytes() == b.packet.tobytes(), where
        if a.phv is not None:
            assert a.phv == b.phv, f"{where}: PHV diverged"


# ---------------------------------------------------------------------------
# compiler structure
# ---------------------------------------------------------------------------

class TestCompilerStructure:
    def test_exact_module_compiles_to_hash(self):
        switch, _ = _firewall_switch()
        clf = compile_classifier(switch.pipeline, 3,
                                 switch.pipeline.config_epoch)
        stats = clf.stats()
        assert stats.ok and stats.reason == ""
        assert stats.stages >= 1
        assert stats.exact_keys >= 4       # blocked + 3 allowed rules
        assert stats.intervals == 0
        assert stats.residual_entries == 0
        assert stats.stateful_leaves == 0

    def test_ternary_prefixes_compile_to_intervals(self):
        def install(ctl):
            firewall.install_prefix(
                Tenant.attach(ctl, 2),
                blocked_prefixes=[("10.66.0.0", 16)], default_port=3)

        _scalar, batched, _ctl, engine = _ternary_pair(install)
        clf = compile_classifier(batched, 2, batched.config_epoch)
        stats = clf.stats()
        assert stats.ok
        assert stats.intervals >= 2        # blocked range + default pieces
        assert stats.residual_entries == 0
        del engine

    def test_non_contiguous_mask_falls_back_to_residual(self):
        from repro.net import Ipv4Address

        def install(ctl):
            # Wildcard bits interleaved with match bits: no contiguous
            # range in the compacted key space, so the stage compiles to
            # the linear value/mask residual instead.
            ctl.table_add(2, "acl",
                          {"hdr.ipv4.srcAddr": int(Ipv4Address("10.0.10.0")),
                           "hdr.udp.dstPort": 0},
                          "block",
                          key_masks={"hdr.ipv4.srcAddr": 0xFF00FF00,
                                     "hdr.udp.dstPort": 0})
            firewall.install_prefix(Tenant.attach(ctl, 2), default_port=5)

        scalar, batched, _ctl, engine = _ternary_pair(install)
        clf = compile_classifier(batched, 2, batched.config_epoch)
        stats = clf.stats()
        assert stats.ok
        assert stats.residual_entries >= 2
        assert stats.intervals == 0
        _assert_differential(scalar, engine,
                             _random_fw_packets(make_rng(710), 300),
                             "residual")
        assert engine.counters.compiled_hits > 0

    def test_ternary_priority_matches_scalar_on_overlaps(self):
        def install(ctl):
            firewall.install_prefix(
                Tenant.attach(ctl, 2),
                blocked_prefixes=[("10.66.0.0", 16), ("10.0.0.0", 8)],
                default_port=3)

        scalar, _batched, _ctl, engine = _ternary_pair(install)
        packets = _random_fw_packets(make_rng(711), 400)
        # Force traffic into the overlapping region too.
        rng = make_rng(712)
        for _ in range(200):
            packets.append(firewall.make_packet(
                2, f"10.66.{rng.randrange(256)}.{rng.randrange(256)}",
                rng.randrange(65536)))
        _assert_differential(scalar, engine, packets, "overlap-priority")
        assert engine.counters.compiled_hits == len(packets)

    def test_stateful_leaves_are_counted_and_bail(self):
        switch = Switch.build().create()
        workload("netcache").admit(switch, vid=4)
        clf = compile_classifier(switch.pipeline, 4,
                                 switch.pipeline.config_epoch)
        assert clf.ok
        assert clf.stats().stateful_leaves >= 1

    def test_metadata_predicate_is_uncompilable(self):
        switch, _ = _firewall_switch()
        pipeline = switch.pipeline
        stage = switch.controller._loaded(3).compiled.stages_used()[0]
        entry = KeyExtractEntry(
            cmp_op=CmpOp.EQ,
            cmp_a=ContainerRef(ContainerType.META, 0), cmp_b=0)
        pipeline.stages[stage].key_extract_table.write(3, entry.encode())
        clf = compile_classifier(pipeline, 3, pipeline.config_epoch)
        assert not clf.ok
        assert "metadata" in clf.reason


# ---------------------------------------------------------------------------
# the hot path's levels (compiled -> scalar)
# ---------------------------------------------------------------------------

class TestThreeLevelHotPath:
    """Level attribution on the hot path. The exact-match cache level
    that once sat in front of the classifier is gone; two remain."""

    def test_repeated_flow_is_served_compiled_every_time(self):
        _switch, engine = _firewall_switch(enable_classifier=True)
        packet = workload("firewall").flow_packet(3, 1)
        first = engine.process(packet.copy())
        second = engine.process(packet.copy())
        counters = engine.counters
        assert first.egress_port == second.egress_port
        assert first.packet.tobytes() == second.packet.tobytes()
        assert counters.compiled_hits == 2
        assert counters.cache_hits == 0
        assert counters.compile_rebuilds == 1

    def test_uniform_traffic_is_served_compiled(self):
        _switch, engine = _firewall_switch(enable_classifier=True)
        packets = cache_hostile_stream(workload("firewall"), 3,
                                       make_rng(713), 500)
        engine.process_batch(packets)
        counters = engine.counters
        assert counters.compiled_hits == 500
        assert counters.cache_hits == 0
        assert not counters.classifier_fallbacks

    def test_stateful_flows_fall_back_with_reason(self):
        switch = Switch.build().create()
        workload("netcache").admit(switch, vid=4)
        engine = switch.engine(scheduled=False, enable_classifier=True)
        packets = [workload("netcache").flow_packet(4, i) for i in range(20)]
        engine.process_batch(packets)
        counters = engine.counters
        assert counters.compiled_hits == 0
        assert counters.classifier_fallbacks.get("stateful") == 20

    def test_uncompilable_module_falls_back_and_oracle_faults(self):
        switch, engine = _firewall_switch(enable_classifier=True)
        pipeline = switch.pipeline
        stage = switch.controller._loaded(3).compiled.stages_used()[0]
        entry = KeyExtractEntry(
            cmp_op=CmpOp.EQ,
            cmp_a=ContainerRef(ContainerType.META, 0), cmp_b=0)
        pipeline.inject_reconfig(build_reconfig_packet(
            ResourceId(ResourceType.KEY_EXTRACTOR, stage), index=3,
            entry=entry.encode(), params=switch.params))
        # The classifier refuses the config; the scalar oracle then
        # reproduces the per-packet fault the config always caused.
        with pytest.raises(ConfigError, match="metadata"):
            engine.process(workload("firewall").flow_packet(3, 1))
        assert engine.counters.classifier_fallbacks.get("uncompilable") == 1

    def test_short_packet_falls_back_parse_window(self):
        _switch, engine = _firewall_switch(enable_classifier=True)
        packet = workload("firewall").flow_packet(3, 1)
        packet.truncate(18)   # keeps the VLAN tag, loses the parsed bytes
        with pytest.raises(PacketError):
            engine.process(packet)
        assert engine.counters.classifier_fallbacks.get("parse-window") == 1

    def test_classifier_disabled_takes_scalar_path(self):
        _switch, engine = _firewall_switch(enable_classifier=False)
        packets = [workload("firewall").flow_packet(3, i) for i in range(10)]
        engine.process_batch(packets)
        assert engine.counters.compiled_hits == 0
        assert engine.counters.compile_rebuilds == 0


# ---------------------------------------------------------------------------
# epoch rebuild and purge
# ---------------------------------------------------------------------------

class TestRebuildAndPurge:
    def test_epoch_bump_rebuilds_lazily(self):
        switch, engine = _firewall_switch(enable_classifier=True)
        spec = workload("firewall")
        engine.process(spec.flow_packet(3, 1))
        assert engine.counters.compile_rebuilds == 1
        engine.process(spec.flow_packet(3, 2))
        assert engine.counters.compile_rebuilds == 1   # same epoch: reused

        switch.tenant(3).update(spec.source)           # epoch moves
        engine.process(spec.flow_packet(3, 1))
        assert engine.counters.compile_rebuilds == 2
        (stats,) = engine.classifier_stats().values()
        assert stats.epoch == switch.pipeline.config_epoch

    def test_invalidate_purges_classifiers(self):
        _switch, engine = _firewall_switch(enable_classifier=True)
        engine.process(workload("firewall").flow_packet(3, 1))
        assert engine.classifier_stats()
        engine.invalidate(3)
        assert not engine.classifier_stats()
        engine.process(workload("firewall").flow_packet(3, 1))
        assert engine.counters.compile_rebuilds == 2

    def test_invalidate_all_purges_everything(self):
        _switch, engine = _firewall_switch(enable_classifier=True)
        engine.process(workload("firewall").flow_packet(3, 1))
        engine.invalidate()
        assert not engine.classifier_stats()


# ---------------------------------------------------------------------------
# invalidation accounting
# ---------------------------------------------------------------------------

class TestInvalidationAccounting:
    def test_noop_invalidate_counts_the_call_only(self):
        _switch, engine = _firewall_switch()
        engine.invalidate(999)
        assert engine.counters.invalidation_calls == 1
        assert engine.counters.compile_rebuilds == 0

    def test_invalidate_vid_with_layout_but_no_shard(self):
        # The engine keeps no per-VID cache shard, only a layout and a
        # classifier: invalidate must purge both.
        _switch, engine = _firewall_switch(enable_classifier=True)
        engine.process(workload("firewall").flow_packet(3, 1))
        assert 3 in engine._layouts
        engine.invalidate(3)
        assert engine.counters.invalidation_calls == 1
        assert 3 not in engine._layouts
        assert not engine.classifier_stats()


# ---------------------------------------------------------------------------
# satellite 3: no stale layout across a mid-batch reconfiguration
# ---------------------------------------------------------------------------

class TestMidBatchLayoutStaleness:
    def test_parser_rewrite_inside_batch_refreshes_layout(self):
        """A dataplane write that changes the parse program mid-batch
        must not let packets behind the barrier use the old layout."""

        def build():
            switch = Switch.build().reconfig_from_dataplane().create()
            workload("firewall").admit(switch, vid=3)
            return switch

        scalar = build()
        batched = build()
        engine = batched.engine(scheduled=False, enable_classifier=True)

        # Truncate the firewall's parse program to its first action:
        # later fields stay zero, so match behavior visibly changes,
        # and the engine's recorded layout becomes stale.
        actions = scalar.pipeline.parser.read_program(3)
        assert len(actions) > 1
        truncated = encode_parser_entry([actions[0].encode()])
        rewrite = build_reconfig_packet(
            ResourceId(ResourceType.PARSER_TABLE, 0), index=3,
            entry=truncated, params=scalar.params)

        spec = workload("firewall")
        rng = make_rng(714)
        flows = [spec.flow_packet(3, rng.randrange(256)) for _ in range(80)]
        batch = flows[:40] + [rewrite] + flows[40:]

        scalar_results = [scalar.process(p.copy()) for p in batch]
        engine_results = engine.process_batch([p.copy() for p in batch])

        for i, (a, b) in enumerate(zip(scalar_results, engine_results)):
            assert a.dropped == b.dropped, f"packet {i}"
            assert a.egress_port == b.egress_port, f"packet {i}"
            if a.packet is not None:
                assert a.packet.tobytes() == b.packet.tobytes(), f"packet {i}"

        # The layout served after the barrier is the rewritten one, not
        # the one recorded when the batch started.
        layout = engine._layouts[3]
        assert layout.epoch == batched.pipeline.config_epoch
        (action,) = batched.pipeline.parser.read_program(3)
        deparse = batched.pipeline.deparser.read_program(3)
        assert layout.max_end == max(
            a.bytes_from_head + a.container.size_bytes
            for a in (action, *deparse))
        # And the rewrite is observable: some flow that appears on both
        # sides of the barrier changed its scalar verdict, so the
        # equivalence above really did exercise a stale-layout hazard.
        pre = {batch[i].tobytes(): (r.dropped, r.egress_port)
               for i, r in enumerate(scalar_results[:40])}
        flipped = any(
            batch[i].tobytes() in pre
            and pre[batch[i].tobytes()] != (r.dropped, r.egress_port)
            for i, r in enumerate(scalar_results) if i > 40)
        assert flipped, "parser rewrite produced no observable change"
