"""Differential conformance: batched+compiled execution vs the scalar path.

The :class:`repro.engine.BatchEngine` contract is packet-for-packet
equivalence with ``pipeline.process``. These tests enforce it across all
eight evaluated modules on seeded zipf flow traffic, across API
reconfiguration mid-stream (compiled verdicts must die with the
configuration that produced them), and across dataplane reconfiguration
packets *inside* a batch (Corundum mode), where the engine must flush
pending shards before the configuration write lands.
"""

import pytest

from repro.api import Switch
from repro.core.reconfig import ResourceId, ResourceType, build_reconfig_packet
from repro.traffic import TraceReplayer, ZipfFlows, all_workloads, flow_stream, workload
from seeds import rng as make_rng

ROUNDS = 360


def build_pair(specs, engine_kw=None, **build_kw):
    """Two identically configured switches + an engine on the second."""

    def build():
        switch = Switch.build().create() if not build_kw else \
            _build_with(**build_kw)
        for vid, spec in specs:
            spec.admit(switch, vid=vid)
        return switch

    scalar = build()
    batched = build()
    return scalar, batched, batched.engine(**(engine_kw or {}))


def _build_with(**kw):
    builder = Switch.build()
    if kw.get("reconfig_from_dataplane"):
        builder = builder.reconfig_from_dataplane()
    return builder.create()


def assert_equivalent(scalar_results, engine_results, context=""):
    """Field-for-field equality of two result sequences."""
    assert len(scalar_results) == len(engine_results)
    for i, (a, b) in enumerate(zip(scalar_results, engine_results)):
        where = f"{context} packet {i}"
        assert a.dropped == b.dropped, where
        assert a.drop_reason == b.drop_reason, where
        assert a.egress_port == b.egress_port, where
        assert a.mcast_group == b.mcast_group, where
        assert a.module_id == b.module_id, where
        assert (a.packet is None) == (b.packet is None), where
        if a.packet is not None:
            assert a.packet.tobytes() == b.packet.tobytes(), where
        assert (a.phv is None) == (b.phv is None), where
        if a.phv is not None:
            assert a.phv == b.phv, f"{where}: PHV diverged"


def _vid_of(packet_bytes):
    """Tenant VID from the 802.1Q tag of raw packet bytes."""
    return int.from_bytes(packet_bytes[14:16], "big") & 0xFFF


def assert_same_observable_state(scalar, batched):
    """Pipeline statistics and TM queue contents must match too.

    The batched switch serves egress through the weighted-fair
    scheduler (``switch.engine()`` installs it), which is *allowed* to
    reorder packets across tenants — that is its whole point — but
    never within one tenant's flow order, and never to gain or lose a
    packet. So queues are compared as (a) identical per-port packet
    multisets and (b) identical per-(port, tenant) subsequences.
    """
    assert scalar.pipeline.stats.summary() == batched.pipeline.stats.summary()
    assert dict(scalar.pipeline.stats.per_module_out) == \
        dict(batched.pipeline.stats.per_module_out)
    assert dict(scalar.pipeline.stats.drop_reasons) == \
        dict(batched.pipeline.stats.drop_reasons)
    queues_a = scalar.pipeline.traffic_manager.drain_all()
    queues_b = batched.pipeline.traffic_manager.drain_all()

    def multisets(queues):
        return {port: sorted(p.tobytes() for p in q)
                for port, q in queues.items()}

    def tenant_order(queues):
        order = {}
        for port, q in queues.items():
            for p in q:
                raw = p.tobytes()
                order.setdefault((port, _vid_of(raw)), []).append(raw)
        return order

    assert multisets(queues_a) == multisets(queues_b)
    assert tenant_order(queues_a) == tenant_order(queues_b)


# ---------------------------------------------------------------------------
# all eight modules
# ---------------------------------------------------------------------------

#: Engine configurations the equivalence contract is pinned under: the
#: compiled classifier in front of the scalar walk, forced on whatever
#: ``REPRO_ENGINE_CLASSIFIER`` says.
ENGINE_MODES = {
    "classifier-only": {"enable_classifier": True},
}


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
@pytest.mark.parametrize("spec", all_workloads(), ids=lambda s: s.name)
def test_batched_equals_scalar(spec, mode):
    offset = 100 + [w.name for w in all_workloads()].index(spec.name)
    rng = make_rng(offset)
    packets = flow_stream(spec, 3, rng, ROUNDS,
                          ZipfFlows(spec.n_flows, skew=0.9))
    scalar, batched, engine = build_pair([(3, spec)],
                                         engine_kw=ENGINE_MODES[mode])

    scalar_results = [scalar.process(p.copy()) for p in packets]
    engine_results = TraceReplayer(packets).replay(engine, batch_size=64)

    assert_equivalent(scalar_results, engine_results, f"{spec.name}/{mode}")
    assert_same_observable_state(scalar, batched)

    counters = engine.counters
    assert counters.cache_hits == 0
    if spec.stateful:
        # State-carrying modules must never be served from the compiled
        # path: every packet hits a stateful leaf, bails, and takes the
        # scalar walk.
        assert counters.compiled_hits == 0
        assert counters.classifier_fallbacks.get("stateful") == ROUNDS
    else:
        # Every pure packet must be a compiled hit — otherwise this
        # test silently stops covering the classifier.
        assert counters.compiled_hits == ROUNDS
        assert not counters.classifier_fallbacks


def test_two_tenants_interleaved():
    """Two tenants of the same program but different rules, interleaved."""
    fw = workload("firewall")
    rng = make_rng(150)
    scalar, batched, engine = build_pair([(1, fw), (2, fw)])
    sampler = ZipfFlows(fw.n_flows, skew=0.99)
    packets = []
    for _ in range(ROUNDS // 2):
        packets.append(fw.flow_packet(1, sampler.sample(rng)))
        packets.append(fw.flow_packet(2, sampler.sample(rng)))

    scalar_results = [scalar.process(p.copy()) for p in packets]
    engine_results = engine.process_batch([p.copy() for p in packets])
    assert_equivalent(scalar_results, engine_results, "interleaved")
    assert_same_observable_state(scalar, batched)
    # Each tenant is served by its own classifier, compiled once.
    assert engine.counters.tenant(1).compiled_hits == ROUNDS // 2
    assert engine.counters.tenant(2).compiled_hits == ROUNDS // 2
    assert engine.counters.compile_rebuilds == 2
    assert sorted(engine.classifier_stats()) == [1, 2]


# ---------------------------------------------------------------------------
# mid-stream reconfiguration through the repro.api facade
# ---------------------------------------------------------------------------

def test_api_reconfig_mid_stream_invalidates():
    """Compiled verdicts must not survive a rule change between batches."""
    fw = workload("firewall")
    rng = make_rng(160)
    scalar, batched, engine = build_pair([(3, fw)])
    packets = flow_stream(fw, 3, rng, ROUNDS,
                          ZipfFlows(fw.n_flows, skew=0.99))
    half = len(packets) // 2

    first_a = [scalar.process(p.copy()) for p in packets[:half]]
    first_b = engine.process_batch([p.copy() for p in packets[:half]])
    assert_equivalent(first_a, first_b, "pre-reconfig")
    assert engine.counters.compiled_hits == half
    rebuilds_before = engine.counters.compile_rebuilds

    # Same transactional rule wipe on both switches: every ACL entry
    # goes away, so previously-blocked flows now pass through.
    for switch in (scalar, batched):
        tenant = switch.tenant(3)
        acl = tenant.table("acl")
        with tenant.transaction() as txn:
            for handle in acl.handles():
                txn.table("acl").delete(handle)

    second_a = [scalar.process(p.copy()) for p in packets[half:]]
    second_b = engine.process_batch([p.copy() for p in packets[half:]])
    assert_equivalent(second_a, second_b, "post-reconfig")
    assert_same_observable_state(scalar, batched)

    # The old verdicts really differed (flow 0 was blocked, now flows),
    # so equivalence above proves stale verdicts were not served.
    blocked_flow = fw.flow_packet(3, 0)
    assert scalar.process(blocked_flow.copy()).forwarded
    # And the classifier was recompiled for the new rules rather than
    # replayed, then served the whole second half.
    assert engine.counters.compile_rebuilds > rebuilds_before
    assert engine.counters.compiled_hits == len(packets)


def test_module_update_and_evict_invalidate():
    """tenant.update()/evict() drop the tenant's compiled classifier."""
    fw = workload("firewall")
    qos = workload("qos")
    scalar, batched, engine = build_pair([(1, fw), (2, qos)])
    pkt_fw = fw.flow_packet(1, 1)      # allowed -> port 2
    pkt_qos = qos.flow_packet(2, 0)

    for _ in range(3):
        scalar.process(pkt_fw.copy())
        scalar.process(pkt_qos.copy())
        engine.process_batch([pkt_fw.copy(), pkt_qos.copy()])
    assert engine.counters.tenant(1).compiled_hits == 3
    rebuilds = engine.counters.compile_rebuilds

    # Replace tenant 1's program with the same source but no rules:
    # every flow now takes the default path.
    for switch in (scalar, batched):
        switch.tenant(1).update(fw.source)
    a = scalar.process(pkt_fw.copy())
    b = engine.process(pkt_fw.copy())
    assert_equivalent([a], [b], "post-update")
    assert a.egress_port == 0  # the allow rule is gone
    assert engine.counters.compile_rebuilds > rebuilds
    rebuilds = engine.counters.compile_rebuilds

    # Evicting drops the module: packets become unknown_module drops.
    for switch in (scalar, batched):
        switch.tenant(1).evict()
    a = scalar.process(pkt_fw.copy())
    b = engine.process(pkt_fw.copy())
    assert_equivalent([a], [b], "post-evict")
    assert b.drop_reason == "unknown_module"
    assert 1 not in engine.classifier_stats()
    # The untouched tenant's classifier survives the eviction (only the
    # evicted VID's was dropped), but it was compiled under an older
    # global epoch, so the next packet recompiles it.
    assert 2 in engine.classifier_stats()
    c = scalar.process(pkt_qos.copy())
    d = engine.process(pkt_qos.copy())
    assert_equivalent([c], [d], "neighbor post-evict")
    assert engine.counters.compile_rebuilds > rebuilds


# ---------------------------------------------------------------------------
# dataplane reconfiguration packets inside one batch (Corundum mode)
# ---------------------------------------------------------------------------

def test_reconfig_packet_inside_batch():
    """A config write mid-batch splits it: old config before, new after.

    The write zeroes the firewall's stage-0 key mask, so every flow
    stops matching its ACL entries (lookup key collapses to zero) and
    falls through to the default path — an observable behavior flip that
    a stale compiled classifier must not paper over.
    """
    fw = workload("firewall")
    rng = make_rng(170)
    scalar, batched, engine = build_pair([(3, fw)],
                                         reconfig_from_dataplane=True)
    stage = scalar.controller._loaded(3).compiled.stages_used()[0]
    wipe_mask = build_reconfig_packet(
        ResourceId(ResourceType.KEY_MASK, stage), index=3, entry=0,
        params=scalar.params)

    packets = flow_stream(fw, 3, rng, 120, ZipfFlows(fw.n_flows, skew=0.99))
    batch = packets[:60] + [wipe_mask] + packets[60:]

    scalar_results = [scalar.process(p.copy()) for p in batch]
    engine_results = engine.process_batch([p.copy() for p in batch])

    assert_equivalent(scalar_results, engine_results, "split batch")
    assert_same_observable_state(scalar, batched)
    assert engine.counters.reconfig_flushes == 1
    assert scalar_results[60].drop_reason == "reconfig_consumed"
    # The flip is real: flow 0 was blocked before the write, passes after.
    blocked = [r.dropped for i, r in enumerate(scalar_results)
               if i != 60 and batch[i].tobytes() ==
               fw.flow_packet(3, 0).tobytes()]
    if blocked:  # zipf rank 1 appears on both sides of the barrier
        assert True in blocked and False in blocked
