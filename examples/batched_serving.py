#!/usr/bin/env python3
"""Batched serving: the engine + workload subsystem end-to-end.

Serves zipf-distributed flow traffic from two tenants through the
batched execution engine (`repro.engine`), showing:

* per-VID sharded dispatch and per-tenant engine counters,
* the two-level hot path: each tenant's installed tables compiled into
  a classifier that serves every packet, with the scalar pipeline walk
  as the fallback,
* transactional invalidation — a `tenant.transaction()` commit drops
  the tenant's compiled classifier, so the very next packet is served
  by a classifier rebuilt for the new rules (never a stale verdict).

Run:  python examples/batched_serving.py
"""

import random
import time

from repro.api import Switch
from repro.traffic import TraceReplayer, ZipfFlows, flow_stream, workload


def main() -> None:
    switch = Switch.build().create()
    fw_spec, qos_spec = workload("firewall"), workload("qos")
    fw = fw_spec.admit(switch, vid=1)
    qos_spec.admit(switch, vid=2)
    engine = switch.engine()

    # -- skewed flow traffic, interleaved across the two tenants ---------
    rng = random.Random(42)
    pkts = []
    for fw_pkt, qos_pkt in zip(
            flow_stream(fw_spec, 1, rng, 2000, ZipfFlows(256, skew=0.99)),
            flow_stream(qos_spec, 2, rng, 2000, ZipfFlows(64, skew=0.9))):
        pkts.extend((fw_pkt, qos_pkt))

    start = time.perf_counter()
    results = TraceReplayer(pkts).replay(engine, batch_size=256)
    elapsed = time.perf_counter() - start

    counters = engine.counters
    forwarded = sum(r.forwarded for r in results)
    print(f"served {len(results)} packets in {elapsed * 1e3:.1f} ms "
          f"({len(results) / elapsed:,.0f} pps), {forwarded} forwarded")
    print(f"compiled level: {counters.compiled_hits} of "
          f"{counters.packets} packets, "
          f"{counters.compile_rebuilds} classifier builds, "
          f"scalar fallbacks {dict(counters.classifier_fallbacks) or 0}")
    for vid, c in sorted(counters.per_tenant.items()):
        print(f"  tenant {vid}: {c.packets} pkts, {c.compiled_hits} "
              f"compiled, {c.drops} drops, {c.bytes_out} bytes out")

    # -- transactional invalidation --------------------------------------
    probe = fw_spec.flow_packet(1, 1)          # flow 1 is allowed -> port 2
    before = engine.process(probe.copy())
    assert before.egress_port == 2
    builds = counters.compile_rebuilds
    acl = fw.table("acl")
    with fw.transaction() as txn:
        for handle in acl.handles():
            txn.table("acl").delete(handle)    # drop every ACL rule
    after = engine.process(probe.copy())
    rebuilt = counters.compile_rebuilds - builds
    print(f"\nafter transactional rule wipe: classifier rebuilt "
          f"{rebuilt}x, egress {before.egress_port} -> "
          f"{after.egress_port} (default)")
    assert rebuilt == 1 and after.egress_port == 0


if __name__ == "__main__":
    main()
