"""The benchmark's workloads: inputs from a seed, one timed call, a digest.

Every workload has three parts, which ``run.py`` times separately:

* ``setup(seed)`` goes from nothing to ready-to-run: topology, tenant
  admission (compile, load, verify), placement, table installs and the
  generated inputs. ``setup_s`` times it.
* ``run(prepared)`` is the timed call ``pps`` divides into:
  ``FabricTimelineExperiment.run()`` on the fabric workloads, the batch
  loop on ``engine-mixed``.
* ``outcome(prepared, result, verify)`` reduces the simulated outcome
  to the packet counts the metrics need and a digest of everything the
  simulation decided; with ``verify`` it also lists the invariants the
  run broke (none, when correct). Repetitions after the first only
  have to reproduce its digest.

The seed drives the calc operands, the churn rotation and the
``engine-mixed`` stream; the program only ever sees the packets and
the schedule built from them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import Switch
from repro.exec.parallel import TenantUpdateOp
from repro.fabric import leaf_spine
from repro.modules import calc, netchain
from repro.rmt.params import DEFAULT_PARAMS
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix, ZipfFlows, all_workloads
from repro.traffic.matrix import L1_OVERHEAD_BYTES

DEFAULT_SEED = 1
#: Never used while the benchmark or a change was tuned: re-check any
#: claimed gain on this seed too.
HELD_OUT_SEED = 7919

#: A VID no switch admits: its packets test the admission filter and
#: keep ``drop_share`` above zero on the fabric workloads.
STRAY_VID = 100


@dataclass(frozen=True)
class FabricParams:
    leaves: int = 4
    spines: int = 2
    hosts_per_leaf: int = 4
    tenants: int = 24
    packet_size: int = 300
    link_delay_s: float = 1e-3
    link_capacity_bps: float = 100e9
    #: CAM and VLIW rows per stage: room for every hosted tenant, and
    #: for the fragmentation live updates leave behind
    table_entries: int = 64
    #: overlay depth: covers the VID space, the stray VID included
    max_modules: int = 128
    #: offered rate of each tenant; arrivals are evenly spaced
    #: (open loop in virtual time)
    tenant_pps: float = 1000.0
    duration_s: float = 0.2
    #: offered rate of the stray VID (0: no stray traffic)
    stray_pps: float = 100.0
    backend: str = "serial"
    workers: Optional[int] = None
    #: odd tenants run NetChain, and one tenant at a time is updated live
    churn: bool = False
    update_every_s: float = 20e-3
    update_window_s: float = 1e-3


@dataclass(frozen=True)
class EngineParams:
    packets: int = 8192
    batch: int = 256
    flows: int = 1 << 16
    skew: float = 0.99
    #: leading packets re-checked against the scalar pipeline
    oracle_packets: int = 512


@dataclass
class Outcome:
    offered: int
    dropped: int
    digest: str
    problems: List[str]
    #: engine counters summed over the switches (hot-path levels)
    engine: Dict[str, int]


# -- shared pieces ---------------------------------------------------------


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fields(obj) -> Dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


#: Engine counters that record what the switch did with the packets.
#: The others (cache and compiled hits, batches, rebuilds, fallbacks)
#: record how the engine got there; they are per-layer metrics, and
#: leaving them out lets a change to the hot path keep the digest.
_ENGINE_OUTCOME = ("packets", "early_drops", "drops", "reconfig_flushes")
_TENANT_OUTCOME = ("packets", "drops", "bytes_out")
_ENGINE_LEVELS = ("batches", "packets", "cache_hits", "compiled_hits",
                  "early_drops", "reconfig_flushes", "compile_rebuilds")


def _switch_doc(switch, counters) -> Dict:
    return {
        "pipeline": _fields(switch.pipeline.stats),
        "engine": {
            **{k: getattr(counters, k) for k in _ENGINE_OUTCOME},
            "per_tenant": {vid: {k: getattr(t, k) for k in _TENANT_OUTCOME}
                           for vid, t in counters.per_tenant.items()}},
    }


def _levels(counters_list) -> Dict[str, int]:
    return {k: sum(getattr(c, k) for c in counters_list)
            for k in _ENGINE_LEVELS}


# -- fabric workloads --------------------------------------------------------


class CalcFeed:
    """A calc demand's ``make_packet``: ADD or SUB requests whose
    operands are drawn per packet from a stream seeded by (seed, VID).
    A plain class, so the process backend can pickle it."""

    def __init__(self, vid: int, size: int, seed: int):
        self.vid = vid
        self.size = size
        self.rng = random.Random(f"calc:{seed}:{vid}")

    def __call__(self):
        rng = self.rng
        op = calc.OP_ADD if rng.getrandbits(1) else calc.OP_SUB
        return calc.make_packet(self.vid, op, rng.getrandbits(32),
                                rng.getrandbits(32), pad_to=self.size)


class NetChainFeed:
    """A NetChain demand's ``make_packet``: sequencer requests."""

    def __init__(self, vid: int, size: int):
        self.vid = vid
        self.size = size

    def __call__(self):
        return netchain.make_packet(self.vid, pad_to=self.size)


def _route(i: int, p: FabricParams):
    """Tenant ``i``'s (source host, destination host, spine)."""
    src_leaf = i % p.leaves
    dst_leaf = (i + 1 + i // p.leaves) % p.leaves
    if dst_leaf == src_leaf:
        dst_leaf = (dst_leaf + 1) % p.leaves
    host = i % p.hosts_per_leaf
    return ((f"leaf{src_leaf}", host), (f"leaf{dst_leaf}", host),
            f"spine{i % p.spines}")


class FabricWorkload:
    """A leaf-spine fabric of calc (and NetChain) tenants under a
    deterministic arrival schedule, replayed by
    :class:`repro.sim.FabricTimelineExperiment`."""

    def __init__(self, params: FabricParams):
        self.params = params

    def setup(self, seed: int) -> FabricTimelineExperiment:
        p = self.params
        params = dataclasses.replace(
            DEFAULT_PARAMS, match_entries_per_stage=p.table_entries,
            vliw_entries_per_stage=p.table_entries)
        fabric = leaf_spine(leaves=p.leaves, spines=p.spines,
                            hosts_per_leaf=p.hosts_per_leaf,
                            link_capacity_bps=p.link_capacity_bps,
                            link_delay_s=p.link_delay_s,
                            make_builder=lambda: Switch.build().params(
                                params).max_modules(p.max_modules))
        matrix = TrafficMatrix()

        def add(vid, src, dst, pps, feed):
            matrix.add(vid, src, dst,
                       offered_bps=pps * (p.packet_size
                                          + L1_OVERHEAD_BYTES) * 8,
                       packet_size=p.packet_size, make_packet=feed)

        for i in range(p.tenants):
            vid = i + 1
            module = netchain if p.churn and i % 2 else calc
            src, dst, spine = _route(i, p)
            tenant = fabric.tenant(f"{module.NAME}{vid}", module.P4_SOURCE,
                                   vid=vid, installer=module.install)
            tenant.place(src, dst, via=[spine])
            feed = (NetChainFeed(vid, p.packet_size) if module is netchain
                    else CalcFeed(vid, p.packet_size, seed))
            add(vid, src, dst, p.tenant_pps, feed)
        if p.stray_pps:
            src, dst, _ = _route(0, p)
            add(STRAY_VID, src, dst, p.stray_pps,
                CalcFeed(STRAY_VID, p.packet_size, seed))
        experiment = FabricTimelineExperiment(
            fabric, matrix, duration_s=p.duration_s, backend=p.backend,
            workers=p.workers)
        if p.churn:
            self._schedule_updates(experiment, seed)
        return experiment

    def _schedule_updates(self, experiment, seed: int) -> None:
        """Every ``update_every_s``, a live update of the next tenant in
        a seeded rotation, holding its §4.1 window for
        ``update_window_s``.

        Each window opens a quarter gap before one of the tenant's own
        arrivals, so every window meets its tenant's traffic at the
        same phase and the drop count does not depend on which tenants
        the seed picked."""
        p = self.params
        tenants = experiment.fabric.tenants()
        random.Random(f"churn:{seed}").shuffle(tenants)
        due: Dict[int, List[float]] = {}
        for t, demand in experiment.matrix.arrivals(p.duration_s):
            due.setdefault(demand.vid, []).append(t)
        gap = 1.0 / p.tenant_pps
        at = p.update_every_s / 2
        k = 0
        while at < p.duration_s:
            tenant = tenants[k % len(tenants)]
            arrival = next((t for t in due[tenant.vid] if t >= at), None)
            if arrival is None:
                break
            experiment.schedule_reconfig(
                tenant.vid, arrival - gap / 4, p.update_window_s,
                op=TenantUpdateOp.for_tenant(tenant, tenant.source))
            at += p.update_every_s
            k += 1

    def run(self, experiment):
        return experiment.run()

    def outcome(self, experiment, result, verify: bool) -> Outcome:
        p = self.params
        offered = Counter(demand.vid for _, demand
                          in experiment.matrix.arrivals(p.duration_s))
        problems = []
        if verify:
            for vid, count in sorted(offered.items()):
                seen = (result.delivered.get(vid, 0)
                        + result.drops.get(vid, 0) + result.lost.get(vid, 0))
                if seen != count:
                    problems.append(f"vid {vid}: {count} offered, {seen} "
                                    f"delivered, dropped or lost")
            if result.delivered.get(STRAY_VID, 0):
                problems.append(f"stray vid {STRAY_VID} reached an egress")
        members = experiment.fabric.switches()
        doc = {
            "delivered": result.delivered,
            "drops": result.drops,
            "lost": result.lost,
            "lost_by_link": sorted([vid, link, n] for (vid, link), n
                                   in result.lost_by_link.items()),
            "bins": result.bins,
            "throughput_gbps": result.throughput_gbps,
            "latencies_s": result.latencies_s,
            "switches": {m.name: _switch_doc(m.switch, m.engine.counters)
                         for m in members},
        }
        return Outcome(
            offered=sum(offered.values()),
            dropped=sum(result.drops.values()) + sum(result.lost.values()),
            digest=_digest(doc), problems=problems,
            engine=_levels([m.engine.counters for m in members]))


# -- engine-mixed ------------------------------------------------------------


class _Strata:
    """Stands in for ``random.Random`` in a flow sampler: draw ``i`` of
    ``n`` is uniform in the ``i``-th of ``n`` equal strata, so every
    flow's packet count is within one of its expected share while the
    seed still picks the tail flows."""

    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.n = n
        self.i = 0

    def random(self) -> float:
        u = (self.i + self.rng.random()) / self.n
        self.i += 1
        return u


def mixed_plan(seed: int, p: EngineParams) -> List[Tuple[int, int]]:
    """The ``engine-mixed`` stream as (VID, flow ID) pairs: an equal
    share per module, Zipf flow popularity, seeded order."""
    rng = random.Random(f"engine-mixed:{seed}")
    sampler = ZipfFlows(p.flows, skew=p.skew)
    modules = len(all_workloads())
    per = p.packets // modules
    plan = [(vid, flow) for vid in range(1, modules + 1)
            for flow in sampler.stream(_Strata(rng, per), per)]
    rng.shuffle(plan)
    return plan


@dataclass
class MixedRun:
    switch: Switch
    engine: object
    scheduler: object
    plan: List[Tuple[int, int]]
    stream: List


def _mixed_switch() -> Switch:
    switch = Switch.build().create()
    for vid, spec in enumerate(all_workloads(), 1):
        spec.admit(switch, vid=vid)
    return switch


def _result_key(result) -> Tuple:
    return (result.dropped, result.drop_reason, result.egress_port,
            result.mcast_group, result.module_id,
            result.packet.tobytes() if result.packet is not None else b"")


class EngineMixed:
    """One switch with all eight Table-3 modules, fed closed loop in
    fixed-size batches straight into its engine; caches start cold."""

    def __init__(self, params: EngineParams):
        self.params = params

    def setup(self, seed: int) -> MixedRun:
        switch = _mixed_switch()
        engine = switch.engine()
        specs = all_workloads()
        plan = mixed_plan(seed, self.params)
        # A flow's packets are byte-identical: build each flow once.
        built: Dict[Tuple[int, int], object] = {}
        stream = []
        for vid, flow in plan:
            packet = built.get((vid, flow))
            if packet is None:
                packet = built[(vid, flow)] = specs[vid - 1].flow_packet(
                    vid, flow)
            stream.append(packet.copy())
        return MixedRun(switch, engine, switch.egress_scheduler, plan,
                        stream)

    def run(self, prepared: MixedRun):
        engine, scheduler = prepared.engine, prepared.scheduler
        stream, batch = prepared.stream, self.params.batch
        results: List = []
        drained: List = []
        for i in range(0, len(stream), batch):
            results.extend(engine.process_batch(stream[i:i + batch]))
            drained.append(scheduler.drain_all())
        return results, drained

    def outcome(self, prepared: MixedRun, result, verify: bool) -> Outcome:
        results, drained = result
        problems = []
        if len(results) != len(prepared.stream):
            problems.append(f"{len(results)} results for "
                            f"{len(prepared.stream)} packets")
        if verify:
            # The scalar pipeline on a fresh switch is the oracle.
            oracle = _mixed_switch()
            specs = all_workloads()
            for i, (vid, flow) in enumerate(
                    prepared.plan[:self.params.oracle_packets]):
                expect = oracle.process(
                    specs[vid - 1].flow_packet(vid, flow))
                if _result_key(expect) != _result_key(results[i]):
                    problems.append(f"packet {i} (vid {vid}, flow {flow}) "
                                    f"differs from the scalar pipeline")
                    break
        digest = hashlib.sha256()
        for r in results:
            digest.update(repr(_result_key(r)).encode())
        for ports in drained:
            for port, packets in sorted(ports.items()):
                for packet in packets:
                    digest.update(b"%d:" % port + packet.tobytes())
        digest.update(_digest(_switch_doc(
            prepared.switch, prepared.engine.counters)).encode())
        return Outcome(
            offered=len(prepared.stream),
            dropped=sum(1 for r in results if r.dropped),
            digest=digest.hexdigest(), problems=problems,
            engine=_levels([prepared.engine.counters]))


# -- the catalogue ---------------------------------------------------------

#: Workload name -> (class, parameters). ``fabric-process`` simulates
#: exactly the ``fabric-steady`` run, so it shares its reference.
WORKLOADS = {
    "fabric-steady": (FabricWorkload, FabricParams()),
    "fabric-process": (FabricWorkload,
                       FabricParams(backend="process", workers=2)),
    "fabric-stateful-churn": (FabricWorkload,
                              FabricParams(tenant_pps=500.0, stray_pps=0.0,
                                           churn=True)),
    "engine-mixed": (EngineMixed, EngineParams()),
}

#: Tiny inputs for the self-test: same shapes, a fraction of the work.
TINY = {
    "fabric-steady": {"duration_s": 0.01},
    "fabric-process": {"duration_s": 0.01},
    "fabric-stateful-churn": {"duration_s": 0.04},
    "engine-mixed": {"packets": 512, "oracle_packets": 64},
}

#: The workload whose digest a workload must reproduce.
REFERENCE_OF = {"fabric-process": "fabric-steady"}


def make(name: str, tiny: bool = False):
    """A workload object by name (tiny inputs for the self-test)."""
    cls, params = WORKLOADS[name]
    if tiny:
        params = dataclasses.replace(params, **TINY[name])
    return cls(params)
