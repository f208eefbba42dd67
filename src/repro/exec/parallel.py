"""Sharded parallel execution backend: one worker process per switch.

A fabric is embarrassingly parallel across switches — the only
coupling is the packets crossing inter-switch links. This module
shards the fabric over ``multiprocessing`` workers (one per switch by
default; fewer workers own contiguous shards of the fabric's switch
order), each worker rebuilding its member switches **in-process from a
pickled switch spec** — per-worker :class:`~repro.engine.batch.
BatchEngine`, :class:`~repro.engine.scheduler.EgressScheduler`, and
:class:`~repro.core.stats.PipelineStats`, so compiled classifiers
warm locally — and ships results home as typed per-switch
frames (counter *deltas* via the introspected algebra in
:mod:`repro.core.stats`, plus the sink's event records), which the
parent merges so ``FabricResult`` / ``FabricTimelineResult`` match the
serial oracle.

Two timing policies, mirroring :class:`~repro.exec.core.ExecutionCore`:

* **Untimed waves** (:func:`run_fabric_batch`) — the wave barrier *is*
  the synchronization: the parent partitions each wave's arrivals by
  owning worker, collects every worker's emissions tagged (global
  switch index, port, drain order), and re-sorts them into the serial
  forwarder's exact order before feeding the next wave.
* **Event-driven timeline** (:func:`run_fabric_timeline`) —
  conservative discrete-event synchronization in the
  Chandy-Misra-Bryant style, paced by parent-coordinated rounds. Each
  round a worker consumes one message per in-peer (cross-link packets
  plus the sender's **promise**: its processed-through horizon),
  services local events up to the safe bound — ``min`` over in-edges
  of (promise + that edge's lookahead, the minimum link propagation
  delay) — and sends its own packets + promise to every out-peer. An
  idle edge still carries its promise every round: the **null
  message** that keeps bounds advancing and the worker graph
  deadlock-free. The parent collects one status line per worker per
  round and stops the fleet on the first globally quiescent round
  (zero pending events and zero emitted packets everywhere — with the
  barrier, nothing can be in flight). Zero-delay cross-worker links
  are rejected (:class:`~repro.errors.ParallelExecError`): without
  positive lookahead the bound cannot advance.

Reconfiguration inside a parallel timeline cannot ride an opaque
callable (it would have to execute in another process), so the process
backend accepts **declarative lifecycle ops** (:class:`TenantUpdateOp`,
:class:`LinkStateOp`) that know how to apply themselves both serially
(``apply_serial``, the oracle path) and inside a worker shard
(``apply_worker``, using only worker-local state — a §4.1 window is
worker-local by construction: each worker raises the bit on *its*
switches hosting the tenant). After a parallel run the parent replays
the durable ops against its own fabric (with counters snapshot /
restored around the replay, since the workers' deltas already carry
the ops' counter effects), so the parent's control-plane state
converges to what a serial run would have left behind.

Parity contract: per-tenant counters, ``lost_records()``, deliveries,
and latencies are identical to serial. Exact same-instant ties
*across worker boundaries* (two packets arriving at one switch at the
same virtual time from different workers) may interleave differently
than the serial event seq — counters and per-link loss records are
unaffected; the differential tests use tie-free schedules.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import FabricError, ParallelExecError
from ..net.packet import Packet
from .core import ExecutionCore, ExecutionSink, vid_of

#: The execution backends every fabric serving frontend accepts.
EXEC_BACKENDS = ("serial", "process")

#: Machine-readable backend description (surfaced by
#: ``repro-info --json`` under the ``"exec"`` section).
PARALLEL_INFO = {
    "backends": list(EXEC_BACKENDS),
    "env": {"backend": "REPRO_EXEC_BACKEND",
            "workers": "REPRO_EXEC_WORKERS"},
    "worker_policy": ("one worker per switch by default; fewer workers "
                      "own contiguous shards of the fabric's switch "
                      "order"),
    "sync_algorithm": ("conservative lockstep (Chandy-Misra-Bryant "
                       "null messages): each round a worker services "
                       "events up to min over in-edges of "
                       "(peer promise + lookahead), then promises its "
                       "own horizon to every out-peer; the parent "
                       "stops the fleet on the first globally "
                       "quiescent round"),
    "lookahead_source": ("link propagation delay (Link.delay_s) of "
                         "the cross-worker links"),
}

_GET_TIMEOUT_S = 600.0


def default_backend() -> str:
    """Backend selected by ``REPRO_EXEC_BACKEND`` (default ``serial``)."""
    value = os.environ.get("REPRO_EXEC_BACKEND")
    if value is None or not value.strip():
        return "serial"
    normalized = value.strip().lower()
    if normalized not in EXEC_BACKENDS:
        raise ValueError(
            f"REPRO_EXEC_BACKEND={value!r} is not one of {EXEC_BACKENDS}")
    return normalized


def default_workers() -> Optional[int]:
    """Worker count from ``REPRO_EXEC_WORKERS`` (``None`` = one per
    switch)."""
    value = os.environ.get("REPRO_EXEC_WORKERS")
    if value is None or not value.strip():
        return None
    count = int(value)
    if count < 1:
        raise ValueError(
            f"REPRO_EXEC_WORKERS={value!r} must be a positive integer")
    return count


def resolve_backend(backend: Optional[str]) -> str:
    """An explicit ``backend=`` argument, else the environment default."""
    if backend is None:
        return default_backend()
    if backend not in EXEC_BACKENDS:
        raise ValueError(
            f"backend={backend!r} is not one of {EXEC_BACKENDS}")
    return backend


# -- declarative lifecycle ops ------------------------------------------------


class FabricOp:
    """A lifecycle action that can cross a process boundary.

    Opaque ``apply`` callables cannot run inside a worker, so the
    process backend's reconfiguration events carry these instead: a
    picklable value object that applies itself either against the
    whole fabric (:meth:`apply_serial` — the serial oracle path and
    the parent's post-run state replay) or against one worker's shard
    (:meth:`apply_worker`, using only worker-local state).
    """

    #: Whether the parent replays the op after a parallel run to
    #: converge its own control-plane state.
    durable = True

    def apply_serial(self, fabric) -> None:
        raise NotImplementedError

    def apply_worker(self, shard: "WorkerShard") -> None:
        raise NotImplementedError


@dataclass
class TenantUpdateOp(FabricOp):
    """Live §4.1 program update of one tenant across its route.

    Per hosting switch: ``handle.update(source)`` then the installer
    re-runs with that switch's recorded egress port — exactly what
    :meth:`repro.fabric.tenant.FabricTenant.update` does per switch,
    so a boundary-crossing update applies identically whether the
    route's switches live in one process or three. The installer must
    be picklable (a module-level function). A mid-route failure inside
    a worker aborts the parallel run (cross-process rollback is not
    attempted); the serial backend keeps ``FabricTenant.update``'s
    rollback semantics."""

    vid: int
    source: str
    installer: Callable
    #: switch name -> egress port the installer steers toward there
    egress: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def for_tenant(cls, tenant, source: str,
                   installer: Optional[Callable] = None
                   ) -> "TenantUpdateOp":
        """Build the op from a placed
        :class:`~repro.fabric.tenant.FabricTenant`."""
        return cls(vid=tenant.vid, source=source,
                   installer=installer if installer is not None
                   else tenant.installer,
                   egress=dict(tenant._egress))

    def apply_serial(self, fabric) -> None:
        fabric.tenant_by_vid(self.vid).update(self.source, self.installer)

    def apply_worker(self, shard: "WorkerShard") -> None:
        for member in shard.members:
            if self.vid in member.switch.controller.modules:
                handle = member.switch.tenant(self.vid)
                handle.update(self.source)
                self.installer(handle, self.egress[member.name])


@dataclass
class LinkStateOp(FabricOp):
    """Administratively raise or lower the link between two switches.

    Worker-local application: every worker owning an endpoint flips
    its own copy of the link; a cross-worker link exists on both sides
    and both flip, so each side's routing sees the change at the same
    virtual time."""

    a: str
    b: str
    up: bool

    def apply_serial(self, fabric) -> None:
        fabric.set_link_state(self.a, self.b, self.up)

    def apply_worker(self, shard: "WorkerShard") -> None:
        ends = {self.a, self.b}
        for member in shard.members:
            for port in sorted(member.links):
                link = member.links[port]
                if {link.a.switch, link.b.switch} == ends:
                    link.up = self.up


# -- sharding -----------------------------------------------------------------


class WorkerShard:
    """One worker's unpickled slice of the fabric."""

    def __init__(self, members: Sequence):
        self.members = list(members)
        self.by_name = {member.name: member for member in self.members}


def partition_names(names: Sequence[str], workers: int) -> List[List[str]]:
    """Contiguous blocks of the fabric's switch order, one per worker."""
    count = len(names)
    w = max(1, min(workers, count))
    base, extra = divmod(count, w)
    blocks: List[List[str]] = []
    start = 0
    for i in range(w):
        size = base + (1 if i < extra else 0)
        blocks.append(list(names[start:start + size]))
        start += size
    return blocks


def _resolve_worker_count(fabric, workers: Optional[int]) -> int:
    if workers is None:
        workers = default_workers()
    members = fabric.switches()
    if workers is None:
        workers = len(members)
    if workers < 1:
        raise ParallelExecError(f"need at least one worker, got {workers}")
    return max(1, min(workers, len(members)))


def _shard_blobs(fabric, blocks: List[List[str]]) -> List[bytes]:
    """One pickled spec per worker: the worker's switches as a single
    object graph, so shared references (a scheduler's stats *is* its
    pipeline's stats; an in-shard link is one object) survive."""
    blobs = []
    for block in blocks:
        members = [fabric.switch(name) for name in block]
        try:
            blobs.append(pickle.dumps(members,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        except Exception as exc:
            raise ParallelExecError(
                f"switch spec for worker shard {block} is not "
                f"picklable: {exc}") from exc
    return blobs


def _baseline(members) -> Dict:
    """Start-of-run counter/link baselines, for delta frames."""
    links = {}
    seen = set()
    for member in members:
        for port in sorted(member.links):
            link = member.links[port]
            if id(link) in seen:
                continue
            seen.add(id(link))
            links[link.name] = (link.bytes_carried,
                                dict(link.bytes_by_tenant))
    return {
        "stats": {member.name: member.switch.pipeline.stats.snapshot()
                  for member in members},
        "engine": {member.name: member.engine.counters.snapshot()
                   for member in members},
        "links": links,
    }


@dataclass
class SwitchFrame:
    """One switch's typed result frame: counter deltas for the run."""

    name: str
    stats_delta: object
    engine_delta: object


def _switch_frames(members, baseline) -> List[SwitchFrame]:
    return [SwitchFrame(
        name=member.name,
        stats_delta=member.switch.pipeline.stats.delta_since(
            baseline["stats"][member.name]),
        engine_delta=member.engine.counters.delta_since(
            baseline["engine"][member.name]))
        for member in members]


def _link_deltas(members, baseline) -> Dict[str, Tuple[int, Dict[int, int]]]:
    deltas = {}
    seen = set()
    for member in members:
        for port in sorted(member.links):
            link = member.links[port]
            if id(link) in seen:
                continue
            seen.add(id(link))
            base_bytes, base_by_vid = baseline["links"][link.name]
            by_vid = {vid: count - base_by_vid.get(vid, 0)
                      for vid, count in link.bytes_by_tenant.items()}
            deltas[link.name] = (link.bytes_carried - base_bytes, by_vid)
    return deltas


def _merge_frames(fabric, frames: Sequence) -> None:
    """Fold worker frames back into the parent's live objects.

    A cross-worker link was pickled into both endpoint shards; each
    side recorded only the bytes of packets *it* sent across, so
    summing both sides' deltas reproduces the serial totals."""
    link_by_name = {}
    for link in fabric.links():
        link_by_name.setdefault(link.name, link)
    for frame in frames:
        for sf in frame.switches:
            member = fabric.switch(sf.name)
            member.switch.pipeline.stats.merge_from(sf.stats_delta)
            member.engine.counters.merge_from(sf.engine_delta)
        for name, (nbytes, by_vid) in frame.link_deltas.items():
            link = link_by_name[name]
            link.bytes_carried += nbytes
            for vid, count in by_vid.items():
                link.bytes_by_tenant[vid] = \
                    link.bytes_by_tenant.get(vid, 0) + count


# -- worker pool --------------------------------------------------------------


class _WorkerPool:
    """Spawns workers, owns the queues, guarantees teardown.

    Every worker target has the signature ``(worker_id, plan_blob,
    inboxes, to_parent)`` — the full inbox list, so timeline workers
    can push edge messages straight into a peer's inbox without
    round-tripping packets through the parent."""

    def __init__(self, target, plans: Sequence):
        ctx = multiprocessing.get_context()
        count = len(plans)
        self.to_parent = ctx.Queue()
        self.inboxes = [ctx.Queue(maxsize=2 * count + 16)
                        for _ in range(count)]
        self.procs = []
        for i, plan in enumerate(plans):
            blob = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
            proc = ctx.Process(
                target=target,
                args=(i, blob, self.inboxes, self.to_parent),
                daemon=True, name=f"repro-exec-{i}")
            self.procs.append(proc)
        for proc in self.procs:
            proc.start()

    def get(self):
        msg = self.to_parent.get(timeout=_GET_TIMEOUT_S)
        if msg[0] == "error":
            raise ParallelExecError(f"worker {msg[1]} died:\n{msg[2]}")
        return msg

    def broadcast(self, msg) -> None:
        for inbox in self.inboxes:
            inbox.put(msg)

    def send(self, worker_id: int, msg) -> None:
        self.inboxes[worker_id].put(msg)

    def collect_frames(self, count: int) -> List:
        frames: Dict[int, object] = {}
        while len(frames) < count:
            msg = self.get()
            if msg[0] == "frame":
                frames[msg[1]] = pickle.loads(msg[2])
        return [frames[i] for i in sorted(frames)]

    def shutdown(self) -> None:
        for inbox in self.inboxes:
            try:
                inbox.put_nowait(("stop",))
            except Exception:
                pass
        for proc in self.procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10.0)
        for queue in [self.to_parent, *self.inboxes]:
            queue.cancel_join_thread()
            queue.close()


# ====================== untimed waves (process backend) ======================


class _WavesWorkerSink(ExecutionSink):
    """Tags every delivery/loss with (wave, global switch index, seq)
    so the parent can re-create the serial forwarder's fabric-wide
    service order exactly."""

    def __init__(self, member_index: Dict[str, int]):
        self.member_index = member_index
        self.wave = 0
        self.seq = 0
        self.results: Dict[str, List] = {}
        self.delivered: List[Tuple] = []
        self.lost: List[Tuple] = []
        self.dropped: Dict[int, int] = {}

    def begin(self, wave: int) -> None:
        self.wave = wave
        self.seq = 0

    def _tag(self, member: str) -> Tuple[int, int, int]:
        tag = (self.wave, self.member_index[member], self.seq)
        self.seq += 1
        return tag

    def on_result(self, member: str, result) -> None:
        self.results.setdefault(member, []).append(result)

    def on_drop(self, vid: int) -> None:
        self.dropped[vid] = self.dropped.get(vid, 0) + 1

    def on_deliver(self, member: str, port: int, vid: int,
                   packet: Packet, time: float) -> None:
        self.delivered.append((*self._tag(member), member, port, vid,
                               packet))

    def on_lost(self, member: str, port: int, vid: int, packet: Packet,
                link: str, time: float) -> None:
        self.lost.append((*self._tag(member), member, port, vid, packet,
                          link))


@dataclass
class _WavesPlan:
    worker_id: int
    spec: bytes
    #: switch name -> global index in the fabric's switch order
    member_index: Dict[str, int]


@dataclass
class _WavesFrame:
    switches: List[SwitchFrame]
    link_deltas: Dict[str, Tuple[int, Dict[int, int]]]
    results: Dict[str, List]
    delivered: List[Tuple]
    lost: List[Tuple]
    dropped: Dict[int, int]


def run_waves_shard(plan: _WavesPlan, shard: WorkerShard, recv, send) -> None:
    """One waves worker's message loop (drivable in-process for tests:
    ``recv`` is a zero-arg message source, ``send`` a one-arg sink).

    Per ``("wave", n, arrivals)`` message the shard's members serve
    their arrivals in global switch order and drain every port in
    weighted-fair service order — the serial wave body, scoped to the
    shard. Cross-link targets (local *or* remote: waves are globally
    barriered, so even an in-shard hop belongs to the next wave) go
    back to the parent tagged (global switch index, port, seq)."""
    baseline = _baseline(shard.members)
    sink = _WavesWorkerSink(plan.member_index)
    core = ExecutionCore(shard.members, sink=sink)
    while True:
        msg = recv()
        if msg[0] != "wave":
            break
        _, wave_no, items = msg
        sink.begin(wave_no)
        by_member: Dict[str, List[Packet]] = {}
        for name, packet in items:
            by_member.setdefault(name, []).append(packet)
        emissions: List[Tuple] = []
        for member in shard.members:
            pkts = by_member.get(member.name)
            if not pkts:
                continue
            if not core.member_up(member):
                for packet in pkts:
                    sink.on_lost(member.name, packet.ingress_port or 0,
                                 vid_of(packet), packet,
                                 f"switch:{member.name}", 0.0)
                continue
            core._serve_batch(member, pkts)
            seq = 0
            for port in range(member.num_ports):
                for packet in member.scheduler.drain(port):
                    target = core.route(member, port, packet,
                                        vid_of(packet))
                    if target is None:
                        continue
                    emissions.append((plan.member_index[member.name],
                                      port, seq, target[0], target[1]))
                    seq += 1
        send(("wave_done", plan.worker_id, emissions))
    if msg[0] == "finish":
        frame = _WavesFrame(
            switches=_switch_frames(shard.members, baseline),
            link_deltas=_link_deltas(shard.members, baseline),
            results=sink.results, delivered=sink.delivered,
            lost=sink.lost, dropped=sink.dropped)
        send(("frame", plan.worker_id,
              pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)))


def _waves_worker_entry(worker_id: int, plan_blob: bytes, inboxes,
                        to_parent) -> None:  # pragma: no cover — subprocess
    try:
        plan = pickle.loads(plan_blob)
        shard = WorkerShard(pickle.loads(plan.spec))
        run_waves_shard(plan, shard, inboxes[worker_id].get, to_parent.put)
    except BaseException:
        to_parent.put(("error", worker_id, traceback.format_exc()))


def run_fabric_batch(fabric, arrivals, max_hops: Optional[int] = None,
                     workers: Optional[int] = None):
    """The process backend behind
    :func:`repro.fabric.forwarding.process_batch`.

    The parent is the wave barrier: it partitions each wave's arrivals
    by owning worker, collects every worker's tagged emissions, sorts
    them into the serial forwarder's order (global switch index, port,
    drain order), and feeds them back as the next wave. Bit-identical
    to the serial result, including delivery order; the caller's
    arrival packets are not mutated (workers operate on pickled
    copies)."""
    from ..fabric.forwarding import Delivery, FabricResult, LostPacket

    members = fabric.switches()
    names = [member.name for member in members]
    member_index = {name: i for i, name in enumerate(names)}
    count = _resolve_worker_count(fabric, workers)
    blocks = partition_names(names, count)
    owner: Dict[str, int] = {}
    for wid, block in enumerate(blocks):
        for name in block:
            owner[name] = wid
    if max_hops is None:
        max_hops = max(1, len(members))
    blobs = _shard_blobs(fabric, blocks)
    plans = [_WavesPlan(worker_id=i, spec=blobs[i],
                        member_index=member_index)
             for i in range(count)]
    pool = _WorkerPool(_waves_worker_entry, plans)
    try:
        waves = 0
        wave: List[Tuple[str, Packet]] = [(name, packet)
                                          for name, packet in arrivals]
        overflowed = True
        for _ in range(max_hops + 1):
            if not wave:
                overflowed = False
                break
            waves += 1
            per_worker: Dict[int, List] = {i: [] for i in range(count)}
            for name, packet in wave:
                fabric.switch(name)  # typed error for unknown names
                per_worker[owner[name]].append((name, packet))
            for wid in range(count):
                pool.send(wid, ("wave", waves, per_worker[wid]))
            emissions: List[Tuple] = []
            done = 0
            while done < count:
                msg = pool.get()
                if msg[0] == "wave_done":
                    done += 1
                    emissions.extend(msg[2])
            emissions.sort(key=lambda e: (e[0], e[1], e[2]))
            wave = [(dst, packet) for _, _, _, dst, packet in emissions]
        if overflowed:
            raise FabricError(
                f"batch still in flight after {max_hops} hops — "
                f"forwarding loop? in-flight: "
                f"{[(name, vid_of(p)) for name, p in wave[:8]]}")
        pool.broadcast(("finish",))
        frames = pool.collect_frames(count)
    finally:
        pool.shutdown()

    _merge_frames(fabric, frames)
    result = FabricResult(waves=waves)
    for frame in frames:
        for name, outcomes in frame.results.items():
            result.results[name] = outcomes
        for vid, n in frame.dropped.items():
            result.dropped[vid] = result.dropped.get(vid, 0) + n
    delivered = sorted((entry for frame in frames
                        for entry in frame.delivered),
                       key=lambda e: (e[0], e[1], e[2]))
    result.delivered = [Delivery(switch=member, port=port, vid=vid,
                                 packet=packet)
                        for _, _, _, member, port, vid, packet in delivered]
    lost = sorted((entry for frame in frames for entry in frame.lost),
                  key=lambda e: (e[0], e[1], e[2]))
    result.lost = [LostPacket(link=link, switch=member, port=port,
                              vid=vid, packet=packet)
                   for _, _, _, member, port, vid, packet, link in lost]
    return result


# =================== event-driven timeline (process backend) =================


class _TimelineWorkerSink(ExecutionSink):
    """Collects the worker's share of the timeline accounting, with a
    local-virtual-time watermark (``lvt``) so the parent can
    reconstruct the serial run's final clock exactly."""

    def __init__(self, scale: float, sim):
        self.scale = scale
        self.sim = sim
        self.lvt = 0.0
        #: (vid, delivery time, bits, end-to-end latency)
        self.deliveries: List[Tuple[int, float, float, float]] = []
        self.drops: Dict[int, int] = {}
        self.lost: Dict[int, int] = {}
        self.lost_by_link: Dict[Tuple[int, str], int] = {}
        self.loss_log: List[Tuple[float, int, str]] = []

    def touch(self, time: Optional[float] = None) -> None:
        at = self.sim.now if time is None else time
        if at > self.lvt:
            self.lvt = at

    def on_result(self, member: str, result) -> None:
        self.touch()

    def on_deliver(self, member: str, port: int, vid: int,
                   packet: Packet, time: float) -> None:
        self.touch(time)
        self.deliveries.append((vid, time, len(packet) * 8 * self.scale,
                                time - packet.arrival_time))

    def on_drop(self, vid: int) -> None:
        self.touch()
        self.drops[vid] = self.drops.get(vid, 0) + 1

    def on_lost(self, member: str, port: int, vid: int, packet: Packet,
                link: str, time: float) -> None:
        self.touch(time)
        self.lost[vid] = self.lost.get(vid, 0) + 1
        self.lost_by_link[(vid, link)] = \
            self.lost_by_link.get((vid, link), 0) + 1
        self.loss_log.append((time, vid, link))


@dataclass
class _TimelinePlan:
    worker_id: int
    spec: bytes
    #: switch name -> owning worker (for routing emissions)
    owner: Dict[str, int]
    #: in-peer worker -> lookahead (min delay of its links toward me)
    in_peers: Dict[int, float]
    out_peers: Tuple[int, ...]
    #: (virtual time, Demand) arrivals at this shard's switches
    arrivals: List[Tuple[float, object]]
    #: (vid, start_s, duration_s, FabricOp-or-None) — the shard
    #: applies the op locally and holds the §4.1 window on its own
    #: hosting switches
    events: List[Tuple[int, float, float, Optional[FabricOp]]]
    #: every scheduled window (vid, start_s, duration_s) — for the
    #: overlapping-window close check
    windows: List[Tuple[int, float, float]]
    duration_s: float
    scale: float


@dataclass
class _TimelineFrame:
    switches: List[SwitchFrame]
    link_deltas: Dict[str, Tuple[int, Dict[int, int]]]
    deliveries: List[Tuple[int, float, float, float]]
    drops: Dict[int, int]
    lost: Dict[int, int]
    lost_by_link: Dict[Tuple[int, str], int]
    loss_log: List[Tuple[float, int, str]]
    lvt: float
    backlog: int


def run_timeline_shard(plan: _TimelinePlan, shard: WorkerShard,
                       recv, send_edge, send_parent) -> None:
    """One timeline worker's conservative-sync loop (drivable
    in-process for tests: ``recv`` is a zero-arg message source,
    ``send_edge(peer, msg)`` / ``send_parent(msg)`` the outputs).

    Round structure: consume one ``("edge", src, promise, entries)``
    message per in-peer (round 0 starts from the implicit promise 0 —
    nothing departs before the epoch, so each channel clock begins at
    its lookahead), advance each channel clock to ``promise +
    lookahead``, service local events up to the minimum channel clock,
    then send this round's cross-shard packets *and* the new promise
    (the null message) to every out-peer plus a status line to the
    parent, and wait for the parent's ``("go",)`` barrier or
    ``("stop",)`` verdict. A worker with no in-peers runs unbounded in
    round 0 and promises infinity, which releases its downstream peers
    from ever being bounded by that channel again."""
    from ..sim.kernel import Simulator

    baseline = _baseline(shard.members)
    sim = Simulator()
    sink = _TimelineWorkerSink(plan.scale, sim)
    out_buf: Dict[int, List[Tuple[str, Packet, float]]] = \
        {peer: [] for peer in plan.out_peers}

    def remote(name: str, packet: Packet, arrive_at: float) -> None:
        out_buf[plan.owner[name]].append((name, packet, arrive_at))

    core = ExecutionCore(shard.members, sink=sink, sim=sim,
                         remote_handler=remote)

    def arrival(demand, t: float) -> None:
        sink.touch(t)
        packet = demand.make_packet()
        packet.arrival_time = t
        packet.ingress_port = demand.src.port
        core.inject(shard.by_name[demand.src.switch], packet, t)

    def receive(name: str, packet: Packet, t: float) -> None:
        sink.touch(t)
        core.inject(shard.by_name[name], packet, t)

    def open_window(vid: int, duration: float,
                    op: Optional[FabricOp]) -> None:
        sink.touch()
        if op is not None:
            op.apply_worker(shard)
        if duration <= 0:
            return
        for member in shard.members:
            if vid in member.switch.controller.modules:
                member.switch.pipeline.packet_filter \
                    .set_module_updating(vid)

    def close_window(vid: int, at: float) -> None:
        # Mirrors the serial overlap rule: keep the bit while any
        # *other* window for the VID still covers instant ``at`` (an
        # event's own window spans [start, start+duration) and never
        # covers its own close time, so a value check suffices).
        sink.touch(at)
        for ovid, ostart, odur in plan.windows:
            if ovid == vid and odur > 0 and ostart <= at < ostart + odur:
                return
        for member in shard.members:
            filter_ = member.switch.pipeline.packet_filter
            if filter_.is_module_updating(vid):
                filter_.clear_module_updating(vid)

    # Scheduling order mirrors the serial run exactly — arrivals
    # first, then reconfiguration events — so same-instant ties
    # resolve by event seq the same way.
    for t, demand in plan.arrivals:
        sim.schedule_at(t, lambda d=demand, at=t: arrival(d, at))
    for vid, start, duration, op in plan.events:
        sim.schedule_at(start, lambda v=vid, d=duration, o=op:
                        open_window(v, d, o))
        if duration > 0:
            sim.schedule_at(start + duration,
                            lambda v=vid, at=start + duration:
                            close_window(v, at))

    #: per in-peer channel clock: no arrival from that worker can
    #: carry a timestamp at or below it.
    chan: Dict[int, float] = dict(plan.in_peers)
    stash: List[Tuple] = []
    round_no = 0
    stopped = False
    while not stopped:
        if round_no > 0 and plan.in_peers:
            needed = set(plan.in_peers)
            batch: List[Tuple[int, List]] = []
            kept: List[Tuple] = []
            for msg in stash:
                if msg[1] in needed:
                    needed.discard(msg[1])
                    batch.append((msg[1], msg[3]))
                    chan[msg[1]] = msg[2] + plan.in_peers[msg[1]]
                else:
                    kept.append(msg)
            stash = kept
            while needed and not stopped:
                msg = recv()
                if msg[0] == "stop":
                    stopped = True
                elif msg[0] == "edge":
                    _, src, promise, entries = msg
                    if src in needed:
                        needed.discard(src)
                        batch.append((src, entries))
                        chan[src] = promise + plan.in_peers[src]
                    else:
                        stash.append(msg)
            if stopped:
                break
            batch.sort(key=lambda item: item[0])
            for src, entries in batch:
                for name, packet, arrive_at in entries:
                    sim.schedule(max(0.0, arrive_at - sim.now),
                                 lambda n=name, p=packet, t=arrive_at:
                                 receive(n, p, t))
        bound = min(chan.values()) if chan else math.inf
        if math.isinf(bound):
            sim.run()
        else:
            sim.run(until=bound)
        emitted = 0
        for peer in plan.out_peers:
            entries = out_buf[peer]
            emitted += len(entries)
            send_edge(peer, ("edge", plan.worker_id, bound, entries))
            out_buf[peer] = []
        send_parent(("status", plan.worker_id, round_no, emitted,
                     sim.pending()))
        while True:
            msg = recv()
            if msg[0] == "go":
                break
            if msg[0] == "stop":
                stopped = True
                break
            stash.append(msg)
        round_no += 1

    frame = _TimelineFrame(
        switches=_switch_frames(shard.members, baseline),
        link_deltas=_link_deltas(shard.members, baseline),
        deliveries=sink.deliveries, drops=sink.drops, lost=sink.lost,
        lost_by_link=sink.lost_by_link, loss_log=sink.loss_log,
        lvt=sink.lvt, backlog=core.total_backlog())
    send_parent(("frame", plan.worker_id,
                 pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)))


def _timeline_worker_entry(worker_id: int, plan_blob: bytes, inboxes,
                           to_parent) -> None:  # pragma: no cover
    """Subprocess entry: edge messages go straight into the peer
    worker's inbox; statuses and frames go to the parent."""
    try:
        plan = pickle.loads(plan_blob)
        shard = WorkerShard(pickle.loads(plan.spec))
        run_timeline_shard(
            plan, shard, inboxes[worker_id].get,
            lambda peer, msg: inboxes[peer].put(msg), to_parent.put)
    except BaseException:
        to_parent.put(("error", worker_id, traceback.format_exc()))


def build_timeline_plans(experiment, count: int) -> List[_TimelinePlan]:
    """Shard an experiment: partition switches, derive the cross-worker
    channel lookaheads, translate reconfig events to declarative ops,
    and split the arrival schedule by owning worker."""
    fabric = experiment.fabric
    names = [member.name for member in fabric.switches()]
    blocks = partition_names(names, count)
    owner: Dict[str, int] = {}
    for wid, block in enumerate(blocks):
        for name in block:
            owner[name] = wid

    lookahead: Dict[Tuple[int, int], float] = {}
    for link in fabric.links():
        wa, wb = owner[link.a.switch], owner[link.b.switch]
        if wa == wb:
            continue
        if link.delay_s <= 0:
            raise ParallelExecError(
                f"link {link.name} crosses a worker boundary with zero "
                f"propagation delay; conservative time-sync needs "
                f"positive lookahead (set delay_s > 0 or use "
                f"backend='serial')")
        for src, dst in ((wa, wb), (wb, wa)):
            prev = lookahead.get((src, dst))
            if prev is None or link.delay_s < prev:
                lookahead[(src, dst)] = link.delay_s

    events: List[Tuple[int, float, float, Optional[FabricOp]]] = []
    windows: List[Tuple[int, float, float]] = []
    for event in experiment.reconfigs:
        op = getattr(event, "op", None)
        if event.apply is not None and op is None:
            raise ParallelExecError(
                f"reconfig event for VID {event.vid} at "
                f"t={event.start_s} carries an opaque apply callable; "
                f"the process backend needs a declarative op "
                f"(repro.exec.parallel.TenantUpdateOp / LinkStateOp) "
                f"or backend='serial'")
        events.append((event.vid, event.start_s, event.duration_s, op))
        windows.append((event.vid, event.start_s, event.duration_s))

    per_worker_arrivals: Dict[int, List] = {i: [] for i in range(count)}
    for t, demand in experiment.matrix.arrivals(experiment.duration_s,
                                                scale=experiment.scale):
        wid = owner.get(demand.src.switch)
        if wid is None:
            fabric.switch(demand.src.switch)  # typed error
        per_worker_arrivals[wid].append((t, demand))

    blobs = _shard_blobs(fabric, blocks)
    plans = []
    for i in range(count):
        plans.append(_TimelinePlan(
            worker_id=i, spec=blobs[i], owner=owner,
            in_peers={src: la for (src, dst), la in lookahead.items()
                      if dst == i},
            out_peers=tuple(sorted(dst for (src, dst) in lookahead
                                   if src == i)),
            arrivals=per_worker_arrivals[i], events=events,
            windows=windows, duration_s=experiment.duration_s,
            scale=experiment.scale))
    try:
        pickle.dumps(plans, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ParallelExecError(
            f"timeline plan is not picklable (arrival make_packet "
            f"callables and op installers must be module-level "
            f"functions, not lambdas or closures): {exc}") from exc
    return plans


def run_fabric_timeline(experiment, workers: Optional[int] = None):
    """The process backend behind
    :class:`repro.sim.fabric_timeline.FabricTimelineExperiment`.

    Shards the fabric, runs the conservative-sync rounds to global
    quiescence, then merges frames: counter deltas into the parent's
    switches and links, deliveries/losses into one
    ``FabricTimelineResult`` binned exactly like the serial path.
    Durable declarative ops are replayed against the parent fabric
    (counters snapshot/restored around the replay — the worker deltas
    already carry the ops' counter effects) so parent control-plane
    state matches a serial run's."""
    from ..sim.fabric_timeline import FabricTimelineResult

    fabric = experiment.fabric
    members = fabric.switches()
    count = _resolve_worker_count(fabric, workers)
    plans = build_timeline_plans(experiment, count)
    pool = _WorkerPool(_timeline_worker_entry, plans)
    try:
        while True:
            pending_total = 0
            emitted_total = 0
            for _ in range(count):
                msg = pool.get()
                emitted_total += msg[3]
                pending_total += msg[4]
            if pending_total == 0 and emitted_total == 0:
                pool.broadcast(("stop",))
                break
            pool.broadcast(("go",))
        frames = pool.collect_frames(count)
    finally:
        pool.shutdown()

    backlog = sum(frame.backlog for frame in frames)
    if backlog:
        raise RuntimeError(f"{backlog} packets never departed")

    ordered_ops = [
        op for _, op in sorted(
            ((event.start_s, getattr(event, "op", None))
             for event in experiment.reconfigs),
            key=lambda item: item[0])
        if op is not None and op.durable]
    if ordered_ops:
        snaps = [(member.switch.pipeline.stats,
                  member.switch.pipeline.stats.snapshot(),
                  member.engine.counters,
                  member.engine.counters.snapshot())
                 for member in members]
        for op in ordered_ops:
            op.apply_serial(fabric)
        for stats, stats_snap, counters, counters_snap in snaps:
            stats.assign_from(stats_snap)
            counters.assign_from(counters_snap)

    _merge_frames(fabric, frames)

    # -- assemble the result exactly like the serial path -----------------
    elapsed = max(experiment.duration_s,
                  max((frame.lvt for frame in frames), default=0.0))
    bin_s = experiment.bin_s
    num_bins = max(1, -int(-elapsed // bin_s))  # ceil
    bins = [i * bin_s for i in range(num_bins)]
    bits: Dict[int, List[float]] = {
        demand.vid: [0.0] * num_bins
        for demand in experiment.matrix.demands}
    merged = sorted(((time, widx, i, vid, nbits, latency)
                     for widx, frame in enumerate(frames)
                     for i, (vid, time, nbits, latency)
                     in enumerate(frame.deliveries)),
                    key=lambda e: (e[0], e[1], e[2]))
    latencies: Dict[int, List[float]] = {}
    delivered: Dict[int, int] = {}
    for time, _, _, vid, nbits, latency in merged:
        latencies.setdefault(vid, []).append(latency)
        delivered[vid] = delivered.get(vid, 0) + 1
        bin_idx = min(int(time / bin_s), num_bins - 1)
        bits.setdefault(vid, [0.0] * num_bins)[bin_idx] += nbits
    drops: Dict[int, int] = {}
    lost: Dict[int, int] = {}
    lost_by_link: Dict[Tuple[int, str], int] = {}
    loss_entries: List[Tuple] = []
    for widx, frame in enumerate(frames):
        for vid, n in frame.drops.items():
            drops[vid] = drops.get(vid, 0) + n
        for vid, n in frame.lost.items():
            lost[vid] = lost.get(vid, 0) + n
        for key, n in frame.lost_by_link.items():
            lost_by_link[key] = lost_by_link.get(key, 0) + n
        for i, (time, vid, link) in enumerate(frame.loss_log):
            loss_entries.append((time, widx, i, vid, link))
    loss_entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return FabricTimelineResult(
        bin_s=bin_s, elapsed_s=elapsed, bins=bins,
        throughput_gbps={vid: [b / bin_s / 1e9 for b in series]
                         for vid, series in bits.items()},
        offered_gbps={vid: bps / 1e9 for vid, bps
                      in experiment.matrix.offered_bps_by_vid().items()},
        latencies_s=latencies, delivered=delivered, drops=drops,
        lost=lost, lost_by_link=lost_by_link,
        loss_log=[(time, vid, link)
                  for time, _, _, vid, link in loss_entries],
        link_utilization={link.name: (link.bytes_carried,
                                      link.utilization(elapsed))
                          for link in fabric.links()})
