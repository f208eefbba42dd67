"""Event-driven fabric timeline: end-to-end latency and throughput.

The fabric-level counterpart of the single-switch Fig. 10 harness
(:mod:`repro.sim.timeline`). A :class:`repro.traffic.TrafficMatrix`
describes per-tenant source→destination demand between attachment
points; this experiment replays its deterministic arrival schedule
through a :class:`repro.fabric.Fabric` on the discrete-event kernel
(:class:`repro.sim.kernel.Simulator`), with the engine-drain /
departure-routing loop supplied by the unified execution core
(:class:`repro.exec.ExecutionCore` under its event-driven policy):

* an **arrival event** injects one packet at its source switch through
  that switch's batched engine (compiled classifier, egress scheduler
  and all);
* a **service event** advances one switch's egress scheduler to the
  event time and routes the resulting
  :class:`~repro.engine.scheduler.Departure` records — host-port
  departures exit the fabric, fabric-port departures are scheduled to
  arrive at the neighbor after the link's propagation delay;
* service events are scheduled *exactly*, from
  :meth:`~repro.engine.scheduler.EgressScheduler.next_departure_at`,
  not on a polling tick — transmission finish times are the event
  times, so measured latencies carry no tick quantization;
* a **reconfiguration event** (:class:`FabricReconfigEvent`) fires a
  tenant-lifecycle action *inside* the running timeline — a live
  :meth:`~repro.fabric.tenant.FabricTenant.update`, a
  :meth:`~repro.fabric.tenant.FabricTenant.migrate`, an arrival or
  departure from a :class:`repro.traffic.ChurnSchedule` — and holds
  the §4.1 update bitmap on every switch hosting that tenant for the
  event's duration, so the churned tenant's packets drop for exactly
  the reconfiguration window while every other tenant keeps its share
  (Fig. 10, at fabric scale — ``benchmarks/bench_fabric_churn.py``).

Each packet keeps its source ``arrival_time`` across hops, so a
delivery's latency is true end-to-end: queueing and transmission at
every hop (per-port clocks at link capacity) plus the propagation
delays of the links crossed. Throughput is binned per tenant from
delivered bits; link byte counters accumulate on the
:class:`~repro.fabric.topology.Link` objects for utilization reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..exec import ExecutionCore, ExecutionSink, LostRecord
from ..net.packet import Packet
from ..traffic.matrix import Demand, TrafficMatrix
from .kernel import Simulator


@dataclass
class FabricReconfigEvent:
    """One timed tenant-lifecycle action inside a running timeline.

    The fabric-scale analogue of
    :class:`repro.sim.timeline.ReconfigEvent`: at ``start_s`` the
    optional ``apply`` callable runs (e.g. ``tenant.update(...)``,
    ``tenant.migrate(...)``, or a placement from a churn schedule),
    then the §4.1 update bit for ``vid`` is set on every switch
    currently hosting it; at ``start_s + duration_s`` the bit clears.
    During the window the tenant's packets drop at those switches —
    the §4.1 procedure's disruption, scoped to exactly one tenant —
    while every other tenant keeps forwarding.
    """

    vid: int
    start_s: float
    duration_s: float
    #: Optional callable performing the actual lifecycle action
    #: (update/migrate/unload/placement); invoked once at start.
    #: Serial-backend only — an opaque callable cannot cross a process
    #: boundary.
    apply: Optional[Callable[[], None]] = None
    #: Optional declarative lifecycle action
    #: (:class:`repro.exec.parallel.FabricOp`) — works on *both*
    #: backends: applied via ``apply_serial`` here, shipped to workers
    #: on the process backend. Mutually exclusive with ``apply``.
    op: Optional[object] = None


@dataclass
class FabricTimelineResult:
    """Per-tenant end-to-end measurements from one fabric run."""

    bin_s: float
    #: full span of the run: offered window plus the drain-out tail
    elapsed_s: float
    bins: List[float]
    #: vid -> delivered Gbps per bin (layer 2, scaled)
    throughput_gbps: Dict[int, List[float]]
    offered_gbps: Dict[int, float]
    #: vid -> end-to-end (delivery − source arrival) latencies, seconds
    latencies_s: Dict[int, List[float]] = field(default_factory=dict)
    #: vid -> packets delivered at host ports
    delivered: Dict[int, int] = field(default_factory=dict)
    #: vid -> packets dropped inside some pipeline
    drops: Dict[int, int] = field(default_factory=dict)
    #: vid -> packets blackholed by a downed link mid-run
    lost: Dict[int, int] = field(default_factory=dict)
    #: (vid, link name) -> packets lost there — the typed breakdown
    #: behind :meth:`lost_records`
    lost_by_link: Dict[Tuple[int, str], int] = field(default_factory=dict)
    #: every loss as a timestamped ``(time, vid, link)`` entry, in
    #: event order — what a chaos post-mortem attributes to faults
    loss_log: List[Tuple[float, int, str]] = field(default_factory=list)
    #: link name -> (bytes carried, utilization over the run)
    link_utilization: Dict[str, Tuple[int, float]] = \
        field(default_factory=dict)

    def mean_latency_s(self, vid: int) -> float:
        values = self.latencies_s.get(vid, [])
        return sum(values) / len(values) if values else 0.0

    def max_latency_s(self, vid: int) -> float:
        values = self.latencies_s.get(vid, [])
        return max(values) if values else 0.0

    def delivered_gbps(self, vid: int) -> float:
        """Mean delivered rate over the whole run (including the
        drain-out tail, so it can never exceed path capacity)."""
        if self.elapsed_s <= 0:
            return 0.0
        bits = sum(self.throughput_gbps.get(vid, ())) * self.bin_s * 1e9
        return bits / self.elapsed_s / 1e9

    def lost_records(self) -> List[LostRecord]:
        """Link-down losses in the shared typed shape (vid, link,
        count) — directly comparable with
        :meth:`repro.fabric.forwarding.FabricResult.lost_records`."""
        return [LostRecord(vid=vid, link=link, count=count)
                for (vid, link), count in sorted(self.lost_by_link.items())]

    def throughput_inside(self, vid: int,
                          window: Tuple[float, float]) -> List[float]:
        """Per-bin throughput of one tenant in bins fully inside
        ``window`` — what the churn bench gates on."""
        lo, hi = window
        return [t for b, t in zip(self.bins,
                                  self.throughput_gbps.get(vid, []))
                if lo <= b and b + self.bin_s <= hi]



class _TimelineSink(ExecutionSink):
    """Shapes the core's event stream into timeline accounting."""

    def __init__(self, scale: float):
        self.scale = scale
        #: (vid, delivery time, bits) — binned after the run so the
        #: drain-out tail past ``duration_s`` gets real bins instead of
        #: piling into a clamped last bin.
        self.deliveries: List[Tuple[int, float, float]] = []
        self.latencies: Dict[int, List[float]] = {}
        self.delivered: Dict[int, int] = {}
        self.drops: Dict[int, int] = {}
        self.lost: Dict[int, int] = {}
        self.lost_by_link: Dict[Tuple[int, str], int] = {}
        self.loss_log: List[Tuple[float, int, str]] = []

    def on_deliver(self, member: str, port: int, vid: int,
                   packet: Packet, time: float) -> None:
        self.latencies.setdefault(vid, []).append(
            time - packet.arrival_time)
        self.delivered[vid] = self.delivered.get(vid, 0) + 1
        self.deliveries.append((vid, time, len(packet) * 8 * self.scale))

    def on_drop(self, vid: int) -> None:
        self.drops[vid] = self.drops.get(vid, 0) + 1

    def on_lost(self, member: str, port: int, vid: int, packet: Packet,
                link: str, time: float) -> None:
        # A failed link loses the packet — counted, never silently,
        # and the run keeps serving the tenants whose routes avoid the
        # failure.
        self.lost[vid] = self.lost.get(vid, 0) + 1
        self.lost_by_link[(vid, link)] = \
            self.lost_by_link.get((vid, link), 0) + 1
        self.loss_log.append((time, vid, link))


class FabricTimelineExperiment:
    """Replays a traffic matrix through a fabric, event by event."""

    def __init__(self, fabric, matrix: TrafficMatrix,
                 duration_s: float = 0.01, bin_s: Optional[float] = None,
                 scale: float = 1.0, backend: Optional[str] = None,
                 workers: Optional[int] = None):
        self.fabric = fabric
        self.matrix = matrix
        self.duration_s = duration_s
        self.bin_s = bin_s if bin_s is not None else duration_s / 10
        self.scale = scale
        #: execution backend (default: ``REPRO_EXEC_BACKEND``, else
        #: serial); ``"process"`` shards the run one worker per switch
        #: with conservative time-sync —
        #: :func:`repro.exec.parallel.run_fabric_timeline`.
        self.backend = backend
        self.workers = workers
        self.reconfigs: List[FabricReconfigEvent] = []
        #: the live :class:`~repro.exec.ExecutionCore` while (and
        #: after) :meth:`run` — the chaos layer reports crash-scrubbed
        #: queue contents through it, onto the same lost path.
        self.core: Optional[ExecutionCore] = None

    # ------------------------------------------------------------------ churn

    def schedule_reconfig(self, vid: int, start_s: float,
                          duration_s: float = 0.0,
                          apply: Optional[Callable[[], None]] = None,
                          op=None) -> FabricReconfigEvent:
        """Fire a tenant-lifecycle action at ``start_s`` into the run,
        holding the tenant's §4.1 drop window for ``duration_s``.

        Pass either ``apply`` (an opaque callable — serial backend
        only) or ``op`` (a declarative
        :class:`repro.exec.parallel.FabricOp`, which also works on the
        process backend), not both."""
        if apply is not None and op is not None:
            raise ValueError(
                "pass either apply= (opaque callable) or op= "
                "(declarative FabricOp), not both")
        event = FabricReconfigEvent(vid=vid, start_s=start_s,
                                    duration_s=duration_s, apply=apply,
                                    op=op)
        self.reconfigs.append(event)
        return event

    def schedule_churn(self, schedule,
                       apply: Callable[[object], None]) -> None:
        """Bind a :class:`repro.traffic.ChurnSchedule` to this run.

        ``apply`` receives each :class:`repro.traffic.ChurnEvent` at
        its virtual time and performs the lifecycle action (place a
        tenant, ``update``, ``migrate``, ``unload`` — the traffic
        layer stays fabric-agnostic, so the mapping belongs to the
        caller).
        """
        for event in schedule.sorted_events():
            self.schedule_reconfig(
                event.vid, event.time_s, event.duration_s,
                apply=lambda ev=event: apply(ev))

    def schedule_chaos(self, schedule,
                       apply: Callable[[object], None]) -> None:
        """Bind a :class:`repro.chaos.ChaosSchedule` to this run.

        ``apply`` receives each :class:`repro.chaos.ChaosEvent` at its
        virtual time and performs the fault or repair —
        :meth:`repro.chaos.ChaosController.fire` is the canonical
        apply. Chaos events ride the reconfiguration machinery under
        the system VID 0, which no tenant owns, so firing one never
        opens a §4.1 drop window.
        """
        for event in schedule.sorted_events():
            self.schedule_reconfig(
                0, event.time_s, 0.0,
                apply=lambda ev=event: apply(ev))

    def _open_window(self, event: FabricReconfigEvent) -> None:
        """Apply the lifecycle action, then raise the §4.1 bit on every
        switch hosting the tenant (post-apply placement, so a migration
        holds the window on its *new* route too)."""
        if event.apply is not None:
            event.apply()
        if event.op is not None:
            event.op.apply_serial(self.fabric)
        if event.duration_s <= 0:
            return
        for member in self.fabric.switches():
            if event.vid in member.switch.controller.modules:
                member.switch.pipeline.packet_filter \
                    .set_module_updating(event.vid)

    def _close_window(self, event: FabricReconfigEvent,
                      at: Optional[float] = None) -> None:
        """Clear the tenant's §4.1 bit — unless, at instant ``at``,
        another scheduled window for the same VID is still open (two
        overlapping updates must hold the bit until the *last* one
        ends, not truncate each other)."""
        if at is not None:
            for other in self.reconfigs:
                if other is not event and other.vid == event.vid \
                        and other.duration_s > 0 \
                        and other.start_s <= at \
                        < other.start_s + other.duration_s:
                    return
        for member in self.fabric.switches():
            filter_ = member.switch.pipeline.packet_filter
            if filter_.is_module_updating(event.vid):
                filter_.clear_module_updating(event.vid)

    # ------------------------------------------------------------------ run

    def run(self) -> FabricTimelineResult:
        from ..exec.parallel import resolve_backend, run_fabric_timeline

        if resolve_backend(self.backend) == "process":
            # The sharded conservative-sync backend; bit-identical
            # counters, deliveries, and loss records (the chaos layer's
            # post-run ``self.core`` hook stays serial-only).
            return run_fabric_timeline(self, workers=self.workers)
        fabric = self.fabric
        sim = Simulator()
        sink = _TimelineSink(self.scale)
        core = ExecutionCore.for_fabric(fabric, sink=sink, sim=sim)
        self.core = core

        def arrival(demand: Demand, t: float) -> None:
            packet = demand.make_packet()
            packet.arrival_time = t
            packet.ingress_port = demand.src.port
            core.inject(fabric.switch(demand.src.switch), packet, t)

        for t, demand in self.matrix.arrivals(self.duration_s,
                                              scale=self.scale):
            sim.schedule_at(t, lambda d=demand, at=t: arrival(d, at))
        for event in self.reconfigs:
            sim.schedule_at(event.start_s,
                            lambda ev=event: self._open_window(ev))
            if event.duration_s > 0:
                sim.schedule_at(
                    event.start_s + event.duration_s,
                    lambda ev=event: self._close_window(
                        ev, at=ev.start_s + ev.duration_s))
        try:
            sim.run()
        finally:
            # Never leave a §4.1 bit set past the run (e.g. a window
            # whose close event fell past an aborted horizon).
            for event in self.reconfigs:
                self._close_window(event)
        # Safety net: every enqueue schedules a service for its port,
        # so the event cascade drains all queues before the heap
        # empties. Verify rather than trust.
        backlog = core.total_backlog()
        if backlog:
            raise RuntimeError(f"{backlog} packets never departed")

        elapsed = max(self.duration_s, sim.now)
        num_bins = max(1, -int(-elapsed // self.bin_s))  # ceil
        bins = [i * self.bin_s for i in range(num_bins)]
        bits: Dict[int, List[float]] = {
            demand.vid: [0.0] * num_bins
            for demand in self.matrix.demands}
        for vid, time, nbits in sink.deliveries:
            bin_idx = min(int(time / self.bin_s), num_bins - 1)
            bits.setdefault(vid, [0.0] * num_bins)[bin_idx] += nbits
        return FabricTimelineResult(
            bin_s=self.bin_s, elapsed_s=elapsed, bins=bins,
            throughput_gbps={vid: [b / self.bin_s / 1e9 for b in series]
                             for vid, series in bits.items()},
            offered_gbps={vid: bps / 1e9 for vid, bps
                          in self.matrix.offered_bps_by_vid().items()},
            latencies_s=sink.latencies, delivered=sink.delivered,
            drops=sink.drops, lost=sink.lost,
            lost_by_link=sink.lost_by_link, loss_log=sink.loss_log,
            link_utilization={link.name: (link.bytes_carried,
                                          link.utilization(elapsed))
                              for link in fabric.links()})
