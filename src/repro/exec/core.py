"""The unified execution core: one engine-drain / departure-routing loop.

Three serving frontends used to re-implement the same inner loop —
push packets through a switch's :class:`~repro.engine.batch.BatchEngine`,
drain its egress in the scheduler's service order, and route each
departed packet (host-port exit, downed-link loss, or cross-link hop to
the neighbor's ingress):

* :func:`repro.fabric.forwarding.process_batch` — untimed waves;
* :class:`repro.sim.fabric_timeline.FabricTimelineExperiment` — exact
  event-driven service on :class:`repro.sim.kernel.Simulator`;
* :class:`repro.sim.timeline.ReconfigTimelineExperiment` — the timed
  single-switch Fig. 10 harness (a degenerate topology: every port is
  a host port).

:class:`ExecutionCore` centralizes that loop, classic discrete-event-
harness style: it is parameterized by **topology** (an ordered set of
members — a whole :class:`~repro.fabric.topology.Fabric`, or one
switch wrapped in :class:`SwitchMember`) and by **timing policy**
(``sim=None`` runs untimed waves in service order; passing a
:class:`~repro.sim.kernel.Simulator` runs exact event-driven service
from :meth:`~repro.engine.scheduler.EgressScheduler.next_departure_at`).
Frontends shrink to result shaping: they feed arrivals in and observe
outcomes through an :class:`ExecutionSink`.

A *member* is anything with the fabric-switch surface: ``name``,
``engine`` (``process_batch``), ``scheduler`` (drain / ``advance_to`` /
``next_departure_at``), ``links`` (port -> link; absent ports face
hosts), ``num_ports``. A *link* needs ``up``, ``name``, ``delay_s``,
``record(vid, nbytes)``, and ``other_end(name)``.

The equivalence contract is strict: the refactored frontends are
packet-for-packet identical to their pre-core behavior —
``tests/test_fabric_differential.py`` and
``tests/test_engine_differential.py`` pass unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import FabricError
from ..net.packet import Packet
from ..rmt.parser import extract_module_id


def vid_of(packet: Packet) -> int:
    """Owner VID from the 802.1Q tag (0 for odd untagged strays)."""
    try:
        return extract_module_id(packet)
    except Exception:
        return 0


class ExecutionSink:
    """Result-shaping hooks; the default implementation observes nothing.

    Frontends subclass this to build their result objects
    (:class:`~repro.fabric.forwarding.FabricResult`,
    :class:`~repro.sim.fabric_timeline.FabricTimelineResult`, the
    timeline's latency dict) out of the core's uniform event stream.
    ``time`` is the virtual departure/delivery instant under a timed
    policy and ``0.0`` under waves.
    """

    def on_result(self, member: str, result) -> None:
        """One pipeline result from a member's engine, in serving order."""

    def on_drop(self, vid: int) -> None:
        """One packet dropped inside a member's pipeline."""

    def on_deliver(self, member: str, port: int, vid: int,
                   packet: Packet, time: float) -> None:
        """One packet exited the topology on a host port."""

    def on_lost(self, member: str, port: int, vid: int, packet: Packet,
                link: str, time: float) -> None:
        """One packet blackholed by a downed link."""


class SwitchMember:
    """Adapter: one switch's serving path as a (degenerate) topology.

    Wraps a data path (anything with ``process_batch`` — a
    :class:`~repro.engine.batch.BatchEngine` or a bare pipeline) and
    its egress scheduler as a member with no fabric links, so the
    single-switch timeline runs on the same core as the fabric: every
    departure is a host-port delivery.
    """

    def __init__(self, name: str, engine, scheduler,
                 links: Optional[Dict[int, object]] = None):
        self.name = name
        self.engine = engine
        self.scheduler = scheduler
        self.links: Dict[int, object] = dict(links or {})

    @property
    def num_ports(self) -> int:
        return self.scheduler.num_ports

    def __repr__(self) -> str:
        return f"SwitchMember({self.name!r}, {self.num_ports} host ports)"


class ExecutionCore:
    """One run's engine-drain / departure-routing state machine.

    Construct per run (:meth:`for_fabric` / :meth:`for_switch`), then
    drive it with exactly one timing policy:

    * **untimed** — :meth:`run_waves` pushes arrival waves to exit in
      the schedulers' service order (``sim`` must be ``None``);
    * **event-driven** — construct with a
      :class:`~repro.sim.kernel.Simulator`, schedule
      :meth:`inject` calls (and let :meth:`route_departures` /
      :meth:`schedule_services` cascade), then ``sim.run()``;
    * **clock-driven single switch** — :meth:`advance_member` /
      :meth:`drain_member_backlog` advance one member's egress clock
      explicitly (the Fig. 10 timeline's policy).
    """

    def __init__(self, members: Sequence, sink: Optional[ExecutionSink] = None,
                 sim=None, member_lookup=None, remote_handler=None):
        self._members = list(members)
        self._by_name = {member.name: member for member in self._members}
        #: optional typed-error lookup (``Fabric.switch`` raises
        #: TopologyError for unknown names; the default raises
        #: FabricError).
        self._lookup = member_lookup
        self.sink = sink if sink is not None else ExecutionSink()
        self.sim = sim
        #: Shard hook for the parallel backend
        #: (:mod:`repro.exec.parallel`): a core holding only part of a
        #: fabric hands departures toward non-local members to
        #: ``remote_handler(member_name, packet, arrive_at)`` instead
        #: of scheduling a local inject.
        self._remote = remote_handler
        #: earliest pending service event per (member, port) — dedupe
        #: so the event queue stays linear in departures, not scans.
        self._pending: Dict[Tuple[str, int], float] = {}

    # -- construction -----------------------------------------------------------

    @classmethod
    def for_fabric(cls, fabric, sink: Optional[ExecutionSink] = None,
                   sim=None) -> "ExecutionCore":
        """A core over every member of a :class:`~repro.fabric.
        topology.Fabric` (or anything with ``switches()``/``switch()``),
        in the fabric's insertion order (the wave order)."""
        return cls(fabric.switches(), sink=sink, sim=sim,
                   member_lookup=fabric.switch)

    @classmethod
    def for_switch(cls, engine, scheduler, name: str = "switch",
                   sink: Optional[ExecutionSink] = None,
                   sim=None) -> "ExecutionCore":
        """A core over one switch's serving path (no fabric links)."""
        return cls([SwitchMember(name, engine, scheduler)],
                   sink=sink, sim=sim)

    # -- topology ---------------------------------------------------------------

    def members(self) -> List:
        return list(self._members)

    def member(self, name: str):
        if self._lookup is not None:
            return self._lookup(name)
        member = self._by_name.get(name)
        if member is None:
            raise FabricError(
                f"no member {name!r} in execution core "
                f"(have: {sorted(self._by_name)})")
        return member

    def total_backlog(self) -> int:
        """Packets still queued across every member's scheduler."""
        return sum(member.scheduler.total_queued()
                   for member in self._members)

    @staticmethod
    def member_up(member) -> bool:
        """Whether a member is serving (members without an ``up`` flag
        — e.g. :class:`SwitchMember` — always are)."""
        return bool(getattr(member, "up", True))

    # -- fault accounting ---------------------------------------------------------

    def report_fault_losses(self, member, dropped,
                            time: float = 0.0) -> int:
        """Report queue contents scrubbed by a fault through the sink's
        lost path.

        ``dropped`` is the ``(port, vid, packet)`` shape returned by
        :meth:`repro.fabric.topology.Fabric.crash_switch` /
        :meth:`~repro.engine.scheduler.EgressScheduler.drop_queued`.
        Each packet is charged to the link its port faces — the wire it
        was queued toward when the switch died — or to the pseudo-link
        ``switch:<name>`` for host-port queues, so crash losses land on
        the same typed :class:`~repro.exec.records.LostRecord` path as
        downed-link losses and every post-mortem reconciles against the
        same counters. Returns the number of packets reported.
        """
        for port, vid, packet in dropped:
            link = member.links.get(port)
            name = link.name if link is not None \
                else f"switch:{member.name}"
            self.sink.on_lost(member.name, port, vid, packet, name, time)
        return len(dropped)

    # -- departure routing (shared by every policy) ------------------------------

    def route(self, member, port: int, packet: Packet, vid: int,
              time: float = 0.0) -> Optional[Tuple[str, Packet, float]]:
        """Route one departed packet; the one decision every path shares.

        * no link on ``port`` → host exit: ``sink.on_deliver``, returns
          ``None``;
        * downed link → the packet is lost as on real hardware, but
          never silently: ``sink.on_lost`` (with the link name, so both
          serving paths report the same typed
          :class:`~repro.exec.records.LostRecord`), returns ``None``;
        * up link → per-tenant link bytes are recorded, the packet's
          ingress port is rewritten to the remote end, and
          ``(next member name, packet, arrival time)`` is returned for
          the caller's policy to enact (next wave, or a scheduled
          inject after the propagation delay).
        """
        link = member.links.get(port)
        if link is None:
            self.sink.on_deliver(member.name, port, vid, packet, time)
            return None
        if not link.up:
            self.sink.on_lost(member.name, port, vid, packet, link.name,
                              time)
            return None
        link.record(vid, len(packet))
        remote = link.other_end(member.name)
        packet.ingress_port = remote.port
        return (remote.switch, packet, time + link.delay_s)

    def _serve_batch(self, member, packets: Sequence[Packet]) -> List:
        """One member's engine pass, reported through the sink."""
        outcomes = member.engine.process_batch(packets)
        for outcome in outcomes:
            self.sink.on_result(member.name, outcome)
            if outcome.dropped:
                self.sink.on_drop(outcome.module_id)
        return outcomes

    # -- untimed policy: waves in service order ----------------------------------

    def run_waves(self, arrivals: Sequence[Tuple[str, Packet]],
                  max_hops: Optional[int] = None) -> int:
        """Drive ``(member name, packet)`` arrivals to exit; returns the
        number of forwarding waves the batch needed.

        ``max_hops`` bounds the wave count (default: number of members,
        the longest loop-free route); exceeding it raises
        :class:`~repro.errors.FabricError` instead of looping forever
        on a misconfigured forwarding cycle.
        """
        if max_hops is None:
            max_hops = max(1, len(self._members))
        waves = 0
        wave: List[Tuple[str, Packet]] = [(name, pkt)
                                          for name, pkt in arrivals]
        for _ in range(max_hops + 1):
            if not wave:
                break
            waves += 1
            # Group by member, preserving arrival order within each.
            by_member: Dict[str, List[Packet]] = {}
            for name, pkt in wave:
                self.member(name)  # typed error for unknown names
                by_member.setdefault(name, []).append(pkt)
            next_wave: List[Tuple[str, Packet]] = []
            # Wave order = member insertion order, deterministic.
            for member in self._members:
                pkts = by_member.get(member.name)
                if not pkts:
                    continue
                if not self.member_up(member):
                    # A crashed member serves nothing: arrivals die at
                    # its pseudo-link, never silently.
                    for pkt in pkts:
                        self.sink.on_lost(
                            member.name, pkt.ingress_port or 0,
                            vid_of(pkt), pkt,
                            f"switch:{member.name}", 0.0)
                    continue
                self._serve_batch(member, pkts)
                # Drain every port in weighted-fair service order.
                for port in range(member.num_ports):
                    for pkt in member.scheduler.drain(port):
                        target = self.route(member, port, pkt, vid_of(pkt))
                        if target is not None:
                            next_wave.append((target[0], target[1]))
            wave = next_wave
        else:
            raise FabricError(
                f"batch still in flight after {max_hops} hops — "
                f"forwarding loop? in-flight: "
                f"{[(name, vid_of(p)) for name, p in wave[:8]]}")
        return waves

    # -- event-driven policy: exact service on the simulation kernel -------------

    def schedule_services(self, member) -> None:
        """Schedule the next service event of every port whose next
        departure may have moved, from :meth:`~repro.engine.scheduler.
        EgressScheduler.next_departure_at` — transmission finish times
        are the event times, never a polling tick.

        Only the ports the scheduler reports dirty
        (:meth:`~repro.engine.scheduler.EgressScheduler.take_dirty`)
        are queried, in ascending port order. Every other port would
        answer exactly as it did when last queried, and that answer is
        already covered by a pending event (or the port is idle), so
        the events scheduled — and their sequence numbers — are those
        of a scan over every port.
        """
        scheduler = member.scheduler
        ports = scheduler.take_dirty()
        if not ports:
            return
        name = member.name
        pending = self._pending
        sim = self.sim
        for port in ports:
            at = scheduler.next_departure_at(port)
            if at is None:
                continue
            key = (name, port)
            if key in pending and pending[key] <= at + 1e-15:
                continue
            pending[key] = at
            sim.schedule(max(0.0, at - sim.now),
                         lambda m=member, p=port, t=at:
                         self._service(m, p, t))

    def _service(self, member, port: int, t: float) -> None:
        key = (member.name, port)
        if self._pending.get(key, None) == t:
            del self._pending[key]
        scheduler = member.scheduler
        # This port's pending event just fired: it needs a fresh one
        # even if advance_to leaves its scheduler state untouched.
        scheduler.mark_dirty(port)
        self.route_departures(member, scheduler.advance_to(t))
        self.schedule_services(member)

    def route_departures(self, member, departures) -> None:
        """Route :class:`~repro.engine.scheduler.Departure` records —
        host exits deliver, downed links lose, up links schedule the
        arrival at the neighbor after the propagation delay."""
        for dep in departures:
            target = self.route(member, dep.port, dep.packet,
                                dep.module_id, dep.time)
            if target is None:
                continue
            name, packet, arrive_at = target
            if self._remote is not None and name not in self._by_name:
                self._remote(name, packet, arrive_at)
                continue
            if self.sim is None:
                raise FabricError(
                    f"packet crossed a link toward {name!r} but this "
                    f"core has no simulator; timed multi-hop routing "
                    f"needs ExecutionCore(..., sim=Simulator())")
            self.sim.schedule(
                max(0.0, arrive_at - self.sim.now),
                lambda p=packet, n=name, t=arrive_at:
                self.inject(self.member(n), p, t))

    def inject(self, member, packet: Packet, t: float) -> None:
        """One packet arrives at a member at virtual time ``t``: serve
        transmissions that complete before the arrival, run the batched
        engine, then (re)schedule the member's service events.

        An arrival at a crashed member (the packet was in flight on the
        wire when the far end died) is lost at the member's
        ``switch:<name>`` pseudo-link — counted, never silently."""
        if not self.member_up(member):
            self.sink.on_lost(member.name, packet.ingress_port or 0,
                              vid_of(packet), packet,
                              f"switch:{member.name}", t)
            return
        self.route_departures(member, member.scheduler.advance_to(t))
        self._serve_batch(member, [packet])
        self.schedule_services(member)

    # -- clock-driven policy: explicit advance (single-switch timeline) ----------

    def advance_member(self, member, t: float) -> None:
        """Advance one member's egress clock to ``t``, routing every
        departure that completes by then."""
        self.route_departures(member, member.scheduler.advance_to(t))

    def drain_member_backlog(self, member, step_s: float) -> None:
        """Let a member's egress backlog finish transmitting.

        A fixed clock+``step_s`` step is not enough to guarantee
        progress (a transmission longer than one step — low line rate,
        big packet — completes past the horizon and the clock holds at
        its committed start), so each round advances at least to the
        earliest next departure; the loop cannot spin.
        """
        scheduler = member.scheduler
        while scheduler.total_queued():
            horizon = scheduler.clock + step_s
            nexts = [scheduler.next_departure_at(port)
                     for port in range(scheduler.num_ports)]
            nexts = [t for t in nexts if t is not None]
            if nexts:
                horizon = max(horizon, min(nexts))
            self.advance_member(member, horizon)
