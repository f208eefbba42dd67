"""Egress scheduling for the batched serving path (§3.5).

The serving path used to dump every tenant's output into per-port FIFO
queues (:class:`~repro.rmt.traffic_manager.TrafficManager`), so one
bursty tenant could starve the rest on a shared output link — an
isolation hole the paper explicitly points at PIFO ranking to close.
This module closes it:

* :class:`EgressScheduler` — a drop-in traffic manager whose per-port
  queues are weighted-fair. Packets are tagged with Start-Time Fair
  Queueing ranks (:class:`~repro.rmt.pifo.StfqRanker`) at enqueue and
  served in rank order, exactly a PIFO: each tenant owns a FIFO, and
  because STFQ start tags are monotone within a tenant, the globally
  smallest rank is always some tenant's queue head — popping the
  minimum head is the PIFO pop. Among backlogged tenants the link
  divides in proportion to weight no matter how asymmetric the arrival
  pattern; within one tenant, packets leave in exactly arrival order,
  so scheduling reorders *across* tenants, never within one.
* :class:`TokenBucket` — per-tenant egress rate limiting. A tenant with
  a configured rate is served only while its bucket holds tokens; the
  scheduler's virtual clock (driven by transmission time at
  ``line_rate_bps``, or advanced explicitly via :meth:`advance_to`)
  refills buckets deterministically, so experiments replay bit-for-bit.
* :class:`Departure` records — every transmitted packet carries its
  departure timestamp, so :mod:`repro.sim.timeline` can measure
  per-tenant latency under contention, not just throughput.

The scheduler feeds per-tenant queue depth and transmitted-byte gauges
into :class:`~repro.core.stats.PipelineStats` — the "real-time
statistics" surface the system-level module exposes to tenants (§3.3).
Depths are kept as running per-tenant and per-port counters, so every
gauge read is O(1) rather than a sum over ports and FIFOs.

Event-driven callers re-query :meth:`EgressScheduler.next_departure_at`
only where the answer can have changed: the scheduler records a port as
*dirty* whenever one of that answer's inputs moves — its queue heads,
its clock, its rate, or the token bucket of a tenant queued on it — and
:meth:`EgressScheduler.take_dirty` hands the set over (see
:meth:`repro.exec.core.ExecutionCore.schedule_services`).

``repro.api.Switch.engine()`` installs an :class:`EgressScheduler` as
the pipeline's traffic manager by default, making weighted-fair egress
the default for batched serving; ``Tenant.set_weight`` /
``Tenant.set_rate_limit`` configure it through the facade.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..errors import ConfigError
from ..net.packet import Packet
from ..rmt.pifo import StfqRanker


class TokenBucket:
    """A deterministic token bucket: ``rate`` bytes/s, ``burst`` bytes.

    Time is whatever clock the caller advances — the scheduler drives it
    from its virtual transmission clock, so refills replay exactly.
    """

    def __init__(self, rate_bytes_per_s: float,
                 burst_bytes: Optional[float] = None,
                 clock: float = 0.0):
        if rate_bytes_per_s <= 0:
            raise ConfigError(
                f"rate must be positive, got {rate_bytes_per_s}")
        self.rate = float(rate_bytes_per_s)
        #: Default burst: one refill-second, floored at 1500 B (one MTU)
        #: so sub-MTU-per-second rates can still emit whole packets.
        self.burst = float(burst_bytes if burst_bytes is not None
                           else max(rate_bytes_per_s, 1500.0))
        if self.burst <= 0:
            raise ConfigError(f"burst must be positive, got {self.burst}")
        self.tokens = self.burst
        self._last = clock

    def refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
            self._last = now

    def eligible_at(self, nbytes: int, now: float) -> float:
        """Earliest time ``nbytes`` tokens are available (>= ``now``)."""
        self.refill(now)
        if self.tokens >= nbytes:
            return now
        return now + (nbytes - self.tokens) / self.rate

    def consume(self, nbytes: int, now: float) -> None:
        self.refill(now)
        self.tokens -= nbytes


@dataclass
class SchedulerTenantCounters:
    """One tenant's egress accounting (dequeue-time semantics)."""

    enqueued: int = 0
    transmitted: int = 0
    transmitted_bytes: int = 0
    dropped: int = 0
    throttled_waits: int = 0


@dataclass(frozen=True)
class Departure:
    """One transmitted packet, for the timeline's latency bookkeeping."""

    packet: Packet
    port: int
    module_id: int
    time: float

    @property
    def latency(self) -> float:
        return self.time - self.packet.arrival_time


class _PortState:
    """One output port: a ranker plus per-tenant FIFOs of tagged packets.

    Each FIFO entry is ``(rank, seq, packet)``; ``seq`` is a port-wide
    arrival counter so equal ranks stay FIFO-stable, like the hardware
    PIFO block. ``length`` is the running total over all FIFOs.
    """

    __slots__ = ("ranker", "fifos", "seq", "length")

    def __init__(self, ranker: StfqRanker):
        self.ranker = ranker
        self.fifos: Dict[int, Deque[Tuple[float, int, Packet]]] = {}
        self.seq = 0
        self.length = 0


#: ``(vid, rank, packet, serve_time)`` — one scheduling decision.
_Choice = Tuple[int, float, Packet, float]


class EgressScheduler:
    """Weighted-fair, rate-limited egress: the batched path's default TM.

    Drop-in compatible with the FIFO
    :class:`~repro.rmt.traffic_manager.TrafficManager` (same queueing /
    multicast / telemetry surface, with ``enqueue`` additionally taking
    the owning ``module_id``), plus the scheduling knobs:

    * :meth:`set_weight` — STFQ weight; backlogged tenants share each
      output port proportionally to their weights.
    * :meth:`set_rate_limit` — token-bucket cap on a tenant's egress
      rate, enforced against the virtual clock.
    * :meth:`drain_bytes` / :meth:`advance_to` — budgeted and timed
      service, returning per-tenant bytes / :class:`Departure` records.

    ``bytes_out`` counts at **dequeue** time: a queued packet has not
    been transmitted, and the system module's real-time statistics must
    not claim otherwise.

    Dirty-port contract: a port left out of :meth:`take_dirty` reports
    the same :meth:`next_departure_at` as when it was last queried. A
    port is marked on enqueue, on serve, when :meth:`advance_to` moves
    its clock, on :meth:`set_port_rate` or a line-rate change, when a
    rate limit is set or cleared for (or a token bucket moves under) a
    tenant queued on it, and on :meth:`purge` / :meth:`drop_queued`.
    """

    def __init__(self, num_ports: int = 8,
                 weights: Optional[Dict[int, float]] = None,
                 queue_capacity: Optional[int] = None,
                 line_rate_bps: Optional[float] = None,
                 stats=None):
        if num_ports <= 0:
            raise ConfigError(f"need at least one port, got {num_ports}")
        if line_rate_bps is not None and line_rate_bps <= 0:
            raise ConfigError(
                f"line rate must be positive, got {line_rate_bps}")
        self.num_ports = num_ports
        self.queue_capacity = queue_capacity
        #: ports whose next departure may have changed (see take_dirty)
        self._dirty: Set[int] = set()
        self._line_rate_bps = line_rate_bps
        #: Per-port line-rate overrides (bps). A fabric wires ports to
        #: links of different capacities (host links vs spine links);
        #: ports without an override transmit at ``line_rate_bps``.
        self.port_rate_bps: Dict[int, float] = {}
        self._weights: Dict[int, float] = {}
        self._ports = [_PortState(StfqRanker({})) for _ in range(num_ports)]
        #: vid -> packets queued across every port
        self._depth: Dict[int, int] = {}
        self._total = 0
        self._mcast_groups: Dict[int, List[int]] = {}
        self._buckets: Dict[int, TokenBucket] = {}
        self._stats = stats
        #: Per-port virtual clocks (seconds): output links transmit in
        #: parallel, so each advances by its own transmission times
        #: (when a line rate is set) and by :meth:`advance_to` / token
        #: waits otherwise.
        self.port_clock: List[float] = [0.0] * num_ports
        #: (port, vid) -> head-packet seq already counted as throttled,
        #: so ``throttled_waits`` counts *packets* delayed by the rate
        #: limiter, not scheduler scans.
        self._throttle_marks: Dict[Tuple[int, int], int] = {}
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.bytes_out: List[int] = [0] * num_ports
        self.per_tenant: Dict[int, SchedulerTenantCounters] = {}
        for vid, weight in (weights or {}).items():
            self.set_weight(vid, weight)

    @property
    def clock(self) -> float:
        """The most advanced port clock (single-port experiments read
        this as *the* virtual time)."""
        return max(self.port_clock)

    @property
    def line_rate_bps(self) -> Optional[float]:
        """Transmission rate of ports without a :meth:`set_port_rate`
        override (``None``: departures are instantaneous)."""
        return self._line_rate_bps

    @line_rate_bps.setter
    def line_rate_bps(self, rate_bps: Optional[float]) -> None:
        self._line_rate_bps = rate_bps
        self._dirty.update(range(self.num_ports))

    def take_dirty(self) -> List[int]:
        """The ports whose :meth:`next_departure_at` may have changed
        since the last call, in ascending order; clears the set."""
        dirty = self._dirty
        if not dirty:
            return []
        ports = sorted(dirty)
        dirty.clear()
        return ports

    def mark_dirty(self, port: int) -> None:
        """Report ``port`` from the next :meth:`take_dirty`."""
        self._dirty.add(port)

    def _mark_vid_ports(self, vid: int, skip: int = -1) -> None:
        """Mark every port (but ``skip``) where ``vid`` has packets
        queued — its token bucket, which they all consult, has moved."""
        if self._depth.get(vid):
            dirty = self._dirty
            for port, state in enumerate(self._ports):
                if vid in state.fifos and port != skip:
                    dirty.add(port)

    # -- configuration -----------------------------------------------------------

    def set_weight(self, vid: int, weight: float) -> None:
        """Set one tenant's fair-share weight on every port."""
        if weight <= 0:
            raise ConfigError(
                f"tenant {vid}: weight must be positive, got {weight}")
        self._weights[vid] = float(weight)
        for port in self._ports:
            port.ranker.weights[vid] = float(weight)

    def weight_of(self, vid: int) -> float:
        return self._weights.get(vid, 1.0)

    def set_rate_limit(self, vid: int, rate_bytes_per_s: float,
                       burst_bytes: Optional[float] = None) -> None:
        """Cap one tenant's egress at ``rate_bytes_per_s``."""
        self._buckets[vid] = TokenBucket(rate_bytes_per_s, burst_bytes,
                                         clock=self.clock)
        self._mark_vid_ports(vid)

    def clear_rate_limit(self, vid: int) -> None:
        if self._buckets.pop(vid, None) is not None:
            self._mark_vid_ports(vid)

    def purge(self, vid: int) -> List[Packet]:
        """Remove one tenant's queued packets and egress configuration.

        The lifecycle hook behind a live unload
        (:meth:`repro.api.Tenant.evict` calls it): an evicted tenant's
        backlog must not keep transmitting under a VID that no longer
        exists, and its weight, rate bucket, and STFQ finish tags must
        not leak to whoever is assigned the VID next. Other tenants'
        ranks are untouched (virtual time only ever advances on
        dequeue), so purging a neighbor never reorders surviving
        traffic. Returns the packets that were dropped from the
        queues, in (port, arrival) order.
        """
        purged: List[Packet] = []
        for port, state in enumerate(self._ports):
            fifo = state.fifos.pop(vid, None)
            if fifo:
                purged.extend(packet for _rank, _seq, packet in fifo)
                state.length -= len(fifo)
                self._dirty.add(port)
            state.ranker.weights.pop(vid, None)
            state.ranker._last_finish.pop(vid, None)
            self._throttle_marks.pop((port, vid), None)
        self._weights.pop(vid, None)
        self._buckets.pop(vid, None)
        self._total -= len(purged)
        self._depth.pop(vid, None)
        self._feed_depth(vid)
        self.per_tenant.pop(vid, None)
        return purged

    def drop_queued(self) -> List[Tuple[int, int, Packet]]:
        """Scrub every queued packet without transmitting — a crash,
        not a service.

        The data-plane reset behind :meth:`repro.fabric.topology.
        Fabric.crash_switch`: queue contents, STFQ finish tags, per-port
        arrival sequences, and throttle marks all clear, so a restored
        switch cannot emit ghost departures for packets that died in
        the crash. Configuration survives — weights, rate buckets, port
        rates, and multicast groups are control-plane state a rebooted
        switch gets re-pushed — and the drop/transmit counters are left
        alone: crash losses are accounted by the caller on the unified
        lost-record path, not as queue-capacity drops. Returns the
        scrubbed ``(port, vid, packet)`` triples in (port, arrival)
        order.
        """
        dropped: List[Tuple[int, int, Packet]] = []
        for port, state in enumerate(self._ports):
            entries = [(seq, vid, packet)
                       for vid, fifo in state.fifos.items()
                       for _rank, seq, packet in fifo]
            entries.sort()
            dropped.extend((port, vid, packet)
                           for _seq, vid, packet in entries)
            vids = sorted(state.fifos)
            if vids:
                self._dirty.add(port)
            for vid in vids:
                self._depth[vid] -= len(state.fifos[vid])
            state.fifos.clear()
            state.length = 0
            state.ranker._last_finish.clear()
            state.seq = 0
            for vid in vids:
                self._feed_depth(vid)
        self._total = 0
        self._throttle_marks.clear()
        return dropped

    def rate_limit_of(self, vid: int) -> Optional[float]:
        bucket = self._buckets.get(vid)
        return bucket.rate if bucket is not None else None

    def set_port_rate(self, port: int, rate_bps: float) -> None:
        """Override one port's transmission rate (its link capacity)."""
        self._check_port(port)
        if rate_bps <= 0:
            raise ConfigError(
                f"port {port}: rate must be positive, got {rate_bps}")
        self.port_rate_bps[port] = float(rate_bps)
        self._dirty.add(port)

    def port_rate_of(self, port: int) -> Optional[float]:
        """The rate ``port`` transmits at (override or the line rate)."""
        self._check_port(port)
        return self.port_rate_bps.get(port, self.line_rate_bps)

    # -- multicast groups (TrafficManager-compatible) ---------------------------

    def set_mcast_group(self, group_id: int, ports: List[int]) -> None:
        if group_id == 0:
            raise ConfigError("multicast group 0 means 'unicast'; pick >= 1")
        for port in ports:
            self._check_port(port)
        self._mcast_groups[group_id] = list(ports)

    def mcast_ports(self, group_id: int) -> List[int]:
        return list(self._mcast_groups.get(group_id, []))

    def mcast_groups(self) -> Dict[int, List[int]]:
        """All configured groups (so a replacement TM can adopt them)."""
        return {gid: list(ports)
                for gid, ports in self._mcast_groups.items()}

    # -- telemetry ---------------------------------------------------------------

    def tenant(self, vid: int) -> SchedulerTenantCounters:
        counters = self.per_tenant.get(vid)
        if counters is None:
            counters = self.per_tenant[vid] = SchedulerTenantCounters()
        return counters

    def queue_len(self, port: int) -> int:
        self._check_port(port)
        return self._ports[port].length

    def total_queued(self) -> int:
        return self._total

    def queue_depth(self, vid: int) -> int:
        """Packets of one tenant currently queued, across all ports."""
        return self._depth.get(vid, 0)

    def transmitted_bytes(self, vid: int) -> int:
        return self.tenant(vid).transmitted_bytes

    def _feed_depth(self, vid: int) -> None:
        if self._stats is not None:
            self._stats.set_egress_depth(vid, self._depth.get(vid, 0))

    # -- queueing ----------------------------------------------------------------

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise ConfigError(
                f"port {port} out of range [0, {self.num_ports})")

    def _enqueue_one(self, packet: Packet, port: int, vid: int) -> bool:
        state = self._ports[port]
        if (self.queue_capacity is not None
                and state.length >= self.queue_capacity):
            self.dropped += 1
            self.tenant(vid).dropped += 1
            return False
        rank = state.ranker.rank(vid, len(packet))
        fifo = state.fifos.get(vid)
        if fifo is None:
            fifo = state.fifos[vid] = deque()
        fifo.append((rank, state.seq, packet))
        state.seq += 1
        state.length += 1
        self._depth[vid] = self._depth.get(vid, 0) + 1
        self._total += 1
        self._dirty.add(port)
        self.enqueued += 1
        self.tenant(vid).enqueued += 1
        self._feed_depth(vid)
        return True

    def enqueue(self, packet: Packet, port: int, mcast_group: int = 0,
                module_id: int = 0) -> int:
        """Queue a packet for transmission; returns copies enqueued.

        Same contract as the FIFO traffic manager; ``module_id`` names
        the owning tenant for ranking, rate limiting, and telemetry.
        """
        if mcast_group:
            ports = self._mcast_groups.get(mcast_group)
            if not ports:
                self.dropped += 1
                self.tenant(module_id).dropped += 1
                return 0
            count = 0
            for p in ports:
                if self._enqueue_one(packet.copy(), p, module_id):
                    count += 1
            return count
        self._check_port(port)
        return 1 if self._enqueue_one(packet, port, module_id) else 0

    # -- scheduling decisions -----------------------------------------------------

    def _tx_seconds(self, nbytes: int, port: Optional[int] = None) -> float:
        rate = self._line_rate_bps if port is None \
            else self.port_rate_bps.get(port, self._line_rate_bps)
        if rate is None:
            return 0.0
        return nbytes * 8.0 / rate

    def _choose(self, port: int, now: float,
                wait_for_tokens: bool) -> Optional[_Choice]:
        """The next packet to serve on ``port`` at ``now``.

        PIFO pop with rate gating: among queue heads whose tenant has
        tokens, the smallest ``(rank, seq)``; throttled tenants are
        overtaken (work conservation). When *every* backlogged tenant is
        throttled and ``wait_for_tokens`` is set, the choice is the head
        that becomes eligible first — its serve time is in the future,
        and serving it idles the link until then (that is how a rate cap
        below link speed actually caps throughput). Mutates nothing but
        the ``throttled_waits`` telemetry (one count per delayed packet,
        deduplicated across scans via ``_throttle_marks``) and the
        refill of a consulted token bucket, which marks the bucket's
        other ports dirty.
        """
        state = self._ports[port]
        best: Optional[Tuple[float, int, int, float]] = None  # rank,seq,vid,at
        waiting: Optional[Tuple[float, float, int, int]] = None  # at,rank,seq,vid
        buckets = self._buckets
        for vid, fifo in state.fifos.items():
            rank, seq, packet = fifo[0]
            bucket = buckets.get(vid) if buckets else None
            if bucket is None:
                at = now
            else:
                last = bucket._last
                at = bucket.eligible_at(len(packet), now)
                if bucket._last != last:
                    # This port's own answer already reflects the
                    # refill; the bucket's other ports must re-ask.
                    self._mark_vid_ports(vid, skip=port)
            if at <= now:
                if best is None or (rank, seq) < (best[0], best[1]):
                    best = (rank, seq, vid, at)
            else:
                if self._throttle_marks.get((port, vid)) != seq:
                    self._throttle_marks[(port, vid)] = seq
                    self.tenant(vid).throttled_waits += 1
                if waiting is None or (at, rank, seq) < waiting[:3]:
                    waiting = (at, rank, seq, vid)
        if best is not None:
            rank, _seq, vid, at = best
            return (vid, rank, state.fifos[vid][0][2], now)
        if waiting is not None and wait_for_tokens:
            at, rank, _seq, vid = waiting
            return (vid, rank, state.fifos[vid][0][2], at)
        return None

    def _serve(self, choice: _Choice, port: int) -> Departure:
        vid, rank, packet, at = choice
        state = self._ports[port]
        fifo = state.fifos[vid]
        fifo.popleft()
        if not fifo:
            del state.fifos[vid]
        state.length -= 1
        self._depth[vid] -= 1
        self._total -= 1
        self._dirty.add(port)
        state.ranker.on_dequeue(rank)
        self._throttle_marks.pop((port, vid), None)
        start = max(at, self.port_clock[port])
        bucket = self._buckets.get(vid)
        if bucket is not None:
            bucket.consume(len(packet), start)
            self._mark_vid_ports(vid)
        self.port_clock[port] = start + self._tx_seconds(len(packet), port)
        self.dequeued += 1
        self.bytes_out[port] += len(packet)
        counters = self.tenant(vid)
        counters.transmitted += 1
        counters.transmitted_bytes += len(packet)
        if self._stats is not None:
            self._stats.record_egress_tx(vid, len(packet))
        self._feed_depth(vid)
        return Departure(packet=packet, port=port, module_id=vid,
                         time=self.port_clock[port])

    # -- service (TrafficManager-compatible + scheduled extensions) --------------

    def dequeue(self, port: int) -> Optional[Packet]:
        """Serve the next packet on ``port`` in weighted-fair order.

        Rate-limited tenants without tokens are overtaken by eligible
        ones; when every queued tenant is throttled, the link idles
        forward to the earliest eligibility, so rate caps hold even for
        drain-everything callers.
        """
        self._check_port(port)
        choice = self._choose(port, self.port_clock[port],
                              wait_for_tokens=True)
        if choice is None:
            return None
        return self._serve(choice, port).packet

    def drain(self, port: int) -> List[Packet]:
        """Dequeue everything waiting on ``port``, in service order."""
        out = []
        while True:
            pkt = self.dequeue(port)
            if pkt is None:
                return out
            out.append(pkt)

    def drain_all(self) -> Dict[int, List[Packet]]:
        return {port: self.drain(port) for port in range(self.num_ports)}

    def drain_bytes(self, port: int, budget_bytes: int) -> Dict[int, int]:
        """Serve up to ``budget_bytes`` from a port; returns per-tenant
        bytes served — the measurement the fairness assertions use."""
        self._check_port(port)
        served: Dict[int, int] = {}
        while budget_bytes > 0:
            choice = self._choose(port, self.port_clock[port],
                                  wait_for_tokens=True)
            if choice is None:
                break
            departure = self._serve(choice, port)
            size = len(departure.packet)
            served[departure.module_id] = (
                served.get(departure.module_id, 0) + size)
            budget_bytes -= size
        return served

    def next_departure_at(self, port: int) -> Optional[float]:
        """When the next packet on ``port`` would finish transmitting.

        ``None`` when the port is idle. This is the event-driven hook
        the fabric timeline (:mod:`repro.sim.fabric_timeline`) uses to
        schedule its next service event exactly, instead of polling the
        scheduler on a fixed tick. Pure query: mutates nothing but the
        ``throttled_waits`` telemetry (same caveat as scheduling scans).
        """
        self._check_port(port)
        choice = self._choose(port, self.port_clock[port],
                              wait_for_tokens=True)
        if choice is None:
            return None
        start = max(choice[3], self.port_clock[port])
        return start + self._tx_seconds(len(choice[2]), port)

    def advance_to(self, now: float) -> List[Departure]:
        """Serve every packet whose transmission completes by ``now``.

        The timed entry point :mod:`repro.sim.timeline` drives: packets
        depart in scheduling order as each output link
        (``line_rate_bps``) transmits them — ports are independent
        links, so their clocks advance in parallel — and each
        :class:`Departure` carries its timestamp, so latency under
        contention is measurable. Without a line rate, everything
        eligible departs instantaneously. Departures are returned in
        timestamp order across ports.

        An empty port's clock simply moves up to ``now``; only ports
        with a backlog are scanned (and marked dirty when they serve,
        or when their clock idles forward to a committed start).
        """
        departures: List[Departure] = []
        clocks = self.port_clock
        for port, state in enumerate(self._ports):
            if now < clocks[port]:
                continue
            if not state.length:
                clocks[port] = now
                continue
            while True:
                clock = clocks[port]
                choice = self._choose(port, clock, wait_for_tokens=True)
                if choice is None:
                    # Drained (by serves, which marked the port).
                    clocks[port] = max(clock, now)
                    break
                start = max(choice[3], clock)
                if start + self._tx_seconds(len(choice[2]), port) > now:
                    # The next transmission is committed to begin at
                    # ``start`` (it finishes past ``now``); the port
                    # idles only up to that instant, never past it —
                    # otherwise every advance_to call during a long
                    # transmission would re-delay its start, and a
                    # busy port fed by frequent events would slip
                    # unboundedly below line rate.
                    clocks[port] = max(clock, min(now, start))
                    if clocks[port] != clock:
                        self._dirty.add(port)
                    break
                departures.append(self._serve(choice, port))
        for vid, bucket in self._buckets.items():
            last = bucket._last
            bucket.refill(now)
            if bucket._last != last:
                self._mark_vid_ports(vid)
        departures.sort(key=_departure_time)
        return departures


def _departure_time(departure: Departure) -> float:
    return departure.time
