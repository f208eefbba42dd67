"""Batched multi-hop forwarding: waves of engine batches across links.

One fabric batch is processed as repeated *waves* by the unified
execution core (:class:`repro.exec.ExecutionCore` under its untimed
policy). A wave pushes each switch's pending packets through its
:class:`~repro.engine.BatchEngine` (the real batched serving path —
compiled classification, sharded dispatch, egress scheduler), then drains every
output port in the scheduler's weighted-fair service order:

* a packet leaving a **host port** exits the fabric — a
  :class:`Delivery` in fabric-wide service order;
* a packet leaving a **fabric port** crosses that port's link (bytes
  accounted per tenant) and becomes the next wave's arrival at the
  neighbor switch, ingress-port rewritten to the remote end — exactly
  what you get by manually chaining two switches' engines, which is
  what ``tests/test_fabric_differential.py`` asserts.

This path is untimed (service order, not timestamps): the timed
variant with per-link propagation delays and per-port transmission
clocks is :mod:`repro.sim.fabric_timeline` — a different timing policy
over the *same* core, which is why the two report the same lost
traffic (:meth:`FabricResult.lost_records`).

A packet scheduled onto a **downed link** is lost — as on real
hardware — but never silently: it is recorded in
:attr:`FabricResult.lost` with the link it died on, and the wave
continues, so one tenant's failed path cannot discard other tenants'
healthy in-flight traffic or poison later batches. (The *typed*
link-down failures, :class:`~repro.errors.LinkDownError`, are raised
where a caller can act on them: route computation and placement —
see :meth:`repro.fabric.topology.Fabric.shortest_paths` and
:meth:`repro.fabric.tenant.FabricTenant.place`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exec import ExecutionCore, ExecutionSink, LostRecord, summarize_lost
from ..exec import vid_of as _vid_of  # noqa: F401  (compat re-export)
from ..net.packet import Packet
from ..rmt.pipeline import PipelineResult
from .topology import Fabric


@dataclass(frozen=True)
class Delivery:
    """One packet that exited the fabric on a host port."""

    switch: str
    port: int
    vid: int
    packet: Packet


@dataclass(frozen=True)
class LostPacket:
    """One packet blackholed by a downed link."""

    link: str
    switch: str
    port: int
    vid: int
    packet: Packet


@dataclass
class FabricResult:
    """Outcome of one fabric batch."""

    #: host-port exits, in fabric-wide service order
    delivered: List[Delivery] = field(default_factory=list)
    #: per-switch pipeline results, in processing order
    results: Dict[str, List[PipelineResult]] = field(default_factory=dict)
    #: packets dropped inside some pipeline, per tenant
    dropped: Dict[int, int] = field(default_factory=dict)
    #: packets blackholed by downed links, in service order
    lost: List[LostPacket] = field(default_factory=list)
    #: number of forwarding waves the batch needed
    waves: int = 0

    def delivered_for(self, vid: int) -> List[Packet]:
        """One tenant's exits, in service order."""
        return [d.packet for d in self.delivered if d.vid == vid]

    def delivered_bytes(self, vid: int) -> int:
        return sum(len(d.packet) for d in self.delivered
                   if d.vid == vid)

    def lost_for(self, vid: int) -> List[LostPacket]:
        """One tenant's link-down losses."""
        return [l for l in self.lost if l.vid == vid]

    def lost_records(self) -> List[LostRecord]:
        """Link-down losses in the shared typed shape (vid, link,
        count) — directly comparable with
        :meth:`repro.sim.fabric_timeline.FabricTimelineResult.
        lost_records`."""
        return summarize_lost((l.vid, l.link) for l in self.lost)


class _ResultSink(ExecutionSink):
    """Shapes the core's event stream into a :class:`FabricResult`."""

    def __init__(self, result: FabricResult):
        self.result = result

    def on_result(self, member: str, outcome) -> None:
        self.result.results.setdefault(member, []).append(outcome)

    def on_drop(self, vid: int) -> None:
        self.result.dropped[vid] = self.result.dropped.get(vid, 0) + 1

    def on_deliver(self, member: str, port: int, vid: int,
                   packet: Packet, time: float) -> None:
        self.result.delivered.append(Delivery(
            switch=member, port=port, vid=vid, packet=packet))

    def on_lost(self, member: str, port: int, vid: int, packet: Packet,
                link: str, time: float) -> None:
        # A failed link loses its in-flight traffic — recorded loudly,
        # but the wave continues so other tenants' healthy packets
        # still forward.
        self.result.lost.append(LostPacket(
            link=link, switch=member, port=port, vid=vid, packet=packet))


def process_batch(fabric: Fabric,
                  arrivals: Sequence[Tuple[str, Packet]],
                  max_hops: Optional[int] = None,
                  backend: Optional[str] = None,
                  workers: Optional[int] = None) -> FabricResult:
    """Drive one batch of ``(switch_name, packet)`` arrivals to exit.

    ``max_hops`` bounds the wave count (default: number of switches,
    the longest loop-free route); exceeding it raises
    :class:`~repro.errors.FabricError` instead of looping forever on a
    misconfigured forwarding cycle.

    ``backend`` selects the execution backend (default: the
    ``REPRO_EXEC_BACKEND`` environment variable, else ``"serial"``):
    ``"serial"`` is the in-process oracle; ``"process"`` shards the
    fabric across worker processes (``workers``, default one per
    switch) via :func:`repro.exec.parallel.run_fabric_batch` with a
    bit-identical result. The serial path mutates the arrival packets
    in place (ingress rewrites); the process path leaves them
    untouched and returns pickled copies.
    """
    from ..exec.parallel import resolve_backend, run_fabric_batch

    if resolve_backend(backend) == "process":
        return run_fabric_batch(fabric, arrivals, max_hops=max_hops,
                                workers=workers)
    result = FabricResult()
    core = ExecutionCore.for_fabric(fabric, sink=_ResultSink(result))
    result.waves = core.run_waves(arrivals, max_hops=max_hops)
    return result
