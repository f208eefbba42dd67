"""Typed, seeded workloads for the eight evaluated modules (Table 3).

Benchmarks and tests used to hand-roll per-module traffic; this module
packages one reproducible workload per module:

* a deterministic **rule set** sized to the module's tables
  (``install(tenant)`` through the ``repro.api`` facade),
* a deterministic **flow space**: ``flow_packet(vid, flow_id)`` maps a
  flow ID onto a packet, byte-identical for the same ID — so flow-level
  samplers (:mod:`repro.traffic.flows`) produce cacheable flow structure,
* the module's **statefulness** (whether its data path touches stateful
  memory, i.e. whether the compiled classifier can ever serve it).

Flow IDs cover hit *and* miss behavior: for match-table modules, the low
flow IDs map onto installed rules and the tail exercises the default
path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..modules import (
    calc,
    firewall,
    load_balancer,
    multicast,
    netcache,
    netchain,
    qos,
    source_routing,
)
from ..net.packet import Packet
from .flows import FlowSampler, UniformFlows

#: Knuth's multiplicative hash constant — spreads flow IDs over operand
#: space deterministically without an RNG.
_MIX = 2654435761


def _mix(flow_id: int, salt: int = 0) -> int:
    return ((flow_id + salt + 1) * _MIX) & 0xFFFFFFFF


@dataclass(frozen=True)
class ModuleWorkload:
    """One module's reproducible workload."""

    name: str
    source: str
    stateful: bool
    n_flows: int
    install: Callable[[object], None]
    flow_packet: Callable[[int, int], Packet]

    def admit(self, switch, vid: int, name: Optional[str] = None):
        """Admit this workload's module on a switch and install its
        rules; returns the tenant handle."""
        tenant = switch.admit(name or f"{self.name}-{vid}", self.source,
                              vid=vid)
        self.install(tenant)
        return tenant


# -- per-module flow spaces -----------------------------------------------------

_FW_BLOCKED = [("10.4.0.0", 1000)]
_FW_ALLOWED = [("10.4.0.1", 1001, 2), ("10.4.0.2", 1002, 3),
               ("10.4.0.3", 1003, 4)]


def _fw_flow(flow_id: int) -> Tuple[str, int]:
    return (f"10.4.{(flow_id >> 8) & 0xFF}.{flow_id & 0xFF}",
            1000 + (flow_id & 0x3FFF))


_QOS_CLASSES = [(5060, qos.DSCP_EF), (8801, qos.DSCP_AF41), (4789, 18),
                (6081, 10)]
_QOS_PORTS = [port for port, _dscp in _QOS_CLASSES] + [80, 443, 53, 123]

_LB_FLOWS = [(f"10.5.0.{i}", 1000 + i, (i % 7) + 1, 8000 + i)
             for i in range(4)]

_MCAST_GROUPS = [("239.0.0.1", 1), ("239.0.0.2", 2)]
_MCAST_DSTS = [dst for dst, _gid in _MCAST_GROUPS] + ["10.6.0.1", "10.6.0.2"]

_NETCACHE_HOT = [(0x100 + i, i, 1000 + i) for i in range(4)]


def _calc_packet(vid: int, flow_id: int) -> Packet:
    op = [calc.OP_ADD, calc.OP_SUB, calc.OP_ECHO, 99][flow_id % 4]
    return calc.make_packet(vid, op, _mix(flow_id, 1), _mix(flow_id, 2))


def _firewall_packet(vid: int, flow_id: int) -> Packet:
    src, dport = _fw_flow(flow_id)
    return firewall.make_packet(vid, src, dport)


def _qos_packet(vid: int, flow_id: int) -> Packet:
    return qos.make_packet(vid, _QOS_PORTS[flow_id % len(_QOS_PORTS)])


def _lb_packet(vid: int, flow_id: int) -> Packet:
    if flow_id < len(_LB_FLOWS):
        src, sport, _port, _dport = _LB_FLOWS[flow_id]
    else:
        src = f"10.5.{(flow_id >> 8) & 0xFF}.{flow_id & 0xFF}"
        sport = 1000 + (flow_id & 0x3FFF)
    return load_balancer.make_packet(vid, src, sport)


def _srcroute_packet(vid: int, flow_id: int) -> Packet:
    tag = (source_routing.VALID_TAG if flow_id % 4 != 3
           else _mix(flow_id) & 0xFFFF)
    return source_routing.make_packet(vid, flow_id % 8, tag=tag)


def _mcast_packet(vid: int, flow_id: int) -> Packet:
    return multicast.make_packet(vid, _MCAST_DSTS[flow_id % len(_MCAST_DSTS)])


def _netcache_packet(vid: int, flow_id: int) -> Packet:
    if flow_id % 2 == 0:
        key = _NETCACHE_HOT[(flow_id // 2) % len(_NETCACHE_HOT)][0]
    else:
        key = 0x900 + flow_id
    return netcache.make_get(vid, key)


def _netchain_packet(vid: int, flow_id: int) -> Packet:
    del flow_id  # every sequencer request looks the same
    return netchain.make_packet(vid)


_WORKLOADS: Tuple[ModuleWorkload, ...] = (
    ModuleWorkload("calc", calc.P4_SOURCE, False, 64,
                   lambda t: calc.install(t, port=1), _calc_packet),
    ModuleWorkload("firewall", firewall.P4_SOURCE, False, 256,
                   lambda t: firewall.install(t, blocked=_FW_BLOCKED,
                                              allowed=_FW_ALLOWED),
                   _firewall_packet),
    ModuleWorkload("load_balancer", load_balancer.P4_SOURCE, False, 64,
                   lambda t: load_balancer.install(t, flows=_LB_FLOWS),
                   _lb_packet),
    ModuleWorkload("qos", qos.P4_SOURCE, False, 64,
                   lambda t: qos.install(t, classes=_QOS_CLASSES),
                   _qos_packet),
    ModuleWorkload("source_routing", source_routing.P4_SOURCE, False, 64,
                   lambda t: source_routing.install(t), _srcroute_packet),
    ModuleWorkload("netcache", netcache.P4_SOURCE, True, 64,
                   lambda t: netcache.install(t, cached=_NETCACHE_HOT),
                   _netcache_packet),
    ModuleWorkload("netchain", netchain.P4_SOURCE, True, 8,
                   lambda t: netchain.install(t, port=5), _netchain_packet),
    ModuleWorkload("multicast", multicast.P4_SOURCE, False, 64,
                   lambda t: multicast.install(t, groups=_MCAST_GROUPS),
                   _mcast_packet),
)

_BY_NAME: Dict[str, ModuleWorkload] = {w.name: w for w in _WORKLOADS}


def all_workloads() -> Tuple[ModuleWorkload, ...]:
    """All eight module workloads, in Table 3 order."""
    return _WORKLOADS


def workload(name: str) -> ModuleWorkload:
    if name not in _BY_NAME:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_BY_NAME)}")
    return _BY_NAME[name]


def flow_stream(spec: ModuleWorkload, vid: int, rng: random.Random,
                count: int, sampler: Optional[FlowSampler] = None
                ) -> List[Packet]:
    """``count`` packets of one workload, flows drawn by ``sampler``
    (uniform over the workload's flow space by default)."""
    sampler = sampler or UniformFlows(spec.n_flows)
    return [spec.flow_packet(vid, flow_id)
            for flow_id in sampler.stream(rng, count)]


#: Flow-space width of :func:`cache_hostile_stream`. Far beyond any
#: realistic cache capacity, so almost every packet is a fresh flow.
CACHE_HOSTILE_FLOWS = 1 << 16


def cache_hostile_stream(spec: ModuleWorkload, vid: int,
                         rng: random.Random, count: int,
                         n_flows: int = CACHE_HOSTILE_FLOWS) -> List[Packet]:
    """``count`` packets drawn uniformly from a flow space that dwarfs
    any exact-match flow cache.

    This is the adversarial regime for any exact-match result cache:
    with ``n_flows`` far above a cache's capacity and uniform
    popularity, nearly every packet is a fresh flow — only compiled
    classification keeps it off the scalar stage-by-stage walk. Every workload's
    ``flow_packet`` maps the widened flow-ID range onto valid, mostly
    distinct packets (match-table modules spill past their installed
    rules into the miss/default path, which is the point: misses are
    traffic too).
    """
    sampler = UniformFlows(max(n_flows, spec.n_flows))
    return [spec.flow_packet(vid, flow_id)
            for flow_id in sampler.stream(rng, count)]
