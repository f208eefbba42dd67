"""The Menshen pipeline: RMT + isolation primitives (§3.1, Fig. 2).

``MenshenPipeline`` assembles:

* a packet filter (VLAN check, reconfiguration-port check, update bitmap),
* a programmable parser/deparser with depth-32 **overlay** tables,
* ``num_stages`` match-action stages whose key-extractor/key-mask tables
  are overlays, whose CAM entries carry the module ID, and whose stateful
  memory sits behind a **segment table**,
* a **daisy chain** wired to every configuration table — the only write
  path into the pipeline,
* a partition ledger and statistics.

Two platform modes mirror the two prototypes (§3.1):

* ``reconfig_from_dataplane=False`` (NetFPGA switch): the daisy chain is
  reachable only through :meth:`inject_reconfig` (the PCIe path);
  reconfiguration-port packets on the data path are dropped.
* ``reconfig_from_dataplane=True`` (Corundum NIC): the packet filter
  admits reconfiguration packets from the shared ingress into the chain.

When a system-level module is installed (§3.3), the first and last
stages process *every* packet under the system module's ID; tenant
modules own the stages in between.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..errors import ReconfigurationError
from ..net.packet import Packet
from ..rmt.deparser import Deparser
from ..rmt.params import DEFAULT_PARAMS, HardwareParams
from ..rmt.parser import ProgrammableParser, extract_module_id
from ..rmt.pipeline import PipelineResult
from ..rmt.stage import Stage
from ..rmt.traffic_manager import TrafficManager
from .daisy_chain import DaisyChain
from .overlay import OverlayTable, overlay_factory
from .packet_filter import PacketClass, PacketFilter
from .reconfig import ReconfigPayload, ResourceType
from .resources import PartitionLedger
from .segment_table import SegmentTable, SegmentedAccess
from .stats import PipelineStats

#: Module ID reserved for the system-level module (§3.3). VID 0 is
#: reserved by 802.1Q anyway, so no tenant can carry it.
SYSTEM_MODULE_ID = 0


class _CamInvalidateHop:
    """Daisy-chain handler invalidating one stage's CAM row.

    A named callable (not a lambda) so a configured pipeline stays
    picklable — the parallel execution backend ships whole switches to
    worker processes as pickled specs.
    """

    __slots__ = ("stage",)

    def __init__(self, stage: Stage):
        self.stage = stage

    def __call__(self, index: int, _entry) -> None:
        self.stage.match_table.invalidate(index)


class MenshenPipeline:
    """A multi-module RMT pipeline with Menshen's isolation mechanisms."""

    def __init__(self, params: HardwareParams = DEFAULT_PARAMS,
                 num_ports: int = 8,
                 reconfig_from_dataplane: bool = False,
                 match_mode: str = "exact",
                 enable_default_actions: bool = False):
        self.params = params
        self.match_mode = match_mode
        self.enable_default_actions = enable_default_actions
        depth = params.max_modules

        self.parser_table = OverlayTable("parser_table",
                                         params.parser_entry_bits, depth)
        self.deparser_table = OverlayTable("deparser_table",
                                           params.parser_entry_bits, depth)
        self.parser = ProgrammableParser(self.parser_table, params)
        self.deparser = Deparser(self.deparser_table, params)

        self.stages: List[Stage] = []
        self.segment_tables: List[SegmentTable] = []
        for i in range(params.num_stages):
            stage = Stage(i, params, table_factory=overlay_factory,
                          config_depth=depth, match_mode=match_mode,
                          enable_default_actions=enable_default_actions)
            segment = SegmentTable(f"stage{i}.segment", depth)
            stage.set_stateful_access(
                SegmentedAccess(stage.stateful_memory, segment))
            self.stages.append(stage)
            self.segment_tables.append(segment)

        self.packet_filter = PacketFilter()
        self.daisy_chain = DaisyChain(self.packet_filter, params)
        self._register_hops()

        self.ledger = PartitionLedger(params)
        self.stats = PipelineStats()
        self.traffic_manager = TrafficManager(num_ports=num_ports)
        self.reconfig_from_dataplane = reconfig_from_dataplane

        #: Modules with installed programs; packets of others are dropped.
        self.loaded_modules: Set[int] = set()
        #: Stages owned by the system-level module (empty until one loads).
        self.system_stages: Set[int] = set()
        #: Monotonic configuration version. Every write that lands through
        #: the daisy chain — and every module load/unload — bumps it, so
        #: result caches (``repro.engine``) can validate memoized results
        #: against the configuration they were learned under.
        self.config_epoch = 0

    # -- daisy-chain wiring ----------------------------------------------------

    def _register_hops(self) -> None:
        chain = self.daisy_chain
        chain.register(ResourceType.PARSER_TABLE, 0, self.parser_table.write)
        for i, stage in enumerate(self.stages):
            chain.register(ResourceType.KEY_EXTRACTOR, i,
                           stage.key_extract_table.write)
            chain.register(ResourceType.KEY_MASK, i,
                           stage.key_mask_table.write)
            if self.match_mode == "ternary":
                chain.register(ResourceType.TCAM, i,
                               stage.match_table.write_word)
            else:
                chain.register(ResourceType.CAM, i,
                               stage.match_table.write_word)
            chain.register(ResourceType.CAM_INVALIDATE, i,
                           _CamInvalidateHop(stage))
            chain.register(ResourceType.VLIW, i, stage.write_vliw_word)
            if stage.default_vliw_table is not None:
                chain.register(ResourceType.DEFAULT_VLIW, i,
                               stage.default_vliw_table.write)
            chain.register(ResourceType.SEGMENT, i,
                           self.segment_tables[i].write_word)
            chain.register(ResourceType.STATEFUL_WORD, i,
                           stage.stateful_memory.write)
        chain.register(ResourceType.DEPARSER_TABLE, 0,
                       self.deparser_table.write)

    # -- module lifecycle hooks (used by repro.runtime.controller) -----------

    def mark_loaded(self, module_id: int) -> None:
        self.loaded_modules.add(module_id)
        self.config_epoch += 1

    def mark_unloaded(self, module_id: int) -> None:
        self.loaded_modules.discard(module_id)
        self.config_epoch += 1

    def set_system_stages(self, stages: Set[int]) -> None:
        """Declare which stages the system-level module occupies."""
        for s in stages:
            if not 0 <= s < self.params.num_stages:
                raise ReconfigurationError(f"no such stage: {s}")
        self.system_stages = set(stages)
        self.config_epoch += 1

    # -- reconfiguration paths ------------------------------------------------------

    def inject_reconfig(self, packet: Packet) -> Optional[ReconfigPayload]:
        """The trusted PCIe path into the daisy chain.

        Returns the applied payload, or ``None`` if the chain lost the
        packet (injected fault) — the caller detects this through the
        reconfiguration counter, like the real software does.
        """
        if not self.packet_filter.is_reconfig_packet(packet):
            raise ReconfigurationError(
                "not a reconfiguration packet (wrong UDP port or shape)")
        payload = self.daisy_chain.deliver(packet)
        if payload is not None:
            self.stats.record_reconfig()
            self.config_epoch += 1
        return payload

    # -- data plane ------------------------------------------------------------------
    #
    # ``process`` is split into three phases so a batched executor
    # (:mod:`repro.engine`) can interpose a result cache between them
    # without re-implementing any semantics:
    #
    # * :meth:`admit`   — filter verdict, module dispatch, early drops;
    # * :meth:`execute` — parse -> stages -> deparse (the expensive part);
    # * :meth:`commit`  — traffic-manager enqueue + output statistics.

    def admit(self, packet: Packet) -> Tuple[Optional[PipelineResult], int]:
        """Classify one ingress packet and dispatch it to its module.

        Returns ``(early_result, module_id)``: ``early_result`` is a
        finished :class:`PipelineResult` for packets that never reach the
        parser (reconfiguration, untagged, module-updating, unknown
        module); otherwise it is ``None`` and ``module_id`` names the
        admitted tenant.
        """
        verdict = self.packet_filter.classify(packet)

        if verdict == PacketClass.RECONFIG:
            if self.reconfig_from_dataplane:
                payload = self.daisy_chain.deliver(packet)
                if payload is not None:
                    self.stats.record_reconfig()
                    self.config_epoch += 1
                return (PipelineResult(packet=None, phv=None, dropped=True,
                                       drop_reason="reconfig_consumed"), 0)
            # Switch mode: data ports must never reach the config path.
            self.stats.record_drop(0, "reconfig_on_dataplane")
            return (PipelineResult(packet=None, phv=None, dropped=True,
                                   drop_reason="reconfig_on_dataplane"), 0)

        if verdict == PacketClass.CONTROL:
            self.stats.record_drop(0, "untagged")
            return (PipelineResult(packet=None, phv=None, dropped=True,
                                   drop_reason="untagged"), 0)

        module_id = extract_module_id(packet)

        if verdict == PacketClass.DROP_UPDATING:
            self.stats.record_in(module_id)
            self.stats.record_drop(module_id, "module_updating")
            return (PipelineResult(packet=None, phv=None, dropped=True,
                                   module_id=module_id,
                                   drop_reason="module_updating"), module_id)

        self.stats.record_in(module_id)
        if module_id not in self.loaded_modules:
            self.stats.record_drop(module_id, "unknown_module")
            return (PipelineResult(packet=None, phv=None, dropped=True,
                                   module_id=module_id,
                                   drop_reason="unknown_module"), module_id)
        return (None, module_id)

    def execute(self, packet: Packet, module_id: int,
                buffer_slot: Optional[int] = None
                ) -> Tuple[Optional[Packet], "PHV"]:
        """Run an admitted packet through parser, stages, and deparser.

        ``buffer_slot`` lets a batched executor pre-assign the §3.2
        packet-buffer slot in arrival order (the scalar path draws it
        round-robin here). Returns ``(merged, phv)``; ``merged`` is
        ``None`` when the module discarded the packet.
        """
        buffered = packet.copy()  # the packet buffer's copy
        phv = self.parser.parse(packet, module_id)
        if buffer_slot is None:
            buffer_slot = self.packet_filter.assign_buffer()
        phv.metadata.buffer_tag = 1 << buffer_slot

        for i, stage in enumerate(self.stages):
            stage_module = (SYSTEM_MODULE_ID if i in self.system_stages
                            else module_id)
            phv = stage.process(phv, stage_module)

        merged = self.deparser.deparse(phv, buffered, module_id)
        return merged, phv

    def commit(self, merged: Optional[Packet], phv: "PHV",
               module_id: int) -> PipelineResult:
        """Account for an executed packet and enqueue it into the TM."""
        if merged is None:
            self.stats.record_drop(module_id, "discard")
            return PipelineResult(packet=None, phv=phv, dropped=True,
                                  module_id=module_id, drop_reason="discard")
        egress = phv.metadata.dst_port
        mcast = phv.metadata.mcast_group
        self.traffic_manager.enqueue(merged, egress, mcast,
                                     module_id=module_id)
        self.stats.record_out(module_id, len(merged))
        return PipelineResult(packet=merged, phv=phv, dropped=False,
                              egress_port=egress, mcast_group=mcast,
                              module_id=module_id)

    def process(self, packet: Packet) -> PipelineResult:
        """Push one ingress packet through filter, pipeline, and TM."""
        early, module_id = self.admit(packet)
        if early is not None:
            return early
        merged, phv = self.execute(packet, module_id)
        return self.commit(merged, phv, module_id)

    def process_many(self, packets: List[Packet]) -> List[PipelineResult]:
        return [self.process(p) for p in packets]
