"""Baseline (single-module) RMT pipeline.

``RmtPipeline`` wires parser → N stages → deparser for exactly one
program, with single-entry configuration tables — the "RMT" design the
paper compares Menshen against in Table 4 and the ASIC analysis
("we modified Menshen's hardware to support only one module").

The Menshen pipeline (:class:`repro.core.pipeline.MenshenPipeline`)
builds the same elements with depth-32 overlay tables, a packet filter,
segment tables, and a daisy chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..net.packet import Packet
from .config_table import ConfigTable
from .deparser import Deparser
from .params import DEFAULT_PARAMS, HardwareParams
from .parser import ProgrammableParser
from .phv import PHV
from .stage import Stage
from .traffic_manager import TrafficManager


@dataclass
class PipelineResult:
    """Outcome of pushing one packet through a pipeline."""

    packet: Optional[Packet]       #: merged output packet; None if dropped
    phv: PHV                       #: final PHV (post last stage)
    dropped: bool
    egress_port: int = 0
    mcast_group: int = 0
    module_id: int = 0
    drop_reason: str = ""

    @property
    def forwarded(self) -> bool:
        return not self.dropped


class RmtPipeline:
    """Single-module RMT pipeline: parser, stages, deparser, TM."""

    #: The only module ID a baseline pipeline knows.
    MODULE_ID = 0

    def __init__(self, params: HardwareParams = DEFAULT_PARAMS,
                 num_ports: int = 8):
        self.params = params
        depth = 1  # single program — no per-module overlay storage
        self.parser_table = ConfigTable("parser", params.parser_entry_bits,
                                        depth)
        self.deparser_table = ConfigTable("deparser",
                                          params.parser_entry_bits, depth)
        self.parser = ProgrammableParser(self.parser_table, params)
        self.deparser = Deparser(self.deparser_table, params)
        self.stages: List[Stage] = [
            Stage(i, params, config_depth=depth)
            for i in range(params.num_stages)
        ]
        self.traffic_manager = TrafficManager(num_ports=num_ports)
        self.packets_in = 0
        self.packets_out = 0
        self.packets_dropped = 0

    def execute(self, packet: Packet,
                module_id: int = MODULE_ID) -> tuple:
        """Parse -> stages -> deparse; returns ``(merged, phv)``.

        The same execute phase :class:`repro.core.pipeline.MenshenPipeline`
        exposes, so batched drivers can treat both pipelines uniformly.
        """
        buffered = packet.copy()  # the packet buffer's copy (§3.1)
        phv = self.parser.parse(packet, module_id)
        for stage in self.stages:
            phv = stage.process(phv, module_id)
        merged = self.deparser.deparse(phv, buffered, module_id)
        return merged, phv

    def process(self, packet: Packet) -> PipelineResult:
        """Push one packet through the pipeline and into the TM."""
        self.packets_in += 1
        module_id = self.MODULE_ID
        merged, phv = self.execute(packet, module_id)
        if merged is None:
            self.packets_dropped += 1
            return PipelineResult(packet=None, phv=phv, dropped=True,
                                  module_id=module_id, drop_reason="discard")
        self.packets_out += 1
        egress = phv.metadata.dst_port
        mcast = phv.metadata.mcast_group
        self.traffic_manager.enqueue(merged, egress, mcast)
        return PipelineResult(packet=merged, phv=phv, dropped=False,
                              egress_port=egress, mcast_group=mcast,
                              module_id=module_id)

    def process_many(self, packets: List[Packet]) -> List[PipelineResult]:
        return [self.process(p) for p in packets]
