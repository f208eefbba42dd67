"""Failure injection: reconfiguration-packet loss, malformed inputs, and
recovery behavior of the control protocols."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Switch, TableEntry
from repro.core import (
    MenshenPipeline,
    ResourceId,
    ResourceType,
    build_reconfig_packet,
)
from repro.errors import (
    PacketError,
    ReconfigurationError,
    TruncatedPacketError,
)
from repro.modules import calc, netchain
from repro.net.packet import Packet
from repro.runtime import MenshenController


class TestReconfigLossRecovery:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 3))
    def test_load_correct_under_random_loss(self, losses):
        """Whatever packets the chain loses, a completed load leaves the
        exact same configuration state as a loss-free load."""
        clean = MenshenPipeline()
        MenshenController(clean).load_module(3, calc.P4_SOURCE, "calc")

        lossy = MenshenPipeline()
        lossy.daisy_chain.drop_next(losses)
        MenshenController(lossy).load_module(3, calc.P4_SOURCE, "calc")

        assert lossy.parser_table.snapshot() == clean.parser_table.snapshot()
        for s_lossy, s_clean in zip(lossy.stages, clean.stages):
            assert s_lossy.key_extract_table.snapshot() == \
                s_clean.key_extract_table.snapshot()
            assert s_lossy.key_mask_table.snapshot() == \
                s_clean.key_mask_table.snapshot()

    def test_load_fails_cleanly_under_total_loss(self):
        pipe = MenshenPipeline()
        pipe.daisy_chain.drop_next(10 ** 6)
        ctl = MenshenController(pipe, max_load_retries=2)
        with pytest.raises(ReconfigurationError):
            ctl.load_module(3, calc.P4_SOURCE, "calc")
        # The bitmap must not be left blocking the module's traffic.
        assert pipe.packet_filter.read_bitmap() == 0

    def test_entry_add_retries_under_loss(self):
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        ctl.load_module(3, calc.P4_SOURCE, "calc")
        pipe.daisy_chain.drop_next(1)
        ctl.insert_entry(3, "calc_table", TableEntry.of(
            {"hdr.calc.op": calc.OP_ADD}, "op_add", {"port": 1}))
        result = pipe.process(calc.make_packet(3, calc.OP_ADD, 2, 2))
        assert calc.read_result(result.packet) == 4

    def test_state_zeroed_between_tenants(self):
        """A new tenant must never observe the previous tenant's state
        (the paper's motivation for generating fresh entries on load)."""
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        sw = Switch(controller=ctl)
        tenant = sw.admit("chain-a", netchain.P4_SOURCE, vid=3)
        netchain.install(tenant)
        for _ in range(5):
            pipe.process(netchain.make_packet(3))
        assert ctl.register_read(3, "sequencer") == 5
        ctl.unload_module(3)
        # A different tenant takes the same module id and resources.
        tenant = sw.admit("chain-b", netchain.P4_SOURCE, vid=3)
        netchain.install(tenant)
        result = pipe.process(netchain.make_packet(3))
        assert netchain.read_seq(result.packet) == 1  # fresh state


class TestMalformedInputs:
    def test_truncated_packets_never_crash_the_filter(self):
        pipe = MenshenPipeline()
        for size in range(0, 48, 7):
            result = pipe.process(Packet(b"\x00" * size))
            assert result.dropped

    @given(st.binary(min_size=0, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_random_bytes_never_reconfigure(self, blob):
        """Fuzz: arbitrary data-path bytes can never write configuration."""
        pipe = MenshenPipeline()
        before_parser = pipe.parser_table.snapshot()
        before_ke = pipe.stages[0].key_extract_table.snapshot()
        try:
            pipe.process(Packet(bytes(blob)))
        except (PacketError, TruncatedPacketError):
            pass  # malformed inputs may be rejected, never applied
        assert pipe.parser_table.snapshot() == before_parser
        assert pipe.stages[0].key_extract_table.snapshot() == before_ke

    def test_reconfig_shaped_data_packet_is_inert_in_switch_mode(self):
        pipe = MenshenPipeline(reconfig_from_dataplane=False)
        evil = build_reconfig_packet(
            ResourceId(ResourceType.KEY_MASK, 0), index=2,
            entry=(1 << 193) - 1)
        before = pipe.stages[0].key_mask_table.snapshot()
        result = pipe.process(evil)
        assert result.dropped
        assert pipe.stages[0].key_mask_table.snapshot() == before

    def test_short_reconfig_packet_rejected(self):
        pipe = MenshenPipeline()
        good = build_reconfig_packet(
            ResourceId(ResourceType.SEGMENT, 0), index=1, entry=0x0101)
        truncated = Packet(good.read_bytes(0, 50))
        with pytest.raises(ReconfigurationError):
            pipe.inject_reconfig(truncated)

    def test_unknown_resource_type_rejected(self):
        pipe = MenshenPipeline()
        good = build_reconfig_packet(
            ResourceId(ResourceType.SEGMENT, 0), index=1, entry=0x0101)
        # Corrupt the resource-type nibble to an undefined value (15).
        word = good.read_int(46, 2)
        good.write_int(46, 2, (word & 0x0FFF) | (15 << 12))
        with pytest.raises(ReconfigurationError):
            pipe.inject_reconfig(good)

    def test_module_packet_too_short_for_its_parser(self):
        """A tenant sending packets shorter than its own declared headers
        only hurts itself: the parse faults and the packet is the
        tenant's problem; the pipeline survives."""
        sw = Switch()
        pipe = sw.pipeline
        calc.install(sw.admit("calc", calc.P4_SOURCE, vid=3))
        short = calc.make_packet(3, calc.OP_ADD, 1, 1)
        short.truncate(50)  # cuts into the calc header
        with pytest.raises(PacketError):
            pipe.process(short)
        # Well-formed traffic still flows afterwards.
        ok = pipe.process(calc.make_packet(3, calc.OP_ADD, 1, 1))
        assert ok.forwarded
