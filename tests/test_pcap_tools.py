"""Tests for the pcap reader/writer and the CLI tools."""

import io

import pytest

from repro.api import Switch
from repro.errors import PacketError
from repro.net import PacketBuilder, parse_layers
from repro.traffic.pcap import load_pcap, read_pcap, save_pcap, write_pcap


def sample_packets(count=3):
    out = []
    for i in range(count):
        pkt = (PacketBuilder().ethernet().vlan(vid=i + 1).ipv4()
               .udp(sport=1000 + i).payload(bytes([i]) * 10).build())
        pkt.arrival_time = 0.5 * i
        out.append(pkt)
    return out


class TestPcap:
    def test_roundtrip_in_memory(self):
        packets = sample_packets()
        buffer = io.BytesIO()
        assert write_pcap(buffer, packets) == 3
        buffer.seek(0)
        back = list(read_pcap(buffer))
        assert len(back) == 3
        for original, restored in zip(packets, back):
            assert restored.tobytes() == original.tobytes()
            assert restored.arrival_time == pytest.approx(
                original.arrival_time, abs=1e-6)

    def test_roundtrip_on_disk(self, tmp_path):
        path = str(tmp_path / "trace.pcap")
        packets = sample_packets(5)
        save_pcap(path, packets)
        back = load_pcap(path)
        assert [p.tobytes() for p in back] == \
            [p.tobytes() for p in packets]

    def test_layers_survive(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        save_pcap(path, sample_packets(1))
        layers = parse_layers(load_pcap(path)[0])
        assert layers["vlan"].vid == 1
        assert layers["udp"].sport == 1000

    def test_bad_magic_rejected(self):
        with pytest.raises(PacketError, match="magic"):
            list(read_pcap(io.BytesIO(b"\x00" * 24)))

    def test_truncated_header_rejected(self):
        with pytest.raises(PacketError):
            list(read_pcap(io.BytesIO(b"\x01\x02")))

    def test_truncated_record_rejected(self):
        buffer = io.BytesIO()
        write_pcap(buffer, sample_packets(1))
        data = buffer.getvalue()[:-4]  # chop the last packet's tail
        with pytest.raises(PacketError):
            list(read_pcap(io.BytesIO(data)))

    def test_snaplen_truncates(self):
        buffer = io.BytesIO()
        write_pcap(buffer, sample_packets(1), snaplen=20)
        buffer.seek(0)
        (pkt,) = list(read_pcap(buffer))
        assert len(pkt) == 20

    def test_pipeline_output_to_pcap(self, tmp_path):
        """End-to-end: forwarded packets can be exported for wireshark."""
        from repro.modules import calc
        switch = Switch()
        calc.install(switch.admit("calc", calc.P4_SOURCE, vid=1))
        pipe = switch.pipeline
        outputs = [pipe.process(calc.make_packet(1, calc.OP_ADD, i, 1)
                                ).packet for i in range(4)]
        path = str(tmp_path / "out.pcap")
        save_pcap(path, outputs)
        back = load_pcap(path)
        assert calc.read_result(back[2]) == 3


class TestCliTools:
    def test_compile_builtin(self, capsys):
        from repro.tools.compile import main
        assert main(["--builtin", "calc"]) == 0
        out = capsys.readouterr().out
        assert "calc_table" in out
        assert "resource usage" in out

    def test_compile_file(self, tmp_path, capsys):
        from repro.modules import qos
        from repro.tools.compile import main
        path = tmp_path / "qos.p4"
        path.write_text(qos.P4_SOURCE)
        assert main([str(path)]) == 0
        assert "classify" in capsys.readouterr().out

    def test_compile_unknown_builtin(self, capsys):
        from repro.tools.compile import main
        assert main(["--builtin", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_compile_bad_source(self, tmp_path, capsys):
        from repro.tools.compile import main
        path = tmp_path / "bad.p4"
        path.write_text("header broken {")
        assert main([str(path)]) == 1

    def test_info_runs(self, capsys):
        from repro.tools.info import main
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "205 bits" in out
