import csv
import io
import ipaddress
import itertools
import random
import socket
import struct
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camsieve import cli, flows, packets, synth
from camsieve.errors import MalformedCapture
from camsieve.packets import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    MAX_RECORD_LENGTH,
    PAYLOAD_HEAD,
    PacketRecord,
    TcpFlags,
    decode_packet,
    open_capture,
    read_packets,
    read_packets_sorted,
)

from conftest import ipv4_frame, swap_records, tcp_segment, udp_segment, write_pcap_bytes
from oracles import _reference_ipv6_text, reference_decode


class TestOpenCapture:
    def test_empty_capture_yields_nothing(self, tmp_path):
        p = tmp_path / "empty.pcap"
        p.write_bytes(write_pcap_bytes([]))
        assert list(open_capture(p)) == []

    def test_nanosecond_magic_truncates_to_microseconds(self, tmp_path):
        # 1.000000005 s expressed in nanoseconds
        p = tmp_path / "nanos.pcap"
        frame = b"\x00" * 20
        out = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
        out += struct.pack("<IIII", 1, 5, len(frame), len(frame)) + frame
        p.write_bytes(out)
        frames = list(open_capture(p))
        assert len(frames) == 1
        assert frames[0].timestamp == 1_000_000

    def test_big_endian_capture(self, tmp_path):
        p = tmp_path / "be.pcap"
        frame = ipv4_frame(transport=udp_segment())
        p.write_bytes(write_pcap_bytes([(2_500_000, frame)], magic=0xA1B2C3D4, order=">"))
        frames = list(open_capture(p))
        assert frames[0].timestamp == 2_500_000
        assert frames[0].link_type == LINKTYPE_ETHERNET

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pcap"
        p.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 20)
        with pytest.raises(MalformedCapture):
            list(open_capture(p))

    def test_truncated_record_yields_prefix_then_raises(self, tmp_path):
        frame = ipv4_frame(transport=udp_segment(payload=b"abcd"))
        full = write_pcap_bytes([(0, frame), (1000, frame)])
        cut = tmp_path / "cut.pcap"
        # keep the first record and half of the second record's body
        cut.write_bytes(full[: 24 + 16 + len(frame) + 16 + len(frame) // 2])
        it = open_capture(cut)
        assert next(it).wire_length == len(frame)
        with pytest.raises(MalformedCapture):
            next(it)

    def test_record_at_max_snaplen_accepted(self, tmp_path):
        p = tmp_path / "max.pcap"
        p.write_bytes(write_pcap_bytes([(0, bytes(MAX_RECORD_LENGTH))]))
        assert [len(f.data) for f in open_capture(p)] == [262_144]

    def test_records_straddling_blocks_read_whole(self, tmp_path):
        # many records cross a block boundary, and two span several blocks
        rng = random.Random(7)
        sizes = [rng.randint(0, 3000) for _ in range(300)] + [70_000, 0, 150_000, 1]
        frames = [(i * 1000, rng.randbytes(size)) for i, size in enumerate(sizes)]
        p = tmp_path / "blocks.pcap"
        p.write_bytes(write_pcap_bytes(frames))
        assert [(f.timestamp, f.data, f.wire_length) for f in open_capture(p)] == [
            (ts, data, len(data)) for ts, data in frames
        ]

    def test_complete_record_over_max_snaplen_rejected(self, tmp_path):
        frame = ipv4_frame(transport=udp_segment(payload=b"abcd"))
        p = tmp_path / "long.pcap"
        p.write_bytes(write_pcap_bytes([(0, frame), (1000, bytes(262_145))]))
        it = open_capture(p)
        assert next(it).data == frame
        with pytest.raises(MalformedCapture, match="262145"):
            next(it)

    def test_absurd_length_rejected_before_reading_body(self, tmp_path, monkeypatch):
        # the capture is read in blocks no longer than MAX_RECORD_LENGTH: the
        # claim is rejected from the first block, with no read of the body it claims
        p = tmp_path / "absurd.pcap"
        p.write_bytes(write_pcap_bytes([]) + struct.pack("<IIII", 0, 0, 0xFFFFFFF0, 60)
                      + bytes(3 * MAX_RECORD_LENGTH))
        reads = []

        class SpyFile(io.BytesIO):
            def read(self, n=-1):
                reads.append(n)
                assert n <= MAX_RECORD_LENGTH, f"read of {n} bytes attempted"
                return super().read(n)

        monkeypatch.setattr(packets, "open", lambda path, mode: SpyFile(p.read_bytes()),
                            raising=False)
        with pytest.raises(MalformedCapture, match=str(0xFFFFFFF0)):
            list(open_capture(p))
        assert len(reads) == 2 and reads[0] == 24  # global header, first block, no more

    @pytest.mark.parametrize("held, payload_length", [
        pytest.param(4, 20, id="whole-fcs"),
        pytest.param(2, 20, id="fcs-cut-by-snaplen"),
        pytest.param(-5, 15, id="cut-before-the-fcs"),
    ])
    def test_fcs_bytes_are_not_payload(self, tmp_path, held, payload_length):
        # IP total length and UDP length 0 (segmentation offload): the payload
        # length falls back to the captured bytes, which hold `held` of the 4
        # FCS bytes that the link-type field 0x24000001 announces
        udp = struct.pack("!HHHH", 5000, 6000, 0, 0) + bytes(range(20))
        frame = ipv4_frame(transport=udp, total_length=0)
        record = (frame + b"\xfc" * 4)[: len(frame) + held]
        data = bytearray(write_pcap_bytes([]))
        struct.pack_into("<I", data, 20, 0x24000001)
        data += struct.pack("<IIII", 0, 0, len(record), len(frame) + 4) + record
        p = tmp_path / "fcs.pcap"
        p.write_bytes(data)
        (captured,) = open_capture(p)
        assert captured.data == record[: len(frame)]
        assert captured.wire_length == len(frame) + 4
        (rec,) = read_packets(p)
        assert rec.payload_length == payload_length
        assert rec.total_length == len(frame) + 4

    def test_too_short_for_global_header(self, tmp_path):
        p = tmp_path / "tiny.pcap"
        p.write_bytes(b"\xd4\xc3\xb2\xa1short")
        with pytest.raises(MalformedCapture):
            list(open_capture(p))


class TestDecodePacket:
    def test_arp_is_skipped(self):
        frame = b"\xbb" * 6 + b"\xaa" * 6 + struct.pack("!H", 0x0806) + b"\x00" * 28
        assert decode_packet(frame, LINKTYPE_ETHERNET) is None

    def test_udp_field_layout(self):
        frame = ipv4_frame(proto=17, transport=udp_segment(5000, 6000, b"abcd"))
        rec = decode_packet(frame, LINKTYPE_ETHERNET, timestamp=7)
        assert rec == PacketRecord(
            timestamp=7,
            src_ip=socket.inet_aton("10.0.0.1"),
            dst_ip=socket.inet_aton("10.0.0.2"),
            src_port=5000,
            dst_port=6000,
            protocol=IPPROTO_UDP,
            total_length=len(frame),
            transport_header_length=8,
            payload_length=4,
            payload_head=b"abcd",
        )

    def test_tcp_syn_window(self):
        seg = tcp_segment(flags=TcpFlags.SYN, window=65535)
        rec = decode_packet(ipv4_frame(proto=6, transport=seg), LINKTYPE_ETHERNET)
        assert rec.protocol == IPPROTO_TCP
        assert rec.tcp_flags == TcpFlags.SYN
        assert rec.tcp_window == 65535
        assert rec.transport_header_length == 20

    def test_tcp_data_offset_times_four(self):
        seg = tcp_segment(data_offset_words=8, payload=b"xy")
        rec = decode_packet(ipv4_frame(proto=6, transport=seg), LINKTYPE_ETHERNET)
        assert rec.transport_header_length == 32
        assert rec.payload_head == b"xy"

    def test_udp_header_is_always_eight(self):
        rec = decode_packet(ipv4_frame(transport=udp_segment(payload=b"")), LINKTYPE_ETHERNET)
        assert rec.transport_header_length == 8

    def test_vlan_tag_unwrapped(self):
        frame = ipv4_frame(transport=udp_segment(1, 2, b"zz"), vlan=42)
        rec = decode_packet(frame, LINKTYPE_ETHERNET)
        assert rec is not None and rec.src_port == 1 and rec.payload_head == b"zz"

    def test_non_first_fragment_skipped(self):
        frame = ipv4_frame(transport=udp_segment(), frag_offset=100)
        assert decode_packet(frame, LINKTYPE_ETHERNET) is None

    def test_icmp_skipped(self):
        frame = ipv4_frame(proto=1, transport=b"\x08\x00\x00\x00")
        assert decode_packet(frame, LINKTYPE_ETHERNET) is None

    def test_ethernet_padding_excluded_from_payload(self):
        # 4-byte UDP payload padded to the 60-byte ethernet minimum
        frame = ipv4_frame(transport=udp_segment(payload=b"abcd"))
        padded = frame + b"\x00" * (60 - len(frame))
        rec = decode_packet(padded, LINKTYPE_ETHERNET)
        assert rec.payload_head == b"abcd"

    def test_raw_ip_link_type(self):
        inner = ipv4_frame(transport=udp_segment(9, 10, b"q"))[14:]
        rec = decode_packet(inner, LINKTYPE_RAW_IP)
        assert rec is not None and rec.src_port == 9

    def test_ipv6_udp_decoded_opaque(self):
        udp = udp_segment(1111, 2222, b"hello")
        ip6 = struct.pack("!IHBB", 6 << 28, len(udp), 17, 64)
        ip6 += bytes(range(16)) + bytes(range(16, 32))
        frame = b"\xbb" * 6 + b"\xaa" * 6 + struct.pack("!H", 0x86DD) + ip6 + udp
        rec = decode_packet(frame, LINKTYPE_ETHERNET)
        assert rec is not None
        assert rec.src_port == 1111
        assert rec.payload_head == b"hello"
        assert ":" in packets.address_text(rec.src_ip)

    def test_unknown_link_type_skips(self):
        assert decode_packet(b"\x00" * 64, 147) is None

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=120), st.sampled_from([LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, 0]))
    def test_total_on_arbitrary_bytes(self, blob, link_type):
        result = decode_packet(blob, link_type)
        assert result is None or isinstance(result, PacketRecord)


def ipv6_frame(next_header, transport, extension=b"", payload_length=None) -> bytes:
    """Ethernet+IPv6 frame; extension is a pre-built extension-header chain."""
    if payload_length is None:
        payload_length = len(extension) + len(transport)
    ip6 = struct.pack("!IHBB", 6 << 28, payload_length, next_header, 64)
    ip6 += bytes(range(16)) + bytes(range(16, 32))
    return b"\xbb" * 6 + b"\xaa" * 6 + struct.pack("!H", 0x86DD) + ip6 + extension + transport


class TestPayloadLength:
    """payload_length comes from the IP/UDP length fields; payload_head holds
    the first PAYLOAD_HEAD captured bytes, which a snaplen cut can shorten."""

    def test_udp_cut_frame_keeps_wire_length(self):
        frame = ipv4_frame(transport=udp_segment(payload=bytes(range(250)) * 4))
        rec = decode_packet(frame[:96], LINKTYPE_ETHERNET, wire_length=len(frame))
        assert rec.payload_length == 1000
        assert rec.payload_head == frame[42:42 + PAYLOAD_HEAD]
        assert rec.total_length == len(frame)

    def test_tcp_over_ipv4_cut_frame_keeps_wire_length(self):
        seg = tcp_segment(data_offset_words=8, payload=b"p" * 700)
        frame = ipv4_frame(proto=6, transport=seg, ihl_words=6)
        rec = decode_packet(frame[:80], LINKTYPE_ETHERNET, wire_length=len(frame))
        assert rec.transport_header_length == 32
        assert rec.payload_length == 700
        assert rec.payload_head == b"p" * (80 - 14 - 24 - 32)  # the cut leaves 10

    def test_tcp_over_ipv6_subtracts_extension_headers(self):
        hop_by_hop = bytes([6, 0]) + b"\x00" * 6  # next header TCP, 8 bytes long
        seg = tcp_segment(payload=b"q" * 300)
        frame = ipv6_frame(0, seg, extension=hop_by_hop)
        rec = decode_packet(frame[:100], LINKTYPE_ETHERNET, wire_length=len(frame))
        assert rec.protocol == IPPROTO_TCP
        assert rec.payload_length == 300
        assert rec.payload_head == b"q" * PAYLOAD_HEAD  # of 18 captured

    @pytest.mark.parametrize("length", [0, 1, 11, 12, 13, 1400])
    def test_head_is_the_first_payload_bytes(self, length):
        payload = bytes(range(256)) * 6
        payload = payload[:length]
        for proto, segment in ((17, udp_segment(payload=payload)),
                               (6, tcp_segment(data_offset_words=6, payload=payload))):
            rec = decode_packet(ipv4_frame(proto=proto, transport=segment), LINKTYPE_ETHERNET)
            assert rec.payload_length == length
            assert rec.payload_head == payload[:PAYLOAD_HEAD]

    def test_udp_over_ipv6_cut_frame_keeps_wire_length(self):
        frame = ipv6_frame(17, udp_segment(payload=b"v" * 500))
        rec = decode_packet(frame[:90], LINKTYPE_ETHERNET, wire_length=len(frame))
        assert rec.payload_length == 500

    def test_tcp_ethernet_padding_not_counted(self):
        frame = ipv4_frame(proto=6, transport=tcp_segment())
        rec = decode_packet(frame + b"\x00" * 6, LINKTYPE_ETHERNET)
        assert rec.payload_length == 0 and rec.payload_head == b""

    @pytest.mark.parametrize("total_length", [0, 19])
    def test_ipv4_total_length_too_small_falls_back_to_capture(self, total_length):
        frame = ipv4_frame(proto=6, transport=tcp_segment(payload=b"x" * 40),
                           total_length=total_length)
        rec = decode_packet(frame, LINKTYPE_ETHERNET)
        assert rec.payload_length == 40 and rec.payload_head == b"x" * PAYLOAD_HEAD

    @pytest.mark.parametrize("proto, transport", [
        (6, tcp_segment(payload=b"abcd")),
        (17, udp_segment(payload=b"abcd")),
    ])
    def test_ipv4_total_length_beyond_the_wire_falls_back_to_capture(self, proto, transport):
        frame = ipv4_frame(proto=proto, transport=transport, total_length=60000)
        for rec in (decode_packet(frame, LINKTYPE_ETHERNET),
                    decode_packet(frame[14:], LINKTYPE_RAW_IP)):
            assert rec.payload_length == 4 and rec.payload_head == b"abcd"

    def test_ipv6_payload_length_beyond_the_wire_falls_back_to_capture(self):
        frame = ipv6_frame(6, tcp_segment(payload=b"abcd"), payload_length=60000)
        for rec in (decode_packet(frame, LINKTYPE_ETHERNET),
                    decode_packet(frame[14:], LINKTYPE_RAW_IP)):
            assert rec.payload_length == 4 and rec.payload_head == b"abcd"

    def test_raw_ip_cut_frame_keeps_wire_length(self):
        packet = ipv4_frame(proto=6, transport=tcp_segment(payload=b"r" * 900))[14:]
        rec = decode_packet(packet[:60], LINKTYPE_RAW_IP, wire_length=len(packet))
        assert rec.payload_length == 900 and rec.payload_head == b"r" * PAYLOAD_HEAD

    def test_ipv6_jumbogram_length_falls_back_to_capture(self):
        frame = ipv6_frame(6, tcp_segment(payload=b"j" * 64), payload_length=0)
        rec = decode_packet(frame, LINKTYPE_ETHERNET)
        assert rec.payload_length == 64

    @pytest.mark.parametrize("udp_length", [0, 7])
    def test_udp_length_too_small_falls_back_to_ip_length(self, udp_length):
        seg = bytearray(udp_segment(payload=b"u" * 600))
        struct.pack_into("!H", seg, 4, udp_length)
        frame = ipv4_frame(transport=bytes(seg))
        rec = decode_packet(frame[:64], LINKTYPE_ETHERNET, wire_length=len(frame))
        assert rec.payload_length == 600

    def test_udp_length_below_ip_length_wins(self):
        seg = udp_segment(payload=b"w" * 10) + b"trailer"
        rec = decode_packet(ipv4_frame(transport=seg), LINKTYPE_ETHERNET)
        assert rec.payload_length == 10 and rec.payload_head == b"w" * 10  # no trailer


class TestReadPackets:
    def test_synthetic_capture_round_trip(self, tmp_path):
        frames = [
            (10, ipv4_frame(transport=udp_segment(5000, 6000, b"aa"))),
            (20, b"\xbb" * 6 + b"\xaa" * 6 + struct.pack("!H", 0x0806) + b"\x00" * 28),
            (30, ipv4_frame(proto=6, transport=tcp_segment(flags=TcpFlags.SYN | TcpFlags.ACK))),
        ]
        p = tmp_path / "mix.pcap"
        p.write_bytes(write_pcap_bytes(frames))
        records = list(read_packets(p))
        assert [r.timestamp for r in records] == [10, 30]  # ARP dropped
        assert records[0].protocol == IPPROTO_UDP
        assert records[1].tcp_flags == TcpFlags.SYN | TcpFlags.ACK


ARP_FRAME = b"\xbb" * 6 + b"\xaa" * 6 + struct.pack("!H", 0x0806) + b"\x00" * 28


@st.composite
def disordered_frames(draw):
    """(timestamp, decodable) per frame: a timeline with repeated timestamps,
    then runs moved earlier or later and runs or the whole capture reversed."""
    steps = draw(st.lists(st.integers(0, 3), max_size=40))  # a 0 step repeats a timestamp
    timestamps = list(itertools.accumulate(steps))
    for kind in draw(st.lists(st.sampled_from(["move", "reverse-run", "reverse"]), max_size=3)):
        if not timestamps:
            break
        i = draw(st.integers(0, len(timestamps) - 1))
        j = draw(st.integers(i, len(timestamps)))
        if kind == "move":
            run, rest = timestamps[i:j], timestamps[:i] + timestamps[j:]
            k = draw(st.integers(0, len(rest)))
            timestamps = rest[:k] + run + rest[k:]
        elif kind == "reverse-run":
            timestamps[i:j] = timestamps[i:j][::-1]
        else:
            timestamps.reverse()
    decodable = draw(st.lists(st.booleans(), min_size=len(timestamps), max_size=len(timestamps)))
    return [(ts * 250_000, ok) for ts, ok in zip(timestamps, decodable)]


def write_numbered_capture(path, frames):
    """Each decodable frame carries its frame index as its payload."""
    path.write_bytes(write_pcap_bytes([
        (ts, ipv4_frame(transport=udp_segment(payload=struct.pack("!I", i))) if ok else ARP_FRAME)
        for i, (ts, ok) in enumerate(frames)
    ]))


class TestReadPacketsSorted:
    # a 150-byte block holds one to three whole records, so the sortedness
    # check meets frames at a block's start, in its middle and at its end
    @pytest.mark.parametrize("block_size", [150, packets._BLOCK_SIZE])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(disordered_frames())
    def test_same_order_as_a_stable_sort(self, tmp_path, monkeypatch, block_size, frames):
        monkeypatch.setattr(packets, "_BLOCK_SIZE", block_size)
        p = tmp_path / "disordered.pcap"
        write_numbered_capture(p, frames)
        assert list(read_packets_sorted(p)) == sorted(read_packets(p), key=attrgetter("timestamp"))

    def held_while_assembling(self, path, monkeypatch) -> list[int]:
        """For each record the flow assembler takes while `read_flows` reads path,
        the records decoded but not yet taken at that moment."""
        decoded, held = [], []
        decode = packets.decode_packet
        assemble = flows.assemble_flows

        def counting(*args):
            decoded.append(None)
            return decode(*args)

        def watched(records, *args):
            def taken():
                for n, record in enumerate(records, 1):
                    held.append(len(decoded) - n)
                    yield record
            return assemble(taken(), *args)

        monkeypatch.setattr(packets, "decode_packet", counting)
        monkeypatch.setattr(flows, "assemble_flows", watched)
        flows.read_flows(path)
        return held

    def test_a_sorted_capture_holds_no_record(self, tmp_path, monkeypatch):
        p = tmp_path / "sorted.pcap"
        write_numbered_capture(p, [(ts, True) for ts in (0, 10, 10, 20, 30, 30, 30, 40)])
        assert self.held_while_assembling(p, monkeypatch) == [0] * 8

    def test_held_records_share_their_addresses(self, tmp_path):
        # 1,226 records of 12 conf flows whose timestamp falls at the fifth
        p = tmp_path / "conf.pcap"
        synth.generate(synth.SynthProfile(synth.TrafficKind.CONF, 12, seed=3), p)
        p.write_bytes(swap_records(p.read_bytes(), 5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = list(read_packets_sorted(p))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert records == sorted(read_packets(p), key=attrgetter("timestamp"))
        addresses = [a for r in records for a in (r.src_ip, r.dst_ip)]
        assert len({id(a) for a in addresses}) == len(set(addresses))
        # about 350 B a record on Python 3.11; 423 with two address objects each
        assert held / len(records) < 380

    def test_frames_appended_after_the_first_read_are_not_read(self, tmp_path):
        p = tmp_path / "growing.pcap"
        write_numbered_capture(p, [(ts, True) for ts in (0, 10, 20)])
        expected = list(read_packets(p))
        records = read_packets_sorted(p)
        write_numbered_capture(p, [(ts, True) for ts in (0, 10, 20, 5, 30)])
        assert list(records) == expected

    def test_malformed_capture_is_rejected_before_the_first_record(self, tmp_path):
        frame = ipv4_frame(transport=udp_segment(payload=b"abcd"))
        full = write_pcap_bytes([(0, frame), (1000, frame)])
        cut = tmp_path / "cut.pcap"
        cut.write_bytes(full[:-1])
        with pytest.raises(MalformedCapture, match="truncated record body"):
            read_packets_sorted(cut)


VLAN_TPIDS = (0x8100, 0x88A8)
IPV6_EXTENSIONS = (0, 43, 60, 44)  # hop-by-hop, routing, destination options, fragment
single_bits = st.integers(0, 15).map(lambda bit: 1 << bit)  # e.g. each fragment-word flag


@st.composite
def transport_segments(draw, proto):
    """A TCP, UDP or other transport segment whose header fields may lie."""
    payload = draw(st.binary(max_size=48))
    ports = draw(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)))
    if proto == IPPROTO_TCP:
        data_offset = draw(st.one_of(st.just(5), st.integers(0, 15)))
        header = struct.pack(
            "!HHIIBBHHH", *ports, 1, 1, data_offset << 4,
            draw(st.integers(0, 0xFF)), draw(st.integers(0, 0xFFFF)), 0, 0,
        )
        return header + bytes(max(0, data_offset * 4 - 20)) + payload
    if proto == IPPROTO_UDP:
        udp_len = draw(st.one_of(
            st.just(8 + len(payload)), st.integers(0, len(payload) + 16), st.integers(0, 0xFFFF),
        ))
        return struct.pack("!HHHH", *ports, udp_len, 0) + payload
    return payload


@st.composite
def ipv4_packets(draw):
    proto = draw(st.sampled_from([IPPROTO_TCP, IPPROTO_UDP, 1]))
    transport = draw(transport_segments(proto))
    ihl = draw(st.one_of(st.just(5), st.integers(0, 15)))
    options = draw(st.binary(min_size=max(0, ihl * 4 - 20), max_size=max(0, ihl * 4 - 20)))
    exact = 20 + len(options) + len(transport)
    total_length = draw(st.one_of(
        st.just(exact), st.just(0), st.integers(0, exact), st.integers(exact, 0xFFFF),
    ))
    frag_word = draw(st.one_of(st.just(0), single_bits, st.integers(0, 0xFFFF)))
    version = draw(st.sampled_from([4] * 7 + [6]))
    header = struct.pack(
        "!BBHHHBBH4s4s", version << 4 | ihl, 0, total_length, 0, frag_word, 64, proto, 0,
        draw(st.binary(min_size=4, max_size=4)), draw(st.binary(min_size=4, max_size=4)),
    )
    return header + options + transport


@st.composite
def ipv6_addresses(draw):
    mapped = b"\x00" * 10 + b"\xff\xff" + draw(st.binary(min_size=4, max_size=4))
    return draw(st.one_of(st.binary(min_size=16, max_size=16), st.just(mapped)))


@st.composite
def ipv6_packets(draw):
    proto = draw(st.sampled_from([IPPROTO_TCP, IPPROTO_UDP, 58]))
    body = draw(transport_segments(proto))
    next_header = proto
    for ext in reversed(draw(st.lists(st.sampled_from(IPV6_EXTENSIONS), max_size=4))):
        if ext == 44:
            # offset and flags: a first fragment, any single bit, or any word
            frag_word = draw(st.one_of(st.just(0), single_bits, st.integers(0, 0xFFFF)))
            header = struct.pack("!BBHI", next_header, 0, frag_word, 7)
        else:
            words = draw(st.integers(0, 2))
            header = struct.pack("!BB", next_header, words)
            header += draw(st.binary(min_size=words * 8 + 6, max_size=words * 8 + 6))
        body = header + body
        next_header = ext
    payload_length = draw(st.one_of(
        st.just(len(body)), st.just(0), st.integers(0, len(body)), st.integers(len(body), 0xFFFF),
    ))
    version = draw(st.sampled_from([6] * 7 + [4]))
    header = struct.pack("!IHBB", version << 28, payload_length, next_header, 64)
    return header + draw(ipv6_addresses()) + draw(ipv6_addresses()) + body


@st.composite
def captured_frames(draw):
    """(frame, link type, bytes on the wire past the frame)."""
    family = draw(st.sampled_from([4, 6]))
    ip = draw(ipv4_packets() if family == 4 else ipv6_packets())
    link_type = draw(st.sampled_from([LINKTYPE_ETHERNET] * 3 + [LINKTYPE_RAW_IP, 0]))
    if link_type == LINKTYPE_ETHERNET:
        tags = draw(st.lists(st.sampled_from(VLAN_TPIDS), max_size=5))
        natural = 0x0800 if family == 4 else 0x86DD
        ethertype = draw(st.sampled_from([natural] * 5 + [0x0800, 0x86DD, 0x0806]))
        frame = b"\xbb" * 6 + b"\xaa" * 6
        frame += b"".join(struct.pack("!HH", tpid, 42) for tpid in tags)
        frame += struct.pack("!H", ethertype) + ip
    else:
        frame = ip
    trailer = draw(st.one_of(st.just(b""), st.binary(max_size=8)))  # e.g. Ethernet padding
    return frame + trailer, link_type, draw(st.integers(0, 64))


class TestReferenceDecoder:
    """decode_packet against the slicing decoder in tests/oracles.py, field for
    field and skip for skip, at every snaplen cut of each generated frame."""

    @settings(max_examples=600, deadline=None)
    @given(captured_frames())
    def test_same_record_at_every_cut(self, case):
        frame, link_type, extra = case
        for cut in range(len(frame) + 1):
            captured = frame[:cut]
            # no wire length (the captured bytes are the whole frame), or more than was captured
            for wire_length in (None, len(frame) + extra):
                got = decode_packet(captured, link_type, 1_000_003, wire_length)
                want = reference_decode(captured, link_type, 1_000_003, wire_length)
                assert type(got) is type(want), (cut, wire_length, got, want)
                assert got == want, (cut, wire_length, got, want)

    @pytest.mark.parametrize("version", range(16))
    def test_each_version_nibble(self, version):
        # the generated frames above meet a given wrong nibble only now and then
        udp = udp_segment(payload=b"abc")
        v4 = ipv4_frame(transport=udp)
        v6 = ipv6_frame(IPPROTO_UDP, udp)
        for frame in (v4, v6):
            frame = frame[:14] + bytes([version << 4 | frame[14] & 0x0F]) + frame[15:]
            for link_type, captured in ((LINKTYPE_ETHERNET, frame), (LINKTYPE_RAW_IP, frame[14:])):
                assert decode_packet(captured, link_type) == reference_decode(captured, link_type)

    @pytest.mark.parametrize("bit", range(16))
    def test_each_fragment_word_bit(self, bit):
        # the generated words above meet a given lone bit only now and then
        udp = udp_segment(payload=b"abc")
        v4 = ipv4_frame(transport=udp)
        v4 = v4[:20] + struct.pack("!H", 1 << bit) + v4[22:]
        v6 = ipv6_frame(44, udp, extension=struct.pack("!BBHI", IPPROTO_UDP, 0, 1 << bit, 7))
        for frame in (v4, v6):
            assert decode_packet(frame, LINKTYPE_ETHERNET) == reference_decode(frame, LINKTYPE_ETHERNET)

    def test_frames_decode_often_enough_to_compare(self):
        # the generator must reach the record-building paths, not only skips
        decoded = []

        @settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @given(captured_frames())
        def tally(case):
            frame, link_type, _ = case
            decoded.append(decode_packet(frame, link_type) is not None)

        tally()
        assert sum(decoded) >= len(decoded) // 10


@st.composite
def common_edge_frames(draw):
    """(frame, wire length or None) of Ethernet, IPv4 and UDP or TCP frames at
    the edges of decode_packet's one-call path: 40-70 captured bytes, IHL 5 or
    6, with or without a VLAN tag, each fragment-word bit, total lengths at and
    around their bounds, short and exact UDP lengths, every TCP data offset,
    and a wire length below, at or above the captured one."""
    proto = draw(st.sampled_from([IPPROTO_UDP, IPPROTO_TCP]))
    ihl = draw(st.sampled_from([5, 5, 5, 6]))
    vlan = draw(st.sampled_from([False, False, False, True]))
    captured = draw(st.one_of(st.integers(50, 70), st.integers(40, 70)))
    link = 18 if vlan else 14
    wire_length = draw(st.one_of(
        st.none(), st.integers(max(0, captured - 20), captured - 1), st.just(captured),
        st.integers(captured + 1, captured + 40),
    ))
    ip_wire = (captured if wire_length is None else wire_length) - link
    total_len = draw(st.one_of(
        st.sampled_from([0, 19, 20, ip_wire, ip_wire + 1, captured - link]),
        st.integers(ip_wire, ip_wire + 30), st.integers(0, 0xFFFF),
    )) % 0x10000
    frag_word = draw(st.one_of(st.just(0), single_bits))
    ports = draw(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)))
    if proto == IPPROTO_UDP:
        segment = total_len - ihl * 4
        udp_len = draw(st.one_of(
            st.integers(0, 9), st.sampled_from([segment, captured - link - ihl * 4]),
        )) % 0x10000
        transport = struct.pack("!HHHH", *ports, udp_len, 0)
    else:
        data_offset = draw(st.one_of(st.just(5), st.integers(0, 15)))
        transport = struct.pack(
            "!HHIIBBHHH", *ports, draw(st.integers(0, 0xFFFFFFFF)), 1, data_offset << 4,
            draw(st.integers(0, 0xFF)), draw(st.integers(0, 0xFFFF)), 0, 0,
        )
    ip = struct.pack(
        "!BBHHHBBH4s4s", 4 << 4 | ihl, 0, total_len, 0, frag_word, 64, proto, 0,
        draw(st.binary(min_size=4, max_size=4)), draw(st.binary(min_size=4, max_size=4)),
    ) + bytes(ihl * 4 - 20)
    tag = struct.pack("!HH", 0x8100, 42) if vlan else b""
    frame = b"\xbb" * 6 + b"\xaa" * 6 + tag + b"\x08\x00" + ip + transport
    frame += draw(st.binary(min_size=max(0, captured - len(frame)), max_size=max(0, captured - len(frame))))
    return frame[:captured], wire_length


class TestCommonFrame:
    """decode_packet reads the common frame (untagged Ethernet, IPv4 with IHL 5,
    no fragment offset, UDP or TCP, at least 50 captured bytes) with one call;
    at that path's edges it must agree with the slicing decoder."""

    @settings(max_examples=2000, deadline=None)
    @given(common_edge_frames())
    def test_edges_match_the_reference(self, case):
        frame, wire_length = case
        got = decode_packet(frame, LINKTYPE_ETHERNET, 1_000_003, wire_length)
        want = reference_decode(frame, LINKTYPE_ETHERNET, 1_000_003, wire_length)
        assert type(got) is type(want), (got, want)
        assert got == want, (got, want)

    def test_edges_reach_the_one_call_path(self):
        # the generator must reach records of the common frame, not only skips
        # and the general path
        common = []

        @settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @given(common_edge_frames())
        def tally(case):
            frame, wire_length = case
            shape = (len(frame) >= 50 and frame[12:15] == b"\x08\x00\x45"
                     and not struct.unpack_from("!H", frame, 20)[0] & 0x1FFF)
            common.append(shape and decode_packet(frame, LINKTYPE_ETHERNET, 0, wire_length)
                          is not None)

        tally()
        assert sum(common) >= len(common) // 10


@st.composite
def pcap_files(draw):
    """(capture, the same capture with the link-type field's upper 16 bits
    clear, the FCS bytes that those bits announce): a valid global header of
    either byte order and timestamp resolution, then records of frames for the
    one-call reader, the general reader and neither, record lengths that may
    lie, and any trailing bytes."""
    order = draw(st.sampled_from("<>"))
    magic = draw(st.sampled_from([0xA1B2C3D4, 0xA1B23C4D]))  # micro-, nanoseconds
    link_type = draw(st.sampled_from([LINKTYPE_ETHERNET] * 6 + [LINKTYPE_RAW_IP, 0, 113]))
    upper_bits = draw(st.one_of(
        st.just(0), st.sampled_from([0x04000000, 0x24000000]),  # the FCS flag and length
        st.integers(0, 0xFFFF).map(lambda bits: bits << 16),
    ))
    records = b""
    for _ in range(draw(st.integers(1, 6))):
        frame = draw(st.one_of(
            common_edge_frames().map(lambda case: case[0]),
            captured_frames().map(lambda case: case[0]),
            st.binary(max_size=80),
        ))
        # one record length in eight lies; a wire length may be anything
        lies = draw(st.sampled_from([False] * 7 + [True]))
        incl_len = draw(st.integers(0, 0xFFFFFFFF)) if lies else len(frame)
        orig_len = draw(st.one_of(st.just(len(frame)), st.integers(0, 0xFFFFFFFF)))
        ts_sec, ts_frac = draw(st.integers(0, 0xFFFFFFFF)), draw(st.integers(0, 0xFFFFFFFF))
        records += struct.pack(order + "IIII", ts_sec, ts_frac, incl_len, orig_len) + frame
    if draw(st.sampled_from([False] * 3 + [True])):
        records += draw(st.binary(min_size=1, max_size=24))
    header = struct.pack(order + "IHHiII", magic, 2, 4, 0, 0, 65535)
    fcs = (upper_bits >> 28) * 2 if upper_bits & 0x04000000 else 0
    return (header + struct.pack(order + "I", link_type | upper_bits) + records,
            header + struct.pack(order + "I", link_type) + records, fcs)


class TestCaptureBytes:
    # a 64-byte block makes records straddle blocks; the default holds them whole
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pcap_files(), st.sampled_from([64, packets._BLOCK_SIZE]))
    def test_records_or_malformed_capture(self, tmp_path, monkeypatch, case, block_size):
        monkeypatch.setattr(packets, "_BLOCK_SIZE", block_size)
        fcs = case[2]
        open_capture = packets.open_capture

        def without_fcs(path):
            # each frame cut where the announced FCS begins on the wire
            for frame in open_capture(path):
                yield frame._replace(data=frame.data[: max(frame.wire_length - fcs, 0)])

        outcomes = []
        for name, data in zip(("flagged", "plain"), case):
            if name == "plain" and fcs:
                monkeypatch.setattr(packets, "open_capture", without_fcs)
            p = tmp_path / f"{name}.pcap"
            p.write_bytes(data)
            try:
                records = list(read_packets(p))
            except MalformedCapture:
                outcomes.append(MalformedCapture)
            else:
                assert all(type(record) is PacketRecord for record in records)
                outcomes.append(records)
        # the upper bits of the link-type field do not change the link type,
        # and an FCS that they announce is not frame data
        assert outcomes[0] == outcomes[1]

    def test_captures_decode_often_enough_to_compare(self, tmp_path):
        # the generator must reach records, not only data errors and skips
        decoded = []

        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @given(pcap_files())
        def tally(case):
            p = tmp_path / "capture.pcap"
            p.write_bytes(case[0])
            try:
                decoded.append(any(True for _ in read_packets(p)))
            except MalformedCapture:
                decoded.append(False)

        tally()
        assert sum(decoded) >= len(decoded) // 10


class TestAddressText:
    """Records hold raw addresses; `address_text` spells them where a flow is written."""

    def test_extract_spells_addresses_past_the_old_cache_bound(self, tmp_path):
        # one packet a flow from more than 4,096 IPv4 and as many IPv6 sources,
        # the bound of the IPv4 text cache that records no longer go through
        n = 4096 + 100
        frames, expected = [], []
        for i in range(n):
            src, dst = struct.pack("!I", 0x0A000000 + i), struct.pack("!I", 0xC0A80000 + i)
            frame = ipv4_frame(transport=udp_segment())
            frames.append((2 * i, frame[:26] + src + dst + frame[34:]))
            expected.append((socket.inet_ntoa(src), socket.inet_ntoa(dst)))

            mapped = b"\x00" * 10 + b"\xff\xff" + src
            plain = struct.pack("!QQ", 0x20010DB8 << 32, i)
            frames.append((2 * i + 1, ipv6_frame(IPPROTO_UDP, udp_segment())[:22] + mapped + plain
                           + udp_segment()))
            expected.append((f"::ffff:a00:{i:x}", str(ipaddress.IPv6Address(plain))))
        pcap, out = tmp_path / "hosts.pcap", tmp_path / "hosts.csv"
        synth.write_pcap(pcap, [(ts, frame, 0) for ts, frame in frames])
        assert cli.main(["extract", str(pcap), "--label", "Conf", "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[2:]
        assert [(row[1], row[2]) for row in rows] == expected
        for (ts, _), (src, dst), row in zip(frames, expected, rows):
            assert row[0] == f"{src}-{dst}-5000-6000-{IPPROTO_UDP}-{ts}"

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.binary(min_size=4, max_size=4),
        st.binary(min_size=4, max_size=4).map(lambda tail: b"\x00" * 10 + b"\xff\xff" + tail),
        st.lists(st.one_of(st.just(0), st.integers(0, 0xFFFF)), min_size=8, max_size=8)
        .map(lambda groups: struct.pack("!8H", *groups)),
    ))
    def test_address_text_matches_the_references(self, address):
        if len(address) == 4:
            assert packets.address_text(address) == socket.inet_ntoa(address)
        else:
            assert packets.address_text(address) == _reference_ipv6_text(address)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0), st.integers(0, 0xFFFF)), min_size=8, max_size=8))
    def test_ipv6_text_is_ipaddress_text_outside_the_mapped_range(self, groups):
        address = struct.pack("!8H", *groups)
        if address[:12] != b"\x00" * 10 + b"\xff\xff":
            assert packets.address_text(address) == str(ipaddress.IPv6Address(address))

    def test_ipv4_mapped_spelling(self):
        # ipaddress's spelling on Python 3.10-3.12, on every version: 3.13
        # writes ::ffff:1.2.3.4
        frame = ipv6_frame(IPPROTO_UDP, udp_segment())
        for tail, text in ((bytes([1, 2, 3, 4]), "::ffff:102:304"), (bytes(4), "::ffff:0:0")):
            mapped = b"\x00" * 10 + b"\xff\xff" + tail
            rec = decode_packet(frame[:22] + mapped + frame[38:], LINKTYPE_ETHERNET)
            assert packets.address_text(rec.src_ip) == text
