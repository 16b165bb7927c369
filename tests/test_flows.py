import os
import random
import socket
import struct
import threading
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsieve import packets, synth
from camsieve.errors import MalformedCapture, OutOfOrderTimestamp
from camsieve.flows import (
    HALF_CLOSE_SILENCE_US,
    Termination,
    assemble_flows,
    read_flows,
)
from camsieve.packets import (
    IPPROTO_TCP,
    IPPROTO_UDP,
    PAYLOAD_HEAD,
    PacketRecord,
    TcpFlags,
    read_packets,
    read_packets_sorted,
)
from camsieve.protocols import InspectedFlow, build_report

from conftest import (
    RecordedFlow,
    ipv4_frame,
    kept_without_columns,
    swap_records,
    tcp_segment,
    udp_segment,
    write_pcap_bytes,
)
from oracles import canonical_key, flow_key


A = (socket.inet_aton("10.0.0.1"), 5000)
B = (socket.inet_aton("10.0.0.2"), 6000)


def udp_pkt(ts, src=A, dst=B, payload=b"x"):
    return PacketRecord(
        timestamp=ts, src_ip=src[0], dst_ip=dst[0], src_port=src[1], dst_port=dst[1],
        protocol=IPPROTO_UDP, total_length=42 + len(payload),
        transport_header_length=8, payload_length=len(payload), payload_head=payload,
    )


def tcp_pkt(ts, src=A, dst=B, flags=TcpFlags.ACK,
            payload=b"", window=8192):
    return PacketRecord(
        timestamp=ts, src_ip=src[0], dst_ip=dst[0], src_port=src[1], dst_port=dst[1],
        protocol=IPPROTO_TCP, total_length=54 + len(payload),
        transport_header_length=20, payload_length=len(payload), payload_head=payload,
        tcp_flags=flags, tcp_window=window,
    )


def ip_endpoint(version):
    return st.tuples(st.ip_addresses(v=version).map(lambda a: a.packed), st.integers(0, 65535))


class TestCanonicalKey:
    """The assembler's flow key, checked against the oracle's canonical_key."""

    def test_symmetric(self):
        pkts = [udp_pkt(0, A, B), udp_pkt(1, B, A)]
        (flow,) = assemble_flows(pkts)
        assert list(flow.directions) == [1, 0]
        assert flow_key(flow) == canonical_key(pkts[0]) == canonical_key(pkts[1])

    def test_protocol_distinguishes(self):
        pkts = [udp_pkt(0), tcp_pkt(1)]
        flows = assemble_flows(pkts)
        assert [f.packet_count for f in flows] == [1, 1]
        assert [flow_key(f) for f in flows] == [canonical_key(p) for p in pkts]
        assert flow_key(flows[0]) != flow_key(flows[1])

    def test_self_flow(self):
        endpoint = (socket.inet_aton("10.0.0.1"), 80)
        (flow,) = assemble_flows([udp_pkt(0, endpoint, endpoint), udp_pkt(1, endpoint, endpoint)])
        assert list(flow.directions) == [1, 1]
        assert flow_key(flow) == (endpoint, endpoint, IPPROTO_UDP)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((4, 6)).flatmap(lambda v: st.tuples(ip_endpoint(v), ip_endpoint(v))))
    def test_symmetry_property(self, endpoints):
        ep1, ep2 = endpoints
        pkts = [udp_pkt(0, ep1, ep2), udp_pkt(1, ep2, ep1)]
        (flow,) = assemble_flows(pkts)
        assert (flow.initiator, flow.responder) == (ep1, ep2)
        assert list(flow.directions) == [1, int(ep1 == ep2)]
        assert flow_key(flow) == canonical_key(pkts[0]) == canonical_key(pkts[1])


def ends(flows):
    """Each flow's termination, packet count and start time, in output order."""
    return [(f.termination, f.packet_count, f.start_ts) for f in flows]


class TestIngest:
    """The rules that end a flow at a packet, through assemble_flows."""

    def test_timeout_splits_flow(self):
        flows = assemble_flows([udp_pkt(0), udp_pkt(601_000_000)], flow_timeout_us=600_000_000)
        assert ends(flows) == [
            (Termination.TIMEOUT, 1, 0), (Termination.END_OF_CAPTURE, 1, 601_000_000),
        ]

    def test_exactly_at_timeout_not_split(self):
        flows = assemble_flows([udp_pkt(0), udp_pkt(600_000_000)], flow_timeout_us=600_000_000)
        assert ends(flows) == [(Termination.END_OF_CAPTURE, 2, 0)]

    def test_tcp_fin_handshake_completes(self):
        pkts = [
            tcp_pkt(0, A, B, TcpFlags.SYN),
            tcp_pkt(10, B, A, TcpFlags.SYN | TcpFlags.ACK),
            tcp_pkt(20, A, B, TcpFlags.ACK),
            tcp_pkt(30, A, B, TcpFlags.FIN | TcpFlags.ACK),
            tcp_pkt(40, B, A, TcpFlags.FIN | TcpFlags.ACK),
            tcp_pkt(50, A, B, TcpFlags.ACK),
        ]
        assert ends(assemble_flows(pkts)) == [(Termination.TCP_FIN, 6, 0)]

    def test_rst_completes_immediately(self):
        # the packet after the RST opens a new flow
        flows = assemble_flows([
            tcp_pkt(0, A, B, TcpFlags.SYN),
            tcp_pkt(10, B, A, TcpFlags.RST),
            tcp_pkt(20, A, B, TcpFlags.ACK),
        ])
        assert ends(flows) == [(Termination.TCP_RST, 2, 0), (Termination.END_OF_CAPTURE, 1, 20)]

    def test_half_close_then_silence_completes(self):
        flows = assemble_flows([
            tcp_pkt(0, A, B, TcpFlags.ACK),
            tcp_pkt(10, A, B, TcpFlags.FIN | TcpFlags.ACK),
            tcp_pkt(10 + 1_000_000, A, B, TcpFlags.SYN),
        ])
        assert ends(flows) == [
            (Termination.TCP_FIN, 2, 0), (Termination.END_OF_CAPTURE, 1, 1_000_010),
        ]

    def test_direction_assignment(self):
        (flow,) = assemble_flows([udp_pkt(0, A, B), udp_pkt(1, B, A), udp_pkt(2, A, B)])
        assert flow.initiator == A
        assert list(flow.directions) == [1, 0, 1]

    def test_out_of_order_raises(self):
        with pytest.raises(OutOfOrderTimestamp, match="packet at 99 after 100"):
            assemble_flows([udp_pkt(100), udp_pkt(99)])

    def test_one_packet_can_complete_two_flows(self):
        flows = assemble_flows(
            [tcp_pkt(0, A, B, TcpFlags.SYN), tcp_pkt(101, B, A, TcpFlags.RST)], flow_timeout_us=100
        )
        assert ends(flows) == [(Termination.TIMEOUT, 1, 0), (Termination.TCP_RST, 1, 101)]
        assert flows[1].initiator == B

    def test_mid_capture_tcp_without_syn_opens_flow(self):
        flows = assemble_flows([tcp_pkt(0, A, B, TcpFlags.ACK, payload=b"data")])
        assert ends(flows) == [(Termination.END_OF_CAPTURE, 1, 0)]


class TestFlush:
    """The flows still open when the packets run out."""

    def test_empty(self):
        assert assemble_flows([]) == []

    def test_three_open_flows(self):
        flows = assemble_flows(
            [udp_pkt(i, (socket.inet_aton("10.0.0.9"), port), B)
             for i, port in enumerate([1111, 2222, 3333])]
        )
        assert len(flows) == 3
        assert all(f.termination is Termination.END_OF_CAPTURE for f in flows)
        assert [f.start_ts for f in flows] == [0, 1, 2]

    def test_second_call_starts_empty(self):
        pkts = [udp_pkt(0)]
        assert ends(assemble_flows(pkts)) == [(Termination.END_OF_CAPTURE, 1, 0)]
        assert assemble_flows([]) == []
        assert ends(assemble_flows(pkts)) == [(Termination.END_OF_CAPTURE, 1, 0)]


def _random_stream(seed, n=300):
    rng = random.Random(seed)
    endpoints = [(bytes([10, 0, 0, i]), 1000 + i) for i in range(1, 6)]
    ts = 0
    pkts = []
    for _ in range(n):
        ts += rng.randint(0, 2_000_000)
        src, dst = rng.sample(endpoints, 2)
        if rng.random() < 0.5:
            pkts.append(udp_pkt(ts, src, dst))
        else:
            flags = rng.choice([0x10, 0x18, 0x02, 0x11, 0x04, 0x10, 0x10])
            pkts.append(tcp_pkt(ts, src, dst, flags))
    return pkts


class TestProperties:
    def test_packet_conservation(self):
        pkts = _random_stream(1)
        flows = assemble_flows(pkts)
        assert sum(f.packet_count for f in flows) == len(pkts)

    def test_no_flow_spans_more_than_timeout(self):
        pkts = _random_stream(2)
        for f in assemble_flows(pkts, flow_timeout_us=5_000_000):
            assert f.last_ts - f.start_ts <= 5_000_000

    def test_deterministic(self):
        pkts = _random_stream(3)
        a = assemble_flows(pkts)
        b = assemble_flows(pkts)
        assert [(f.flow_id, f.packet_count, f.termination) for f in a] == [
            (f.flow_id, f.packet_count, f.termination) for f in b
        ]

    def test_every_packet_key_matches_flow_key(self):
        pkts = _random_stream(4)
        flows = assemble_flows(pkts, flow_type=RecordedFlow)
        for f in flows:
            assert f.directions[0] == 1, "the first packet must be forward"
            assert {canonical_key(pkt) for pkt in f.records} == {flow_key(f)}


TIMEOUT_US = 10
# steps between packets: within, at and past the flow timeout, and at the
# half-close silence, which the timeout must not hide
STEPS = (0, 1, TIMEOUT_US - 1, TIMEOUT_US, TIMEOUT_US + 1, HALF_CLOSE_SILENCE_US - 1,
         HALF_CLOSE_SILENCE_US)
ENDPOINTS = (A, B, (A[0], 6000))
FLAGS = (0, TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN, TcpFlags.FIN | TcpFlags.ACK,
         TcpFlags.RST, TcpFlags.RST | TcpFlags.ACK, TcpFlags.PSH | TcpFlags.ACK)


@st.composite
def packet_streams(draw):
    """A sorted stream of TCP and UDP packets among a few endpoints."""
    ts = 0
    pkts = []
    for _ in range(draw(st.integers(0, 40))):
        ts += draw(st.sampled_from(STEPS))
        src, dst = draw(st.sampled_from(ENDPOINTS)), draw(st.sampled_from(ENDPOINTS))
        payload = draw(st.binary(max_size=PAYLOAD_HEAD + 2))
        if draw(st.booleans()):
            window = draw(st.integers(0, 65535))
            pkts.append(tcp_pkt(ts, src, dst, draw(st.sampled_from(FLAGS)), payload, window))
        else:
            pkts.append(udp_pkt(ts, src, dst, payload))
    return pkts


def chronological(flows):
    """Each key's flows in the order they were opened. Flows of one key follow
    one another, so sorting by start and then last timestamp orders them; of
    flows that tie on both, all but the last opened ended before it, so the
    one still open at the end goes last."""
    by_key = {}
    for f in sorted(flows, key=lambda f: (f.start_ts, f.last_ts,
                                          f.termination is Termination.END_OF_CAPTURE)):
        by_key.setdefault(flow_key(f), []).append(f)
    return by_key


class TestStreamProperties:
    @settings(max_examples=300, deadline=None)
    @given(packet_streams(), st.sampled_from([TIMEOUT_US, HALF_CLOSE_SILENCE_US + 5]))
    def test_flow_rules_hold_on_any_stream(self, pkts, timeout_us):
        flows = assemble_flows(pkts, timeout_us)
        assert [(f.start_ts, f.flow_id) for f in flows] == sorted(
            (f.start_ts, f.flow_id) for f in flows
        )
        sent = {}
        for pkt in pkts:
            sent.setdefault(canonical_key(pkt), []).append(pkt.timestamp)
        by_key = chronological(flows)
        assert {key: [ts for f in key_flows for ts in f.timestamps]
                for key, key_flows in by_key.items()} == sent
        for key_flows in by_key.values():
            for earlier, later in zip(key_flows, key_flows[1:]):
                assert earlier.last_ts <= later.start_ts
                assert earlier.termination is not Termination.END_OF_CAPTURE
            # a timeout or a half-close silence ends a flow when the next packet
            # of its key comes, so a key's last flow ends at its own last packet
            # (RST, or ACK or FIN once both sides sent FIN) or at the end
            last = key_flows[-1]
            assert last.termination is not Termination.TIMEOUT
            if last.termination is Termination.TCP_FIN:
                fin_sides = {direction for direction, flags
                             in zip(last.directions[:-1], last.tcp_flags[:-1])
                             if flags & TcpFlags.FIN}
                assert fin_sides == {0, 1}
                assert last.tcp_flags[-1] & (TcpFlags.ACK | TcpFlags.FIN)
        for f in flows:
            assert f.packet_count > 0
            assert f.last_ts - f.start_ts <= timeout_us
            if f.termination is Termination.TCP_RST:
                assert f.tcp_flags[-1] & TcpFlags.RST

        # flows without columns, as inspect assembles them, split and end alike
        lean = assemble_flows(pkts, timeout_us, flow_type=InspectedFlow)
        assert list(map(kept_without_columns, lean)) == list(map(kept_without_columns, flows))


class HeadsSeen(InspectedFlow):
    """An InspectedFlow that also keeps, for each packet given to `add`, its
    packet count once added and the payload head it read."""

    __slots__ = ("seen",)

    def __init__(self, *args):
        super().__init__(*args)
        self.seen: list[tuple[int, bytes]] = []

    def add(self, pkt: PacketRecord) -> bool:
        forward = super().add(pkt)
        self.seen.append((self.packet_count, pkt.payload_head))
        return forward


class HeadsCut(InspectedFlow):
    """An InspectedFlow given only the first PAYLOAD_HEAD bytes of each head."""

    __slots__ = ()

    def add(self, pkt: PacketRecord) -> bool:
        return super().add(pkt._replace(payload_head=pkt.payload_head[:PAYLOAD_HEAD]))


class TestPayloads:
    def test_heads_keep_at_most_payload_head_bytes(self):
        # a flow keeps no payload: its `add` reads each packet's head as the
        # packet joins, and what inspect makes of a head is what it makes of
        # the head's first PAYLOAD_HEAD bytes
        rtp = struct.pack("!BBHII", 0x80, 96, 1, 0, 7)
        payloads = [rtp + b"x" * 8, b"", b"yz", b"w" * PAYLOAD_HEAD]
        pkts = [udp_pkt(ts, payload=p) for ts, p in enumerate(payloads)]
        (whole,) = assemble_flows(pkts, flow_type=HeadsSeen)
        (cut,) = assemble_flows(pkts, flow_type=HeadsCut)
        assert whole.seen == [(1, rtp + b"x" * 8), (2, b""), (3, b"yz"), (4, b"w" * PAYLOAD_HEAD)]
        assert build_report([whole]) == build_report([cut])
        assert build_report([whole])["flows"][0]["kind_counts"] == {"RTP": 1, "UNKNOWN": 3}

    def test_each_flow_keeps_its_own_payloads_in_capture_order(self, tmp_path):
        client, server = ("10.0.0.1", 5000), ("10.0.0.2", 80)

        def tcp(ts, forward, flags, payload):
            src, dst = (client, server) if forward else (server, client)
            seg = tcp_segment(src[1], dst[1], flags=flags, payload=payload)
            return ts, ipv4_frame(src[0], dst[0], proto=6, transport=seg)

        def udp(ts, payload):
            return ts, ipv4_frame("10.0.0.3", "10.0.0.4", transport=udp_segment(7000, 7001, payload))

        ack, fin = TcpFlags.ACK, TcpFlags.FIN | TcpFlags.ACK
        frames = [
            tcp(0, True, TcpFlags.SYN, b"a1"),
            tcp(100, False, TcpFlags.SYN | ack, b"a2"),
            tcp(100, True, ack, b"a3"),  # same timestamp as the backward packet before it
            udp(150, b"u1"),
            tcp(200, True, fin, b"a4"),
            tcp(300, False, fin, b"a5"),
            udp(350, b"u2"),
            tcp(400, True, ack, b"a6"),  # last ACK closes the first connection
            tcp(500, True, TcpFlags.SYN, b"b1"),  # same 5-tuple, new flow
            tcp(600, False, ack, b"b2"),
            tcp(600, True, ack, b"b3"),
        ]
        pcap = tmp_path / "reuse.pcap"
        pcap.write_bytes(write_pcap_bytes(frames))
        flows = assemble_flows(read_packets_sorted(pcap), flow_type=RecordedFlow)

        assert [[pkt.payload_head for pkt in f.records] for f in flows] == [
            [b"a1", b"a2", b"a3", b"a4", b"a5", b"a6"],
            [b"u1", b"u2"],
            [b"b1", b"b2", b"b3"],
        ]
        # a2/a3 and b2/b3 share a timestamp: the direction comes from the sender alone
        assert [list(f.directions) for f in flows] == [
            [1, 0, 1, 1, 0, 1], [1, 1], [1, 0, 1],
        ]
        assert [list(f.timestamps) for f in flows] == [
            [0, 100, 100, 200, 300, 400], [150, 350], [500, 600, 600],
        ]
        assert flows[0].termination is Termination.TCP_FIN
        assert flow_key(flows[0]) == flow_key(flows[2])
        assert sum(f.packet_count for f in flows) == len(frames)


def recorded(flows):
    return [(kept_without_columns(f), f.records) for f in flows]


class TestReadFlows:
    """read_flows gives the flows of the capture's packets in stable timestamp
    order, and sorts a list of them only when it must."""

    @pytest.fixture
    def capture(self, tmp_path):
        pcap = tmp_path / "conf.pcap"
        synth.generate(synth.SynthProfile(synth.TrafficKind.CONF, 12, seed=3), pcap)
        return pcap

    @pytest.fixture
    def unsorted_read_only(self, monkeypatch):
        def refused(path):
            raise AssertionError(f"{path} was read again sorted")

        monkeypatch.setattr(packets, "read_packets_sorted", refused)

    @staticmethod
    def sorted_flows(pcap):
        return assemble_flows(sorted(read_packets(pcap), key=attrgetter("timestamp")),
                              flow_type=RecordedFlow)

    def disordered(self, capture):
        data = swap_records(capture.read_bytes(), 5)
        disordered = capture.with_name("disordered.pcap")
        disordered.write_bytes(data)
        with pytest.raises(OutOfOrderTimestamp):
            assemble_flows(read_packets(disordered))
        return disordered

    def test_an_ordered_file_is_not_read_again_sorted(self, capture, unsorted_read_only):
        flows = read_flows(capture, flow_type=RecordedFlow)
        assert recorded(flows) == recorded(self.sorted_flows(capture))

    def test_a_disordered_file_gives_the_sorted_records_flows(self, capture):
        disordered = self.disordered(capture)
        flows = read_flows(disordered, flow_type=RecordedFlow)
        assert recorded(flows) == recorded(self.sorted_flows(disordered))

    def test_a_pipe_gives_the_sorted_records_flows(self, capture):
        disordered = self.disordered(capture)
        data = disordered.read_bytes()
        read_end, write_end = os.pipe()

        def feed():
            try:
                with os.fdopen(write_end, "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:  # the reader failed and closed its end
                pass

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            assert not os.path.isfile(f"/dev/fd/{read_end}")
            flows = read_flows(f"/dev/fd/{read_end}", flow_type=RecordedFlow)
        finally:
            os.close(read_end)
            feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert recorded(flows) == recorded(self.sorted_flows(disordered))

    def test_a_truncated_ordered_file_fails_on_the_first_pass(self, capture,
                                                               unsorted_read_only):
        cut = capture.with_name("cut.pcap")
        cut.write_bytes(capture.read_bytes()[:-1])
        with pytest.raises(MalformedCapture, match="truncated record body"):
            read_flows(cut)
