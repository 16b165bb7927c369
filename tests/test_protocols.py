import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsieve.flows import assemble_flows
from camsieve.packets import IPPROTO_TCP, IPPROTO_UDP, PAYLOAD_HEAD, PacketRecord
from camsieve.protocols import (
    IPSEC_NAT_T_PORT,
    MEET_PORT,
    QUIC_PORT,
    RTCP_TYPES,
    ZOOM_PORT,
    AppContext,
    Confidence,
    HintKind,
    InspectedFlow,
    MediaType,
    build_report,
    classify_udp_payload,
    media_hint,
    parse_rtp_header,
    port_profile,
)

from conftest import RecordedFlow, flow_packet, kept_without_columns, make_flow
from oracles import (
    MuxClass,
    demux_rtp_rtcp,
    reference_classify_udp_payload,
    reference_report,
    rtp_stream_continuity,
)


def rtp_bytes(version=2, padding=0, extension=0, cc=0, marker=0, pt=96,
              seq=0, ts=0, ssrc=0, tail=b""):
    b0 = (version << 6) | (padding << 5) | (extension << 4) | cc
    b1 = (marker << 7) | pt
    return struct.pack("!BBHII", b0, b1, seq, ts, ssrc) + tail


def rtcp_bytes(packet_type, count, padding=0):
    """An RTCP packet of the given type whose 5-bit count field is count, with
    a body of 24 bytes per report block or source (SR and RR also carry the
    sender SSRC, SR its 20-byte sender info)."""
    body = bytes(4 * (packet_type in (200, 201)) + 20 * (packet_type == 200) + 24 * count)
    b0 = (2 << 6) | (padding << 5) | count
    return struct.pack("!BBH", b0, packet_type, len(body) // 4) + body


def carrying(ts, payload):
    """A UDP record as the decoder builds it for payload: its wire length, and
    its first PAYLOAD_HEAD bytes."""
    return flow_packet(ts, len(payload), 42 + len(payload))._replace(
        payload_head=payload[:PAYLOAD_HEAD])


def report_of(flows, app=AppContext.GENERIC):
    """build_report on flows built by hand: each flow's packets are given
    again, in the order they were added, as assemble_flows gives them, to an
    InspectedFlow of the same identity."""
    inspected = []
    for flow in flows:
        again = InspectedFlow(flow.initiator, flow.responder, flow.protocol, flow.start_ts)
        for pkt in flow.records:
            again.add(pkt)
        inspected.append(again)
    return build_report(inspected, app)


class TestParseRtpHeader:
    def test_payload_type_122_example(self):
        header = parse_rtp_header(bytes([0x80, 0x7A, 0x00, 0x01]) + b"\x00" * 8)
        assert header is not None
        assert header.version == 2
        assert (header.padding, header.extension, header.csrc_count) == (False, False, 0)
        assert header.marker is False
        assert header.payload_type == 122
        assert header.sequence == 1

    def test_version_three_invalid(self):
        assert parse_rtp_header(bytes([0xC0]) + b"\x00" * 11) is None

    def test_eleven_bytes_invalid(self):
        assert parse_rtp_header(b"\x80" + b"\x00" * 10) is None

    @pytest.mark.parametrize("version", [0, 1, 3])
    def test_only_version_two_accepted(self, version):
        assert parse_rtp_header(rtp_bytes(version=version)) is None

    def test_all_fields_decoded(self):
        raw = rtp_bytes(padding=1, extension=1, cc=3, marker=1, pt=111,
                        seq=0xBEEF, ts=0x12345678, ssrc=0xCAFEBABE)
        h = parse_rtp_header(raw)
        assert (h.padding, h.extension, h.csrc_count, h.marker) == (True, True, 3, True)
        assert (h.payload_type, h.sequence, h.timestamp, h.ssrc) == (
            111, 0xBEEF, 0x12345678, 0xCAFEBABE)


# the kind classify_udp_payload gives on a port pair with no port rule, for
# each class of the oracle's RTP/RTCP demux
_MUX_KINDS = {MuxClass.RTP: HintKind.RTP, MuxClass.RTCP: HintKind.RTCP,
              MuxClass.NEITHER: HintKind.UNKNOWN}


def demux(payload):
    """The oracle's demux class of payload, after checking that
    classify_udp_payload on a neutral port pair gives its kind."""
    mux = demux_rtp_rtcp(payload)
    assert classify_udp_payload(payload, 50000, 50001).kind is _MUX_KINDS[mux]
    return mux


class TestDemux:
    """The RTP/RTCP rule, through the oracle's demux and classify_udp_payload."""

    def test_bit_four_set_is_rtp(self):
        assert demux(bytes([0x90, 0x60])) is MuxClass.RTP

    def test_rtcp_type_byte_confirms(self):
        assert demux(bytes([0x80, 0xC8])) is MuxClass.RTCP  # type 200

    def test_version_one_is_neither(self):
        assert demux(bytes([0x40, 0xC8])) is MuxClass.NEITHER

    def test_bit_four_clear_without_rtcp_type_is_neither(self):
        assert demux(bytes([0x80, 0x60])) is MuxClass.NEITHER

    @pytest.mark.parametrize("pt", [0, 96, 100, 127])
    def test_full_header_without_bit_four_is_rtp(self, pt):
        payload = rtp_bytes(extension=0, pt=pt)
        assert demux(payload) is MuxClass.RTP
        assert demux(payload[:11]) is MuxClass.NEITHER  # one byte short

    def test_rtcp_type_wins_over_full_header(self):
        assert demux(bytes([0x80, 0xC8]) + b"\x00" * 26) is MuxClass.RTCP

    def test_short_payload(self):
        assert demux(b"\x90") is MuxClass.NEITHER

    @pytest.mark.parametrize("packet_type", [200, 201, 202, 203])
    def test_rtcp_with_sixteen_or_more_blocks_is_rtcp(self, packet_type):
        # a count of 16-31 sets bit 4 of the first byte, RTP's extension bit
        for count in range(16, 32):
            for padding in (0, 1):
                payload = rtcp_bytes(packet_type, count, padding)
                assert payload[0] & 0x10
                assert payload[0] & 0x1F == count
                assert demux(payload) is MuxClass.RTCP
                hint = classify_udp_payload(payload, 50000, 50001)
                assert hint.kind is HintKind.RTCP and hint.rtp is None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 255), st.sampled_from(sorted(RTCP_TYPES)), st.binary(max_size=30))
    def test_rtcp_type_byte_is_rtcp_whatever_the_first_byte(self, b0, packet_type, tail):
        payload = bytes([b0, packet_type]) + tail
        want = MuxClass.RTCP if b0 >> 6 == 2 else MuxClass.NEITHER
        assert demux(payload) is want


class TestMediaHint:
    @pytest.mark.parametrize(
        "pt,app,media,note",
        [
            (9, AppContext.SKYPE, MediaType.AUDIO, "G.722"),
            (122, AppContext.SKYPE, MediaType.VIDEO, "Skype video"),
            (123, AppContext.SKYPE, MediaType.VIDEO, "Skype video"),
            (104, AppContext.TEAMS, MediaType.AUDIO, "Silk"),
            (118, AppContext.TEAMS, MediaType.AUDIO, "Comfort Noise"),
            (122, AppContext.TEAMS, MediaType.VIDEO, "H.264"),
            (123, AppContext.TEAMS, MediaType.VIDEO, "H.264 FEC"),
            (111, AppContext.MEET, MediaType.AUDIO, "Hangouts audio"),
            (96, AppContext.MEET, MediaType.VIDEO, "dynamic video"),
            (100, AppContext.MEET, MediaType.VIDEO, "dynamic video"),
            (97, AppContext.GENERIC, MediaType.UNKNOWN, "dynamic"),
            (0, AppContext.GENERIC, MediaType.UNKNOWN, ""),
        ],
    )
    def test_codec_tables(self, pt, app, media, note):
        header = parse_rtp_header(rtp_bytes(pt=pt))
        assert media_hint(header, app) == (media, note)


@st.composite
def demux_edge_payloads(draw):
    """0-24 bytes, most with a version-2 first byte, many with a second byte
    of 192-223 (around the RTCP types 200-206), and bit 4 of the first byte
    (RTP's extension bit, the top bit of an RTCP count) set or clear."""
    raw = bytearray(draw(st.binary(max_size=24)))
    if raw and draw(st.integers(0, 3)):
        raw[0] = 0x80 | raw[0] & 0x3F
    if raw:
        bit4 = draw(st.sampled_from([None, 0, 1]))
        if bit4 is not None:
            raw[0] = raw[0] & ~0x10 | bit4 << 4
    if len(raw) >= 2 and draw(st.booleans()):
        raw[1] = draw(st.integers(192, 223))
    return bytes(raw)


RULE_PORTS = st.one_of(st.sampled_from([QUIC_PORT, IPSEC_NAT_T_PORT, ZOOM_PORT, MEET_PORT, 5004]),
                       st.integers(0, 65535))


class TestClassifyUdpPayload:
    @settings(max_examples=1000, deadline=None)
    @given(demux_edge_payloads(), RULE_PORTS, RULE_PORTS)
    def test_matches_the_reference_classifier(self, payload, src, dst):
        # equal in all five fields, the parsed header included
        assert classify_udp_payload(payload, src, dst) == reference_classify_udp_payload(
            payload, src, dst)

    def test_hints_without_a_header_are_shared(self):
        # one immutable value per kind and note, not one per payload
        for payload, ports in [
            (bytes([0xC3]), (40000, 443)),
            (bytes([0x43]), (443, 40000)),
            (b"", (35301, 4500)),
            (bytes([0x80, 0xC8]), (50000, 50001)),
            (bytes([0x90, 0x60]), (50000, 50001)),
            (b"\x00", (52000, 8801)),
            (b"\x00", (19305, 52000)),
            (b"\x00", (50000, 50001)),
        ]:
            first = classify_udp_payload(payload, *ports)
            assert first.rtp is None
            assert classify_udp_payload(payload + b"\x00", *ports) is first
            assert first == reference_classify_udp_payload(payload, *ports)

    def test_quic_long_header(self):
        hint = classify_udp_payload(bytes([0xC3]) + b"\x00" * 20, 40000, 443)
        assert hint.kind is HintKind.QUIC_LONG
        assert hint.confidence is Confidence.STRONG

    def test_quic_short_header(self):
        hint = classify_udp_payload(bytes([0x43]) + b"\x00" * 20, 443, 40000)
        assert hint.kind is HintKind.QUIC_SHORT

    def test_ipsec_nat_t_port(self):
        hint = classify_udp_payload(b"\x00" * 16, 35301, 4500)
        assert hint.kind is HintKind.IPSEC_NAT_T
        assert hint.confidence is Confidence.WEAK

    def test_zoom_port_never_forced_to_rtp(self):
        hint = classify_udp_payload(bytes([0x05, 0x10]) + b"\x00" * 30, 52000, 8801)
        assert hint.kind is HintKind.UNKNOWN
        assert hint.codec_note == "Zoom-associated port"
        assert hint.media is MediaType.UNKNOWN

    def test_rtp_on_dynamic_port_is_weak(self):
        hint = classify_udp_payload(rtp_bytes(extension=1, pt=122), 50000, 50001)
        assert hint.kind is HintKind.RTP
        assert hint.confidence is Confidence.WEAK

    def test_rtcp_detected(self):
        hint = classify_udp_payload(bytes([0x80, 0xC9, 0x00, 0x07]) + b"\x00" * 28, 50000, 50001)
        assert hint.kind is HintKind.RTCP

    def test_unknown_fallback(self):
        hint = classify_udp_payload(b"\x00\x00\x00", 1234, 5678)
        assert hint.kind is HintKind.UNKNOWN
        assert hint.media is MediaType.UNKNOWN

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=40), st.integers(0, 65535), st.integers(0, 65535))
    def test_total_and_deterministic(self, payload, src, dst):
        first = classify_udp_payload(payload, src, dst)
        assert first == classify_udp_payload(payload, src, dst)
        assert first.kind in HintKind

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=40), st.builds(rtp_bytes, pt=st.integers(0, 127),
                                                      extension=st.integers(0, 1))),
           st.one_of(st.sampled_from([443, 4500, 8801]), st.integers(0, 65535)),
           st.integers(0, 65535))
    def test_rtp_field_is_the_parsed_header_of_rtp_hints_only(self, payload, src, dst):
        hint = classify_udp_payload(payload, src, dst)
        if hint.kind is HintKind.RTP:
            assert hint.rtp == parse_rtp_header(payload)
        else:
            assert hint.rtp is None

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.binary(max_size=64),
                     st.builds(rtp_bytes, extension=st.integers(0, 1), marker=st.integers(0, 1),
                               pt=st.integers(0, 127), tail=st.binary(max_size=32)),
                     st.builds(rtcp_bytes, st.sampled_from(sorted(RTCP_TYPES)),
                               st.integers(0, 31))),
           st.one_of(st.sampled_from([443, 4500, 8801, 19305]), st.integers(0, 65535)),
           st.one_of(st.sampled_from([443, 4500, 8801, 19305]), st.integers(0, 65535)))
    def test_reads_no_byte_past_the_payload_head(self, payload, src, dst):
        # packet records keep only the first PAYLOAD_HEAD payload bytes
        assert (classify_udp_payload(payload, src, dst)
                == classify_udp_payload(payload[:PAYLOAD_HEAD], src, dst))

    def test_media_only_set_for_rtp(self):
        for payload, ports in [
            (bytes([0xC3]) + b"\x00" * 8, (1, 443)),
            (b"\x00" * 8, (4500, 9)),
            (b"garbage!", (7, 8)),
        ]:
            hint = classify_udp_payload(payload, *ports)
            if hint.kind is not HintKind.RTP:
                assert hint.media is MediaType.UNKNOWN


class TestContinuity:
    """A flow's rtp_continuity as build_report gives it from InspectedFlow,
    which counts hits as each payload joins the flow; the oracle reads the
    whole list of headers and must agree."""

    def continuity(self, payloads):
        report = report_of([make_flow([carrying(i, p) for i, p in enumerate(payloads)], [])])
        value = report["flows"][0]["rtp_continuity"]
        assert value == rtp_stream_continuity([parse_rtp_header(p) for p in payloads])
        return value

    def seqs(self, numbers, ssrc=7):
        return [rtp_bytes(pt=96, seq=n, ssrc=ssrc) for n in numbers]

    def test_perfect_increments(self):
        assert self.continuity(self.seqs([5, 6, 7, 8])) == 1.0

    def test_one_skip(self):
        assert self.continuity(self.seqs([5, 7, 8])) == 0.5

    def test_duplicates_never_count(self):
        assert self.continuity(self.seqs([5, 5])) == 0.0

    def test_wraparound_counts(self):
        assert self.continuity(self.seqs([65535, 0])) == 1.0

    def test_insufficient(self):
        assert self.continuity(self.seqs([5])) is None
        assert self.continuity([b"notrtp"]) is None
        assert self.continuity(self.seqs([1], ssrc=7) + self.seqs([2], ssrc=9)) is None

    def test_filters_to_dominant_ssrc(self):
        assert self.continuity(self.seqs([1, 2, 3], ssrc=7) + self.seqs([100], ssrc=9)) == 1.0


def _one_packet_flow(src_port, dst_port, protocol=IPPROTO_UDP):
    pkt = flow_packet(0, 10, 60)
    return make_flow([pkt], [], protocol,
                     initiator=(socket.inet_aton("10.0.0.1"), src_port),
                     responder=(socket.inet_aton("10.0.0.2"), dst_port))


class TestPortProfile:
    def test_proportions(self):
        profile = port_profile([8801, 443, 8801, 8801])
        assert profile == {443: 0.25, 8801: 0.75}
        assert list(profile) == [443, 8801]

    def test_empty(self):
        assert port_profile([]) == {}

    def test_both_sides_single_flow(self):
        report = report_of([_one_packet_flow(5000, 6000)])
        assert report["port_profile_src"] == {"5000": 1.0}
        assert report["port_profile_dst"] == {"6000": 1.0}

    def test_proportions_sum_to_one(self, rng):
        flows = [_one_packet_flow(rng.randint(1, 99), rng.randint(100, 200)) for _ in range(37)]
        report = report_of(flows)
        for key in ("port_profile_src", "port_profile_dst"):
            assert sum(report[key].values()) == pytest.approx(1.0, abs=1e-12)


class TestBuildReport:
    def rtp_flow(self, fwd_pts, src_port, extension=1):
        def rtp_packet(i, pt):
            # the demux counts X=1 payloads as RTP from the first byte, X=0
            # ones from the full 12-byte header
            payload = rtp_bytes(extension=extension, pt=pt, seq=i, ssrc=7)
            return carrying(i, payload)

        fwd = [rtp_packet(i, pt) for i, pt in enumerate(fwd_pts)]
        bwd = [carrying(len(fwd), b"xx")]
        return make_flow(fwd, bwd, initiator=(socket.inet_aton("10.0.0.1"), src_port))

    def rtp_looking_flow(self, protocol, dst_port):
        fwd = [carrying(i, rtp_bytes(pt=96, seq=i, ssrc=7)) for i in range(6)]
        return make_flow(fwd, [], protocol, responder=(socket.inet_aton("10.0.0.2"), dst_port))

    def test_payload_types_read_from_packets_and_sorted_numerically(self):
        flows = [self.rtp_flow([100, 100, 96, 100], 5000), self.rtp_flow([9, 9], 5001)]
        report = report_of(flows, AppContext.GENERIC)
        first, second = report["flows"]
        assert first["hint"] == "RTP" and first["packets"] == 5
        assert first["kind_counts"] == {"RTP": 4, "UNKNOWN": 1}
        assert list(first["rtp_payload_types"].items()) == [("96", 1), ("100", 3)]
        assert first["rtp_continuity"] == 1.0  # the backward non-RTP payload is skipped
        assert list(second["rtp_payload_types"].items()) == [("9", 2)]
        assert list(report["rtp_payload_type_totals"].items()) == [("9", 2), ("96", 1), ("100", 3)]

    def test_rtp_without_header_extension_is_rtp(self):
        flows = [self.rtp_flow([96, 100, 100, 96], 5000, extension=0)]
        report = report_of(flows, AppContext.MEET)
        (entry,) = report["flows"]
        assert entry["hint"] == "RTP"
        assert entry["media"] == "VIDEO" and entry["codec_note"] == "dynamic video"
        assert entry["kind_counts"] == {"RTP": 4, "UNKNOWN": 1}
        assert list(entry["rtp_payload_types"].items()) == [("96", 2), ("100", 2)]
        assert entry["rtp_continuity"] == 1.0
        assert list(report["rtp_payload_type_totals"].items()) == [("96", 2), ("100", 2)]

    def test_muxed_rtcp_adds_no_payload_type(self):
        # RFC 5761: sender reports (PT 200) share the RTP port; read as RTP
        # headers they would count as payload type 72
        sender_report = bytes([0x80, 200, 0x00, 0x06]) + bytes(24)
        payloads = [rtp_bytes(pt=96, seq=i, ssrc=7) for i in range(6)]
        payloads.insert(2, sender_report)
        payloads.insert(5, sender_report)
        fwd = [carrying(i, p) for i, p in enumerate(payloads)]
        report = report_of([make_flow(fwd, [])], AppContext.GENERIC)
        (entry,) = report["flows"]
        assert entry["kind_counts"] == {"RTCP": 2, "RTP": 6}
        assert entry["rtp_payload_types"] == {"96": 6}
        assert report["rtp_payload_type_totals"] == {"96": 6}
        assert entry["rtp_continuity"] == 1.0

    @pytest.mark.parametrize("packet_type", [200, 201, 202, 203])
    def test_rtcp_with_sixteen_or_more_blocks_adds_no_payload_type(self, packet_type):
        # read as RTP, 0x90-0x9F then 200-203 would count as payload types 72-75
        payloads = [rtcp_bytes(packet_type, count) for count in range(16, 32)]
        report = report_of([make_flow([carrying(i, p) for i, p in enumerate(payloads)], [])])
        (entry,) = report["flows"]
        assert entry["hint"] == "RTCP"
        assert entry["kind_counts"] == {"RTCP": 16}
        assert entry["rtp_payload_types"] == {}
        assert report["rtp_payload_type_totals"] == {}
        assert entry["rtp_continuity"] is None

    def test_tcp_flow_has_no_rtp_statistics(self):
        report = report_of([self.rtp_looking_flow(IPPROTO_TCP, 6000)])
        (entry,) = report["flows"]
        assert entry["hint"] == "UNKNOWN" and entry["kind_counts"] == {}
        assert entry["rtp_payload_types"] == {}
        assert entry["rtp_continuity"] is None

    def test_ipsec_port_flow_has_no_rtp_statistics(self):
        report = report_of([self.rtp_looking_flow(IPPROTO_UDP, 4500)])
        (entry,) = report["flows"]
        assert entry["hint"] == "IPSEC_NAT_T"
        assert entry["rtp_payload_types"] == {}
        assert entry["rtp_continuity"] is None

    @pytest.mark.parametrize("n_rtp, n_rtcp, dominant", [
        (2, 2, "RTP"),  # a tie goes to the kind declared first
        (2, 3, "RTCP"),
        (3, 2, "RTP"),
    ])
    def test_dominant_kind_is_the_most_frequent(self, n_rtp, n_rtcp, dominant):
        sender_report = bytes([0x80, 200, 0x00, 0x06]) + bytes(24)
        payloads = [sender_report] * n_rtcp + [rtp_bytes(pt=96, seq=i) for i in range(n_rtp)]
        report = report_of([make_flow([carrying(i, p) for i, p in enumerate(payloads)], [])])
        (entry,) = report["flows"]
        assert entry["hint"] == dominant
        assert entry["kind_counts"] == {"RTCP": n_rtcp, "RTP": n_rtp}

    def test_generic_media_of_every_payload_type(self):
        # classify_udp_payload reads media without an application context
        for pt in range(128):
            hint = classify_udp_payload(rtp_bytes(pt=pt), 5000, 6000)
            header = parse_rtp_header(rtp_bytes(pt=pt))
            assert (hint.media, hint.codec_note) == media_hint(header, AppContext.GENERIC), pt


@st.composite
def inspected_payloads(draw):
    """A UDP payload of one of the kinds that inspect tells apart: RTP with
    one of three SSRCs and near-wrapping sequence numbers (so streams tie and
    continuity varies), muxed RTCP, a short or RTP-extension-bit payload, or
    arbitrary bytes; up to 24 bytes, longer than a decoded head."""
    kind = draw(st.sampled_from(["rtp", "rtp", "rtp", "rtcp", "short", "bytes"]))
    if kind == "rtp":
        return rtp_bytes(
            extension=draw(st.integers(0, 1)), marker=draw(st.integers(0, 1)),
            pt=draw(st.sampled_from([0, 9, 96, 100, 104, 111, 118, 122, 123, 127])),
            seq=draw(st.one_of(st.integers(0, 3), st.integers(65534, 65535))),
            ssrc=draw(st.sampled_from([1, 2, 3])), tail=draw(st.binary(max_size=12)),
        )
    if kind == "rtcp":
        first = 0x80 | draw(st.integers(0, 0x3F))
        return bytes([first, draw(st.sampled_from(sorted(RTCP_TYPES)))]) + draw(
            st.binary(max_size=22))
    if kind == "short":
        return draw(st.one_of(st.binary(max_size=11),
                              st.binary(max_size=10).map(lambda b: b"\x90" + b)))
    return draw(st.binary(max_size=24))


@st.composite
def inspected_captures(draw):
    """Packets of up to four flows in time order: UDP flows on ordinary, QUIC,
    IPSec NAT-T, Zoom and Meet ports, and TCP flows whose payloads look like RTP."""
    ports = st.sampled_from([5004, 6000, QUIC_PORT, IPSEC_NAT_T_PORT, ZOOM_PORT, MEET_PORT])
    flows = [(draw(st.sampled_from([IPPROTO_UDP] * 3 + [IPPROTO_TCP])), draw(ports), draw(ports))
             for _ in range(draw(st.integers(1, 4)))]
    records = []
    for ts in range(draw(st.integers(1, 40))):
        i = draw(st.integers(0, len(flows) - 1))
        protocol, port_a, port_b = flows[i]
        src, dst = (bytes([10, 0, i, 1]), port_a), (bytes([10, 0, i, 2]), port_b)
        if draw(st.booleans()):
            src, dst = dst, src
        payload = draw(inspected_payloads())
        records.append(PacketRecord(
            timestamp=ts * 1000, src_ip=src[0], dst_ip=dst[0], src_port=src[1],
            dst_port=dst[1], protocol=protocol, total_length=42 + len(payload),
            transport_header_length=8 if protocol == IPPROTO_UDP else 20,
            payload_length=len(payload), payload_head=payload,
        ))
    return records


class TestClassifiedAtIngest:
    """inspect classifies each payload as its packet joins its flow and keeps
    running state; its report must equal the one from every payload head,
    classified after the flow ends (oracles.reference_report)."""

    @settings(max_examples=400, deadline=None)
    @given(inspected_captures())
    def test_report_equals_the_heads_oracle(self, records):
        # the oracle reads every head that the flows with columns were given
        flows = assemble_flows(records, flow_type=RecordedFlow)
        heads = {flow: [pkt.payload_head for pkt in flow.records] for flow in flows}

        # inspect's flows keep no columns, and split and end as those do
        lean = assemble_flows(records, flow_type=InspectedFlow)
        assert not any(hasattr(f, "timestamps") for f in lean)
        assert list(map(kept_without_columns, lean)) == list(map(kept_without_columns, flows))
        for app in AppContext:
            assert build_report(lean, app) == reference_report(flows, heads, app)

    def test_tied_ssrcs_go_to_the_lowest(self):
        # SSRCs 9 and 7 have two headers each; 7's sequence numbers skip
        payloads = [rtp_bytes(seq=1, ssrc=9), rtp_bytes(seq=5, ssrc=7),
                    rtp_bytes(seq=2, ssrc=9), rtp_bytes(seq=9, ssrc=7)]
        report = report_of([make_flow([carrying(i, p) for i, p in enumerate(payloads)], [])])
        assert report["flows"][0]["rtp_continuity"] == 0.0
        assert rtp_stream_continuity([parse_rtp_header(p) for p in payloads]) == 0.0
