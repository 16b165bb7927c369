"""Payload heuristics for real-time media protocols.

These classifiers produce diagnostic hints for reports only; nothing here
feeds the flow feature vector or the model. RTP detection on arbitrary
ports is inherently weak evidence, since the payload types above 95 are
dynamically assigned and ordinary UDP data can look like a valid header.
"""
from __future__ import annotations

import enum
import struct
from collections import Counter
from operator import itemgetter
from typing import NamedTuple, Sequence

from .flows import FlowState
from .packets import IPPROTO_UDP, PROTOCOL_NAMES, PacketRecord

# RTCP packet types: SR, RR, SDES, BYE and APP (200-204), then transport and
# payload-specific feedback (205, 206)
RTCP_TYPES = frozenset(range(200, 207))

QUIC_PORT = 443
IPSEC_NAT_T_PORT = 4500
ZOOM_PORT = 8801
MEET_PORT = 19305


class RtpHeader(NamedTuple):
    """Fixed 12-byte RTP header.

     0                   1                   2                   3
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |V=2|P|X|  CC   |M|     PT      |       sequence number         |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |                           timestamp                           |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |             synchronization source (SSRC) identifier         |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    """

    version: int
    padding: bool
    extension: bool
    csrc_count: int
    marker: bool
    payload_type: int
    sequence: int
    timestamp: int
    ssrc: int


class MuxClass(enum.Enum):
    RTP = "RTP"
    RTCP = "RTCP"
    NEITHER = "NEITHER"


class HintKind(enum.Enum):
    """Declared in priority order, which breaks a tie for a flow's dominant kind."""

    RTP = "RTP"
    RTCP = "RTCP"
    QUIC_LONG = "QUIC_LONG"
    QUIC_SHORT = "QUIC_SHORT"
    IPSEC_NAT_T = "IPSEC_NAT_T"
    UNKNOWN = "UNKNOWN"


class MediaType(enum.Enum):
    AUDIO = "AUDIO"
    VIDEO = "VIDEO"
    UNKNOWN = "UNKNOWN"


class Confidence(enum.Enum):
    STRONG = "STRONG"
    WEAK = "WEAK"


class AppContext(enum.Enum):
    SKYPE = "SKYPE"
    TEAMS = "TEAMS"
    MEET = "MEET"
    GENERIC = "GENERIC"


class ProtocolHint(NamedTuple):
    kind: HintKind
    media: MediaType = MediaType.UNKNOWN
    codec_note: str = ""
    confidence: Confidence = Confidence.WEAK
    rtp: RtpHeader | None = None  # the parsed header of an RTP hint, when it has all 12 bytes


# first byte, second byte, sequence, timestamp, SSRC
_RTP = struct.Struct("!BBHII").unpack_from

# Builds a header or hint from the tuple of its fields without the
# Python-level `__new__` that NamedTuple gives each class; inspect makes one
# of each per RTP payload.
_new = tuple.__new__


def parse_rtp_header(payload: bytes) -> RtpHeader | None:
    """Decode the fixed RTP header; None for short payloads or version != 2."""
    if len(payload) < 12:
        return None
    b0, b1, sequence, timestamp, ssrc = _RTP(payload)
    if b0 >> 6 != 2:
        return None
    return _new(RtpHeader, (
        2, b0 & 0x20 != 0, b0 & 0x10 != 0, b0 & 0x0F, b1 & 0x80 != 0, b1 & 0x7F,
        sequence, timestamp, ssrc,
    ))


def demux_rtp_rtcp(payload: bytes) -> MuxClass:
    """Separate multiplexed RTP from RTCP on a shared port.

    Version bits must equal 2. A known RTCP packet type in the second byte
    means RTCP, as RFC 5761 section 4 separates the two: RTP on a muxed port
    avoids the payload types that would put 200-206 there. It is tested first
    because bit 4 of the first byte is also RTCP's, the top bit of a 16-31
    report or source count. Otherwise that bit (RTP's header-extension bit X)
    set means RTP, and so does any other payload holding the full 12-byte
    fixed header, RTP without an extension.
    """
    if len(payload) < 2:
        return MuxClass.NEITHER
    b0 = payload[0]
    if b0 >> 6 != 2:
        return MuxClass.NEITHER
    if payload[1] in RTCP_TYPES:
        return MuxClass.RTCP
    if b0 & 0x10 or len(payload) >= 12:
        return MuxClass.RTP
    return MuxClass.NEITHER


# per-application payload-type tables; values outside them fall through to
# the dynamic-range rule (96-127 can carry either audio or video)
_MEDIA_TABLES: dict[AppContext, dict[int, tuple[MediaType, str]]] = {
    AppContext.SKYPE: {
        9: (MediaType.AUDIO, "G.722"),
        122: (MediaType.VIDEO, "Skype video"),
        123: (MediaType.VIDEO, "Skype video"),
    },
    AppContext.TEAMS: {
        104: (MediaType.AUDIO, "Silk"),
        118: (MediaType.AUDIO, "Comfort Noise"),
        122: (MediaType.VIDEO, "H.264"),
        123: (MediaType.VIDEO, "H.264 FEC"),
    },
    AppContext.MEET: {
        111: (MediaType.AUDIO, "Hangouts audio"),
        **{pt: (MediaType.VIDEO, "dynamic video") for pt in range(96, 101)},
    },
    AppContext.GENERIC: {},
}


def media_hint(header: RtpHeader, app: AppContext = AppContext.GENERIC) -> tuple[MediaType, str]:
    """Map an RTP payload type to a media kind under an application context."""
    table = _MEDIA_TABLES.get(app, {})
    if header.payload_type in table:
        return table[header.payload_type]
    if 96 <= header.payload_type <= 127:
        return (MediaType.UNKNOWN, "dynamic")
    return (MediaType.UNKNOWN, "")


# media_hint's answer without an application context, by payload type
_GENERIC_MEDIA = tuple(
    media_hint(RtpHeader(2, False, False, 0, False, pt, 0, 0, 0)) for pt in range(128)
)


def classify_udp_payload(payload: bytes, src_port: int, dst_port: int) -> ProtocolHint:
    """Best-effort hint for one UDP payload; deterministic and total.

    Priority: QUIC on port 443 (first payload bit selects long vs short
    header), IPSec NAT traversal on port 4500, then the RTP/RTCP demux on
    any port. Port-based hints never become model features.
    """
    ports = (src_port, dst_port)
    if QUIC_PORT in ports and payload:
        kind = HintKind.QUIC_LONG if payload[0] & 0x80 else HintKind.QUIC_SHORT
        return ProtocolHint(kind, confidence=Confidence.STRONG)
    if IPSEC_NAT_T_PORT in ports:
        return ProtocolHint(HintKind.IPSEC_NAT_T, codec_note="UDP-encapsulated ESP")
    mux = demux_rtp_rtcp(payload)
    if mux is MuxClass.RTP:
        header = parse_rtp_header(payload)
        if header is not None:
            media, note = _GENERIC_MEDIA[header.payload_type]
            return _new(ProtocolHint, (HintKind.RTP, media, note, Confidence.WEAK, header))
        return ProtocolHint(HintKind.RTP)
    if mux is MuxClass.RTCP:
        return ProtocolHint(HintKind.RTCP)
    note = ""
    if ZOOM_PORT in ports:
        note = "Zoom-associated port"
    elif MEET_PORT in ports:
        note = "Meet-associated port"
    return ProtocolHint(HintKind.UNKNOWN, codec_note=note)


def port_profile(ports: Sequence[int]) -> dict[int, float]:
    """Each port's share of `ports`, in port order; the shares sum to 1 when
    `ports` is not empty."""
    counts = Counter(ports)
    return {port: c / len(ports) for port, c in sorted(counts.items())}


class _FlowHints:
    """One UDP flow's running state, built payload by payload by PayloadHints."""

    __slots__ = ("kinds", "payload_types", "first_rtp", "ssrcs")

    def __init__(self):
        self.kinds: dict[str, list] = {}  # kind name -> [payloads, the kind's first hint]
        self.payload_types: Counter[int] = Counter()  # of every parsed RTP header
        self.first_rtp: RtpHeader | None = None
        self.ssrcs: dict[int, list[int]] = {}  # SSRC -> [headers, last sequence, hits]


class PayloadHints:
    """Classifies each UDP payload once, as its packet joins its flow: pass
    `observe` to `assemble_flows` as its observer, then the flows and this to
    `build_report`.

    A flow keeps no payload bytes, so this keeps, per UDP flow, what the
    report reads: the payloads of each kind and each kind's first hint, the
    first parsed RTP header, a count of the RTP payload types, and per SSRC
    the headers, the last sequence number and the hits (a sequence number
    one past the last, mod 2**16). TCP flows are not classified. `clear`
    drops the state of every flow, for flows that are thrown away.
    """

    __slots__ = ("_flows",)

    def __init__(self):
        self._flows: dict[FlowState, _FlowHints] = {}

    def clear(self) -> None:
        self._flows.clear()

    def observe(self, flow: FlowState, pkt: PacketRecord) -> None:
        """Classify the payload of `pkt`, which has just joined `flow`."""
        _, _, _, src_port, dst_port, protocol, _, _, _, head, _, _ = pkt
        if protocol != IPPROTO_UDP:
            return
        # a head longer than a decoded one's 12 bytes gets the hint of its
        # first 12: no heuristic reads further
        hint = classify_udp_payload(head, src_port, dst_port)
        state = self._flows.get(flow)
        if state is None:
            state = self._flows[flow] = _FlowHints()
        # keyed by name: hashing an enum member runs Python code
        entry = state.kinds.get(hint.kind._name_)
        if entry is None:
            state.kinds[hint.kind._name_] = [1, hint]
        else:
            entry[0] += 1
        header = hint.rtp
        if header is None:
            return
        _, _, _, _, _, payload_type, sequence, _, ssrc = header
        if state.first_rtp is None:
            state.first_rtp = header
        state.payload_types[payload_type] += 1
        stream = state.ssrcs.get(ssrc)
        if stream is None:
            state.ssrcs[ssrc] = [1, sequence, 0]
        else:
            if (sequence - stream[1]) % 65536 == 1:
                stream[2] += 1
            stream[0] += 1
            stream[1] = sequence

    def entry(self, flow: FlowState, app: AppContext) -> tuple[dict, Counter[int]]:
        """One flow's entry in the inspection report, plus its RTP payload-type counts.

        The RTP statistics read only the headers of payloads classified RTP,
        so TCP flows, RTCP and payloads on the QUIC and IPSec ports add none.
        """
        state = self._flows.get(flow) or _FlowHints()
        kind_counts = [(k, entry[0]) for k in HintKind if (entry := state.kinds.get(k._name_))]
        if kind_counts:
            # max keeps the first of equal counts, the kind declared first
            top = max(kind_counts, key=itemgetter(1))[0]
            dominant = state.kinds[top._name_][1]
        else:
            dominant = ProtocolHint(HintKind.UNKNOWN)

        pt_counts: Counter[int] = Counter()
        if dominant.kind is HintKind.RTP and state.first_rtp is not None:
            pt_counts = state.payload_types
            media, note = media_hint(state.first_rtp, app)
            dominant = dominant._replace(media=media, codec_note=note)
        continuity = None
        if state.ssrcs:
            # the most frequent SSRC, the lowest of equal counts
            _, (count, _, hits) = max(state.ssrcs.items(), key=lambda kv: (kv[1][0], -kv[0]))
            if count >= 2:
                continuity = hits / (count - 1)
        entry = {
            "flow_id": flow.flow_id,
            "protocol": PROTOCOL_NAMES[flow.protocol],
            "src_port": flow.initiator[1],
            "dst_port": flow.responder[1],
            "packets": flow.packet_count,
            "hint": dominant.kind.value,
            "media": dominant.media.value,
            "codec_note": dominant.codec_note,
            "confidence": dominant.confidence.value,
            "kind_counts": dict(sorted((k.value, c) for k, c in kind_counts)),
            # sorted as ints before the keys become strings: 96 comes before 100
            "rtp_payload_types": {str(k): v for k, v in sorted(pt_counts.items())},
            "rtp_continuity": continuity,
        }
        return entry, pt_counts


def build_report(flows: Sequence[FlowState], hints: PayloadHints,
                 app: AppContext = AppContext.GENERIC) -> dict:
    """Inspection report: per-flow hints, port profiles and payload-type totals.

    `hints` observed every packet of `flows` as `assemble_flows` assembled them.
    """
    entries = []
    pt_total: Counter[int] = Counter()
    for flow in flows:
        entry, pt_counts = hints.entry(flow, app)
        entries.append(entry)
        pt_total.update(pt_counts)
    src_shares = port_profile([f.initiator[1] for f in flows])
    dst_shares = port_profile([f.responder[1] for f in flows])
    return {
        "app_context": app.value,
        "flows": entries,
        "port_profile_src": {str(p): share for p, share in src_shares.items()},
        "port_profile_dst": {str(p): share for p, share in dst_shares.items()},
        "rtp_payload_type_totals": {str(k): v for k, v in sorted(pt_total.items())},
    }


def render_report(report: dict) -> str:
    lines = [f"protocol inspection (app context: {report['app_context']})"]
    lines.append(f"flows: {len(report['flows'])}")
    for entry in report["flows"]:
        extra = ""
        if entry["media"] != MediaType.UNKNOWN.value:
            extra += f" media={entry['media']}"
        if entry["codec_note"]:
            extra += f" note={entry['codec_note']!r}"
        if entry["rtp_continuity"] is not None:
            extra += f" continuity={entry['rtp_continuity']:.3f}"
        lines.append(
            f"  {entry['flow_id']} {entry['protocol']} "
            f"{entry['src_port']}->{entry['dst_port']} pkts={entry['packets']} "
            f"hint={entry['hint']}({entry['confidence']}){extra}"
        )
    for title, key in (("src port profile", "port_profile_src"), ("dst port profile", "port_profile_dst")):
        lines.append(f"{title}:")
        for port, share in report[key].items():
            lines.append(f"  {port}: {share:.4f}")
    if report["rtp_payload_type_totals"]:
        lines.append("rtp payload types:")
        for pt, count in report["rtp_payload_type_totals"].items():
            lines.append(f"  {pt}: {count}")
    return "\n".join(lines) + "\n"
