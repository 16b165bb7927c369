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
from types import MappingProxyType
from typing import NamedTuple, Sequence

from .flows import Endpoint, Flow
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


# an RTP hint's fields but its header, by payload type: the kind, media_hint's
# answer without an application context, and the confidence
_RTP_FIELDS = tuple(
    (HintKind.RTP, *media_hint(RtpHeader(2, False, False, 0, False, pt, 0, 0, 0)), Confidence.WEAK)
    for pt in range(128)
)

# Every hint without a header, built once and shared by every payload it fits.
# An enum member lookup costs 164 ns on Python 3.11 (51 on 3.12, 38 on 3.13), a module name 9.
_QUIC_LONG = ProtocolHint(HintKind.QUIC_LONG, confidence=Confidence.STRONG)
_QUIC_SHORT = ProtocolHint(HintKind.QUIC_SHORT, confidence=Confidence.STRONG)
_IPSEC_NAT_T = ProtocolHint(HintKind.IPSEC_NAT_T, codec_note="UDP-encapsulated ESP")
_RTCP_HINT = ProtocolHint(HintKind.RTCP)
_HEADERLESS_RTP = ProtocolHint(HintKind.RTP)
_ZOOM_UNKNOWN = ProtocolHint(HintKind.UNKNOWN, codec_note="Zoom-associated port")
_MEET_UNKNOWN = ProtocolHint(HintKind.UNKNOWN, codec_note="Meet-associated port")
_UNKNOWN = ProtocolHint(HintKind.UNKNOWN)


def classify_udp_payload(payload: bytes, src_port: int, dst_port: int) -> ProtocolHint:
    """Best-effort hint for one UDP payload; deterministic and total.

    The first rule that holds gives the hint:

    1. port 443 and a non-empty payload: QUIC, long or short header by the
       payload's first bit;
    2. port 4500: IPSec NAT traversal;
    3. version 2, at least 2 bytes, and a second byte of 200-206: RTCP. RFC
       5761 section 4 separates RTCP from RTP muxed on one port so; it comes
       before bit 4 of the first byte, which is also the top bit of an RTCP
       count of 16-31;
    4. a header that parse_rtp_header reads (version 2, 12 bytes): RTP with
       that header;
    5. version 2, at least 2 bytes, and bit 4 (RTP's extension bit X) set:
       RTP without a header;
    6. otherwise UNKNOWN, noted on Zoom's (8801) or Meet's (19305) port.

    Only rule 4 builds a hint; every other hint is a shared immutable value,
    so compare hints with ==. Port-based hints never become model features.
    """
    ports = (src_port, dst_port)
    if QUIC_PORT in ports and payload:
        return _QUIC_LONG if payload[0] & 0x80 else _QUIC_SHORT
    if IPSEC_NAT_T_PORT in ports:
        return _IPSEC_NAT_T
    if len(payload) >= 2 and payload[1] in RTCP_TYPES and payload[0] >> 6 == 2:
        return _RTCP_HINT
    header = parse_rtp_header(payload)
    if header is not None:
        return _new(ProtocolHint, _RTP_FIELDS[header.payload_type] + (header,))
    if len(payload) >= 2 and payload[0] & 0xD0 == 0x90:  # version 2, bit 4 set
        return _HEADERLESS_RTP
    if ZOOM_PORT in ports:
        return _ZOOM_UNKNOWN
    if MEET_PORT in ports:
        return _MEET_UNKNOWN
    return _UNKNOWN


def port_profile(ports: Sequence[int]) -> dict[int, float]:
    """Each port's share of `ports`, in port order; the shares sum to 1 when
    `ports` is not empty."""
    counts = Counter(ports)
    return {port: c / len(ports) for port, c in sorted(counts.items())}


# kinds, payload_types and ssrcs of every flow that is not UDP
_NO_PAYLOADS = MappingProxyType({})


class InspectedFlow(Flow):
    """A flow as inspect reads it: classifies each UDP payload once, as its
    packet joins the flow, and keeps what the report reads of them.

    The flow keeps no per-packet columns and no payload bytes, only running
    state: `packet_count`; the payloads of each kind and the first hint of
    each kind without a header (`kinds`); the first parsed RTP header
    (`first_rtp`); a count of the RTP payload types (`payload_types`, which
    counts the RTP payloads with a header); and per SSRC the headers, the
    last sequence number and the hits, a sequence number one past the last,
    mod 2**16 (`ssrcs`). TCP payloads are not classified.
    """

    __slots__ = ("packet_count", "kinds", "payload_types", "first_rtp", "ssrcs")

    def __init__(self, initiator: Endpoint, responder: Endpoint, protocol: int, start_ts: int):
        super().__init__(initiator, responder, protocol, start_ts)
        self.packet_count = 0
        self.first_rtp: RtpHeader | None = None
        if protocol == IPPROTO_UDP:
            # kind name -> [payloads, the kind's first hint], for the hints without
            # a header; those with one are counted in payload_types alone
            self.kinds: dict[str, list] = {}
            # of every parsed RTP header; a dict: updating a Counter costs about
            # three times as much
            self.payload_types: dict[int, int] = {}
            self.ssrcs: dict[int, list[int]] = {}  # SSRC -> [headers, last sequence, hits]
        else:
            # no payload is classified, so the three stay empty: one shared
            # read-only view, not three dicts a flow
            self.kinds = self.payload_types = self.ssrcs = _NO_PAYLOADS

    def add(self, pkt: PacketRecord) -> bool:
        """Count one packet and classify its payload; returns whether it is forward."""
        self.packet_count += 1
        self.last_ts = pkt[0]
        forward = pkt[3] == self.initiator[1] and pkt[1] == self.initiator[0]
        if pkt[5] != IPPROTO_UDP:  # the record's protocol
            return forward
        # the record's head and ports; a head longer than a decoded one's 12
        # bytes gets the hint of its first 12: no heuristic reads further
        hint = classify_udp_payload(pkt[9], pkt[3], pkt[4])
        kind, _, _, _, header = hint
        if header is None:
            # keyed by name: hashing an enum member runs Python code
            entry = self.kinds.get(kind._name_)
            if entry is None:
                self.kinds[kind._name_] = [1, hint]
            else:
                entry[0] += 1
            return forward
        _, _, _, _, _, payload_type, sequence, _, ssrc = header
        if self.first_rtp is None:
            self.first_rtp = header
        payload_types = self.payload_types
        payload_types[payload_type] = payload_types.get(payload_type, 0) + 1
        stream = self.ssrcs.get(ssrc)
        if stream is None:
            self.ssrcs[ssrc] = [1, sequence, 0]
        else:
            if (sequence - stream[1]) % 65536 == 1:
                stream[2] += 1
            stream[0] += 1
            stream[1] = sequence
        return forward

    def entry(self, app: AppContext) -> tuple[dict, dict[int, int]]:
        """The flow's entry in the inspection report, plus its RTP payload-type counts.

        The RTP statistics read only the headers of payloads classified RTP,
        so TCP flows, RTCP and payloads on the QUIC and IPSec ports add none.
        """
        counts = {name: entry[0] for name, entry in self.kinds.items()}
        if self.payload_types:
            counts["RTP"] = counts.get("RTP", 0) + sum(self.payload_types.values())
        kind_counts = [(k, counts[k._name_]) for k in HintKind if k._name_ in counts]
        if kind_counts:
            # max keeps the first of equal counts, the kind declared first
            top = max(kind_counts, key=itemgetter(1))[0]
            # only RTP can be counted without a first hint; its media and
            # note come from the first header, below
            first = self.kinds.get(top._name_)
            dominant = first[1] if first is not None else _HEADERLESS_RTP
        else:
            dominant = _UNKNOWN

        pt_counts: dict[int, int] = {}
        if dominant.kind is HintKind.RTP and self.first_rtp is not None:
            pt_counts = self.payload_types
            media, note = media_hint(self.first_rtp, app)
            dominant = dominant._replace(media=media, codec_note=note)
        continuity = None
        if self.ssrcs:
            # the most frequent SSRC, the lowest of equal counts
            _, (count, _, hits) = max(self.ssrcs.items(), key=lambda kv: (kv[1][0], -kv[0]))
            if count >= 2:
                continuity = hits / (count - 1)
        entry = {
            "flow_id": self.flow_id,
            "protocol": PROTOCOL_NAMES[self.protocol],
            "src_port": self.initiator[1],
            "dst_port": self.responder[1],
            "packets": self.packet_count,
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


def build_report(flows: Sequence[InspectedFlow], app: AppContext = AppContext.GENERIC) -> dict:
    """Inspection report: per-flow hints, port profiles and payload-type totals,
    from flows that `assemble_flows` made as InspectedFlow."""
    entries = []
    pt_total: Counter[int] = Counter()
    for flow in flows:
        entry, pt_counts = flow.entry(app)
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
