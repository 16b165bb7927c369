"""Independent reference computations used to check the real implementations.

Everything here is written straight-line from the documented semantics,
on purpose not sharing code with the package: statistics come from the
stdlib statistics module, split gains from exact Fraction arithmetic, and
packet decoding from a decoder that slices each header out of the frame.
`node_order` and `split_node` are an exception: they only call the
package's split search on a single node, for the tests that compare it with
the oracles. `reference_report` is another: it holds every payload head of a
flow and classifies them with `reference_classify_udp_payload` after the
flow ends, where `inspect` keeps running state as each packet joins.
`reference_capture` is a third: it draws each flow's events with the
package's synth builders, then builds every frame field by field and sorts
them all, where `synth.generate` streams them from precomputed header bytes.
`reference_predict_proba` walks a model's TreeNode objects, where
`tree.predict_proba` walks flat tables made from them.
`rtp_stream_continuity` reads a flow's whole list of RTP headers, where
`protocols.InspectedFlow` counts the same hits as each payload joins.
`reference_classify_udp_payload` demultiplexes RTP from RTCP with
`demux_rtp_rtcp` and then parses the header with the package's
`parse_rtp_header`, building each hint afresh, where
`protocols.classify_udp_payload` reads the header once and shares the hints
that carry none.
"""
from __future__ import annotations

import enum
import socket
import statistics
import struct
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import numpy as np

from camsieve.flows import FlowState
from camsieve.packets import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ETHERTYPE_VLAN,
    IPPROTO_TCP,
    IPPROTO_UDP,
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PAYLOAD_HEAD,
    PacketRecord,
    TcpFlags,
)
from camsieve.protocols import (
    IPSEC_NAT_T_PORT,
    MEET_PORT,
    QUIC_PORT,
    RTCP_TYPES,
    ZOOM_PORT,
    AppContext,
    Confidence,
    HintKind,
    ProtocolHint,
    RtpHeader,
    media_hint,
    parse_rtp_header,
    port_profile,
)
from camsieve.synth import (
    BASE_TIMESTAMP_US,
    FLOW_STAGGER_US,
    IP_HEADER,
    TCP_HEADER,
    UDP_HEADER,
    SynthProfile,
    _EVENT_BUILDERS,
    _flow_rng,
    _plan_flow,
)
from camsieve.tree import DecisionTreeModel, best_split

ACTIVITY_THRESHOLD_US = 5_000_000
GAP_US = 1_000_000


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _std(xs):
    return statistics.stdev(xs) if len(xs) >= 2 else 0.0


def _var(xs):
    return statistics.variance(xs) if len(xs) >= 2 else 0.0


def _mn(xs):
    return float(min(xs)) if xs else 0.0


def _mx(xs):
    return float(max(xs)) if xs else 0.0


def _gaps(ts):
    return [ts[i] - ts[i - 1] for i in range(1, len(ts))]


def _count_flag(pkts, bit):
    n = 0
    for p in pkts:
        if p.tcp_flags & bit:
            n += 1
    return n


def _bulks(pkts):
    """Runs of >= 4 consecutive data packets with gaps <= 1 s, one direction."""
    data = [p for p in pkts if p.payload_length >= 1]
    all_runs = []
    i = 0
    while i < len(data):
        j = i
        while j + 1 < len(data) and data[j + 1].timestamp - data[j].timestamp <= GAP_US:
            j += 1
        all_runs.append(data[i : j + 1])
        i = j + 1
    bulk_runs = [r for r in all_runs if len(r) >= 4]
    if not bulk_runs:
        return 0.0, 0.0, 0.0
    nb = len(bulk_runs)
    byts = sum(p.payload_length for r in bulk_runs for p in r)
    cnt = sum(len(r) for r in bulk_runs)
    dur = sum(r[-1].timestamp - r[0].timestamp for r in bulk_runs)
    return byts / nb, cnt / nb, (byts * 1e6 / dur if dur else 0.0)


def reference_features(flow: FlowState, threshold_us: int = ACTIVITY_THRESHOLD_US) -> dict[str, float]:
    """All 77 features recomputed from first principles, keyed by column name.

    Reads only the flow's identity and `flow.records`, the PacketRecords that a
    conftest.RecordedFlow kept as they were added: never the flow's columns.
    """
    fwd = [p for p in flow.records if (p.src_ip, p.src_port) == flow.initiator]
    bwd = [p for p in flow.records if (p.src_ip, p.src_port) != flow.initiator]
    everything = sorted(fwd + bwd, key=lambda p: p.timestamp)
    ts = [p.timestamp for p in everything]
    dur = ts[-1] - ts[0]

    f_pl = [p.payload_length for p in fwd]
    b_pl = [p.payload_length for p in bwd]
    a_pl = f_pl + b_pl

    # active segments via an explicit scan over merged timestamps
    actives = []
    idles = []
    run_start = ts[0]
    for i in range(1, len(ts)):
        if ts[i] - ts[i - 1] > threshold_us:
            actives.append(ts[i - 1] - run_start)
            idles.append(ts[i] - ts[i - 1])
            run_start = ts[i]
    actives.append(ts[-1] - run_start)

    subflows = 1 + sum(1 for g in _gaps(ts) if g > GAP_US)
    fb_bytes, fb_pkts, fb_rate = _bulks(fwd)
    bb_bytes, bb_pkts, bb_rate = _bulks(bwd)

    out = {
        "Flow Duration": float(dur),
        "Total Fwd Packets": float(len(fwd)),
        "Total Backward Packets": float(len(bwd)),
        "Total Length of Fwd Packets": float(sum(f_pl)),
        "Total Length of Bwd Packets": float(sum(b_pl)),
        "Fwd Packet Length Max": _mx(f_pl),
        "Fwd Packet Length Min": _mn(f_pl),
        "Fwd Packet Length Mean": _mean(f_pl),
        "Fwd Packet Length Std": _std(f_pl),
        "Bwd Packet Length Max": _mx(b_pl),
        "Bwd Packet Length Min": _mn(b_pl),
        "Bwd Packet Length Mean": _mean(b_pl),
        "Bwd Packet Length Std": _std(b_pl),
        "Flow Bytes/s": (sum(a_pl) * 1e6 / dur) if dur else 0.0,
        "Flow Packets/s": (len(everything) * 1e6 / dur) if dur else 0.0,
        "Flow IAT Mean": _mean(_gaps(ts)),
        "Flow IAT Std": _std(_gaps(ts)),
        "Flow IAT Max": _mx(_gaps(ts)),
        "Flow IAT Min": _mn(_gaps(ts)),
        "Fwd IAT Total": float(sum(_gaps([p.timestamp for p in fwd]))),
        "Fwd IAT Mean": _mean(_gaps([p.timestamp for p in fwd])),
        "Fwd IAT Std": _std(_gaps([p.timestamp for p in fwd])),
        "Fwd IAT Max": _mx(_gaps([p.timestamp for p in fwd])),
        "Fwd IAT Min": _mn(_gaps([p.timestamp for p in fwd])),
        "Bwd IAT Total": float(sum(_gaps([p.timestamp for p in bwd]))),
        "Bwd IAT Mean": _mean(_gaps([p.timestamp for p in bwd])),
        "Bwd IAT Std": _std(_gaps([p.timestamp for p in bwd])),
        "Bwd IAT Max": _mx(_gaps([p.timestamp for p in bwd])),
        "Bwd IAT Min": _mn(_gaps([p.timestamp for p in bwd])),
        "Fwd PSH Flags": float(_count_flag(fwd, TcpFlags.PSH)),
        "Bwd PSH Flags": float(_count_flag(bwd, TcpFlags.PSH)),
        "Fwd URG Flags": float(_count_flag(fwd, TcpFlags.URG)),
        "Bwd URG Flags": float(_count_flag(bwd, TcpFlags.URG)),
        "Fwd Header Length": float(sum(p.transport_header_length for p in fwd)),
        "Bwd Header Length": float(sum(p.transport_header_length for p in bwd)),
        "Fwd Packets/s": (len(fwd) * 1e6 / dur) if dur else 0.0,
        "Bwd Packets/s": (len(bwd) * 1e6 / dur) if dur else 0.0,
        "Min Packet Length": _mn(a_pl),
        "Max Packet Length": _mx(a_pl),
        "Packet Length Mean": _mean(a_pl),
        "Packet Length Std": _std(a_pl),
        "Packet Length Variance": _var(a_pl),
        "FIN Flag Count": float(_count_flag(everything, TcpFlags.FIN)),
        "SYN Flag Count": float(_count_flag(everything, TcpFlags.SYN)),
        "RST Flag Count": float(_count_flag(everything, TcpFlags.RST)),
        "PSH Flag Count": float(_count_flag(everything, TcpFlags.PSH)),
        "ACK Flag Count": float(_count_flag(everything, TcpFlags.ACK)),
        "URG Flag Count": float(_count_flag(everything, TcpFlags.URG)),
        "CWE Flag Count": float(_count_flag(everything, TcpFlags.CWE)),
        "ECE Flag Count": float(_count_flag(everything, TcpFlags.ECE)),
        "Down/Up Ratio": float(len(bwd) // len(fwd)) if fwd else 0.0,
        "Average Packet Size": _mean([p.total_length for p in everything]),
        "Avg Fwd Segment Size": _mean(f_pl),
        "Avg Bwd Segment Size": _mean(b_pl),
        "Fwd Header Length.1": float(sum(p.transport_header_length for p in fwd)),
        "Fwd Avg Bytes/Bulk": fb_bytes,
        "Fwd Avg Packets/Bulk": fb_pkts,
        "Fwd Avg Bulk Rate": fb_rate,
        "Bwd Avg Bytes/Bulk": bb_bytes,
        "Bwd Avg Packets/Bulk": bb_pkts,
        "Bwd Avg Bulk Rate": bb_rate,
        "Subflow Fwd Packets": len(fwd) / subflows,
        "Subflow Fwd Bytes": sum(f_pl) / subflows,
        "Subflow Bwd Packets": len(bwd) / subflows,
        "Subflow Bwd Bytes": sum(b_pl) / subflows,
        "Init_Win_bytes_forward": float(fwd[0].tcp_window or 0) if fwd else 0.0,
        "Init_Win_bytes_backward": float(bwd[0].tcp_window or 0) if bwd else 0.0,
        "act_data_pkt_fwd": float(sum(1 for p in fwd if p.payload_length >= 1)),
        "min_seg_size_forward": float(min(p.transport_header_length for p in fwd)) if fwd else 0.0,
        "Active Mean": _mean(actives),
        "Active Std": _std(actives),
        "Active Max": _mx(actives),
        "Active Min": _mn(actives),
        "Idle Mean": _mean(idles),
        "Idle Std": _std(idles),
        "Idle Max": _mx(idles),
        "Idle Min": _mn(idles),
    }
    return out


def gini_exact(counts) -> Fraction:
    total = sum(counts)
    if total == 0:
        return Fraction(0)
    return 1 - sum(Fraction(c, total) ** 2 for c in counts)


def node_order(X, rows, features):
    """The node's rows sorted stably by each feature of sorted(features), one
    row per feature: a node's segment of best_split's order."""
    order = np.empty((len(features), len(rows)), dtype=np.int64)
    for i, fi in enumerate(sorted(features)):
        order[i] = rows[np.argsort(X[rows, fi], kind="stable")]
    return order


def split_node(X, y, n_classes, candidates, rows=None):
    """tree.best_split on one node, the given rows of X (all of them by
    default), as the level [0, len(rows)]. Returns that node's (feature,
    threshold, gain) or None."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    rows = np.arange(len(X)) if rows is None else np.asarray(rows)
    order = node_order(X, rows, candidates)
    return best_split(X, y, n_classes, candidates, order, [0, len(rows)])[0]


def exhaustive_best_split(X, y, n_classes):
    """All (feature, midpoint) pairs scored with exact Fractions.

    Returns (feature, threshold, gain) under the pinned tie-break of
    lowest feature index then lowest threshold, or None when no candidate
    has positive gain. Thresholds use the implementation's float-midpoint
    rule so the comparison is apples to apples.
    """
    n = len(y)
    total_counts = [0] * n_classes
    for label in y:
        total_counts[label] += 1
    parent = gini_exact(total_counts)

    best = None  # (gain, feature, threshold)
    n_features = len(X[0])
    for fi in range(n_features):
        values = sorted({row[fi] for row in X})
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2.0
            if threshold >= b:
                threshold = a
            left = [0] * n_classes
            nl = 0
            for row, label in zip(X, y):
                if row[fi] <= threshold:
                    left[label] += 1
                    nl += 1
            right = [t - l for t, l in zip(total_counts, left)]
            nr = n - nl
            weighted = Fraction(nl, n) * gini_exact(left) + Fraction(nr, n) * gini_exact(right)
            gain = parent - weighted
            if gain <= 0:
                continue
            key = (-gain, fi, threshold)
            if best is None or key < (-best[0], best[1], best[2]):
                best = (gain, fi, threshold)
    if best is None:
        return None
    return best[1], best[2], best[0]


# A decoder that slices each header out of the frame and unpacks it field by
# field; packets.decode_packet must agree with it on every frame, skips
# included.


def reference_decode(
    raw_frame: bytes,
    link_type: int,
    timestamp: int = 0,
    wire_length: int | None = None,
) -> PacketRecord | None:
    """Decode one frame; returns None (skip) for anything that is not IP+TCP/UDP.

    Total by design: ARP, ICMP, unknown ethertypes, non-first IP fragments
    and malformed headers all skip rather than raise. 802.1Q tags are
    unwrapped transparently.
    """
    if wire_length is None:
        wire_length = len(raw_frame)

    if link_type == LINKTYPE_ETHERNET:
        if len(raw_frame) < 14:
            return None
        ethertype = struct.unpack("!H", raw_frame[12:14])[0]
        offset = 14
        tags = 0
        while ethertype in ETHERTYPE_VLAN and tags < 4:
            if len(raw_frame) < offset + 4:
                return None
            ethertype = struct.unpack("!H", raw_frame[offset + 2 : offset + 4])[0]
            offset += 4
            tags += 1
        if ethertype == ETHERTYPE_IPV4:
            return _reference_ipv4(raw_frame[offset:], timestamp, wire_length, offset)
        if ethertype == ETHERTYPE_IPV6:
            return _reference_ipv6(raw_frame[offset:], timestamp, wire_length, offset)
        return None

    if link_type == LINKTYPE_RAW_IP:
        if not raw_frame:
            return None
        version = raw_frame[0] >> 4
        if version == 4:
            return _reference_ipv4(raw_frame, timestamp, wire_length, 0)
        if version == 6:
            return _reference_ipv6(raw_frame, timestamp, wire_length, 0)
        return None

    return None


def _reference_ipv4(
    data: bytes, timestamp: int, wire_length: int, link_length: int
) -> PacketRecord | None:
    if len(data) < 20 or data[0] >> 4 != 4:
        return None
    header_len = (data[0] & 0x0F) * 4
    if header_len < 20 or len(data) < header_len:
        return None
    total_len = struct.unpack("!H", data[2:4])[0]
    frag_word = struct.unpack("!H", data[6:8])[0]
    if frag_word & 0x1FFF:  # non-first fragments carry no transport header
        return None
    proto = data[9]
    src = data[12:16]
    dst = data[16:20]
    # zero (segmentation offload), too small, or longer than the frame on the
    # wire: the length field is wrong, so trust the capture
    if not header_len <= total_len <= wire_length - link_length:
        total_len = len(data)
    return _reference_transport(
        data[header_len:total_len], proto, src, dst, timestamp, wire_length, total_len - header_len
    )


def _reference_ipv6_text(address: bytes) -> str:
    """Eight lower-case hex groups, the leftmost longest run of two or more zero
    groups written as '::', and no dotted IPv4 tail, IPv4-mapped or not."""
    groups = ["%x" % g for g in struct.unpack("!8H", address)]
    best_start, best_len = 0, 0
    for start in range(8):
        length = 0
        while start + length < 8 and groups[start + length] == "0":
            length += 1
        if length > best_len:
            best_start, best_len = start, length
    if best_len < 2:
        return ":".join(groups)
    return ":".join(groups[:best_start]) + "::" + ":".join(groups[best_start + best_len:])


def _reference_ipv6(
    data: bytes, timestamp: int, wire_length: int, link_length: int
) -> PacketRecord | None:
    if len(data) < 40 or data[0] >> 4 != 6:
        return None
    payload_len = struct.unpack("!H", data[4:6])[0]
    next_header = data[6]
    src = data[8:24]
    dst = data[24:40]
    ip_end = 40 + payload_len
    if not payload_len or ip_end > wire_length - link_length:  # jumbogram or bogus
        ip_end = len(data)
    end = min(len(data), ip_end)
    offset = 40

    # walk the common extension-header chain; anything exotic is a skip
    while next_header not in (IPPROTO_TCP, IPPROTO_UDP):
        if next_header in (0, 43, 60):  # hop-by-hop, routing, destination opts
            if end < offset + 8:
                return None
            ext_len = (data[offset + 1] + 1) * 8
            next_header = data[offset]
            offset += ext_len
        elif next_header == 44:  # fragment header
            if end < offset + 8:
                return None
            frag_off = struct.unpack("!H", data[offset + 2 : offset + 4])[0] >> 3
            if frag_off:
                return None
            next_header = data[offset]
            offset += 8
        else:
            return None
        if offset > end:
            return None
    return _reference_transport(
        data[offset:end], next_header, src, dst, timestamp, wire_length, ip_end - offset
    )


def _reference_transport(
    data: bytes,
    proto: int,
    src: bytes,
    dst: bytes,
    timestamp: int,
    wire_length: int,
    segment_length: int,
) -> PacketRecord | None:
    """Decode the transport header at the start of data, the captured part of
    a segment that the IP header says is segment_length bytes long. Payload
    lengths come from these length fields, so a snaplen-cut frame reports its
    wire payload length; the record keeps the first PAYLOAD_HEAD captured
    payload bytes."""
    if proto == IPPROTO_UDP:
        if len(data) < 8:
            return None
        src_port, dst_port, udp_len = struct.unpack("!HHH", data[:6])
        if 8 <= udp_len < segment_length:
            segment_length = udp_len
        return PacketRecord(
            timestamp=timestamp,
            src_ip=src,
            dst_ip=dst,
            src_port=src_port,
            dst_port=dst_port,
            protocol=IPPROTO_UDP,
            total_length=wire_length,
            transport_header_length=8,
            payload_length=segment_length - 8,
            payload_head=data[8:segment_length][:PAYLOAD_HEAD],
        )
    if proto == IPPROTO_TCP:
        if len(data) < 20:
            return None
        src_port, dst_port = struct.unpack("!HH", data[:4])
        header_len = (data[12] >> 4) * 4
        if header_len < 20 or len(data) < header_len:
            return None
        window = struct.unpack("!H", data[14:16])[0]
        return PacketRecord(
            timestamp=timestamp,
            src_ip=src,
            dst_ip=dst,
            src_port=src_port,
            dst_port=dst_port,
            protocol=IPPROTO_TCP,
            total_length=wire_length,
            transport_header_length=header_len,
            payload_length=segment_length - header_len,
            payload_head=data[header_len:][:PAYLOAD_HEAD],
            tcp_flags=data[13],
            tcp_window=window,
        )
    return None


def canonical_key(pkt: PacketRecord) -> tuple:
    """Direction-independent flow identity: (lower endpoint, higher endpoint,
    protocol), where an endpoint is the (raw address, port) pair. Packets of
    one flow, in either direction, share this key."""
    a, b = (pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)
    return (b, a, pkt.protocol) if b < a else (a, b, pkt.protocol)


def flow_key(flow: FlowState) -> tuple:
    """The canonical key of an assembled flow's packets, from its initiator,
    responder and protocol."""
    (src_ip, src_port), (dst_ip, dst_port) = flow.initiator, flow.responder
    return canonical_key(PacketRecord(0, src_ip, dst_ip, src_port, dst_port, flow.protocol,
                                      0, 0, 0, b""))


# The inspection report from every payload head of each flow, classified after
# the flow ends: the flows once held their heads, and inspect read them so.


class MuxClass(enum.Enum):
    RTP = "RTP"
    RTCP = "RTCP"
    NEITHER = "NEITHER"


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


def reference_classify_udp_payload(payload: bytes, src_port: int, dst_port: int) -> ProtocolHint:
    """The hint of one UDP payload: QUIC on port 443 (the first payload bit
    selects the long or short header), IPSec NAT traversal on port 4500, then
    the RTP/RTCP demux on any port, each hint built afresh."""
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
            media, note = media_hint(header)
            return ProtocolHint(HintKind.RTP, media, note, Confidence.WEAK, header)
        return ProtocolHint(HintKind.RTP)
    if mux is MuxClass.RTCP:
        return ProtocolHint(HintKind.RTCP)
    note = ""
    if ZOOM_PORT in ports:
        note = "Zoom-associated port"
    elif MEET_PORT in ports:
        note = "Meet-associated port"
    return ProtocolHint(HintKind.UNKNOWN, codec_note=note)


def rtp_stream_continuity(headers: list[RtpHeader | None]) -> float | None:
    """Fraction of consecutive RTP sequence numbers incrementing by exactly 1
    (mod 2**16), over a flow's parsed RTP headers in packet order. None
    entries (payloads that did not parse) are skipped. Headers are filtered
    to the most frequent SSRC (lowest wins a tie); None when fewer than two
    such headers remain. `InspectedFlow` counts the same as each payload
    joins it."""
    headers = [h for h in headers if h is not None]
    if len(headers) >= 2:
        ssrc_counts = Counter(h.ssrc for h in headers)
        top = max(ssrc_counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        headers = [h for h in headers if h.ssrc == top]
    if len(headers) < 2:
        return None
    pairs = list(zip(headers, headers[1:]))
    hits = sum(1 for a, b in pairs if (b.sequence - a.sequence) % 65536 == 1)
    return hits / len(pairs)


def reference_inspect_flow(
    flow: FlowState, heads: list[bytes], app: AppContext
) -> tuple[dict, Counter[int]]:
    """One flow's report entry and RTP payload-type counts, from `heads`, its
    packets' payload heads in the order they joined it."""
    hints = []
    if flow.protocol == IPPROTO_UDP:
        src_port, dst_port = flow.initiator[1], flow.responder[1]
        hints = [reference_classify_udp_payload(head[:PAYLOAD_HEAD], src_port, dst_port)
                 for head in heads]
    kinds = [h.kind for h in hints]
    kind_counts = [(k, c) for k in HintKind if (c := kinds.count(k))]
    if kind_counts:
        # max keeps the first of equal counts, the kind declared first
        top = max(kind_counts, key=itemgetter(1))[0]
        dominant = next(h for h in hints if h.kind is top)
    else:
        dominant = ProtocolHint(HintKind.UNKNOWN)

    headers = [h.rtp for h in hints if h.rtp is not None]
    pt_counts: Counter[int] = Counter()
    if dominant.kind is HintKind.RTP and headers:
        pt_counts.update(h.payload_type for h in headers)
        media, note = media_hint(headers[0], app)
        dominant = dominant._replace(media=media, codec_note=note)
    entry = {
        "flow_id": flow.flow_id,
        "protocol": {IPPROTO_TCP: "TCP", IPPROTO_UDP: "UDP"}[flow.protocol],
        "src_port": flow.initiator[1],
        "dst_port": flow.responder[1],
        "packets": len(heads),
        "hint": dominant.kind.value,
        "media": dominant.media.value,
        "codec_note": dominant.codec_note,
        "confidence": dominant.confidence.value,
        "kind_counts": dict(sorted((k.value, c) for k, c in kind_counts)),
        "rtp_payload_types": {str(k): v for k, v in sorted(pt_counts.items())},
        "rtp_continuity": rtp_stream_continuity(headers),
    }
    return entry, pt_counts


def reference_report(flows, heads_of: dict, app: AppContext = AppContext.GENERIC) -> dict:
    """The inspection report of `flows`; `heads_of[flow]` lists the flow's payload heads."""
    entries = []
    pt_total: Counter[int] = Counter()
    for flow in flows:
        entry, pt_counts = reference_inspect_flow(flow, heads_of[flow], app)
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


# synth's capture built the plain way: every frame of every flow made field by
# field from the flow's plan, held in one list, sorted, then returned.


def _ipv4_checksum(header: bytes) -> int:
    total = sum(struct.unpack("!%dH" % (len(header) // 2), header))
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _build_frame(forward: bool, flow, payload: bytes, flags: int, seq_state: dict) -> bytes:
    if forward:
        src_mac, dst_mac = flow.client_mac, flow.server_mac
        src_ip, dst_ip = flow.client_ip, flow.server_ip
        src_port, dst_port = flow.client_port, flow.server_port
    else:
        src_mac, dst_mac = flow.server_mac, flow.client_mac
        src_ip, dst_ip = flow.server_ip, flow.client_ip
        src_port, dst_port = flow.server_port, flow.client_port

    eth = dst_mac + src_mac + struct.pack("!H", 0x0800)
    if flow.tcp:
        side = "fwd" if forward else "bwd"
        seq = seq_state[side]
        ack = seq_state["bwd" if forward else "fwd"]
        transport = struct.pack(
            "!HHIIBBHHH",
            src_port,
            dst_port,
            seq & 0xFFFFFFFF,
            ack & 0xFFFFFFFF,
            (TCP_HEADER // 4) << 4,
            flags,
            flow.client_window if forward else flow.server_window,
            0,
            0,
        ) + payload
        seq_state[side] = seq + len(payload) + (1 if flags & (TcpFlags.SYN | TcpFlags.FIN) else 0)
    else:
        transport = struct.pack("!HHHH", src_port, dst_port, UDP_HEADER + len(payload), 0) + payload

    total_len = IP_HEADER + len(transport)
    ip_wo_ck = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,
        0,
        total_len,
        seq_state["ip_id"] & 0xFFFF,
        0,
        64,
        IPPROTO_TCP if flow.tcp else IPPROTO_UDP,
        0,
        socket.inet_aton(src_ip),
        socket.inet_aton(dst_ip),
    )
    seq_state["ip_id"] += 1
    checksum = _ipv4_checksum(ip_wo_ck)
    ip = ip_wo_ck[:10] + struct.pack("!H", checksum) + ip_wo_ck[12:]
    return eth + ip + transport


def reference_rtp_payload(pt: int, seq: int, rtp_ts: int, ssrc: int, marker: bool, size: int) -> bytes:
    """A conf payload: an RTP version 2 header with the extension bit set, then zeros."""
    b0 = 0x90
    b1 = (0x80 if marker else 0) | pt
    header = struct.pack("!BBHII", b0, b1, seq & 0xFFFF, rtp_ts & 0xFFFFFFFF, ssrc)
    return header + b"\x00" * max(0, size - 12)


def reference_capture(profile: SynthProfile) -> list[tuple[int, bytes]]:
    """Every (timestamp, frame) of the profile's capture, in the order
    `synth.generate` writes them."""
    builder = _EVENT_BUILDERS[profile.kind]
    all_frames = []  # (ts, tiebreak, frame)
    for i in range(profile.n_flows):
        plan = _plan_flow(profile, i)
        events = builder(_flow_rng(profile, i), {"flow_index": i})
        start = BASE_TIMESTAMP_US + i * FLOW_STAGGER_US
        seq_state = {"fwd": 1000 + i, "bwd": 500_000 + i, "ip_id": (i * 131) & 0xFFFF}
        for order, ev in enumerate(events):
            payload = ev.head + b"\x00" * (ev.size - len(ev.head))
            frame = _build_frame(ev.forward, plan, payload, ev.flags, seq_state)
            all_frames.append((start + ev.ts, i * 1_000_000 + order, frame))
    all_frames.sort(key=lambda item: (item[0], item[1]))
    return [(ts, frame) for ts, _, frame in all_frames]


def reference_predict_proba(model: DecisionTreeModel, vector) -> tuple[float, ...]:
    """The reached leaf's class counts over their sum, walking the TreeNode
    objects from the root: left when the value is at most the threshold."""
    nodes = model.nodes
    node = nodes[0]
    while not node.is_leaf:
        node = nodes[node.left if vector[node.feature] <= node.threshold else node.right]
    total = sum(node.counts)
    return tuple(c / total for c in node.counts)


def reference_best_class(proba) -> int:
    """The most probable class; a tie goes to the first of the tied classes."""
    return max(range(len(proba)), key=lambda i: (proba[i], -i))
