"""Per-flow statistics in the frozen 77-feature layout.

The column order, names and semantics are the contract documented in
docs/feature-schema.md; they follow the CSV layout of the widely used
CICFlowMeter export (including its historical duplicate of the forward
header-length column) so datasets interoperate with existing tooling.

Unit conventions: durations and IATs are microseconds, rates are per
second, "packet length" means transport payload bytes on the wire (read
from the IP/UDP length fields, so a snaplen-cut capture gives the same
values), "header length" means transport header bytes, and Average Packet
Size uses wire bytes.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import add, sub
from typing import Iterable, NamedTuple, Sequence

from .flows import FlowState
from .packets import address_text

SCHEMA_NAME = "camsieve-flow-stats"
SCHEMA_VERSION = "1"

DEFAULT_ACTIVITY_THRESHOLD_US = 5_000_000
SUBFLOW_GAP_US = 1_000_000
BULK_GAP_US = 1_000_000
BULK_MIN_PACKETS = 4

FEATURE_NAMES: tuple[str, ...] = (
    "Flow Duration",
    "Total Fwd Packets",
    "Total Backward Packets",
    "Total Length of Fwd Packets",
    "Total Length of Bwd Packets",
    "Fwd Packet Length Max",
    "Fwd Packet Length Min",
    "Fwd Packet Length Mean",
    "Fwd Packet Length Std",
    "Bwd Packet Length Max",
    "Bwd Packet Length Min",
    "Bwd Packet Length Mean",
    "Bwd Packet Length Std",
    "Flow Bytes/s",
    "Flow Packets/s",
    "Flow IAT Mean",
    "Flow IAT Std",
    "Flow IAT Max",
    "Flow IAT Min",
    "Fwd IAT Total",
    "Fwd IAT Mean",
    "Fwd IAT Std",
    "Fwd IAT Max",
    "Fwd IAT Min",
    "Bwd IAT Total",
    "Bwd IAT Mean",
    "Bwd IAT Std",
    "Bwd IAT Max",
    "Bwd IAT Min",
    "Fwd PSH Flags",
    "Bwd PSH Flags",
    "Fwd URG Flags",
    "Bwd URG Flags",
    "Fwd Header Length",
    "Bwd Header Length",
    "Fwd Packets/s",
    "Bwd Packets/s",
    "Min Packet Length",
    "Max Packet Length",
    "Packet Length Mean",
    "Packet Length Std",
    "Packet Length Variance",
    "FIN Flag Count",
    "SYN Flag Count",
    "RST Flag Count",
    "PSH Flag Count",
    "ACK Flag Count",
    "URG Flag Count",
    "CWE Flag Count",
    "ECE Flag Count",
    "Down/Up Ratio",
    "Average Packet Size",
    "Avg Fwd Segment Size",
    "Avg Bwd Segment Size",
    "Fwd Header Length.1",
    "Fwd Avg Bytes/Bulk",
    "Fwd Avg Packets/Bulk",
    "Fwd Avg Bulk Rate",
    "Bwd Avg Bytes/Bulk",
    "Bwd Avg Packets/Bulk",
    "Bwd Avg Bulk Rate",
    "Subflow Fwd Packets",
    "Subflow Fwd Bytes",
    "Subflow Bwd Packets",
    "Subflow Bwd Bytes",
    "Init_Win_bytes_forward",
    "Init_Win_bytes_backward",
    "act_data_pkt_fwd",
    "min_seg_size_forward",
    "Active Mean",
    "Active Std",
    "Active Max",
    "Active Min",
    "Idle Mean",
    "Idle Std",
    "Idle Max",
    "Idle Min",
)

IDENTITY_COLUMNS: tuple[str, ...] = (
    "Flow ID",
    "Source IP",
    "Destination IP",
    "Source Port",
    "Destination Port",
    "Protocol",
)
LABEL_COLUMN = "Label"
ALL_COLUMNS: tuple[str, ...] = IDENTITY_COLUMNS + FEATURE_NAMES + (LABEL_COLUMN,)

assert len(FEATURE_NAMES) == 77
assert len(ALL_COLUMNS) == 84


def schema_hash(names: Sequence[str] = FEATURE_NAMES) -> str:
    """Stable fingerprint of a feature-name list, used to guard predictions."""
    import hashlib  # here, not at the top: extract and inspect never hash

    return hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()


class StatSummary(NamedTuple):
    minimum: float
    maximum: float
    mean: float
    std: float
    variance: float
    total: float


def stat_summary(values: Sequence[float]) -> StatSummary:
    """Min/max/mean/std/variance/total; zeros for empty input, sample (n-1) std."""
    n = len(values)
    if n == 0:
        return StatSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    total = float(sum(values))
    mean = total / n
    variance = 0.0
    if n >= 2:
        # a plain left-to-right sum: Python 3.12's sum() of floats compensates
        # its rounding, which would make these bytes depend on the version
        for v in values:
            variance += (v - mean) ** 2
        variance /= n - 1
    return StatSummary(float(min(values)), float(max(values)), mean, math.sqrt(variance), variance, total)


@dataclass(frozen=True)
class LabeledRecord:
    """One CSV row: six identity columns, 77 feature values, one label."""

    flow_id: str
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.values) != len(FEATURE_NAMES):
            raise ValueError(f"expected {len(FEATURE_NAMES)} values, got {len(self.values)}")


def _diffs(timestamps: Sequence[int]) -> list[int]:
    return list(map(sub, timestamps[1:], timestamps[:-1]))


def _runs(timestamps: Sequence[int], gaps: Sequence[int], limit: int) -> list[tuple[int, int]]:
    """(start, end) index bounds of the maximal runs of timestamps whose inner
    gaps are all <= limit, in order; gaps is _diffs(timestamps). A gap above
    the limit ends one run and starts the next, so the runs partition the
    indexes and gaps[start - 1] is the gap before every run but the first."""
    edges = [0, *[i for i, gap in enumerate(gaps, 1) if gap > limit], len(timestamps)]
    return list(zip(edges, edges[1:]))


# the bit number of each packets.TcpFlags mask, FIN (0x01) to CWE (0x80)
_FIN, _SYN, _RST, _PSH, _ACK, _URG, _ECE, _CWE = range(8)
# the bit numbers set in each flags byte
_FLAG_BITS = tuple(tuple(bit for bit in range(8) if flags >> bit & 1) for flags in range(256))


def _flag_counts(flag_bytes: Iterable[int]) -> list[int]:
    """The number of packets with each TCP flag bit set, by bit number, in one
    pass over the distinct flags bytes."""
    counts = [0] * 8
    for flags, n in Counter(flag_bytes).items():
        for bit in _FLAG_BITS[flags]:
            counts[bit] += n
    return counts


def _bulk_stats(timestamps: list[int], lengths: list[int]) -> tuple[float, float, float]:
    """Average bytes per bulk, packets per bulk and bulk byte rate (per second),
    from one direction's packet timestamps and payload lengths.

    A bulk is a run of >= BULK_MIN_PACKETS consecutive data packets (payload
    >= 1 byte) in one direction with inter-arrivals <= BULK_GAP_US.
    """
    data_ts = list(compress(timestamps, lengths))
    if len(data_ts) < BULK_MIN_PACKETS:
        return 0.0, 0.0, 0.0
    data_lengths = list(compress(lengths, lengths))
    bulks = total_bytes = total_pkts = total_dur_us = 0
    for start, end in _runs(data_ts, _diffs(data_ts), BULK_GAP_US):
        if end - start >= BULK_MIN_PACKETS:
            bulks += 1
            total_pkts += end - start
            total_bytes += sum(data_lengths[start:end])
            total_dur_us += data_ts[end - 1] - data_ts[start]
    if not bulks:
        return 0.0, 0.0, 0.0
    rate = total_bytes / (total_dur_us / 1e6) if total_dur_us > 0 else 0.0
    return total_bytes / bulks, total_pkts / bulks, rate


# maps a FlowState.directions byte to its opposite: 1 for backward packets
_BACKWARD = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def compute_features(
    flow: FlowState, activity_threshold_us: int = DEFAULT_ACTIVITY_THRESHOLD_US, label: str = ""
) -> LabeledRecord:
    """All 77 statistics for one completed flow; degenerate flows yield zeros,
    never NaN or infinity (rates with zero duration are pinned to 0)."""
    n = flow.packet_count
    if not n:
        raise ValueError("flow has no packets")
    fwd = flow.directions
    bwd = fwd.translate(_BACKWARD)

    all_ts = flow.timestamps.tolist()
    all_gaps = _diffs(all_ts)
    duration = all_ts[-1] - all_ts[0]
    dur_s = duration / 1e6
    fwd_ts = list(compress(all_ts, fwd))
    bwd_ts = list(compress(all_ts, bwd))
    n_fwd, n_bwd = len(fwd_ts), len(bwd_ts)

    lengths = flow.payload_lengths.tolist()
    fwd_pl = list(compress(lengths, fwd))
    bwd_pl = list(compress(lengths, bwd))
    fwd_len = stat_summary(fwd_pl)
    bwd_len = stat_summary(bwd_pl)
    all_len = stat_summary(fwd_pl + bwd_pl)

    flow_iat = stat_summary(all_gaps)
    fwd_iat = stat_summary(_diffs(fwd_ts))
    bwd_iat = stat_summary(_diffs(bwd_ts))

    fwd_hdr = sum(compress(flow.header_lengths, fwd))
    bwd_hdr = sum(compress(flow.header_lengths, bwd))

    activity = _runs(all_ts, all_gaps, activity_threshold_us)
    active = stat_summary([all_ts[end - 1] - all_ts[start] for start, end in activity])
    idle = stat_summary([all_gaps[start - 1] for start, _ in activity[1:]])

    fwd_flags = _flag_counts(compress(flow.tcp_flags, fwd))
    bwd_flags = _flag_counts(compress(flow.tcp_flags, bwd))
    all_flags = list(map(add, fwd_flags, bwd_flags))

    n_subflows = len(_runs(all_ts, all_gaps, SUBFLOW_GAP_US))
    fwd_bulk_bytes, fwd_bulk_pkts, fwd_bulk_rate = _bulk_stats(fwd_ts, fwd_pl)
    bwd_bulk_bytes, bwd_bulk_pkts, bwd_bulk_rate = _bulk_stats(bwd_ts, bwd_pl)

    v: dict[str, float] = {}
    v["Flow Duration"] = float(duration)
    v["Total Fwd Packets"] = float(n_fwd)
    v["Total Backward Packets"] = float(n_bwd)
    v["Total Length of Fwd Packets"] = fwd_len.total
    v["Total Length of Bwd Packets"] = bwd_len.total
    v["Fwd Packet Length Max"] = fwd_len.maximum
    v["Fwd Packet Length Min"] = fwd_len.minimum
    v["Fwd Packet Length Mean"] = fwd_len.mean
    v["Fwd Packet Length Std"] = fwd_len.std
    v["Bwd Packet Length Max"] = bwd_len.maximum
    v["Bwd Packet Length Min"] = bwd_len.minimum
    v["Bwd Packet Length Mean"] = bwd_len.mean
    v["Bwd Packet Length Std"] = bwd_len.std
    v["Flow Bytes/s"] = all_len.total / dur_s if duration > 0 else 0.0
    v["Flow Packets/s"] = n / dur_s if duration > 0 else 0.0
    v["Flow IAT Mean"] = flow_iat.mean
    v["Flow IAT Std"] = flow_iat.std
    v["Flow IAT Max"] = flow_iat.maximum
    v["Flow IAT Min"] = flow_iat.minimum
    v["Fwd IAT Total"] = fwd_iat.total
    v["Fwd IAT Mean"] = fwd_iat.mean
    v["Fwd IAT Std"] = fwd_iat.std
    v["Fwd IAT Max"] = fwd_iat.maximum
    v["Fwd IAT Min"] = fwd_iat.minimum
    v["Bwd IAT Total"] = bwd_iat.total
    v["Bwd IAT Mean"] = bwd_iat.mean
    v["Bwd IAT Std"] = bwd_iat.std
    v["Bwd IAT Max"] = bwd_iat.maximum
    v["Bwd IAT Min"] = bwd_iat.minimum
    v["Fwd PSH Flags"] = float(fwd_flags[_PSH])
    v["Bwd PSH Flags"] = float(bwd_flags[_PSH])
    v["Fwd URG Flags"] = float(fwd_flags[_URG])
    v["Bwd URG Flags"] = float(bwd_flags[_URG])
    v["Fwd Header Length"] = float(fwd_hdr)
    v["Bwd Header Length"] = float(bwd_hdr)
    v["Fwd Packets/s"] = n_fwd / dur_s if duration > 0 else 0.0
    v["Bwd Packets/s"] = n_bwd / dur_s if duration > 0 else 0.0
    v["Min Packet Length"] = all_len.minimum
    v["Max Packet Length"] = all_len.maximum
    v["Packet Length Mean"] = all_len.mean
    v["Packet Length Std"] = all_len.std
    v["Packet Length Variance"] = all_len.variance
    v["FIN Flag Count"] = float(all_flags[_FIN])
    v["SYN Flag Count"] = float(all_flags[_SYN])
    v["RST Flag Count"] = float(all_flags[_RST])
    v["PSH Flag Count"] = float(all_flags[_PSH])
    v["ACK Flag Count"] = float(all_flags[_ACK])
    v["URG Flag Count"] = float(all_flags[_URG])
    v["CWE Flag Count"] = float(all_flags[_CWE])
    v["ECE Flag Count"] = float(all_flags[_ECE])
    v["Down/Up Ratio"] = float(n_bwd // n_fwd) if n_fwd else 0.0
    v["Average Packet Size"] = float(flow.wire_bytes) / n
    v["Avg Fwd Segment Size"] = fwd_len.mean
    v["Avg Bwd Segment Size"] = bwd_len.mean
    v["Fwd Header Length.1"] = float(fwd_hdr)
    v["Fwd Avg Bytes/Bulk"] = fwd_bulk_bytes
    v["Fwd Avg Packets/Bulk"] = fwd_bulk_pkts
    v["Fwd Avg Bulk Rate"] = fwd_bulk_rate
    v["Bwd Avg Bytes/Bulk"] = bwd_bulk_bytes
    v["Bwd Avg Packets/Bulk"] = bwd_bulk_pkts
    v["Bwd Avg Bulk Rate"] = bwd_bulk_rate
    v["Subflow Fwd Packets"] = n_fwd / n_subflows
    v["Subflow Fwd Bytes"] = fwd_len.total / n_subflows
    v["Subflow Bwd Packets"] = n_bwd / n_subflows
    v["Subflow Bwd Bytes"] = bwd_len.total / n_subflows
    v["Init_Win_bytes_forward"] = float(flow.first_window_fwd) if n_fwd else 0.0
    v["Init_Win_bytes_backward"] = float(flow.first_window_bwd) if n_bwd else 0.0
    v["act_data_pkt_fwd"] = float(n_fwd - fwd_pl.count(0))
    v["min_seg_size_forward"] = float(min(compress(flow.header_lengths, fwd))) if n_fwd else 0.0
    v["Active Mean"] = active.mean
    v["Active Std"] = active.std
    v["Active Max"] = active.maximum
    v["Active Min"] = active.minimum
    v["Idle Mean"] = idle.mean
    v["Idle Std"] = idle.std
    v["Idle Max"] = idle.maximum
    v["Idle Min"] = idle.minimum

    return LabeledRecord(
        flow_id=flow.flow_id,
        src_ip=address_text(flow.initiator[0]),
        dst_ip=address_text(flow.responder[0]),
        src_port=flow.initiator[1],
        dst_port=flow.responder[1],
        protocol=flow.protocol,
        values=tuple(map(v.__getitem__, FEATURE_NAMES)),
        label=label,
    )
