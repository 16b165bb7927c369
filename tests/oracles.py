"""Independent reference computations used to check the real implementations.

Everything here is written straight-line from the documented semantics,
on purpose not sharing code with the package: statistics come from the
stdlib statistics module, split gains from exact Fraction arithmetic.
"""
from __future__ import annotations

import statistics
from fractions import Fraction

from camsieve.flows import FlowState
from camsieve.packets import TcpFlags

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
    """All 77 features recomputed from first principles, keyed by column name."""
    fwd = list(flow.fwd_packets)
    bwd = list(flow.bwd_packets)
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
