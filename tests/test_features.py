import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsieve.features import (
    ALL_COLUMNS,
    BULK_GAP_US,
    BULK_MIN_PACKETS,
    DEFAULT_ACTIVITY_THRESHOLD_US,
    FEATURE_NAMES,
    SUBFLOW_GAP_US,
    _diffs,
    _runs,
    compute_features,
    stat_summary,
)
from camsieve.flows import assemble_flows
from camsieve.packets import IPPROTO_TCP, TcpFlags, read_packets_sorted
from camsieve.synth import SynthProfile, TrafficKind, generate

from conftest import RecordedFlow, flow_packet, make_flow, random_flow
from oracles import reference_features

S = 1_000_000  # microseconds per second


def udp_fp(ts, payload_len, total=None):
    return flow_packet(ts, payload_len, total if total is not None else payload_len + 42)


def tcp_fp(ts, payload_len, flags=TcpFlags.ACK, window=8192, header=20):
    return flow_packet(ts, payload_len, payload_len + 54, header, flags, window)


class TestStatSummary:
    def test_empty(self):
        assert stat_summary([]) == (0, 0, 0, 0, 0, 0)

    def test_singleton(self):
        assert stat_summary([7]) == (7, 7, 7, 0, 0, 7)

    def test_two_values_sample_std(self):
        s = stat_summary([100, 200])
        assert (s.minimum, s.maximum, s.mean, s.total) == (100, 200, 150, 300)
        assert s.variance == pytest.approx(5000.0, rel=1e-12)
        assert s.std == pytest.approx(70.71067811865476, rel=1e-12)

    def test_variance_sums_left_to_right_on_every_version(self):
        # the squared deviations are about 4.4e15, 1.1e15 and 1.1e15: adding them
        # in order rounds to ...2.5, a compensated sum (Python 3.12's sum()) to ...2.0
        assert stat_summary([100_000_000, 1, 3]).variance == 3333333200000002.5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), max_size=30))
    def test_matches_statistics_module(self, values):
        import statistics

        s = stat_summary(values)
        if not values:
            assert s == (0, 0, 0, 0, 0, 0)
            return
        assert s.mean == pytest.approx(statistics.fmean(values), rel=1e-9, abs=1e-9)
        if len(values) >= 2:
            assert s.variance == pytest.approx(statistics.variance(values), rel=1e-9, abs=1e-9)
        assert s.minimum == min(values) and s.maximum == max(values)


def runs_of(timestamps, limit):
    return _runs(timestamps, _diffs(timestamps), limit)


class TestActivitySegments:
    """The timeline cut behind Active/Idle, Subflow and Bulk: `_runs`."""

    def test_example_gaps(self):
        ts = [0, 1 * S, 2 * S, 10 * S, 11 * S]
        assert runs_of(ts, 5 * S) == [(0, 3), (3, 5)]

    def test_single_timestamp(self):
        assert runs_of([123], 5 * S) == [(0, 1)]

    def test_no_gap_exceeds_threshold(self):
        assert runs_of([0, S, 2 * S], 5 * S) == [(0, 3)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=40), st.integers(1, 10**7))
    def test_active_plus_idle_equals_span(self, raw_ts, threshold):
        ts = sorted(raw_ts)
        gaps = _diffs(ts)
        runs = _runs(ts, gaps, threshold)
        # the runs partition the indexes, in order
        assert [i for start, end in runs for i in range(start, end)] == list(range(len(ts)))
        # each run is maximal: its inner gaps are within the limit, the gaps between runs are not
        assert all(gap <= threshold for start, end in runs for gap in gaps[start:end - 1])
        idle = [gaps[start - 1] for start, _ in runs[1:]]
        assert all(gap > threshold for gap in idle)
        active = [ts[end - 1] - ts[start] for start, end in runs]
        assert sum(active) + sum(idle) == ts[-1] - ts[0]


class TestTimelineCutBoundaries:
    """A gap equal to a limit keeps one run; one microsecond more splits it."""

    def features(self, fwd, **kwargs):
        return dict(zip(FEATURE_NAMES, compute_features(make_flow(fwd, []), **kwargs).values))

    @pytest.mark.parametrize("kwargs, threshold", [
        ({}, DEFAULT_ACTIVITY_THRESHOLD_US),
        ({"activity_threshold_us": 3 * S}, 3 * S),
    ])
    def test_activity_threshold(self, kwargs, threshold):
        v = self.features([udp_fp(0, 100), udp_fp(threshold, 100)], **kwargs)
        assert (v["Active Max"], v["Idle Max"]) == (threshold, 0)
        v = self.features([udp_fp(0, 100), udp_fp(threshold + 1, 100)], **kwargs)
        assert (v["Active Max"], v["Idle Max"]) == (0, threshold + 1)

    def test_subflow_gap(self):
        v = self.features([udp_fp(0, 100), udp_fp(SUBFLOW_GAP_US, 100)])
        assert v["Subflow Fwd Packets"] == 2
        v = self.features([udp_fp(0, 100), udp_fp(SUBFLOW_GAP_US + 1, 100)])
        assert v["Subflow Fwd Packets"] == 1

    def test_bulk_gap(self):
        # BULK_MIN_PACKETS data packets make one bulk only while no gap splits them
        n = BULK_MIN_PACKETS
        v = self.features([udp_fp(i * BULK_GAP_US, 100) for i in range(n)])
        assert v["Fwd Avg Packets/Bulk"] == n
        v = self.features([udp_fp(i * BULK_GAP_US + (i == n - 1), 100) for i in range(n)])
        assert v["Fwd Avg Packets/Bulk"] == 0


class TestComputeFeatures:
    def idx(self, name):
        return FEATURE_NAMES.index(name)

    def test_two_forward_udp_packets(self):
        flow = make_flow([udp_fp(0, 100), udp_fp(2_500_000, 200)], [])
        vec = compute_features(flow)
        v = dict(zip(FEATURE_NAMES, vec.values))
        assert v["Flow Duration"] == 2_500_000
        assert v["Total Fwd Packets"] == 2
        assert v["Total Backward Packets"] == 0
        assert v["Fwd Packet Length Max"] == 200
        assert v["Fwd Packet Length Min"] == 100
        assert v["Fwd Packet Length Mean"] == 150
        assert v["Fwd Packet Length Std"] == pytest.approx(70.71067811865476, rel=1e-9)
        assert v["Bwd Packet Length Max"] == 0
        assert v["Bwd Packet Length Mean"] == 0
        assert v["Bwd IAT Mean"] == 0

    def test_single_packet_degenerate(self):
        vec = compute_features(make_flow([udp_fp(5, 80)], []))
        v = dict(zip(FEATURE_NAMES, vec.values))
        assert v["Flow Duration"] == 0
        assert v["Flow IAT Mean"] == v["Flow IAT Max"] == 0
        assert v["Flow Bytes/s"] == 0
        assert v["Flow Packets/s"] == 0

    def test_ack_flag_count(self):
        fwd = [
            tcp_fp(i * 1000, 10, TcpFlags.ACK if i < 3 else TcpFlags.PSH) for i in range(5)
        ]
        vec = compute_features(make_flow(fwd, [], IPPROTO_TCP))
        v = dict(zip(FEATURE_NAMES, vec.values))
        assert v["ACK Flag Count"] == 3
        assert v["PSH Flag Count"] == 2

    def test_down_up_ratio_is_floored(self):
        fwd = [udp_fp(i, 10) for i in range(2)]
        bwd = [udp_fp(10 + i, 10) for i in range(5)]
        vec = compute_features(make_flow(fwd, bwd))
        assert vec.values[self.idx("Down/Up Ratio")] == 2.0  # floor(5/2)

    def test_init_windows_and_seg_size(self):
        fwd = [tcp_fp(0, 0, TcpFlags.SYN, window=64240, header=32)]
        bwd = [tcp_fp(10, 0, TcpFlags.SYN | TcpFlags.ACK, window=65535)]
        vec = compute_features(make_flow(fwd, bwd, IPPROTO_TCP))
        v = dict(zip(FEATURE_NAMES, vec.values))
        assert v["Init_Win_bytes_forward"] == 64240
        assert v["Init_Win_bytes_backward"] == 65535
        assert v["min_seg_size_forward"] == 32
        assert v["act_data_pkt_fwd"] == 0

    def test_bulk_detection(self):
        # five data packets 100 ms apart form one bulk; a lone straggler does not
        fwd = [udp_fp(i * 100_000, 500) for i in range(5)] + [udp_fp(10 * S, 500)]
        vec = compute_features(make_flow(fwd, []))
        v = dict(zip(FEATURE_NAMES, vec.values))
        assert v["Fwd Avg Bytes/Bulk"] == 2500
        assert v["Fwd Avg Packets/Bulk"] == 5
        assert v["Fwd Avg Bulk Rate"] == pytest.approx(2500 / 0.4, rel=1e-9)
        assert v["Bwd Avg Bytes/Bulk"] == 0

    def test_subflow_split_on_one_second_gaps(self):
        fwd = [udp_fp(0, 100), udp_fp(2 * S, 100), udp_fp(4 * S, 100), udp_fp(4 * S + 1, 100)]
        vec = compute_features(make_flow(fwd, []))
        v = dict(zip(FEATURE_NAMES, vec.values))
        assert v["Subflow Fwd Packets"] == pytest.approx(4 / 3)
        assert v["Subflow Fwd Bytes"] == pytest.approx(400 / 3)

    def test_header_length_duplicate_column(self):
        fwd = [tcp_fp(0, 10, header=20), tcp_fp(1, 10, header=32)]
        vec = compute_features(make_flow(fwd, [], IPPROTO_TCP))
        v = dict(zip(FEATURE_NAMES, vec.values))
        assert v["Fwd Header Length"] == v["Fwd Header Length.1"] == 52

    def test_no_nan_or_inf_ever(self, rng):
        for _ in range(200):
            vec = compute_features(random_flow(rng))
            assert all(math.isfinite(x) for x in vec.values)

    def test_min_mean_max_ordering(self, rng):
        triples = [
            ("Fwd Packet Length Min", "Fwd Packet Length Mean", "Fwd Packet Length Max"),
            ("Bwd Packet Length Min", "Bwd Packet Length Mean", "Bwd Packet Length Max"),
            ("Flow IAT Min", "Flow IAT Mean", "Flow IAT Max"),
            ("Min Packet Length", "Packet Length Mean", "Max Packet Length"),
            ("Active Min", "Active Mean", "Active Max"),
            ("Idle Min", "Idle Mean", "Idle Max"),
        ]
        for _ in range(100):
            v = dict(zip(FEATURE_NAMES, compute_features(random_flow(rng)).values))
            for lo, mid, hi in triples:
                assert v[lo] <= v[mid] + 1e-9
                assert v[mid] <= v[hi] + 1e-9

    def test_scale_check_doubling_gaps(self):
        fwd = [udp_fp(0, 100), udp_fp(1 * S, 100), udp_fp(3 * S, 100)]
        stretched = [udp_fp(0, 100), udp_fp(2 * S, 100), udp_fp(6 * S, 100)]
        a = dict(zip(FEATURE_NAMES, compute_features(make_flow(fwd, [])).values))
        b = dict(zip(FEATURE_NAMES, compute_features(make_flow(stretched, [])).values))
        assert b["Flow Duration"] == 2 * a["Flow Duration"]
        assert b["Flow Packets/s"] == pytest.approx(a["Flow Packets/s"] / 2, rel=1e-9)

    def test_identity_carried_not_in_features(self):
        rec = compute_features(make_flow([udp_fp(0, 10)], []), label="Conf")
        assert rec.src_ip == "10.0.0.1"
        assert rec.protocol == 17
        assert rec.label == "Conf"
        assert len(rec.values) == 77
        for banned in ("IP", "Port"):
            leaky = [n for n in FEATURE_NAMES if banned in n and not n.startswith("Init_Win")]
            assert leaky == []

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(compute_features(make_flow([udp_fp(0, 1)], [])), values=(0.0,) * 76)


class TestOracleEquivalence:
    def test_schema_is_frozen(self):
        assert len(FEATURE_NAMES) == 77
        assert len(ALL_COLUMNS) == 84
        assert ALL_COLUMNS[0] == "Flow ID"
        assert ALL_COLUMNS[-1] == "Label"

    def test_randomized_flows_match_reference(self):
        rng = random.Random(20240)
        for _ in range(400):
            flow = random_flow(rng)
            vec = compute_features(flow)
            expected = reference_features(flow)
            for name, got in zip(FEATURE_NAMES, vec.values):
                want = expected[name]
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), name

    def test_assembled_flows_match_reference(self, tmp_path):
        # the assembler fills the columns; the oracle reads the records it was given
        for kind in TrafficKind:
            pcap = tmp_path / f"{kind.value}.pcap"
            generate(SynthProfile(kind, 12, seed=5), pcap)
            flows = assemble_flows(read_packets_sorted(pcap), flow_type=RecordedFlow)
            assert flows and all(isinstance(f, RecordedFlow) for f in flows)
            for flow in flows:
                expected = reference_features(flow)
                for name, got in zip(FEATURE_NAMES, compute_features(flow).values):
                    assert got == pytest.approx(expected[name], rel=1e-9, abs=1e-9), name

    def test_conservation_and_totals(self, rng):
        for _ in range(100):
            flow = random_flow(rng)
            v = dict(zip(FEATURE_NAMES, compute_features(flow).values))
            assert v["Total Fwd Packets"] + v["Total Backward Packets"] == flow.packet_count
            assert v["Subflow Fwd Packets"] <= v["Total Fwd Packets"]
            assert v["Subflow Bwd Bytes"] <= v["Total Length of Bwd Packets"] + 1e-9
