import json
import socket
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camsieve.errors import IoFailure
from camsieve.features import FEATURE_NAMES, compute_features
from camsieve.flows import assemble_flows, read_flows
from camsieve.packets import IPPROTO_TCP, open_capture, decode_packet, read_packets_sorted
from camsieve.protocols import AppContext, MediaType, media_hint, parse_rtp_header
from camsieve.synth import (
    FLOW_STAGGER_US,
    KIND_LABELS,
    MAX_FLOWS,
    SynthProfile,
    TrafficKind,
    _conf_events,
    _flow_rng,
    _plan_flow,
    _share_events,
    generate,
    write_pcap,
)

from conftest import run_for_peak_rss, write_pcap_bytes
from oracles import reference_capture, reference_rtp_payload, rtp_stream_continuity, split_node


def fidx(name):
    return FEATURE_NAMES.index(name)


def _manifest_entries(pcap):
    return [json.loads(line)
            for line in pcap.with_name(pcap.name + ".manifest.jsonl").read_text().splitlines()]


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("synth")
    out = {}
    for kind in TrafficKind:
        pcap = base / f"{kind.value}.pcap"
        generate(SynthProfile(kind, 12, seed=11), pcap)
        out[kind] = (pcap, _manifest_entries(pcap))
    return out


class TestDeterminism:
    def test_byte_identical_regeneration(self, tmp_path):
        p1, p2 = tmp_path / "a.pcap", tmp_path / "b.pcap"
        generate(SynthProfile(TrafficKind.CONF, 1, seed=7), p1)
        generate(SynthProfile(TrafficKind.CONF, 1, seed=7), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.pcap.manifest.jsonl").read_text() == (
            tmp_path / "b.pcap.manifest.jsonl"
        ).read_text()

    def test_seed_changes_output(self, tmp_path):
        p1, p2 = tmp_path / "a.pcap", tmp_path / "b.pcap"
        generate(SynthProfile(TrafficKind.CAMERA, 2, seed=1), p1)
        generate(SynthProfile(TrafficKind.CAMERA, 2, seed=2), p2)
        assert p1.read_bytes() != p2.read_bytes()


class TestReferenceCapture:
    # 80 flows start over 4 s; conf and share flows last about 1-2 s, so the
    # first flows end before the last ones start, and camera flows outlast that
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(TrafficKind), st.integers(1, 80), st.integers(0, 2**32))
    @example(TrafficKind.CAMERA, 80, 3)
    @example(TrafficKind.CONF, 80, 3)
    @example(TrafficKind.SHARE, 80, 3)
    def test_pcap_is_the_sorted_capture_built_frame_by_frame(self, tmp_path_factory, kind,
                                                             n_flows, seed):
        profile = SynthProfile(kind, n_flows, seed)
        pcap = tmp_path_factory.mktemp("diff") / "out.pcap"
        generate(profile, pcap)
        assert pcap.read_bytes() == write_pcap_bytes(reference_capture(profile))

    @pytest.mark.parametrize("kind, builder", [(TrafficKind.CONF, _conf_events),
                                               (TrafficKind.SHARE, _share_events)])
    def test_eighty_flows_end_the_first_before_the_last_starts(self, kind, builder):
        profile = SynthProfile(kind, 80, 3)
        first = builder(_flow_rng(profile, 0), {"flow_index": 0})
        assert first[-1].ts < 79 * FLOW_STAGGER_US


class TestProfile:
    def test_flows_past_the_client_ports_rejected(self):
        last = _plan_flow(SynthProfile(TrafficKind.CAMERA, MAX_FLOWS, 1), MAX_FLOWS - 1)
        assert last.client_port == 65535
        with pytest.raises(ValueError, match="n_flows must be in 1..45536, got 45537"):
            SynthProfile(TrafficKind.CAMERA, MAX_FLOWS + 1, 1)
        with pytest.raises(ValueError):
            SynthProfile(TrafficKind.CONF, 0, 1)


class TestWireValidity:
    def test_zero_skipped_frames(self, small_runs):
        for kind, (pcap, entries) in small_runs.items():
            total = 0
            for frame in open_capture(pcap):
                rec = decode_packet(frame.data, frame.link_type, frame.timestamp, frame.wire_length)
                assert rec is not None, f"{kind} produced an undecodable frame"
                total += 1
            assert total == sum(e["packets"] for e in entries)

    def test_ipv4_header_checksums_verify(self, small_runs):
        # the decoder does not check them: the header's words must fold to 0xFFFF
        for kind, (pcap, _) in small_runs.items():
            for frame in open_capture(pcap):
                total = sum(struct.unpack("!10H", frame.data[14:34]))
                while total > 0xFFFF:
                    total = (total & 0xFFFF) + (total >> 16)
                assert total == 0xFFFF, kind

    def test_flow_count_matches_manifest(self, small_runs):
        for kind, (pcap, entries) in small_runs.items():
            flows = assemble_flows(read_packets_sorted(pcap))
            assert len(flows) == len(entries)

    def test_manifest_describes_flows(self, small_runs):
        pcap, entries = small_runs[TrafficKind.CAMERA]
        flows = assemble_flows(read_packets_sorted(pcap))
        by_endpoints = {(f.initiator, f.responder): f for f in flows}
        for entry in entries:
            key = ((socket.inet_aton(entry["src_ip"]), entry["src_port"]),
                   (socket.inet_aton(entry["dst_ip"]), entry["dst_port"]))
            flow = by_endpoints[key]
            assert flow.packet_count == entry["packets"]
            assert flow.directions.count(1) == entry["fwd_packets"]
            assert flow.directions.count(0) == entry["bwd_packets"]

    def test_decoded_fields_match_generator_intent(self, small_runs):
        pcap, entries = small_runs[TrafficKind.SHARE]
        flows = assemble_flows(read_packets_sorted(pcap))
        for flow, entry in zip(flows, sorted(entries, key=lambda e: e["first_ts_us"])):
            assert flow.initiator == (socket.inet_aton(entry["src_ip"]), entry["src_port"])
            assert flow.responder == (socket.inet_aton(entry["dst_ip"]), entry["dst_port"])
            assert flow.protocol == IPPROTO_TCP


class TestConfRtp:
    def test_every_packet_is_valid_rtp_with_full_continuity(self, small_runs, tmp_path):
        pcap, entries = small_runs[TrafficKind.CONF]
        flows_by_ep = {
            (f.initiator, f.responder): f
            for f in assemble_flows(read_packets_sorted(pcap))
        }
        packets = list(read_packets_sorted(pcap))
        for entry in entries:
            fwd_payloads = [
                p.payload_head for p in packets
                if (p.src_ip, p.src_port) == (socket.inet_aton(entry["src_ip"]), entry["src_port"])
            ]
            assert fwd_payloads
            headers = [parse_rtp_header(p) for p in fwd_payloads]
            assert all(h is not None and h.version == 2 for h in headers)
            assert rtp_stream_continuity(headers) == 1.0
            assert {h.ssrc for h in headers} == {entry["rtp"]["ssrc_fwd"]}
            media, _ = media_hint(headers[0], AppContext(entry["rtp"]["app"]))
            assert media is MediaType.VIDEO
            assert headers[0].payload_type == entry["rtp"]["payload_type"]

    def test_payloads_are_the_reference_rtp_payloads(self, small_runs):
        # sequence numbers and RTP timestamps step by 1 and 3000 from the
        # first packet's each way; only the marker bit varies at random
        pcap, entries = small_runs[TrafficKind.CONF]
        senders = {}  # the sender's address and port -> (payload type, SSRC)
        for e in entries:
            rtp = e["rtp"]
            client = (socket.inet_aton(e["src_ip"]), e["src_port"])
            server = (socket.inet_aton(e["dst_ip"]), e["dst_port"])
            senders[client] = (rtp["payload_type"], rtp["ssrc_fwd"])
            senders[server] = (rtp["payload_type"], rtp["ssrc_bwd"])
        streams = {}
        for frame in open_capture(pcap):
            sender = (frame.data[26:30], struct.unpack_from("!H", frame.data, 34)[0])
            streams.setdefault(sender, []).append(frame.data[42:])
        assert streams.keys() == senders.keys()
        for sender, payloads in streams.items():
            pt, ssrc = senders[sender]
            _, _, seq0, ts0, _ = struct.unpack_from("!BBHII", payloads[0])
            for i, payload in enumerate(payloads):
                marker = bool(payload[1] & 0x80)
                assert payload == reference_rtp_payload(pt, seq0 + i, ts0 + 3000 * i, ssrc,
                                                        marker, len(payload))


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    base = tmp_path_factory.mktemp("sep")
    recs = {}
    for kind in TrafficKind:
        pcap = base / f"{kind.value}.pcap"
        generate(SynthProfile(kind, 10, seed=3), pcap)
        recs[kind] = [compute_features(f, label=KIND_LABELS[kind]) for f in read_flows(pcap)]
    return recs


class TestSeparability:
    def test_camera_vs_share_packet_length_margin(self, records):
        i = fidx("Packet Length Mean")
        cam = np.mean([r.values[i] for r in records[TrafficKind.CAMERA]])
        share = np.mean([r.values[i] for r in records[TrafficKind.SHARE]])
        assert share - cam > 300

    PAIR_FEATURES = {
        (TrafficKind.CAMERA, TrafficKind.CONF): [
            "Packet Length Mean",
            "Bwd Packet Length Mean",
            "Idle Mean",
        ],
        (TrafficKind.CAMERA, TrafficKind.SHARE): [
            "Packet Length Mean",
            "min_seg_size_forward",
            "ACK Flag Count",
        ],
        (TrafficKind.CONF, TrafficKind.SHARE): [
            "min_seg_size_forward",
            "ACK Flag Count",
            "Init_Win_bytes_forward",
        ],
    }

    def test_three_perfect_root_splits_per_pair(self, records):
        for (ka, kb), names in self.PAIR_FEATURES.items():
            X = np.array(
                [[r.values[fidx(n)] for n in names] for r in records[ka] + records[kb]]
            )
            y = np.array([0] * len(records[ka]) + [1] * len(records[kb]))
            for col in range(len(names)):
                result = split_node(X, y, 2, [col])
                assert result is not None, (ka, kb, names[col])
                _, _, gain = result
                # a gain equal to the parent impurity means a perfect split
                assert gain == pytest.approx(0.5, abs=1e-12), (ka, kb, names[col])


class TestTruncation:
    def test_truncated_generated_capture(self, tmp_path):
        # byte-truncate a generated capture mid-record: the prefix decodes,
        # then the reader reports the cut
        from camsieve.errors import MalformedCapture

        pcap = tmp_path / "two.pcap"
        generate(SynthProfile(TrafficKind.CAMERA, 1, seed=1), pcap)
        blob = pcap.read_bytes()
        cut = tmp_path / "cut.pcap"
        cut.write_bytes(blob[: len(blob) - 7])
        frames = []
        with pytest.raises(MalformedCapture):
            for frame in open_capture(cut):
                frames.append(frame)
        assert frames  # everything before the truncation still came through


class TestManifest:
    def test_jsonl_one_object_per_flow(self, small_runs):
        pcap, entries = small_runs[TrafficKind.CONF]
        manifest = pcap.with_name(pcap.name + ".manifest.jsonl")
        lines = manifest.read_text().splitlines()
        assert len(lines) == len(entries)
        parsed = [json.loads(line) for line in lines]
        assert all(p["label"] == "Conf" for p in parsed)
        assert all("payload_type" in p["rtp"] for p in parsed)

    def test_labels_per_kind(self, small_runs):
        for kind, (_, entries) in small_runs.items():
            assert {e["label"] for e in entries} == {KIND_LABELS[kind]}

    def test_returns_the_flow_and_packet_counts_of_the_manifest(self, tmp_path):
        pcap = tmp_path / "share.pcap"
        counts = generate(SynthProfile(TrafficKind.SHARE, 7, seed=2), pcap)
        entries = _manifest_entries(pcap)
        assert counts == (7, sum(e["packets"] for e in entries))
        assert [e["flow_index"] for e in entries] == list(range(7))


class TestWritePcap:
    def test_frame_is_its_header_bytes_then_zeros(self, tmp_path):
        pcap = tmp_path / "out.pcap"
        write_pcap(pcap, [(1_500_000, b"\x01\x02", 3), (2_000_001, b"", 0)])
        assert pcap.read_bytes() == write_pcap_bytes([(1_500_000, b"\x01\x02\x00\x00\x00"),
                                                      (2_000_001, b"")])

    def test_frame_longer_than_the_snaplen_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="65536-byte frame"):
            write_pcap(tmp_path / "out.pcap", [(0, bytes(14), 65522)])
        assert list(tmp_path.iterdir()) == []


class TestWriteFailure:
    @pytest.mark.parametrize("blocked", ["pcap", "manifest"])
    def test_failed_write_raises_and_leaves_no_temp_file(self, tmp_path, blocked):
        pcap, manifest = tmp_path / "out.pcap", tmp_path / "out.manifest.jsonl"
        # a directory in the way makes the final rename fail
        (pcap if blocked == "pcap" else manifest).mkdir()
        with pytest.raises(IoFailure):
            generate(SynthProfile(TrafficKind.CONF, 1, seed=1), pcap, manifest)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["out.pcap"] + (["out.manifest.jsonl"] if blocked == "manifest" else [])
        )


class TestSynthMemory:
    def test_peak_follows_open_flows_not_capture_size(self, tmp_path):
        # conf flows last about 1-2 s and start 50 ms apart, so some 30 are
        # open at once whatever the flow count; 1,000 flows write a 130 MB
        # capture, which a list of all its frames would hold in memory
        peaks = [run_for_peak_rss(["synth", "--kind", "conf", "-n", str(n), "--seed", "3",
                                   "-o", str(tmp_path / f"conf-{n}.pcap")])
                 for n in (250, 1000)]
        assert peaks[1] - peaks[0] < 10 << 10, f"peak RSS {peaks} kB"
