"""Acceptance gate: every criterion prints one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
pass; a plain `pytest` run shows them only on failure.
"""
import math
import random
import struct
import time

import numpy as np
import pytest

from camsieve.cli import main
from camsieve.dataset import LabeledRecord, class_order, clean, read_csv, write_csv
from camsieve.features import FEATURE_NAMES, compute_features
from camsieve.flows import assemble_flows, read_flows
from camsieve.packets import read_packets, read_packets_sorted
from camsieve.protocols import (
    AppContext,
    MediaType,
    classify_udp_payload,
    media_hint,
    parse_rtp_header,
)
from camsieve.synth import KIND_LABELS, SynthProfile, TrafficKind, generate
from camsieve.tree import (
    best_class,
    cross_validate,
    gini,
    predict_proba,
    prune_features,
    train,
)

from conftest import random_flow
from oracles import (
    MuxClass,
    demux_rtp_rtcp,
    exhaustive_best_split,
    gini_exact,
    reference_features,
    split_node,
)

SEED = 42
FLOWS_PER_CLASS = 300


def ok(n, message):
    print(f"criterion {n}: PASS - {message}")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Generate + extract + clean the synthetic three-class corpus, timed."""
    base = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    records = []
    pcaps = {}
    for kind in TrafficKind:
        pcap = base / f"{kind.value}.pcap"
        generate(SynthProfile(kind, FLOWS_PER_CLASS, seed=SEED), pcap)
        pcaps[kind] = pcap
        records.extend(compute_features(f, label=KIND_LABELS[kind]) for f in read_flows(pcap))
    X, _ = clean([rec.values for rec in records])
    return {
        "dir": base,
        "pcaps": pcaps,
        "X": X,
        "y": [rec.label for rec in records],
        "elapsed_build": time.perf_counter() - t0,
    }


def test_criterion_1_feature_oracle_equivalence():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        flow = random_flow(rng)
        got = dict(zip(FEATURE_NAMES, compute_features(flow).values))
        want = reference_features(flow)
        for name in FEATURE_NAMES:
            a, b = got[name], want[name]
            err = abs(a - b) / max(abs(a), abs(b), 1e-12) if (a or b) else 0.0
            assert err <= 1e-9, f"{name}: {a} vs {b}"
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(1, f"1000 random flows, 77 features within rel 1e-9 "
          f"(worst {worst:.2e}) in {elapsed:.1f}s")


def test_criterion_2_flow_conservation(corpus):
    for kind, pcap in corpus["pcaps"].items():
        decoded = sum(1 for _ in read_packets(pcap))
        flows = assemble_flows(read_packets_sorted(pcap))
        assert sum(f.packet_count for f in flows) == decoded
        assert all(f.last_ts - f.start_ts <= 600_000_000 for f in flows)
    ok(2, "packet counts conserved and no flow exceeds the 600 s window "
          f"on {len(corpus['pcaps'])} generated pcaps")


def test_criterion_3_rtp_bit_parser_suite():
    def rtp(version=2, marker=0, pt=96, bit4=0):
        b0 = (version << 6) | (bit4 << 4)
        b1 = (marker << 7) | pt
        return struct.pack("!BBHII", b0, b1, 1, 2, 3)

    checks = 0
    # version gate: only 2 parses or demuxes
    for version in (0, 1, 2, 3):
        header = parse_rtp_header(rtp(version=version))
        assert (header is not None) == (version == 2)
        mux = demux_rtp_rtcp(rtp(version=version, bit4=1))
        assert (mux is MuxClass.RTP) == (version == 2)
        checks += 2
    # marker bit round-trips
    for marker in (0, 1):
        assert parse_rtp_header(rtp(marker=marker)).marker is bool(marker)
        checks += 1
    # payload types against the per-application codec tables
    expectations = {
        (9, AppContext.SKYPE): MediaType.AUDIO,
        (96, AppContext.MEET): MediaType.VIDEO,
        (97, AppContext.MEET): MediaType.VIDEO,
        (98, AppContext.MEET): MediaType.VIDEO,
        (99, AppContext.MEET): MediaType.VIDEO,
        (100, AppContext.MEET): MediaType.VIDEO,
        (104, AppContext.TEAMS): MediaType.AUDIO,
        (111, AppContext.MEET): MediaType.AUDIO,
        (118, AppContext.TEAMS): MediaType.AUDIO,
        (122, AppContext.TEAMS): MediaType.VIDEO,
        (122, AppContext.SKYPE): MediaType.VIDEO,
        (123, AppContext.TEAMS): MediaType.VIDEO,
        (123, AppContext.SKYPE): MediaType.VIDEO,
    }
    for (pt, app), media in expectations.items():
        header = parse_rtp_header(rtp(pt=pt))
        assert header.payload_type == pt
        assert media_hint(header, app)[0] is media
        checks += 2
    # RTCP types on a multiplexed port
    for rtcp_type in range(200, 205):
        assert demux_rtp_rtcp(bytes([0x80, rtcp_type, 0, 4])) is MuxClass.RTCP
        checks += 1
    assert demux_rtp_rtcp(bytes([0x80, 150, 0, 4])) is MuxClass.NEITHER
    # QUIC long/short by the first payload bit on port 443
    assert classify_udp_payload(b"\xc3rest", 50000, 443).kind.value == "QUIC_LONG"
    assert classify_udp_payload(b"\x43rest", 50000, 443).kind.value == "QUIC_SHORT"
    checks += 3
    ok(3, f"{checks} fixed protocol vectors all classified correctly")


def test_criterion_4_decision_tree_oracle():
    rng = random.Random(7001)
    matched = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        f = rng.randint(1, 3)
        classes = rng.randint(2, 3)
        rows = [tuple(float(rng.randint(0, 3)) for _ in range(f)) for _ in range(n)]
        labels = [rng.randrange(classes) for _ in range(n)]
        counts = [labels.count(c) for c in range(classes)]
        assert gini(counts) == pytest.approx(float(gini_exact(counts)), abs=1e-12)

        got = split_node(rows, labels, classes, range(f))
        want = exhaustive_best_split(rows, labels, classes)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got[0], got[1]) == (want[0], want[1])
            assert got[2] == pytest.approx(float(want[2]), abs=1e-12)
            matched += 1
    ok(4, f"200 random datasets: root splits equal the exhaustive optimum "
          f"({matched} with a split), Gini exact to 1e-12")


def test_criterion_5_end_to_end_synthetic_analog(corpus):
    t0 = time.perf_counter()
    X, y = corpus["X"], corpus["y"]

    full = cross_validate(X, y, FEATURE_NAMES, k=10, max_depth=11, seed=SEED)
    assert full.class_names == tuple(class_order(y))
    assert full.mean >= 0.95
    assert full.std <= 0.05

    selected, _ = prune_features(X, y, FEATURE_NAMES, threshold=1e-4, max_depth=11, seed=SEED)
    removed = len(FEATURE_NAMES) - len(selected)
    assert removed >= 10
    pruned = cross_validate(X, y, FEATURE_NAMES, k=10, max_depth=11, seed=SEED,
                            candidate_features=selected)
    assert abs(full.mean - pruned.mean) <= 0.02

    elapsed = corpus["elapsed_build"] + (time.perf_counter() - t0)
    assert elapsed < 120.0
    ok(5, f"3x{FLOWS_PER_CLASS} flows: CV mean {full.mean:.4f} (std {full.std:.4f}), "
          f"pruning removed {removed} features, pruned mean {pruned.mean:.4f}, "
          f"total {elapsed:.1f}s")


def test_criterion_6_cleaning_contract(tmp_path):
    rng = random.Random(3)
    rows = []
    for i in range(40):
        values = [rng.uniform(0, 100) for _ in FEATURE_NAMES]
        if i % 4 == 0:
            values[5] = float("inf")
        if i % 4 == 1:
            values[6] = float("-inf")
        if i % 4 == 2:
            values[7] = float("nan")
        rows.append(LabeledRecord(
            flow_id=f"f{i}", src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1, dst_port=2, protocol=17,
            values=tuple(values), label="IoTCam" if i % 2 else "Conf",
        ))
    path = tmp_path / "dirty.csv"
    write_csv(rows, path)

    values, y = read_csv(path)
    X, replaced = clean(values)
    assert replaced == 30
    assert X.shape == (len(rows), len(FEATURE_NAMES))
    assert np.isfinite(X).all()
    for row, orig in zip(X.tolist(), rows):
        for v_new, v_old in zip(row, orig.values):
            assert v_new == (0.0 if not math.isfinite(v_old) else v_old)
    assert y == [rec.label for rec in rows]

    model = train(X, y, FEATURE_NAMES, max_depth=5, seed=SEED)
    assert model.nodes
    ok(6, f"CSV with {replaced} Inf/-Inf/NaN cells loaded, cleaned to zeros, trained")


def test_criterion_7_pipeline_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        csvs = []
        for kind in ("camera", "conf", "share"):
            assert main(["synth", "--kind", kind, "-n", "40", "--seed", str(SEED),
                         "-o", str(d / f"{kind}.pcap")]) == 0
            label = {"camera": "IoTCam", "conf": "Conf", "share": "Share"}[kind]
            assert main(["extract", str(d / f"{kind}.pcap"), "--label", label,
                         "-o", str(d / f"{kind}.csv")]) == 0
            csvs.append((d / f"{kind}.csv").read_text())
        merged = csvs[0].splitlines() + [
            line for text in csvs[1:] for line in text.splitlines()[2:]
        ]
        (d / "all.csv").write_text("\n".join(merged) + "\n")
        assert main(["train", str(d / "all.csv"), "-o", str(d / "model.json"),
                     "--seed", str(SEED)]) == 0
        assert main(["cv", str(d / "all.csv"), "--seed", str(SEED),
                     "-o", str(d / "cv.txt")]) == 0
        outputs.append({
            "csv": (d / "all.csv").read_bytes(),
            "model": (d / "model.json").read_bytes(),
            "cv": (d / "cv.txt").read_bytes(),
        })
    assert outputs[0]["csv"] == outputs[1]["csv"]
    assert outputs[0]["model"] == outputs[1]["model"]
    assert outputs[0]["cv"] == outputs[1]["cv"]
    ok(7, "two seeded pipeline runs: CSV, model file and CV report byte-identical")


def test_criterion_8_probability_contract(corpus):
    from camsieve.dataset import stratified_split

    train_idx, test_idx = stratified_split(corpus["y"], SEED)
    X_tr, y_tr = corpus["X"][train_idx], [corpus["y"][i] for i in train_idx]
    X_te = corpus["X"][test_idx]
    model = train(X_tr, y_tr, FEATURE_NAMES, max_depth=11, seed=SEED)
    assert model.class_names == tuple(class_order(corpus["y"]))
    confident = 0
    for row in X_te:
        proba = predict_proba(model, row)
        assert abs(sum(proba) - 1.0) <= 1e-12
        best = max(range(len(proba)), key=lambda i: (proba[i], -i))
        assert best == best_class(proba)
        if max(proba) >= 0.9:
            confident += 1
    fraction = confident / len(X_te)
    # the fraction is reported, not asserted
    ok(8, f"probabilities sum to 1 and match argmax on {len(X_te)} held-out flows; "
          f"fraction with max probability >= 0.9: {fraction:.4f} ({confident}/{len(X_te)})")
