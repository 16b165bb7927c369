"""Shared builders for tests: hand-rolled frames, random flows and model files."""
from __future__ import annotations

import hashlib
import json
import os
import random
import socket
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from camsieve import cli
from camsieve.features import FEATURE_NAMES, schema_hash
from camsieve.flows import FlowState, Termination
from camsieve.packets import IPPROTO_TCP, IPPROTO_UDP, PAYLOAD_HEAD, PacketRecord, TcpFlags
from camsieve.tree import DecisionTreeModel, TreeNode, _model_payload, best_class, predict_proba


def ipv4_frame(
    src_ip="10.0.0.1",
    dst_ip="10.0.0.2",
    proto=17,
    transport=b"",
    src_mac=b"\xaa" * 6,
    dst_mac=b"\xbb" * 6,
    vlan=None,
    frag_offset=0,
    ihl_words=5,
    total_length=None,
) -> bytes:
    """Ethernet+IPv4 frame assembled field by field from the RFC offsets."""
    if total_length is None:
        total_length = ihl_words * 4 + len(transport)
    ip = struct.pack(
        "!BBHHHBBH4s4s",
        (4 << 4) | ihl_words,
        0,
        total_length,
        0x1234,
        frag_offset & 0x1FFF,
        64,
        proto,
        0,
        bytes(int(o) for o in src_ip.split(".")),
        bytes(int(o) for o in dst_ip.split(".")),
    )
    ip += b"\x00" * (ihl_words * 4 - 20)
    if vlan is not None:
        tag = struct.pack("!HHH", 0x8100, vlan, 0x0800)
        return dst_mac + src_mac + tag + ip + transport
    return dst_mac + src_mac + struct.pack("!H", 0x0800) + ip + transport


def udp_segment(src_port=5000, dst_port=6000, payload=b"") -> bytes:
    return struct.pack("!HHHH", src_port, dst_port, 8 + len(payload), 0) + payload


def tcp_segment(
    src_port=5000, dst_port=6000, flags=TcpFlags.ACK, window=8192,
    payload=b"", data_offset_words=5, seq=1, ack=1,
) -> bytes:
    header = struct.pack(
        "!HHIIBBHHH",
        src_port, dst_port, seq, ack,
        data_offset_words << 4, flags, window, 0, 0,
    )
    header += b"\x00" * (data_offset_words * 4 - 20)
    return header + payload


def write_pcap_bytes(frames, magic=0xA1B2C3D4, order="<", subsec_scale=1) -> bytes:
    """Minimal pcap writer independent of the package's own."""
    out = [struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for ts_us, frame in frames:
        out.append(struct.pack(
            order + "IIII",
            ts_us // 1_000_000,
            (ts_us % 1_000_000) * subsec_scale,
            len(frame),
            len(frame),
        ))
        out.append(frame)
    return b"".join(out)


# On Linux a process's peak RSS starts at the resident size of the process it
# was forked from, so the command is started from this small launcher, not from
# the test process; the launcher prints the command's peak RSS in kB
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
command = "import sys; from camsieve.cli import main; sys.exit(main(sys.argv[1:]))"
child = subprocess.Popen([sys.executable, "-c", command, *sys.argv[1:]])
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
if child.returncode:
    sys.exit(f"command exited with {child.returncode}")
print(usage.ru_maxrss)
"""


def run_for_peak_rss(argv) -> int:
    """Peak RSS in kB of a child process that runs one CLI command."""
    src_dir = Path(cli.__file__).resolve().parents[1]
    launcher = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_LAUNCHER, *argv],
        env={**os.environ, "PYTHONPATH": str(src_dir)}, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return int(launcher.stdout.split()[-1])


def swap_records(data: bytes, i: int) -> bytes:
    """A little-endian pcap's bytes with records i - 1 and i swapped: the
    timestamp falls at record i unless the two are equal."""
    records, pos = [], 24
    while pos < len(data):
        incl_len = struct.unpack_from("<I", data, pos + 8)[0]
        records.append(data[pos : pos + 16 + incl_len])
        pos += 16 + incl_len
    records[i - 1], records[i] = records[i], records[i - 1]
    return data[:24] + b"".join(records)


def ipv6_capture(data: bytes, prefix: bytes) -> bytes:
    """A little-endian pcap of Ethernet/IPv4 frames without IP options, as
    synth writes them, with each IPv4 header replaced by an IPv6 one: each
    address is the 12-byte `prefix` followed by the IPv4 address, the payload
    length is the IPv4 total length less 20, the next header is the IPv4
    protocol, and each record's captured and wire lengths grow by 20."""
    out, pos = [data[:24]], 24
    while pos < len(data):
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack_from("<IIII", data, pos)
        frame = data[pos + 16 : pos + 16 + incl_len]
        total_length, protocol = struct.unpack_from("!H5xB", frame, 16)
        ip6 = struct.pack("!IHBB", 6 << 28, total_length - 20, protocol, 64)
        ip6 += prefix + frame[26:30] + prefix + frame[30:34]
        out.append(struct.pack("<IIII", ts_sec, ts_frac, incl_len + 20, orig_len + 20))
        out.append(frame[:12] + struct.pack("!H", 0x86DD) + ip6 + frame[34:])
        pos += 16 + incl_len
    return b"".join(out)


def flow_packet(ts, payload_len, total_length, header_len=8, flags=0, window=0):
    """PacketRecord with placeholder endpoints, for make_flow to fill in."""
    return PacketRecord(
        timestamp=ts, src_ip=b"", dst_ip=b"", src_port=0, dst_port=0, protocol=IPPROTO_UDP,
        total_length=total_length, transport_header_length=header_len,
        payload_length=payload_len, payload_head=bytes(min(payload_len, PAYLOAD_HEAD)),
        tcp_flags=flags, tcp_window=window,
    )


class RecordedFlow(FlowState):
    """A FlowState that also keeps every PacketRecord given to `add`, in order.

    The oracles in oracles.py read `records`, never the package's columns, so
    they check the columns against the packets that went into them.
    """

    __slots__ = ("records",)

    def __init__(self, *args):
        super().__init__(*args)
        self.records: list[PacketRecord] = []

    def add(self, pkt: PacketRecord) -> bool:
        self.records.append(pkt)
        return super().add(pkt)


def kept_without_columns(flow) -> tuple:
    """What every flow type keeps, with columns or without: its identity,
    timing, termination, FIN state and packet count."""
    return (flow.initiator, flow.responder, flow.protocol, flow.start_ts, flow.last_ts,
            flow.termination, flow.fin_fwd, flow.fin_bwd, flow.packet_count)


def make_flow(fwd_packets, bwd_packets, protocol=IPPROTO_UDP,
              initiator=(socket.inet_aton("10.0.0.1"), 5000),
              responder=(socket.inet_aton("10.0.0.2"), 6000)) -> RecordedFlow:
    """A flow built by hand through `FlowState.add`, bypassing the assembler.

    Each packet gets the flow's protocol and the endpoints of its direction;
    the flow is given them in timestamp order, forward first on equal timestamps.
    """

    def sent(pkt, src, dst):
        return pkt._replace(src_ip=src[0], src_port=src[1],
                            dst_ip=dst[0], dst_port=dst[1], protocol=protocol)

    packets = [sent(p, initiator, responder) for p in fwd_packets]
    packets += [sent(p, responder, initiator) for p in bwd_packets]
    packets.sort(key=lambda p: p.timestamp)
    flow = RecordedFlow(initiator, responder, protocol, packets[0].timestamp)
    for pkt in packets:
        flow.add(pkt)
    flow.termination = Termination.END_OF_CAPTURE
    return flow


def random_flow(rng: random.Random) -> RecordedFlow:
    """Random mixed TCP/UDP flow of up to 20 packets; first packet is forward."""
    tcp = rng.random() < 0.5
    n = rng.randint(1, 20)
    times = sorted(rng.randint(0, 30_000_000) for _ in range(n))
    times[0] = 0  # pin the start so the first packet is forward

    fwd, bwd = [], []
    for i, ts in enumerate(times):
        forward = True if i == 0 else rng.random() < 0.6
        payload_len = rng.choice([0, 0, rng.randint(1, 1500)])
        if tcp:
            header_len = rng.choice([20, 24, 32, 40])
            flags = rng.randint(0, 255)
            window = rng.randint(0, 65535)
        else:
            header_len, flags, window = 8, 0, 0
        pkt = flow_packet(ts, payload_len, payload_len + header_len + 34, header_len, flags, window)
        (fwd if forward else bwd).append(pkt)
    return make_flow(fwd, bwd, IPPROTO_TCP if tcp else IPPROTO_UDP)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def small_model_payload() -> dict:
    """Payload of a hand-built 2-class tree over the 77 schema features:
    node 0 splits to leaf 1 and node 2, which splits to leaves 3 and 4."""
    nodes = (
        TreeNode(0, 0.5, 1, 2, (3, 3)),
        TreeNode(-1, 0.0, -1, -1, (3, 0)),
        TreeNode(5, 10.0, 3, 4, (0, 3)),
        TreeNode(-1, 0.0, -1, -1, (0, 2)),
        TreeNode(-1, 0.0, -1, -1, (0, 1)),
    )
    model = DecisionTreeModel(nodes, 2, FEATURE_NAMES, ("Conf", "IoTCam"))
    return _model_payload(model)


def predicted_class(model: DecisionTreeModel, row) -> str:
    """The class that cv, predict and report give a row: the best_class of
    its predict_proba."""
    return model.class_names[best_class(predict_proba(model, row))]


def write_model_payload(path, payload) -> None:
    """A model file holding payload under a valid checksum."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text(json.dumps({"checksum": checksum, "payload": payload}))


def _set_node(index, field, value):
    def mutate(payload):
        payload["nodes"][index][field] = value
    return mutate


# (id, mutation of small_model_payload()): each leaves a model that predict
# cannot use, mostly a node table it cannot walk, under a valid checksum
MALFORMED_PAYLOADS = [
    ("no-max-depth", lambda payload: payload.pop("max_depth")),
    ("class-names-not-strings", lambda payload: payload.update(class_names=[0, 1])),
    ("feature-names-not-a-list", lambda payload: payload.update(feature_names=7)),
    ("no-nodes", lambda payload: payload.pop("nodes")),
    ("empty-table", lambda payload: payload.update(nodes=[])),
    ("table-not-a-list", lambda payload: payload.update(nodes={"0": []})),
    ("node-not-a-list", lambda payload: payload["nodes"].__setitem__(1, 7)),
    ("short-node", lambda payload: payload["nodes"][2].pop()),
    ("long-node", lambda payload: payload["nodes"][2].append(0)),
    ("child-out-of-range", _set_node(2, 3, 5)),
    ("child-points-to-itself", _set_node(2, 2, 2)),
    ("child-points-back", _set_node(2, 3, 0)),
    ("non-int-child", _set_node(0, 2, 1.0)),
    ("leaf-with-children", _set_node(1, 2, 3)),
    ("feature-out-of-range", _set_node(2, 0, 77)),
    ("feature-below-minus-one", _set_node(1, 0, -2)),
    ("non-numeric-threshold", _set_node(0, 1, "0.5")),
    # json writes and reads NaN and Infinity; a NaN root would send every row right
    ("nan-threshold", _set_node(0, 1, float("nan"))),
    ("infinite-threshold", _set_node(2, 1, float("inf"))),
    ("huge-int-threshold", _set_node(0, 1, 10**400)),
    # bool is an int subclass: true must not pass as feature 1, child 1 or a count
    ("bool-feature", _set_node(0, 0, True)),
    ("bool-child", _set_node(0, 2, True)),
    ("bool-threshold", _set_node(0, 1, False)),
    ("bool-count", _set_node(3, 4, [False, True])),
    ("counts-too-short", _set_node(3, 4, [2])),
    ("negative-count", _set_node(3, 4, [-1, 2])),
    ("non-int-count", _set_node(3, 4, [0, 1.5])),
    ("empty-leaf", _set_node(4, 4, [0, 0])),
    # fields beside the node table must be what save_model writes: a prior
    # tree is checked against max_depth and training_meta
    ("max-depth-not-an-int", lambda payload: payload.update(max_depth="x")),
    ("max-depth-float", lambda payload: payload.update(max_depth=2.0)),
    # the table is cut to one leaf, so that only the bool check rejects it
    ("max-depth-bool", lambda payload: payload.update(max_depth=True,
                                                      nodes=[[-1, 0.0, -1, -1, [3, 3]]])),
    ("max-depth-below-table-depth", lambda payload: payload.update(max_depth=1)),
    ("repeated-class-name", lambda payload: payload.update(class_names=["Conf", "Conf"])),
    ("repeated-feature-name",
     lambda payload: payload["feature_names"].__setitem__(1, FEATURE_NAMES[0])),
    ("empty-feature-name", lambda payload: payload["feature_names"].__setitem__(3, "")),
    ("training-meta-not-an-object", lambda payload: payload.update(training_meta=True)),
    # a model loads only as save_model writes it: true is not version 1, and
    # the stored schema hash is the feature names' own
    ("version-bool", lambda payload: payload.update(version=True)),
    ("stale-schema-hash",
     lambda payload: payload.update(schema_hash=schema_hash(FEATURE_NAMES[::-1]))),
]
