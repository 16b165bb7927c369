"""Deterministic pcap generator for three traffic archetypes.

The profiles mimic observed tendencies rather than any real capture:
cameras push long-lived, upload-heavy UDP with ~600-byte payloads and
occasional multi-second idle gaps; conferencing flows are symmetric UDP
streams carrying well-formed RTP; sharing flows are TCP/443 downloads
dominated by large downstream segments. Parameters are chosen so the
three classes stay cleanly separable on several flow features, which the
test suite asserts. Generation is a pure function of (kind, n_flows,
seed): same inputs, byte-identical pcap and manifest.
"""
from __future__ import annotations

import enum
import json
import random
import socket
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .dataset import atomic_write_text
from .packets import IPPROTO_TCP, IPPROTO_UDP, TcpFlags

BASE_TIMESTAMP_US = 1_700_000_000_000_000
FLOW_STAGGER_US = 50_000

IP_HEADER = 20
TCP_HEADER = 20
UDP_HEADER = 8

MEET_SERVER_PORT = 19305

# flow i talks from client port FIRST_CLIENT_PORT + i, so a profile holds at
# most as many flows as there are ports from there up to 65535
FIRST_CLIENT_PORT = 20000
MAX_FLOWS = 65536 - FIRST_CLIENT_PORT

_VIDEO_PAYLOAD_TYPES = {
    "SKYPE": (122, 123),
    "TEAMS": (122, 123),
    "MEET": (96, 97, 98, 99, 100),
}


class TrafficKind(enum.Enum):
    CAMERA = "camera"
    CONF = "conf"
    SHARE = "share"


KIND_LABELS = {
    TrafficKind.CAMERA: "IoTCam",
    TrafficKind.CONF: "Conf",
    TrafficKind.SHARE: "Share",
}


@dataclass(frozen=True)
class SynthProfile:
    kind: TrafficKind
    n_flows: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.n_flows <= MAX_FLOWS:
            raise ValueError(f"n_flows must be in 1..{MAX_FLOWS}, got {self.n_flows}")


@dataclass
class _Event:
    ts: int
    forward: bool
    payload: bytes
    flags: int = 0


def _ipv4_checksum(header: bytes) -> int:
    total = sum(struct.unpack("!%dH" % (len(header) // 2), header))
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _build_frame(
    forward: bool,
    flow: "_FlowPlan",
    payload: bytes,
    flags: int,
    seq_state: dict[str, int],
) -> bytes:
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
        # transport checksums are left zero; the decoder does not verify them
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


@dataclass
class _FlowPlan:
    tcp: bool
    client_ip: str
    server_ip: str
    client_port: int
    server_port: int
    client_mac: bytes
    server_mac: bytes
    client_window: int = 0
    server_window: int = 0


def _rtp_payload(
    pt: int, seq: int, rtp_ts: int, ssrc: int, marker: bool, size: int
) -> bytes:
    # version 2 with the extension bit set; the RTP/RTCP demux calls this RTP
    # at once, before it looks for an RTCP type or the full 12-byte header
    b0 = 0x90
    b1 = (0x80 if marker else 0) | pt
    header = struct.pack("!BBHII", b0, b1, seq & 0xFFFF, rtp_ts & 0xFFFFFFFF, ssrc)
    return header + b"\x00" * max(0, size - 12)


def _gap(rng: random.Random, mean_us: float, cap_us: float) -> int:
    return int(min(rng.expovariate(1.0 / mean_us), cap_us)) + 1


def _camera_events(rng: random.Random, manifest: dict) -> list[_Event]:
    n_fwd = rng.randint(45, 90)
    n_bwd = max(3, round(n_fwd * 0.12))
    n_idle = rng.randint(1, 3)
    idle_at = set(rng.sample(range(5, n_fwd - 5), n_idle))
    events: list[_Event] = []
    fwd_times: list[int] = []
    ts = 0
    for i in range(n_fwd):
        size = max(450, min(760, round(rng.gauss(600, 45))))
        events.append(_Event(ts, True, b"\x00" * size))
        fwd_times.append(ts)
        if i in idle_at:
            ts += int(rng.uniform(6_000_000, 20_000_000))
        else:
            ts += _gap(rng, 80_000, 1_500_000)
    # downstream control packets trail an upstream packet closely, so the
    # engineered idle gaps stay wider than the activity threshold
    for _ in range(n_bwd):
        size = max(50, min(150, round(rng.gauss(90, 18))))
        anchor = fwd_times[rng.randrange(n_fwd)]
        events.append(_Event(anchor + rng.randint(200, 2000), False, b"\x00" * size))
    events.sort(key=lambda e: (e.ts, not e.forward))
    manifest["params"] = {
        "fwd_packets": n_fwd,
        "bwd_packets": n_bwd,
        "idle_gaps": n_idle,
        "payload_mean": 600,
    }
    return events


def _conf_events(rng: random.Random, manifest: dict) -> list[_Event]:
    app = ("SKYPE", "TEAMS", "MEET")[manifest["flow_index"] % 3]
    pt = rng.choice(_VIDEO_PAYLOAD_TYPES[app])
    ssrc_fwd = rng.getrandbits(32)
    ssrc_bwd = rng.getrandbits(32)
    seq_fwd = rng.randrange(0, 65536)
    seq_bwd = rng.randrange(0, 65536)
    n_each = rng.randint(35, 70)

    events: list[_Event] = []
    for forward, ssrc, seq0, start in (
        (True, ssrc_fwd, seq_fwd, 0),
        (False, ssrc_bwd, seq_bwd, 10_000),
    ):
        ts = start
        rtp_ts = rng.getrandbits(20)
        for i in range(n_each):
            size = max(962, min(1362, round(rng.gauss(1162, 80))))
            marker = rng.random() < 0.08
            events.append(
                _Event(ts, forward, _rtp_payload(pt, seq0 + i, rtp_ts, ssrc, marker, size))
            )
            rtp_ts += 3000
            ts += _gap(rng, 30_000, 900_000)
    events.sort(key=lambda e: (e.ts, not e.forward))
    manifest["params"] = {"app": app, "packets_each_way": n_each, "payload_mean": 1162}
    manifest["rtp"] = {
        "payload_type": pt,
        "app": app,
        "ssrc_fwd": ssrc_fwd,
        "ssrc_bwd": ssrc_bwd,
    }
    return events


def _share_events(rng: random.Random, manifest: dict) -> list[_Event]:
    n_data = rng.randint(60, 120)
    rtt = int(rng.uniform(15_000, 40_000))
    events = [
        _Event(0, True, b"", TcpFlags.SYN),
        _Event(rtt, False, b"", TcpFlags.SYN | TcpFlags.ACK),
        _Event(2 * rtt, True, b"", TcpFlags.ACK),
        _Event(2 * rtt + 1000, True, b"\x00" * 250, TcpFlags.PSH | TcpFlags.ACK),
    ]
    ts = 3 * rtt
    for i in range(n_data):
        size = max(1300, min(1460, round(rng.gauss(1400, 30))))
        events.append(_Event(ts, False, b"\x00" * size, TcpFlags.PSH | TcpFlags.ACK))
        if (i + 1) % 16 == 0:
            events.append(_Event(ts + rtt // 2, True, b"", TcpFlags.ACK))
        ts += _gap(rng, 12_000, 700_000)
    events.append(_Event(ts, False, b"", TcpFlags.FIN | TcpFlags.ACK))
    events.append(_Event(ts + rtt, True, b"", TcpFlags.FIN | TcpFlags.ACK))
    events.append(_Event(ts + 2 * rtt, False, b"", TcpFlags.ACK))
    events.sort(key=lambda e: e.ts)
    manifest["params"] = {"data_packets": n_data, "rtt_us": rtt, "payload_mean": 1400}
    return events


# plausible camera cloud-relay ports, none with a payload-heuristic meaning
_CAMERA_SERVER_PORTS = (32100, 6000, 26656, 10317)


def _server_port(kind: TrafficKind, index: int) -> int:
    if kind is TrafficKind.SHARE:
        return 443
    if kind is TrafficKind.CAMERA:
        return _CAMERA_SERVER_PORTS[index % len(_CAMERA_SERVER_PORTS)]
    app = ("SKYPE", "TEAMS", "MEET")[index % 3]
    if app == "MEET":
        return MEET_SERVER_PORT
    return 30000 + (index * 97) % 20000


def _plan_flow(profile: SynthProfile, index: int) -> _FlowPlan:
    kind_idx = list(TrafficKind).index(profile.kind)
    client_ip = f"10.{kind_idx}.{1 + index // 200}.{1 + index % 200}"
    server_ip = f"198.51.100.{1 + index % 250}"
    mac_tail = struct.pack("!BH", kind_idx, index & 0xFFFF)
    plan = _FlowPlan(
        tcp=profile.kind is TrafficKind.SHARE,
        client_ip=client_ip,
        server_ip=server_ip,
        client_port=FIRST_CLIENT_PORT + index,
        server_port=_server_port(profile.kind, index),
        client_mac=b"\xaa\x00\x00" + mac_tail,
        server_mac=b"\xbb\x00\x00" + mac_tail,
    )
    if profile.kind is TrafficKind.SHARE:
        plan.client_window = 64240
        plan.server_window = 65535
    return plan


def _flow_rng(profile: SynthProfile, index: int) -> random.Random:
    kind_idx = list(TrafficKind).index(profile.kind)
    return random.Random(profile.seed * 1_000_003 + kind_idx * 7_919 + index)


def write_pcap(path: str | Path, frames: Iterable[tuple[int, bytes]]) -> None:
    """Little-endian, microsecond pcap with Ethernet link type."""

    def emit(fh):
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for ts, frame in frames:
            fh.write(struct.pack("<IIII", ts // 1_000_000, ts % 1_000_000, len(frame), len(frame)))
            fh.write(frame)

    atomic_write_text(path, emit, binary=True)


def generate(
    profile: SynthProfile, out: str | Path, manifest_path: str | Path | None = None
) -> list[dict]:
    """Write the pcap plus a JSON-lines manifest; returns the manifest entries."""
    label = KIND_LABELS[profile.kind]
    all_frames: list[tuple[int, int, bytes]] = []  # (ts, tiebreak, frame)
    manifest_entries: list[dict] = []

    builders = {
        TrafficKind.CAMERA: _camera_events,
        TrafficKind.CONF: _conf_events,
        TrafficKind.SHARE: _share_events,
    }

    for i in range(profile.n_flows):
        rng = _flow_rng(profile, i)
        plan = _plan_flow(profile, i)
        entry: dict = {
            "flow_index": i,
            "label": label,
            "kind": profile.kind.value,
            "src_ip": plan.client_ip,
            "src_port": plan.client_port,
            "dst_ip": plan.server_ip,
            "dst_port": plan.server_port,
            "protocol": IPPROTO_TCP if plan.tcp else IPPROTO_UDP,
            "rtp": None,
            "seed": profile.seed,
        }
        events = builders[profile.kind](rng, entry)
        start = BASE_TIMESTAMP_US + i * FLOW_STAGGER_US
        seq_state = {"fwd": 1000 + i, "bwd": 500_000 + i, "ip_id": (i * 131) & 0xFFFF}
        for order, ev in enumerate(events):
            frame = _build_frame(ev.forward, plan, ev.payload, ev.flags, seq_state)
            all_frames.append((start + ev.ts, i * 1_000_000 + order, frame))
        entry["packets"] = len(events)
        entry["fwd_packets"] = sum(1 for e in events if e.forward)
        entry["bwd_packets"] = sum(1 for e in events if not e.forward)
        entry["first_ts_us"] = start
        manifest_entries.append(entry)

    all_frames.sort(key=lambda item: (item[0], item[1]))
    write_pcap(out, ((ts, frame) for ts, _, frame in all_frames))

    if manifest_path is None:
        manifest_path = str(out) + ".manifest.jsonl"
    text = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in manifest_entries)
    atomic_write_text(manifest_path, lambda fh: fh.write(text))
    return manifest_entries
