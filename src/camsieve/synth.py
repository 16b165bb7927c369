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
import heapq
import json
import math
import random
import socket
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .dataset import CLASS_CONF, CLASS_IOT_CAM, CLASS_SHARE, atomic_write_text
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


def _conf_app(index: int) -> str:
    """The app that conf flow `index` imitates, for its payload types and server port."""
    return ("SKYPE", "TEAMS", "MEET")[index % 3]


class TrafficKind(enum.Enum):
    CAMERA = "camera"
    CONF = "conf"
    SHARE = "share"


KIND_LABELS = {
    TrafficKind.CAMERA: CLASS_IOT_CAM,
    TrafficKind.CONF: CLASS_CONF,
    TrafficKind.SHARE: CLASS_SHARE,
}


@dataclass(frozen=True)
class SynthProfile:
    kind: TrafficKind
    n_flows: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.n_flows <= MAX_FLOWS:
            raise ValueError(f"n_flows must be in 1..{MAX_FLOWS}, got {self.n_flows}")


class _Event(NamedTuple):
    ts: int
    forward: bool
    size: int  # payload bytes: the head, then zeros
    flags: int = 0
    head: bytes = b""


# Builds an event from the tuple of its fields without the Python-level
# `__new__` that NamedTuple gives each class: _new(_Event, fields).
_new = tuple.__new__

# conf's 12-byte RTP header: first byte, marker and payload type, sequence
# number, RTP timestamp, SSRC
_RTP_HEAD = struct.Struct("!BBHII")


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
        events.append(_new(_Event, (ts, True, size, 0, b"")))
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
        events.append(_new(_Event, (anchor + rng.randint(200, 2000), False, size, 0, b"")))
    events.sort(key=lambda e: (e.ts, not e.forward))
    manifest["params"] = {
        "fwd_packets": n_fwd,
        "bwd_packets": n_bwd,
        "idle_gaps": n_idle,
        "payload_mean": 600,
    }
    return events


def _conf_events(rng: random.Random, manifest: dict) -> list[_Event]:
    app = _conf_app(manifest["flow_index"])
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
            # version 2 with the extension bit set, and a second byte (marker,
            # payload type) that is no RTCP type: classify_udp_payload reads
            # the full header and calls it RTP
            rtp = _RTP_HEAD.pack(0x90, (0x80 if marker else 0) | pt,
                                 (seq0 + i) & 0xFFFF, rtp_ts & 0xFFFFFFFF, ssrc)
            events.append(_new(_Event, (ts, forward, size, 0, rtp)))
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
    psh_ack, ack = TcpFlags.PSH | TcpFlags.ACK, TcpFlags.ACK
    events = [
        _Event(0, True, 0, TcpFlags.SYN),
        _Event(rtt, False, 0, TcpFlags.SYN | ack),
        _Event(2 * rtt, True, 0, ack),
        _Event(2 * rtt + 1000, True, 250, psh_ack),
    ]
    ts = 3 * rtt
    for i in range(n_data):
        size = max(1300, min(1460, round(rng.gauss(1400, 30))))
        events.append(_new(_Event, (ts, False, size, psh_ack, b"")))
        if (i + 1) % 16 == 0:
            events.append(_new(_Event, (ts + rtt // 2, True, 0, ack, b"")))
        ts += _gap(rng, 12_000, 700_000)
    events.append(_Event(ts, False, 0, TcpFlags.FIN | ack))
    events.append(_Event(ts + rtt, True, 0, TcpFlags.FIN | ack))
    events.append(_Event(ts + 2 * rtt, False, 0, ack))
    events.sort(key=lambda e: e.ts)
    manifest["params"] = {"data_packets": n_data, "rtt_us": rtt, "payload_mean": 1400}
    return events


_EVENT_BUILDERS = {
    TrafficKind.CAMERA: _camera_events,
    TrafficKind.CONF: _conf_events,
    TrafficKind.SHARE: _share_events,
}


# plausible camera cloud-relay ports, none with a payload-heuristic meaning
_CAMERA_SERVER_PORTS = (32100, 6000, 26656, 10317)


def _server_port(kind: TrafficKind, index: int) -> int:
    if kind is TrafficKind.SHARE:
        return 443
    if kind is TrafficKind.CAMERA:
        return _CAMERA_SERVER_PORTS[index % len(_CAMERA_SERVER_PORTS)]
    if _conf_app(index) == "MEET":
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


# Ethernet and IPv4's first two bytes; IPv4's total length, id, fragment-TTL-
# protocol bytes, checksum and addresses; the ports; the rest of the UDP header
# or of the TCP header (sequence, ack, offset, flags, window). Transport
# checksums are left zero; the decoder does not verify them.
_UDP_HEAD = struct.Struct("!16sHH4sH12sH2x")
_TCP_HEAD = struct.Struct("!16sHH4sH12sIIBBH4x")
_RECORD = struct.Struct("<IIII")

_SNAPLEN = 65535
# a frame's zero bytes are a slice of this one buffer; records gather in a
# block that is written out each time it passes _WRITE_BLOCK bytes
_ZEROS = memoryview(bytes(_SNAPLEN))
_WRITE_BLOCK = 1 << 16


def _flow_frames(plan: _FlowPlan, index: int, events: list[_Event]) -> Iterator[tuple]:
    """Flow index's frames in event order, each as (timestamp, merge key,
    header bytes, count of zero payload bytes after them).

    The header bytes are the link, IPv4 and transport headers, then conf's RTP
    head. Each direction's constant header bytes are made once, and so is the
    sum of the constant IPv4 header words: a frame adds its total length and IP
    id to that sum and folds it. The sum's order does not change its value.
    """
    tcp = plan.tcp
    proto = IPPROTO_TCP if tcp else IPPROTO_UDP
    transport_header = TCP_HEADER if tcp else UDP_HEADER
    client_ip, server_ip = socket.inet_aton(plan.client_ip), socket.inet_aton(plan.server_ip)
    ttl_proto = bytes((0, 0, 64, proto))  # no fragmenting, TTL 64
    constant_sum = 0x4500 + (64 << 8 | proto) + sum(struct.unpack("!4H", client_ip + server_ip))
    # the Ethernet header, then IPv4's version, header length and zero TOS
    eth_ip = {True: plan.server_mac + plan.client_mac + b"\x08\x00\x45\x00",
              False: plan.client_mac + plan.server_mac + b"\x08\x00\x45\x00"}
    ends = {True: client_ip + server_ip + struct.pack("!HH", plan.client_port, plan.server_port),
            False: server_ip + client_ip + struct.pack("!HH", plan.server_port, plan.client_port)}
    seq = {True: 1000 + index, False: 500_000 + index}
    window = {True: plan.client_window, False: plan.server_window}
    start = BASE_TIMESTAMP_US + index * FLOW_STAGGER_US
    ip_id = (index * 131) & 0xFFFF
    for key, (ts, forward, size, flags, rtp) in enumerate(events, index * 1_000_000):
        total = IP_HEADER + transport_header + size
        checksum = constant_sum + total + ip_id
        checksum = (checksum & 0xFFFF) + (checksum >> 16)
        checksum = ~((checksum & 0xFFFF) + (checksum >> 16)) & 0xFFFF
        if tcp:
            head = _TCP_HEAD.pack(eth_ip[forward], total, ip_id, ttl_proto, checksum,
                                  ends[forward], seq[forward] & 0xFFFFFFFF,
                                  seq[not forward] & 0xFFFFFFFF, (TCP_HEADER // 4) << 4,
                                  flags, window[forward])
            seq[forward] += size + (1 if flags & (TcpFlags.SYN | TcpFlags.FIN) else 0)
        else:
            head = _UDP_HEAD.pack(eth_ip[forward], total, ip_id, ttl_proto, checksum,
                                  ends[forward], UDP_HEADER + size)
        yield start + ts, key, head + rtp, size - len(rtp)
        ip_id = (ip_id + 1) & 0xFFFF


def _merged(heap: list, before: float) -> Iterator[tuple[int, bytes, int]]:
    """The open flows' frames in (timestamp, merge key) order while the
    earliest is before the given time; each popped flow draws its next frame."""
    while heap and heap[0][0] < before:
        ts, _, head, zeros, frames = heap[0]
        yield ts, head, zeros
        following = next(frames, None)
        if following is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (*following, frames))


def write_pcap(path: str | Path, frames: Iterable[tuple[int, bytes, int]]) -> None:
    """Little-endian, microsecond pcap with Ethernet link type.

    Each frame is (timestamp in microseconds, header bytes, count of zero
    bytes after them), at most _SNAPLEN bytes in all (ValueError otherwise).
    Records are appended to one block, the zeros as a slice of one shared
    buffer, and the block is written out each time it passes _WRITE_BLOCK
    bytes.
    """

    def emit(fh):
        block = bytearray(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, _SNAPLEN, 1))
        for ts, head, zeros in frames:
            length = len(head) + zeros
            if length > _SNAPLEN:
                raise ValueError(f"a {length}-byte frame is longer than the snaplen {_SNAPLEN}")
            block += _RECORD.pack(ts // 1_000_000, ts % 1_000_000, length, length)
            block += head
            block += _ZEROS[:zeros]
            if len(block) >= _WRITE_BLOCK:
                fh.write(block)
                block.clear()
        fh.write(block)

    atomic_write_text(path, emit, binary=True)


def generate(
    profile: SynthProfile, out: str | Path, manifest_path: str | Path | None = None
) -> tuple[int, int]:
    """Write the pcap plus a JSON-lines manifest, by default at out plus
    ".manifest.jsonl"; returns (flows, packets), the counts written.

    Frames are written as they are built, in time order. A flow's events are
    drawn once every frame before its start is written, and its manifest line
    is written then, so memory follows the flows open at once, not the size
    of the capture. A failed pcap write leaves neither file; a failed
    manifest write leaves the pcap.
    """
    label = KIND_LABELS[profile.kind]
    builder = _EVENT_BUILDERS[profile.kind]
    if manifest_path is None:
        manifest_path = str(out) + ".manifest.jsonl"
    packets = 0

    def frames(manifest) -> Iterator[tuple[int, bytes, int]]:
        # one (timestamp, merge key, header bytes, zeros, later frames) per
        # open flow; flow starts rise with i and no event comes before its
        # flow's start
        nonlocal packets
        heap: list = []
        for i in range(profile.n_flows):
            start = BASE_TIMESTAMP_US + i * FLOW_STAGGER_US
            yield from _merged(heap, start)
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
            events = builder(_flow_rng(profile, i), entry)
            fwd = sum(e.forward for e in events)
            entry["packets"] = len(events)
            entry["fwd_packets"] = fwd
            entry["bwd_packets"] = len(events) - fwd
            entry["first_ts_us"] = start
            manifest.write(json.dumps(entry, sort_keys=True) + "\n")
            packets += len(events)
            flow = _flow_frames(plan, i, events)
            heapq.heappush(heap, (*next(flow), flow))
        yield from _merged(heap, math.inf)

    # the manifest's temp file is opened outside the pcap's, so its rename
    # comes after the pcap's
    atomic_write_text(manifest_path, lambda manifest: write_pcap(out, frames(manifest)))
    return profile.n_flows, packets
