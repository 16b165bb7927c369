"""camsieve: flow-based detection of IoT camera video traffic.

Pipeline: pcap decoding -> bidirectional flow assembly -> 77 flow
statistics -> decision-tree classification into IoTCam / Conf / Share /
Others, with media-protocol payload heuristics available for inspection
reports. No IP address or port number ever enters the feature vector.
"""

__version__ = "0.1.0"

from .dataset import LabeledRecord, LabelTaxonomy, clean, default_taxonomy, read_csv, write_csv
from .features import FEATURE_NAMES, compute_features
from .flows import FlowState, assemble_flows
from .packets import PacketRecord, decode_packet, open_capture, read_packets
from .protocols import ProtocolHint, classify_udp_payload, parse_rtp_header
from .synth import SynthProfile, TrafficKind, generate
from .tree import (
    DecisionTreeModel,
    best_class,
    cross_validate,
    feature_importances,
    load_model,
    predict_proba,
    prune_features,
    save_model,
    train,
)

__all__ = [
    "DecisionTreeModel",
    "FEATURE_NAMES",
    "FlowState",
    "LabelTaxonomy",
    "LabeledRecord",
    "PacketRecord",
    "ProtocolHint",
    "SynthProfile",
    "TrafficKind",
    "assemble_flows",
    "best_class",
    "classify_udp_payload",
    "clean",
    "compute_features",
    "cross_validate",
    "decode_packet",
    "default_taxonomy",
    "feature_importances",
    "generate",
    "load_model",
    "open_capture",
    "parse_rtp_header",
    "predict_proba",
    "prune_features",
    "read_csv",
    "read_packets",
    "save_model",
    "train",
    "write_csv",
]
