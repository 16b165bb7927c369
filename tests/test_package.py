import camsieve

# the public names; a name leaves or joins the package API only with this list
EXPORTS = [
    "DecisionTreeModel", "FEATURE_NAMES", "FlowState", "LabelTaxonomy", "LabeledRecord",
    "PacketRecord", "ProtocolHint", "SynthProfile", "TrafficKind", "assemble_flows",
    "best_class", "canonical_key", "classify_udp_payload", "clean", "compute_features",
    "cross_validate", "decode_packet", "default_taxonomy", "feature_importances", "generate",
    "load_model", "open_capture", "parse_rtp_header", "predict_proba", "prune_features",
    "read_csv", "read_packets", "save_model", "train", "write_csv",
]


def test_exports_resolve_and_star_import_binds_them():
    assert sorted(camsieve.__all__) == sorted(EXPORTS)
    assert [name for name in camsieve.__all__ if not hasattr(camsieve, name)] == []
    namespace = {}
    exec("from camsieve import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(camsieve.__all__)
    assert all(namespace[name] is getattr(camsieve, name) for name in namespace)
