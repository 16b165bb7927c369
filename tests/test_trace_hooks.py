"""The benchmark's traced run wraps package functions by module attribute.

perfbench/tracing.py replaces attributes such as `packets.read_packets_sorted`
or `tree.predict_proba` at run time. These tests keep every name it patches in
place and check that the CLI still reaches each one through its module, so a
refactor cannot silently blind the per-layer numbers.
"""
import importlib.util
from pathlib import Path

import pytest

from camsieve import cli, dataset, features, flows, packets, protocols, tree

from conftest import swap_records

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (dataset, features, flows, packets, protocols, tree)


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    saved = [(module, dict(vars(module))) for module in MODULES]
    t = tracing.Tracer()
    try:
        tracing.install(t)  # reading a missing hook raises AttributeError here
        t.patched = {
            (module.__name__.rsplit(".", 1)[-1], name)
            for module, before in saved
            for name, value in vars(module).items()
            if before.get(name) is not value
        }
        yield t
    finally:
        for module, before in saved:
            for name, value in before.items():
                setattr(module, name, value)


def test_every_patched_hook_exists_and_is_reached(tracer, tmp_path):
    assert tracer.patched == {
        ("packets", "open_capture"), ("packets", "decode_packet"),
        ("packets", "read_packets_sorted"), ("flows", "assemble_flows"),
        ("features", "compute_features"), ("dataset", "write_csv"),
        ("dataset", "read_csv"), ("dataset", "clean"), ("tree", "train"),
        ("tree", "best_split"), ("tree", "cross_validate"), ("tree", "prune_features"),
        ("tree", "predict_proba"), ("protocols", "build_report"),
        ("protocols", "classify_udp_payload"),
    }

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0, argv

    for kind, label in (("conf", "Conf"), ("camera", "IoTCam")):
        run("synth", "--kind", kind, "-n", 8, "--seed", 2, "-o", tmp_path / f"{kind}.pcap")
        run("extract", tmp_path / f"{kind}.pcap", "--label", label, "-o", tmp_path / f"{kind}.csv")
    conf = (tmp_path / "conf.csv").read_text().splitlines()
    camera = (tmp_path / "camera.csv").read_text().splitlines()
    both = tmp_path / "both.csv"
    both.write_text("\n".join(conf + camera[2:]) + "\n")
    run("inspect", tmp_path / "conf.pcap", "--json", "-o", tmp_path / "inspect.json")
    # a sorted capture is assembled as it is read; one whose timestamp falls
    # is read again through read_packets_sorted
    disordered = tmp_path / "disordered.pcap"
    disordered.write_bytes(swap_records((tmp_path / "conf.pcap").read_bytes(), -1))
    run("extract", disordered, "--label", "Conf", "-o", tmp_path / "disordered.csv")
    run("train", both, "--prune-threshold", "1e-4", "-o", tmp_path / "model.json")
    run("predict", tmp_path / "model.json", both, "-o", tmp_path / "scored.csv")
    run("report", both, "-k", 2, "-o", tmp_path / "report.txt")

    reached = {span[1] for span in tracer.spans} | set(tracer.totals)
    assert reached == {
        "packets.read_frames", "packets.decode", "packets.read_sorted", "flows.assemble",
        "features.compute", "dataset.write_csv", "dataset.read_csv", "dataset.clean",
        "tree.train", "tree.best_split", "tree.cross_validate", "tree.prune_features",
        "tree.predict_proba", "protocols.build_report", "protocols.classify",
    }
    assert tracer.counts["packets.frames"] == tracer.counts["packets.decoded"]
