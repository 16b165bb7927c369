"""Pinned sha256 digests of every CLI output on a small fixed synthetic corpus
(inspect's report on each capture under two application contexts), and of train (plain and importance-pruned), cv and report (at two importance
thresholds) on a seeded corpus that grows a depth-11 tree, and of the synth
captures at the benchmark's scale.

Refactors must keep these bytes. A change that alters an output on purpose
updates the digest here and says why in CHANGES.md.
"""
import hashlib
import json
import random

import numpy as np
import pytest

from camsieve import tree, workers
from camsieve.cli import main
from camsieve.dataset import write_csv
from camsieve.features import FEATURE_NAMES, LabeledRecord

SEED = 11
FLOWS_PER_KIND = 30
KINDS = (("camera", "Ezviz"), ("conf", "Teams"), ("share", "YouTube"))
INSPECT_APPS = ("teams", "generic")

# cells overwritten in the predict input: (data row, CSV column, value); columns
# 6 and 7 are the first two features, which the corpus's tree splits on
NON_FINITE_CELLS = ((0, 6, "nan"), (1, 7, "inf"), (2, 6, "-inf"), (2, 30, "nan"))

GOLDEN = {
    "camera.pcap": "5001b9857b5e5f1dcfa34009d0637c29e3bc9700a90cad16e7804a0b4049dd9c",
    "camera.pcap.manifest.jsonl": "8ef82a56dfdc24266918fa5fd3c6bf5242c1e657634dc66a4662fcd27d2842fe",
    "conf.pcap": "dc4b10f1c1f175fdd7f5ab4dc0e43afe88ab47eadbba0e80fba3d817cedf315b",
    "conf.pcap.manifest.jsonl": "98324172da899f0fc548c9284e1624157a302c626791713a82240074611d842e",
    "share.pcap": "21664c25d12404703dd53485cbb6ef4bcece941b43dba14c213a73d7ace03080",
    "share.pcap.manifest.jsonl": "451b7db379881893cb3dd9b88215adad6adea121df40526374fea8f8640b15e7",
    "camera.csv": "de2cd25878a18fe4987d00cb3c2580fc836251baec9bf1514c7bd78a4568db62",
    "conf.csv": "28f63ba53362af0fb63c9177fbaa6710ec151fbb79e99b7e7a87ec66b49877db",
    "share.csv": "caf9eff8d68d6475020b7f29803c86d8a2d480c45f52ab7bf39a7e6136f3bde8",
    "model.json": "3ed8f0c3d612589a861b14946b86576a03991f42b3a420776e4337a24df3696a",
    "cv.txt": "896365dcfe7a5c22057d404ab84b7523a81d20be9add9f53066dc1185a962392",
    "report.txt": "a8281768e0d4a354c40288590838e73b4596187556933db13f93b5a7cd945568",
    "inspect.json": "d5f7d857c48c39a80e2c6934878b6ce501feacd7d07fd491fea0adab3d20a7d6",
    "inspect-conf-generic.json": "703b65a54788405b78bf004ea5eda41b0163e4d4dc0e7736705504dd418ce3d8",
    "inspect-camera-teams.json": "40b19b12c46fddae7f87ea79ab31b2ce54d0ff15367ec4ed3ffffb0a1a21e707",
    "inspect-camera-generic.json": "16bf1f5773bc43f7642e4378eb2057e4c767d3e7aa6675bbb230da39cb9c1b0d",
    "inspect-share-teams.json": "8432302ec2945a47b7368fa18272acfa229608bd28517e14f677b0f54b5cb308",
    "inspect-share-generic.json": "61071946fe16473bf0d07b6c2749cd43461315fa03f8e34c990a9f0d7ad97a8d",
    "scored.csv": "fb9f0dcb2ed21f24a426a70de292a199ca5bdc5d76e6379df93dc936dc0a3368",
}


# The three captures at the benchmark's scale: about 455 camera flows are open
# at once, so the frames of many flows interleave in time order; conf carries
# an RTP head in every payload and share takes the TCP header path
BENCH_FLOWS = 500
BENCH_SEED = 3
BENCH_KINDS = ("camera", "conf", "share")
BENCH_GOLDEN = {
    "camera.pcap": "6fab4ea90ba869328a864b59c7f08229b61ad312a87455301427ccde1785d917",
    "camera.pcap.manifest.jsonl": "6ccc14dd0586fc403568abdaf08e8dbffbb7de221256bf7fdc14fde4a062baa6",
    "conf.pcap": "2f032f10688cb3f44a1fecd6dc3da4cabf46aa038cc0a85c51d0f9b29fbaf2fb",
    "conf.pcap.manifest.jsonl": "2d0f3911ac9d21b90077708e77d7eb5064ebebf4d67cdba8b2080bb60eff7f76",
    "share.pcap": "0350548a011a29d2980334b5d6a4b5474640aa80c9b206230ea7eba66ee923bc",
    "share.pcap.manifest.jsonl": "a5ac5105aff1e5e3b587d182c1a4cb6da8063a92b8149b92b3b26f6c9e2b5944",
    # inspect's report on the all-TCP share capture, whose flows classify no payload
    "inspect-share.json": "79b187ee2281cbf5a6f41e42c2843a96e6db45796f8a4d81174c2c99cad5b92d",
}


# A corpus that grows a deep tree: 1,000 rows of three overlapping classes.
# Python's random module makes it, through random() and randrange() only,
# whose streams are the same on every Python version; numpy's generators are
# not promised stable across numpy versions.
DEEP_SEED = 16
DEEP_ROWS = 1000
DEEP_CLASSES = ("IoTCam", "Conf", "Share")
DEEP_MEAN_SPREAD = 0.5

DEEP_GOLDEN = {
    "model.json": "40eb3381122d4048fbf9d04c748a349f80ba785a8726d2416e67e7927fd32188",
    "cv.txt": "4f249d95ff3cc02f32591531dddcadf3689e334913edc3209b006dc5b61e3acc",
    "report.txt": "afd3904ddf73e5c43ff9ceeef7ea5617c21726d4a0b68754278d2c337aae6c48",
    "pruned.json": "7bbdca930ff930f4b5f51b9ee97bb3d8c7c656f85c3b85f16890b4f3f8decf03",
    "report-12-features.txt": "6c7bf00cb160847bfe484a4e1a6d4ff34b9ab1c690b4351b5aa190d81a5a0b00",
}

# Keeps 12 of the 77 features on the deep corpus, so that the pruned CV
# searches most of its fold trees again, not only the subtrees below a few
# splits on dropped features.
DEEP_NARROW_THRESHOLD = 0.03


def _inspect_name(kind: str, app: str) -> str:
    # the conf capture under teams was the first inspect pin, named inspect.json
    return "inspect.json" if (kind, app) == ("conf", "teams") else f"inspect-{kind}-{app}.json"


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def _with_non_finite(csv_bytes: bytes) -> bytes:
    lines = csv_bytes.split(b"\r\n")
    for row, col, value in NON_FINITE_CELLS:
        cells = lines[2 + row].split(b",")
        cells[col] = value.encode()
        lines[2 + row] = b",".join(cells)
    return b"\r\n".join(lines)


def _deep_records() -> list[LabeledRecord]:
    """Columns cycle through constant, few-valued (0..3) and two continuous
    kinds; each class shifts every column by its own fixed random mean."""
    rng = random.Random(DEEP_SEED)
    kinds = [("const", "few", "cont", "cont")[j % 4] for j in range(len(FEATURE_NAMES))]
    means = [[DEEP_MEAN_SPREAD * rng.random() for _ in kinds] for _ in DEEP_CLASSES]
    records = []
    for i in range(DEEP_ROWS):
        c = rng.randrange(len(DEEP_CLASSES))
        values = []
        for j, kind in enumerate(kinds):
            if kind == "const":
                values.append(float(j))
            elif kind == "few":
                values.append(float(rng.randrange(3) + (rng.random() < means[c][j])))
            else:  # a sum of three uniforms, rounded so that values repeat
                noise = rng.random() + rng.random() + rng.random()
                values.append(round(noise + means[c][j], 3))
        records.append(LabeledRecord(f"deep-{i}", "10.0.0.1", "10.0.0.2", 1024 + i, 443, 6,
                                     tuple(values), DEEP_CLASSES[c]))
    return records


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for kind, label in KINDS:
        _run("synth", "--kind", kind, "-n", FLOWS_PER_KIND, "--seed", SEED, "-o", d / f"{kind}.pcap")
        _run("extract", d / f"{kind}.pcap", "--label", label, "-o", d / f"{kind}.csv")
    # one corpus: the first file's schema and header lines, then every data row
    parts = [(d / f"{kind}.csv").read_bytes().split(b"\r\n") for kind, _ in KINDS]
    corpus = parts[0][:-1] + [line for part in parts[1:] for line in part[2:-1]]
    (d / "corpus.csv").write_bytes(b"\r\n".join(corpus) + b"\r\n")
    (d / "nonfinite.csv").write_bytes(_with_non_finite((d / "conf.csv").read_bytes()))

    _run("train", d / "corpus.csv", "-o", d / "model.json")
    _run("cv", d / "corpus.csv", "-k", 4, "-o", d / "cv.txt")
    _run("report", d / "corpus.csv", "-k", 4, "-o", d / "report.txt")
    for kind, _ in KINDS:
        for app in INSPECT_APPS:
            _run("inspect", d / f"{kind}.pcap", "--app", app, "--json",
                 "-o", d / _inspect_name(kind, app))
    _run("predict", d / "model.json", d / "nonfinite.csv", "-o", d / "scored.csv")
    return {name: (d / name).read_bytes() for name in GOLDEN}


def test_predict_input_has_non_finite_cells(outputs):
    scored = outputs["scored.csv"].decode("utf-8")
    for token in ("nan", "inf", "-inf"):
        assert f",{token}," in scored


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]


@pytest.fixture(scope="module")
def bench_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden-bench")
    for kind in BENCH_KINDS:
        _run("synth", "--kind", kind, "-n", BENCH_FLOWS, "--seed", BENCH_SEED,
             "-o", d / f"{kind}.pcap")
    _run("inspect", d / "share.pcap", "--json", "-o", d / "inspect-share.json")
    return {name: (d / name).read_bytes() for name in BENCH_GOLDEN}


@pytest.mark.parametrize("name", sorted(BENCH_GOLDEN))
def test_bench_scale_digest(bench_outputs, name):
    assert hashlib.sha256(bench_outputs[name]).hexdigest() == BENCH_GOLDEN[name]


@pytest.fixture(scope="module")
def deep_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden-deep")
    write_csv(_deep_records(), d / "deep.csv")
    _run("train", d / "deep.csv", "-o", d / "model.json")
    _run("cv", d / "deep.csv", "-o", d / "cv.txt")
    _run("report", d / "deep.csv", "-o", d / "report.txt")
    _run("train", d / "deep.csv", "--prune-threshold", "1e-4", "-o", d / "pruned.json")
    _run("report", d / "deep.csv", "--importance-threshold", DEEP_NARROW_THRESHOLD,
         "-o", d / "report-12-features.txt")
    return {name: (d / name).read_bytes() for name in DEEP_GOLDEN}


def test_deep_corpus_grows_a_deep_tree(deep_outputs):
    nodes = json.loads(deep_outputs["model.json"])["payload"]["nodes"]
    depth = [0] * len(nodes)
    for i, (feature, _threshold, left, right, _counts) in enumerate(nodes):
        if feature >= 0:  # children follow their parent in preorder
            depth[left] = depth[right] = depth[i] + 1
    assert max(depth) == 11
    assert len(nodes) >= 200


@pytest.mark.parametrize("name", sorted(DEEP_GOLDEN))
def test_deep_output_digest(deep_outputs, name):
    assert hashlib.sha256(deep_outputs[name]).hexdigest() == DEEP_GOLDEN[name]


def test_pruned_cv_grown_from_full_cv_searches_and_matches(monkeypatch):
    # report grows its pruned CV from the full CV's fold trees; the digest
    # above only shows the search below a dropped feature's split if some
    # fold tree has such a split. Each fold's cut nodes grow in shared
    # calls, whatever their depth: 47, where searching the nodes of each
    # depth in turn made 60 and growing the folds from scratch makes 110
    records = _deep_records()
    X = np.array([r.values for r in records])
    y = [r.label for r in records]
    full = tree.train(X, y, FEATURE_NAMES)
    selected = set(tree.select_features(tree.feature_importances(full),
                                        tree.IMPORTANCE_THRESHOLD_COMPACT))
    full_cv = tree.cross_validate(X, y, FEATURE_NAMES)
    dropped_splits = [sum(not node.is_leaf and node.feature not in selected for node in m.nodes)
                      for m in full_cv.fold_models]
    assert len(dropped_splits) == 10 and max(dropped_splits) >= 1
    calls = 0
    search = tree.best_split

    def counting(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    # a forked worker's calls would not be counted here, so one worker grows every fold
    monkeypatch.setattr(workers, "_cores", lambda: 1)
    monkeypatch.setattr(tree, "best_split", counting)
    grown = tree.cross_validate(X, y, FEATURE_NAMES, candidate_features=selected, prior=full_cv)
    monkeypatch.undo()
    assert calls == 47
    scratch = tree.cross_validate(X, y, FEATURE_NAMES, candidate_features=selected)
    assert grown.render() == scratch.render()
    assert grown.confusion == scratch.confusion
