"""camsieve benchmark: closed-loop workloads over the command-line interface.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout is found from this file's location; it must hold `src/camsieve`.
One client issues the workload's CLI commands one after another,
single-threaded; each command runs in a fresh child process (`op.py`) so that
its peak RSS is its own. Inputs are generated from the seed before timing
starts and reported as `setup_s` (median of SETUP_REPS generations). Commands
repeat in cycles until `--seconds` have been measured; every timing is the
median over cycles, normalized to the machine's speed (see speed.py).

Workloads:
    extract-corpus  `extract` on seeded synth camera/conf/share captures
    inspect-conf    `inspect --app teams --json` on a seeded synth conf capture
    model-overlap   train -> predict x3 -> cv -> report on seeded overlapping classes

Every output is checked: its sha256 against the digest pinned for this seed in
golden.json (when the seed is pinned) and against the first cycle, plus
invariants that do not depend on the bytes. A command that exits non-zero or
fails a check counts as failed.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced cycles and reports the per-layer metrics, from
spans and counters recorded around calls into each module (see tracing.py),
plus the tracing overhead. The last stdout line is the JSON result; the lines
before it give the same figures, and the per-workload metrics, by name.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
from tracing import open_peak

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
GOLDEN = BENCH / "golden.json"

SETUP_REPS = 3
RUN_BUDGET_S = 170.0  # a run stops starting cycles (and kills a command) past this
MB = 1024.0  # ru_maxrss is in KiB on Linux

CAPTURE_FLOWS = 500
CAPTURES = (("camera", "Ezviz"), ("conf", "Teams"), ("share", "YouTube"))
OVERLAP_ROWS = 2000
HELDOUT_ROWS = 10000
PREDICT_REPEATS = 3  # predict is short and noisy; its rate is the median of these
CLASSES = ["IoTCam", "Conf", "Share"]


class SetupFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    norm_s: float  # wall time normalized to the machine's speed, see speed.py
    wall_s: float
    reference_s: float
    rss_mb: float
    trace: dict | None


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def rate(items: float, seconds: float) -> float:
    """items / seconds, 0 when a failed command left no time."""
    return items / seconds if seconds > 0 else 0.0


def read_rows(path: Path):
    """Header and rows of a camsieve CSV, schema line skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        if not fh.readline().startswith("#"):
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def column_mix(paths) -> dict:
    """Constant / <=20-valued / continuous feature columns, as extract's CSV has them."""
    rows = []
    for path in paths:
        header, body = read_rows(path)
        rows += [row[6:-1] for row in body]
    distinct = [len(set(col)) for col in zip(*rows)]
    continuous = [d / len(rows) for d in distinct if d > 20]
    return {
        "rows": len(rows),
        "constant": sum(1 for d in distinct if d == 1),
        "low_cardinality": sum(1 for d in distinct if 1 < d <= 20),
        "continuous": len(continuous),
        "continuous_median_distinct_share": round(statistics.median(continuous), 4),
    }


class Bench:
    """One run: child processes, output checks and the failure tally."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.pinned = golden.get(workload, {}).get(str(seed))
        self.op_traces: list[dict] = []

    def child(self, argv: list[str], result: Path) -> tuple[dict | None, float]:
        """Run a child to completion; returns its result file and peak RSS in MB."""
        result.unlink(missing_ok=True)
        with open(self.dir / "children.log", "ab") as log:
            proc = subprocess.Popen([sys.executable] + argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=log, env=self.env,
                                    cwd=self.dir)
        pid = 0
        try:
            while not pid:
                if time.monotonic() > self.deadline:
                    self.problems.append(f"killed at the run's time budget: {' '.join(argv[5:])}")
                    return None, 0.0
                time.sleep(0.005)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not result.exists():
            return None, usage.ru_maxrss / MB
        return json.loads(result.read_text()), usage.ru_maxrss / MB

    def cli(self, args: list[str], traced: bool = False) -> tuple[dict | None, float]:
        argv = [str(BENCH / "op.py"), str(SRC), "result.json", "1" if traced else "0", "--"]
        return self.child(argv + args, self.dir / "result.json")

    def setup_cli(self, args: list[str]) -> float:
        result, _ = self.cli(args)
        if result is None or result["rc"] != 0:
            raise SetupFailed(f"set-up command failed: camsieve {' '.join(args)}")
        return result["norm_s"]

    def op(self, name: str, args: list[str], outputs: list[Path], traced: bool, check) -> Op:
        """Run one measured command and check what it wrote."""
        for path in outputs:
            path.unlink(missing_ok=True)
        self.attempted += 1
        result, rss = self.cli(args, traced)
        problems = []
        if result is None or result["rc"] != 0:
            problems.append(f"{name}: exit {'crash' if result is None else result['rc']}")
        else:
            for path in outputs:
                if not path.exists():
                    problems.append(f"{name}: no {path.name}")
                else:
                    problems += self.check_digest(path)
            if not problems:
                try:
                    problems += [f"{name}: {p}" for p in check()]
                except (ValueError, KeyError, IndexError, StopIteration) as exc:
                    problems.append(f"{name}: unreadable output ({exc!r})")
        if problems:
            self.failed += 1
            self.problems += problems
        trace = result.get("trace") if result else None
        if trace:
            self.op_traces.append({"op": len(self.op_traces), "name": name, **trace})
        if result is None:
            return Op(name, 0.0, 0.0, 0.0, rss, None)
        return Op(name, result["norm_s"], result["wall_s"], result["reference_s"], rss, trace)

    def check_digest(self, path: Path) -> list[str]:
        digest = sha256(path)
        first = self.digests.setdefault(path.name, digest)
        problems = []
        if digest != first:
            problems.append(f"{path.name}: bytes differ from the first cycle")
        if self.pinned is not None and self.pinned.get(path.name) != digest:
            problems.append(f"{path.name}: sha256 {digest[:16]} differs from the pinned digest")
        return problems

    def measure(self, run_cycle) -> list:
        """Repeat cycles for the run's seconds (at least one), within the budget."""
        start = time.monotonic()
        cycles = []
        while True:
            began = time.monotonic()
            cycles.append(run_cycle())
            took = time.monotonic() - began
            now = time.monotonic()
            if now - start + took > self.seconds or now + took > self.deadline:
                return cycles


# ---------------------------------------------------------------- workloads


class ExtractCorpus:
    """Three labelled synth captures through `extract`, one per application."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.manifest: dict[str, dict] = {}

    def setup(self) -> float:
        total = 0.0
        for kind, _ in CAPTURES:
            total += self.bench.setup_cli(["synth", "--kind", kind, "-n", str(CAPTURE_FLOWS),
                                           "--seed", str(self.bench.seed), "-o", f"{kind}.pcap"])
        return total

    def after_setup(self) -> None:
        for kind, _ in CAPTURES:
            self.manifest[kind] = read_manifest(self.bench.dir / f"{kind}.pcap.manifest.jsonl")

    def items_per_s(self, cycles) -> float:
        packets = sum(m["packets"] for m in self.manifest.values())
        return rate(packets, median([sum(op.norm_s for op in c) for c in cycles]))

    def cycle(self, traced: bool) -> list[Op]:
        ops = []
        for kind, label in CAPTURES:
            out = self.bench.dir / f"{kind}.csv"
            ops.append(self.bench.op(
                f"extract-{kind}", ["extract", f"{kind}.pcap", "--label", label, "-o", out.name],
                [out], traced, lambda: check_flow_csv(out, label, self.manifest[kind])))
        return ops

    def named(self, cycles) -> list[tuple[str, float, str]]:
        lines = [("extract_pkts_per_s", self.items_per_s(cycles), "packets/s"),
                 ("extract_peak_rss_mb", median([max(op.rss_mb for op in c) for c in cycles]), "MB")]
        for i, (kind, _) in enumerate(CAPTURES):
            pkts = self.manifest[kind]["packets"]
            lines.append((f"extract_pkts_per_s.{kind}",
                          rate(pkts, median([c[i].norm_s for c in cycles])), "packets/s"))
            lines.append((f"extract_peak_rss_mb.{kind}",
                          median([c[i].rss_mb for c in cycles]), "MB"))
        return lines

    def properties(self) -> dict:
        props = {"column_mix": column_mix([self.bench.dir / f"{k}.csv" for k, _ in CAPTURES])}
        for kind, _ in CAPTURES:
            header, rows = read_rows(self.bench.dir / f"{kind}.csv")
            dur = header.index("Flow Duration")
            intervals = [(int(r[0].rsplit("-", 1)[1]), int(r[0].rsplit("-", 1)[1]) + int(float(r[dur])))
                         for r in rows]
            props[f"flows_{kind}"] = {"open_peak": open_peak(intervals), "total": len(rows),
                                      "packets": self.manifest[kind]["packets"]}
        return props


class InspectConf:
    """`inspect --app teams --json` on the RTP-carrying synth conf capture."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.manifest: dict = {}

    def setup(self) -> float:
        return self.bench.setup_cli(["synth", "--kind", "conf", "-n", str(CAPTURE_FLOWS),
                                     "--seed", str(self.bench.seed), "-o", "conf.pcap"])

    def after_setup(self) -> None:
        self.manifest = read_manifest(self.bench.dir / "conf.pcap.manifest.jsonl")

    def items_per_s(self, cycles) -> float:
        return rate(self.manifest["packets"], median([c[0].norm_s for c in cycles]))

    def cycle(self, traced: bool) -> list[Op]:
        out = self.bench.dir / "conf.json"
        return [self.bench.op("inspect", ["inspect", "conf.pcap", "--app", "teams", "--json",
                                          "-o", out.name],
                              [out], traced, lambda: check_inspect(out, self.manifest))]

    def named(self, cycles) -> list[tuple[str, float, str]]:
        return [("inspect_pkts_per_s", self.items_per_s(cycles), "packets/s"),
                ("inspect_peak_rss_mb", median([c[0].rss_mb for c in cycles]), "MB")]

    def properties(self) -> dict:
        report = json.loads((self.bench.dir / "conf.json").read_text())
        return {"flows": len(report["flows"]), "packets": self.manifest["packets"],
                "rtp_flows": sum(1 for f in report["flows"] if f["hint"] == "RTP")}


class ModelOverlap:
    """train -> predict -> cv -> report on a seeded CSV of overlapping classes."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.non_finite = 0

    def setup(self) -> float:
        result, _ = self.bench.child(
            [str(BENCH / "gen.py"), "--seed", str(self.bench.seed), "--rows", str(OVERLAP_ROWS),
             "--heldout-rows", str(HELDOUT_ROWS), "--train", "train.csv",
             "--heldout", "heldout.csv", "--result", "gen.json"],
            self.bench.dir / "gen.json")
        if result is None:
            raise SetupFailed("overlap generator failed")
        return result["norm_s"]

    def after_setup(self) -> None:
        _, rows = read_rows(self.bench.dir / "train.csv")
        self.non_finite = sum(1 for r in rows for v in r[6:-1] if v in ("inf", "-inf", "nan"))

    def items_per_s(self, cycles) -> float:
        return rate(HELDOUT_ROWS, self.op_s(cycles, "predict"))

    @staticmethod
    def op_s(cycles, name: str) -> float:
        return median([op.norm_s for c in cycles for op in c if op.name == name])

    def cycle(self, traced: bool) -> list[Op]:
        d = self.bench.dir
        model, scored, cv, report = d / "model.json", d / "scored.csv", d / "cv.txt", d / "report.txt"
        ops = [self.bench.op("train", ["train", "train.csv", "-o", model.name], [model], traced,
                             lambda: check_model(model))]
        for _ in range(PREDICT_REPEATS):
            ops.append(self.bench.op(
                "predict", ["predict", model.name, "heldout.csv", "-o", scored.name],
                [scored], traced, lambda: check_scored(scored, model)))
        ops.append(self.bench.op("cv", ["cv", "train.csv", "-o", cv.name], [cv], traced,
                                 lambda: check_cv(cv)))
        ops.append(self.bench.op("report", ["report", "train.csv", "-o", report.name], [report],
                                 traced, lambda: check_report(report, self.non_finite)))
        return ops

    def named(self, cycles) -> list[tuple[str, float, str]]:
        return [("train_s", self.op_s(cycles, "train"), "s"),
                ("predict_rows_per_s", self.items_per_s(cycles), "rows/s"),
                ("cv_s", self.op_s(cycles, "cv"), "s"),
                ("report_s", self.op_s(cycles, "report"), "s"),
                ("model_peak_rss_mb", median([max(op.rss_mb for op in c) for c in cycles]), "MB")]

    def properties(self) -> dict:
        model = json.loads((self.bench.dir / "model.json").read_text())["payload"]
        return {"column_mix": column_mix([self.bench.dir / "train.csv"]),
                "non_finite_cells": self.non_finite, "tree_nodes": len(model["nodes"])}


WORKLOADS = {"extract-corpus": ExtractCorpus, "inspect-conf": InspectConf,
             "model-overlap": ModelOverlap}


# ----------------------------------------------------------- output checks


def read_manifest(path: Path) -> dict:
    flows = [json.loads(line) for line in path.read_text().splitlines() if line]
    return {"flows": len(flows), "packets": sum(f["packets"] for f in flows),
            "fwd": sum(f["fwd_packets"] for f in flows),
            "bwd": sum(f["bwd_packets"] for f in flows)}


def check_flow_csv(path: Path, label: str, manifest: dict) -> list[str]:
    header, rows = read_rows(path)
    fwd, bwd = header.index("Total Fwd Packets"), header.index("Total Backward Packets")
    problems = []
    if len(rows) != manifest["flows"]:
        problems.append(f"{len(rows)} flows, manifest has {manifest['flows']}")
    got = (sum(float(r[fwd]) for r in rows), sum(float(r[bwd]) for r in rows))
    if got != (manifest["fwd"], manifest["bwd"]):
        problems.append(f"fwd/bwd packets {got}, manifest has {manifest['fwd']}/{manifest['bwd']}")
    if any(r[-1] != label for r in rows):
        problems.append(f"a row is not labelled {label}")
    return problems


def check_inspect(path: Path, manifest: dict) -> list[str]:
    report = json.loads(path.read_text())
    flows = report["flows"]
    problems = []
    if len(flows) != manifest["flows"]:
        problems.append(f"{len(flows)} flows, manifest has {manifest['flows']}")
    if sum(f["packets"] for f in flows) != manifest["packets"]:
        problems.append("packet total differs from the manifest")
    if not any(f["hint"] == "RTP" for f in flows):
        problems.append("no RTP flow found in the conf capture")
    return problems


def check_model(path: Path) -> list[str]:
    payload = json.loads(path.read_text())["payload"]
    problems = []
    if payload["class_names"] != CLASSES:
        problems.append(f"model classes {payload['class_names']}")
    if len(payload["nodes"]) < 3:
        problems.append("model has no split")
    return problems


def check_scored(path: Path, model_path: Path) -> list[str]:
    classes = set(json.loads(model_path.read_text())["payload"]["class_names"])
    header, rows = read_rows(path)
    cls, prob = header.index("Predicted Class"), header.index("Prediction Probability")
    problems = []
    if len(rows) != HELDOUT_ROWS:
        problems.append(f"{len(rows)} scored rows, expected {HELDOUT_ROWS}")
    if any(r[cls] not in classes for r in rows):
        problems.append("a scored row carries a class the model does not have")
    if any(not 0.0 < float(r[prob]) <= 1.0 for r in rows):
        problems.append("a probability is outside (0, 1]")
    return problems


def confusion_total(lines: list[str]) -> int:
    start = next(i for i, line in enumerate(lines) if line.startswith("confusion matrix")) + 2
    return sum(int(v) for line in lines[start:start + len(CLASSES)] for v in line.split()[1:])


def check_cv(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    total = confusion_total(lines)
    return [] if total == OVERLAP_ROWS else [f"confusion matrix holds {total} rows"]


def check_report(path: Path, non_finite: int) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    problems = []
    counts = [int(line.split(":")[1].split()[0]) for line in lines[1:1 + len(CLASSES)]]
    if sum(counts) != OVERLAP_ROWS:
        problems.append(f"summary counts {counts}")
    if f"non-finite values cleaned: {non_finite}" not in text:
        problems.append(f"cleaning did not report the {non_finite} non-finite cells")
    if confusion_total(lines) != OVERLAP_ROWS:
        problems.append("confusion matrix total differs from the row count")
    return problems


# ------------------------------------------------------------------ metrics


def end_to_end(workload, setups: list[float], cycles: list[list[Op]]) -> dict:
    return {"setup_s": median(setups),
            "cycle_s": median([sum(op.norm_s for op in c) for c in cycles]),
            "items_per_s": workload.items_per_s(cycles),
            "peak_rss_mb": median([max(op.rss_mb for op in c) for c in cycles])}


def per_layer(ops: list[Op]) -> dict:
    """Per-layer figures of one traced cycle; times normalized like the commands'."""
    m: dict[str, float] = {}

    def add(name, value):
        m[name] = m.get(name, 0) + value

    def span_s(op, name):
        seconds = sum(s[3] - s[2] for s in op.trace["spans"] if s[1] == name)
        return seconds * speed.NOMINAL_S / op.reference_s

    def total_s(op, name):
        return op.trace["totals"].get(name, [0.0, 0])[0] * speed.NOMINAL_S / op.reference_s

    def calls(op, name):
        return op.trace["totals"].get(name, [0.0, 0])[1]

    feature_packets = 0
    for op in ops:
        c = op.trace["counts"]
        add("packets.read_frames_s", total_s(op, "packets.read_frames"))
        add("packets.decode_s", total_s(op, "packets.decode"))
        add("packets.read_sorted_s", span_s(op, "packets.read_sorted"))
        for name in ("packets.frames", "packets.decoded", "packets.skipped", "flows.count",
                     "dataset.cleaned_values", "protocols.payloads_classified",
                     "protocols.rtp_payloads"):
            add(name, c.get(name, 0))
        for reason in ("TIMEOUT", "TCP_FIN", "TCP_RST", "END_OF_CAPTURE"):
            add(f"flows.by_termination.{reason}", c.get(f"flows.by_termination.{reason}", 0))
        m["flows.open_peak"] = max(m.get("flows.open_peak", 0), c.get("flows.open_peak", 0))
        add("flows.assemble_s", span_s(op, "flows.assemble"))
        add("features.compute_s", total_s(op, "features.compute"))
        feature_packets += c.get("features.packets", 0)
        for name in ("write_csv", "read_csv", "clean"):
            add(f"dataset.{name}_s", span_s(op, f"dataset.{name}"))
        add("tree.train_s", span_s(op, "tree.train"))
        add("tree.best_split_s", total_s(op, "tree.best_split"))
        add("tree.best_split_calls", calls(op, "tree.best_split"))
        add("protocols.build_report_s", span_s(op, "protocols.build_report"))
        if op.name == "train" and op.trace["models"]:
            m["tree.nodes"], m["tree.depth"] = op.trace["models"][0]
        elif op.name == "cv":
            folds = sum(1 for s in op.trace["spans"] if s[1] == "tree.train")
            m["tree.cv_fold_s"] = span_s(op, "tree.cross_validate") / max(folds, 1)
        elif op.name == "report":
            m["tree.train_calls_per_report"] = sum(
                1 for s in op.trace["spans"] if s[1] == "tree.train")
        elif op.name == "predict":
            rows = calls(op, "tree.predict_proba")
            m["tree.predict_us_per_row"] = total_s(op, "tree.predict_proba") / max(rows, 1) * 1e6
        elif op.name == "inspect":
            m["cli.inspect_self_s"] = span_s(op, "cli.main") - sum(
                span_s(op, n) for n in ("packets.read_sorted", "flows.assemble",
                                       "protocols.build_report"))
    m["features.us_per_packet"] = (m["features.compute_s"] / feature_packets * 1e6
                                   if feature_packets else 0.0)
    classified = m["protocols.payloads_classified"]
    rtp = m.pop("protocols.rtp_payloads")
    m["protocols.rtp_share"] = rtp / classified if classified else 0.0
    return m


def run(args, declared: dict) -> int:
    bench = Bench(args.workload, args.seed, args.seconds, args.trace == 1)
    workload = WORKLOADS[args.workload](bench)
    setups = [workload.setup() for _ in range(1 if bench.trace else SETUP_REPS)]
    workload.after_setup()

    if bench.trace:
        pairs = bench.measure(lambda: (workload.cycle(False), workload.cycle(True)))
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        layers = [per_layer(c) for c in traced]
        values = {name: median([layer.get(name, 0) for layer in layers])
                  for name in declared["per_layer"]}
        values["trace.overhead_s"] = (median([sum(op.norm_s for op in c) for c in traced])
                                      - median([sum(op.norm_s for op in c) for c in plain]))
        cycles = plain
        (bench.dir / "trace.json").write_text(json.dumps(bench.op_traces))
    else:
        cycles = bench.measure(lambda: workload.cycle(False))
        values = end_to_end(workload, setups, cycles)

    print(f"workload {args.workload} seed {args.seed} cycles {len(cycles)} "
          f"(timings are medians over cycles) setup runs {len(setups)}")
    print(f"machine reference loop {median([op.reference_s for c in cycles for op in c]) * 1e3:.4g} ms "
          f"(nominal {speed.NOMINAL_S * 1e3:g} ms); unnormalized cycle "
          f"{median([sum(op.wall_s for op in c) for c in cycles]):.4g} s")
    for name, value, unit in workload.named(cycles):
        print(f"metric {name} {value:.6g} {unit}")
    if bench.trace:
        print(f"metric setup_s {median(setups):.6g} s")
    print(f"metric failed_ops_ratio {bench.failed / bench.attempted:.6g} failed/attempted "
          f"({bench.failed}/{bench.attempted})")
    if bench.failed == 0:  # the outputs it reads are all there
        print("property " + json.dumps(workload.properties(), sort_keys=True))
    for name in sorted(bench.digests):
        print(f"digest {name} {bench.digests[name]}")
    print("digests " + ("pinned for this seed" if bench.pinned is not None
                        else "not pinned for this seed: checked for run-to-run identity only"))
    for problem in bench.problems[:20]:
        print(f"problem {problem}")

    kind = "per_layer" if bench.trace else "end_to_end"
    metrics = {}
    for name, unit in declared[kind].items():
        print(f"{'layer' if bench.trace else 'metric'} {name} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="camsieve closed-loop CLI benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "camsieve" / "cli.py").is_file():
        print(f"error: no camsieve sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    try:
        return run(args, declared)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
