"""Run the benchmark over several seeds and report how steady each metric is.

Usage:
    python3 perfbench/sweep.py --workload NAME [--workload NAME ...] --seeds 1-10
        [--seconds S] [--trace] [--out FILE.json] [--record-golden]

For each workload and seed this runs `run.py` once, one run at a time. For
each metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, which BENCHMARK.json's bounds are set
against. `--out` saves every run's figures; `--record-golden` writes the
output digests of the runs into golden.json so that later runs on those seeds
check the exact bytes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["named"] = {}
    result["digests"] = {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ", 2)
            result["named"][name] = float(value)
        elif kind == "digest":
            name, digest = rest.split()
            result["digests"][name] = digest
        elif kind == "property":
            result["properties"] = json.loads(rest)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def machine() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json's")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, dict[int, dict]] = {}
    summary: dict[str, dict[str, dict]] = {}
    for workload in args.workload:
        runs[workload] = {}
        summary[workload] = {}
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, args.trace)
            runs[workload][seed] = result
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                              if not args.trace)
            print(f"{workload} seed {seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        if len(args.seeds) < 3:
            continue
        first = runs[workload][args.seeds[0]]
        for name in dict.fromkeys(list(first["metrics"]) + list(first["named"])):
            med, q1, q3, rel = spread([r["metrics"][name]["value"] if name in r["metrics"]
                                       else r["named"][name] for r in runs[workload].values()])
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel}
            if name not in first["metrics"]:
                continue
            bound = bounds.get(name)
            mark = "" if bound is None else f" bound {bound} ({'ok' if rel < bound / 3 else 'WIDE'})"
            print(f"  {workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {rel:.4f}{mark}", flush=True)

    if args.out:
        record = {"machine": machine(), "run_seconds": seconds, "trace": args.trace,
                  "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.record_golden:
        path = BENCH / "golden.json"
        golden = json.loads(path.read_text()) if path.exists() else {}
        for workload, by_seed in runs.items():
            for seed, result in by_seed.items():
                if result["correct"]:
                    golden.setdefault(workload, {})[str(seed)] = result["digests"]
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
