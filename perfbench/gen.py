"""Seeded generator of overlapping-class flow CSVs for the model-overlap workload.

Writes two files in the 84-column camsieve CSV layout: a training set and a
larger held-out set drawn from the same class model with a derived seed.

The column mix copies what `extract` produces on the synthetic corpus
(3 x 500 flows): the same six columns are constant, the same seven take at
most 20 values, and every other column keeps the share of distinct values it
has there. That puts `best_split` on its no-boundary, few-boundary and tie
paths as often as real features do. The three classes overlap, so the tree
grows to its depth limit instead of stopping after a few splits.

The class model (per-class means and level probabilities) is fixed; only the
rows depend on the seed, so every seed asks the trainer for the same kind of
work. A small share of rows carries +Inf in the two rate columns, as
CICFlowMeter exports do for zero-duration flows, so the cleaning path runs.

Usage: python3 perfbench/gen.py --seed N --rows 2000 --heldout-rows 10000 \
           --train OUT.csv --heldout OUT2.csv --result RESULT.json
The result file holds {"rc": 0, "wall_s", "norm_s", "reference_s"} (see speed.py).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from speed import SpeedSampler

CLASSES = ("IoTCam", "Conf", "Share")

# Distinct values per column over the 1500 rows that `extract` gives for
# `synth` camera/conf/share at 500 flows each, in FEATURE_NAMES order.
REFERENCE_ROWS = 1500
REFERENCE_DISTINCT = (
    1500, 61, 96, 994, 1337, 180, 174, 1001, 1005, 164, 134, 1349, 1498, 1500,
    1500, 1500, 1500, 1494, 523, 1500, 1500, 1500, 1498, 773, 1500, 1500, 1500,
    1495, 983, 2, 62, 1, 1, 61, 104, 1500, 1500, 105, 170, 1492, 1500, 1500, 2,
    2, 1, 62, 62, 1, 1, 1, 6, 1492, 1001, 1349, 61, 998, 144, 1001, 1221, 95,
    1339, 150, 998, 107, 1414, 2, 2, 57, 2, 1500, 501, 1499, 1480, 501, 343, 501,
    501,
)
LOW_CARDINALITY = 20
RATE_COLUMNS = (13, 14)  # Flow Bytes/s, Flow Packets/s
INF_ROW_SHARE = 0.005
CLASS_MODEL_SEED = 20221017
MEAN_SPREAD = 0.35  # std of per-class column means; unit within-class std


def _levels_for(distinct_share: float, n: int) -> int | None:
    """Grid size whose occupancy by n uniform draws matches distinct_share;
    None when the column should stay continuous."""
    if distinct_share >= 0.99:
        return None
    target = distinct_share * n
    lo, hi = 1, 1 << 24
    while lo < hi:
        m = (lo + hi) // 2
        if m * (1.0 - math.exp(-n / m)) < target:
            lo = m + 1
        else:
            hi = m
    return lo


class ClassModel:
    """Fixed per-class distributions for every column; value grids are sized
    so that a sample of `rows` rows has the reference share of distinct values."""

    def __init__(self, rows: int):
        rng = np.random.default_rng(CLASS_MODEL_SEED)
        n_cols = len(REFERENCE_DISTINCT)
        self.means = rng.normal(0.0, MEAN_SPREAD, size=(len(CLASSES), n_cols))
        self.scales = 10.0 ** rng.uniform(0.0, 5.0, size=n_cols)
        self.pooled_std = math.sqrt(1.0 + MEAN_SPREAD**2)
        self.kinds: list[tuple[str, object]] = []
        for j, distinct in enumerate(REFERENCE_DISTINCT):
            if distinct == 1:
                self.kinds.append(("const", None))
            elif distinct <= LOW_CARDINALITY:
                # overlapping categorical: Dirichlet draws around a shared base
                base = rng.dirichlet(np.full(distinct, 2.0))
                probs = np.array(
                    [rng.dirichlet(base * 20.0 + 0.5) for _ in CLASSES]
                )
                self.kinds.append(("categorical", probs))
            else:
                share = distinct / REFERENCE_ROWS
                self.kinds.append(("grid", _levels_for(share, rows)))

    def sample(self, rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
        n = len(labels)
        out = np.zeros((n, len(self.kinds)), dtype=np.float64)
        for j, (kind, param) in enumerate(self.kinds):
            if kind == "const":
                continue
            if kind == "categorical":
                probs = param[labels]
                u = rng.random(n)[:, None]
                out[:, j] = (u > probs.cumsum(axis=1)).sum(axis=1) * self.scales[j]
                continue
            z = rng.normal(self.means[labels, j], 1.0)
            if param is None:
                out[:, j] = self.scales[j] * np.exp(0.5 * z)
            else:
                u = 1.0 / (1.0 + np.exp(-1.702 * z / self.pooled_std))
                cell = np.minimum((u * param).astype(np.int64), param - 1)
                out[:, j] = cell * (self.scales[j] / param)
        inf_rows = rng.random(n) < INF_ROW_SHARE
        for j in RATE_COLUMNS:
            out[inf_rows, j] = math.inf
        return out


def _labels(rng: np.random.Generator, n: int) -> np.ndarray:
    labels = np.arange(n) % len(CLASSES)
    rng.shuffle(labels)
    return labels


def write_csv(path: Path, labels: np.ndarray, values: np.ndarray, rng: np.random.Generator,
              schema_line: str, columns: tuple[str, ...]) -> None:
    n = len(labels)
    hosts = rng.integers(1, 255, size=(n, 2))
    ports = rng.integers(1024, 65535, size=(n, 2))
    protos = np.where(rng.random(n) < 0.5, 6, 17)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(schema_line + "\r\n")
        fh.write(",".join(columns) + "\r\n")
        for i in range(n):
            src, dst = f"10.0.{i % 250}.{hosts[i, 0]}", f"172.16.{i // 250 % 250}.{hosts[i, 1]}"
            sp, dp, pr = int(ports[i, 0]), int(ports[i, 1]), int(protos[i])
            cells = [f"{src}-{dst}-{sp}-{dp}-{pr}-{1_700_000_000_000_000 + i}",
                     src, dst, str(sp), str(dp), str(pr)]
            cells += [repr(float(v)) for v in values[i]]
            cells.append(CLASSES[labels[i]])
            fh.write(",".join(cells) + "\r\n")


def generate(seed: int, rows: int, heldout_rows: int, train_path: Path, heldout_path: Path,
             schema_line: str, columns: tuple[str, ...]) -> None:
    model = ClassModel(rows)
    for path, n, stream in ((train_path, rows, 0), (heldout_path, heldout_rows, 1)):
        rng = np.random.default_rng([seed, stream])
        labels = _labels(rng, n)
        write_csv(path, labels, model.sample(rng, labels), rng, schema_line, columns)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--heldout-rows", type=int, required=True)
    p.add_argument("--train", type=Path, required=True)
    p.add_argument("--heldout", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    # the column names and schema line come from the program under test
    from camsieve.features import ALL_COLUMNS, SCHEMA_NAME, SCHEMA_VERSION

    with SpeedSampler() as sampler:
        generate(args.seed, args.rows, args.heldout_rows, args.train, args.heldout,
                 f"# {SCHEMA_NAME} v{SCHEMA_VERSION}", ALL_COLUMNS)
    args.result.write_text(json.dumps({"rc": 0, **sampler.result}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
