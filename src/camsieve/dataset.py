"""84-column CSV persistence, the cleaned feature matrix and label taxonomy."""
from __future__ import annotations

import csv
import json
import math
import os
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BadTaxonomy, EmptyClass, RowParseError, SchemaMismatch
from .features import ALL_COLUMNS, FEATURE_NAMES, SCHEMA_NAME, SCHEMA_VERSION, LabeledRecord

CLASS_IOT_CAM = "IoTCam"
CLASS_CONF = "Conf"
CLASS_SHARE = "Share"
CLASS_OTHERS = "Others"
CLASSES = (CLASS_IOT_CAM, CLASS_CONF, CLASS_SHARE, CLASS_OTHERS)

_VERSION_LINE = f"# {SCHEMA_NAME} v{SCHEMA_VERSION}"


@dataclass(frozen=True)
class LabelTaxonomy:
    """Application name to class mapping; classes pass through unchanged."""

    app_to_class: dict[str, str]
    classes: tuple[str, ...] = CLASSES

    def __post_init__(self):
        bad = {c for c in self.app_to_class.values() if c not in self.classes}
        if bad:
            raise ValueError(f"taxonomy maps to unknown classes: {sorted(bad)}")

    def resolve(self, label: str) -> str:
        if label == "" or label in self.classes:
            return label
        return self.app_to_class.get(label, CLASS_OTHERS)

    @classmethod
    def from_json(cls, path: str | Path) -> "LabelTaxonomy":
        """Read a JSON object of label-to-class names; BadTaxonomy if it is not one."""
        try:
            mapping = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8 or not JSON
            raise BadTaxonomy(f"{path}: not a JSON file: {exc}") from exc
        if not isinstance(mapping, dict) or not all(isinstance(c, str) for c in mapping.values()):
            raise BadTaxonomy(f"{path}: expected a JSON object mapping labels to class names")
        try:
            return cls(app_to_class=mapping)
        except ValueError as exc:
            raise BadTaxonomy(f"{path}: {exc}") from exc


def default_taxonomy() -> LabelTaxonomy:
    return LabelTaxonomy(
        app_to_class={
            "Skype": CLASS_CONF,
            "Meet": CLASS_CONF,
            "Teams": CLASS_CONF,
            "Zoom": CLASS_CONF,
            "YouTube": CLASS_SHARE,
            "Prime": CLASS_SHARE,
            "Prime Video": CLASS_SHARE,
            "Ezviz": CLASS_IOT_CAM,
            "D3D": CLASS_IOT_CAM,
            "V380 Spy Bulb": CLASS_IOT_CAM,
            "Netatmo": CLASS_IOT_CAM,
            "Canary": CLASS_IOT_CAM,
            "Alarm Spy Clock": CLASS_IOT_CAM,
        }
    )


def atomic_write_text(path: str | Path, writer: Callable, binary: bool = False) -> None:
    """Write through a sibling temp file and rename, so failures leave no
    partial output behind. writer gets a UTF-8 text handle without newline
    translation, or a bytes handle when binary is set."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        if binary:
            fh = os.fdopen(fd, "wb")
        else:
            fh = os.fdopen(fd, "w", encoding="utf-8", newline="")
        with fh:
            writer(fh)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def csv_row(rec: LabeledRecord) -> list:
    """A record's 84 cells in ALL_COLUMNS order. Floats use their shortest
    round-trip form, so reading them back reproduces every finite value bit
    for bit."""
    return (
        [rec.flow_id, rec.src_ip, rec.dst_ip, rec.src_port, rec.dst_port, rec.protocol]
        + [repr(v) for v in rec.values]
        + [rec.label]
    )


def write_csv(records: Sequence[LabeledRecord], path: str | Path) -> None:
    """Write the 84-column CSV, one `csv_row` per record."""

    def emit(fh):
        fh.write(_VERSION_LINE + "\r\n")
        writer = csv.writer(fh)
        writer.writerow(ALL_COLUMNS)
        writer.writerows(csv_row(rec) for rec in records)

    atomic_write_text(path, emit)


def read_csv(path: str | Path, taxonomy: LabelTaxonomy | None = None) -> list[LabeledRecord]:
    """Load records, enforcing the frozen column layout.

    With a taxonomy, application labels are resolved to their class.
    Unparseable numeric cells raise RowParseError with the row number.
    """
    records: list[LabeledRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        elif SCHEMA_NAME not in first:
            raise SchemaMismatch(f"{path}: unrecognized schema line {first.strip()!r}")
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatch(f"{path}: missing header row")
        if tuple(header) != ALL_COLUMNS:
            raise SchemaMismatch(
                f"{path}: header has {len(header)} columns, expected {len(ALL_COLUMNS)} "
                "matching the frozen schema"
            )
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(ALL_COLUMNS):
                raise RowParseError(row_no, f"{len(row)} columns, expected {len(ALL_COLUMNS)}")
            try:
                src_port, dst_port, protocol = int(row[3]), int(row[4]), int(row[5])
                values = tuple(float(cell) for cell in row[6:-1])
            except ValueError as exc:
                raise RowParseError(row_no, str(exc)) from exc
            label = row[-1]
            if taxonomy is not None:
                label = taxonomy.resolve(label)
            records.append(
                LabeledRecord(row[0], row[1], row[2], src_port, dst_port, protocol, values, label)
            )
    return records


class CleanResult(NamedTuple):
    matrix: np.ndarray
    replaced: int


def clean(records: Sequence[LabeledRecord]) -> CleanResult:
    """The records' (len(records), 77) float64 feature matrix, with every NaN
    or +/-Inf cell set to 0; replaced counts those cells. Finite values pass
    through bit for bit."""
    X = np.array([rec.values for rec in records], dtype=np.float64)
    X = X.reshape(len(records), len(FEATURE_NAMES))  # 2-D even with no rows
    bad = ~np.isfinite(X)
    X[bad] = 0.0
    return CleanResult(X, int(bad.sum()))


def stratified_split(
    labels: Sequence[str], fractions: Sequence[float], seed: int
) -> list[list[int]]:
    """Split row indexes preserving per-class proportions within one sample.

    Partition sizes come from cumulative targets rounded half up, so the
    first partition takes the rounding benefit and sizes always sum exactly.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)}, expected 1")
    if not labels:
        raise EmptyClass("no records to split")

    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)

    rng = random.Random(seed)
    partitions: list[list[int]] = [[] for _ in fractions]
    for label in sorted(by_class):
        group = by_class[label]
        rng.shuffle(group)
        c = len(group)
        cumulative = 0.0
        prev_boundary = 0
        for i, frac in enumerate(fractions):
            cumulative += frac
            boundary = c if i == len(fractions) - 1 else math.floor(c * cumulative + 0.5)
            partitions[i].extend(group[prev_boundary:boundary])
            prev_boundary = boundary
    return partitions
