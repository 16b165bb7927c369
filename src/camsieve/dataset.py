"""84-column CSV persistence, the cleaned feature matrix and label taxonomy."""
from __future__ import annotations

import csv
import json
import math
import os
import random
import stat
import tempfile
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadEncoding,
    BadTaxonomy,
    EmptyClass,
    InsufficientSamples,
    IoFailure,
    RowParseError,
    SchemaMismatch,
)
from .features import ALL_COLUMNS, FEATURE_NAMES, SCHEMA_NAME, SCHEMA_VERSION, LabeledRecord

CLASS_IOT_CAM = "IoTCam"
CLASS_CONF = "Conf"
CLASS_SHARE = "Share"
CLASS_OTHERS = "Others"
CLASSES = (CLASS_IOT_CAM, CLASS_CONF, CLASS_SHARE, CLASS_OTHERS)


def class_order(labels: Sequence[str]) -> list[str]:
    """The classes present in labels: those of CLASSES in its order, then any
    others alphabetically. The one order of a model's classes: train,
    cross_validate and prune_features take no other, and a prediction tie
    goes to the first class in it."""
    present = set(labels)
    return [c for c in CLASSES if c in present] + sorted(present - set(CLASSES))


_VERSION_LINE = f"# {SCHEMA_NAME} v{SCHEMA_VERSION}"

# records per read_chunks chunk: bounds a streaming reader's memory, and
# amortises each np.loadtxt call
CHUNK_ROWS = 2048
_NUMERIC_COLUMNS = range(3, len(ALL_COLUMNS) - 1)  # two ports, protocol, 77 values
# parsing the int cells as int64 is their check; only the values are kept
_NUMERIC_DTYPE = np.dtype(
    [("ints", np.int64, (3,)), ("values", np.float64, (len(FEATURE_NAMES),))]
)
# np.loadtxt strips these around a number as space; int() and float() do not
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


@dataclass(frozen=True)
class LabelTaxonomy:
    """Application name to class mapping onto CLASSES; classes pass through unchanged."""

    app_to_class: dict[str, str]

    def __post_init__(self):
        bad = {c for c in self.app_to_class.values() if c not in CLASSES}
        if bad:
            raise ValueError(f"taxonomy maps to unknown classes: {sorted(bad)}")

    def resolve(self, label: str) -> str:
        if label == "" or label in CLASSES:
            return label
        return self.app_to_class.get(label, CLASS_OTHERS)

    @classmethod
    def from_json(cls, path: str | Path) -> "LabelTaxonomy":
        """Read a JSON object of label-to-class names; BadTaxonomy if it is not one."""
        try:
            mapping = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
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
    translation, or a bytes handle when binary is set.

    The file gets the mode open() would give it, 0o666 less the umask, not
    the temp file's owner-only 0o600. A symlink stays a link: the temp file is
    made beside the link's resolved target, and the rename replaces the
    target (a dangling link's target is created, as open() would create it).
    A hard link does not stay one: the rename gives the path a new file.

    A path that exists but is neither a regular file nor a directory, such as
    a FIFO, a device or /dev/stdout, cannot be replaced: it is opened and
    written in place, with no temp file, so a failure can leave part of the
    output in it. A directory is not written: the rename fails.

    IoFailure names path when the temp file cannot be made or renamed to it,
    or the path cannot be opened in place; an error raised by writer itself,
    such as one reading its input, passes through as it is.
    """
    path = Path(path)
    try:
        mode = os.stat(path).st_mode  # follows links
    except OSError:  # nothing there yet: the file is made below
        mode = stat.S_IFREG
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        try:
            fh = _open_output(path, binary)
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc
        with fh:
            writer(fh)
        return
    target = Path(os.path.realpath(path))
    try:
        fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".",
                                        suffix=".tmp")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with _open_output(fd, binary) as fh:
            writer(fh)
        try:
            umask = os.umask(0o077)  # reading the umask means setting it
            os.umask(umask)
            os.chmod(tmp_name, 0o666 & ~umask)
            os.replace(tmp_name, target)
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _open_output(file: Path | int, binary: bool):
    """A bytes handle, or a UTF-8 text handle without newline translation, on
    a path or a file descriptor."""
    if binary:
        return open(file, "wb")
    return open(file, "w", encoding="utf-8", newline="")


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


class Chunk(NamedTuple):
    """Consecutive records of a flow CSV: the text of each as read, without its
    line ending, and their raw (len(texts), 77) float64 value matrix."""

    texts: list[str]
    values: np.ndarray


def read_chunks(path: str | Path) -> Iterator[Chunk]:
    """The flow CSV at path, CHUNK_ROWS records at a time, after its schema line
    and header are checked. Blank rows are skipped.

    Every record must have 84 cells, int() port and protocol cells and float()
    value cells; otherwise RowParseError names the record's row, counting the
    column header as row 1 and blank rows too. A file that is not UTF-8 raises
    BadEncoding.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            _check_header(fh, path)
            records = _records(fh)
            while batch := list(islice(records, CHUNK_ROWS)):
                rows, texts = zip(*batch)
                values = _parse_numeric(texts)
                if values is None:
                    values = _parse_cells(texts, rows)
                chunk = Chunk(list(texts), values)
                # hold nothing of this chunk while the next one is read, so a
                # caller that drops it too has its strings freed first
                del batch, rows, texts, values
                yield chunk
                del chunk
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"{path}: not UTF-8 text ({exc})") from exc


def _check_header(fh, path) -> None:
    """Read the optional schema line and the column header; SchemaMismatch
    unless they are this schema's."""
    first = fh.readline()
    if not first.startswith("#"):
        fh.seek(0)
    elif first.rstrip("\r\n") != _VERSION_LINE:
        raise SchemaMismatch(f"{path}: unrecognized schema line {first.strip()!r}")
    try:
        header = next(csv.reader(fh), None)
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise SchemaMismatch(f"{path}: unreadable header row: {exc}") from exc
    if header is None:
        raise SchemaMismatch(f"{path}: missing header row")
    if tuple(header) != ALL_COLUMNS:
        raise SchemaMismatch(
            f"{path}: header has {len(header)} columns, expected {len(ALL_COLUMNS)} "
            "matching the frozen schema"
        )


def _records(lines: Iterator[str]) -> Iterator[tuple[int, str]]:
    """(row number, text) of each non-blank record after the header, where a
    record is one line unless a quoted cell spans line endings, as the csv
    module reads it. The text keeps inner line endings and drops the last."""
    row_no = 1
    for line in lines:
        row_no += 1
        while '"' in line and _ends_in_quotes(line):
            more = next(lines, "")
            if not more:  # the file ends inside quotes: the line ending is part of the cell
                break
            line += more
        else:
            line = line.rstrip("\r\n")
        if line:
            yield row_no, line


def _ends_in_quotes(text: str) -> bool:
    """Whether the csv module's default dialect is inside a quoted cell at the
    end of text. A quote opens a cell only as its first character; after the
    closing quote the cell runs on unquoted to the next comma."""
    i = 0
    while i < len(text):  # i is at the start of a cell
        if text[i] == '"':
            end = text.find('"', i + 1)
            while end >= 0 and text.startswith('"', end + 1):  # a doubled quote
                end = text.find('"', end + 2)
            if end < 0:
                return True
            i = end + 1
        i = text.find(",", i)
        if i < 0:
            return False
        i += 1
    return False


def _cell_count(text: str) -> int:
    return len(next(csv.reader([text]))) if '"' in text else text.count(",") + 1


def _parse_numeric(texts: Sequence[str]) -> np.ndarray | None:
    """The value matrix of the records from one np.loadtxt call, or None when
    it could differ from int() and float(): a record longer than
    csv.field_size_limit() (loadtxt has no such limit, csv.reader refuses a
    longer cell), a record without 84 cells, a cell loadtxt rejects or warns
    about, or a character loadtxt strips as space around a number where int()
    and float() refuse it. Every spelling loadtxt accepts otherwise parses to
    the same value as int() or float()."""
    limit = csv.field_size_limit()
    if any(len(t) > limit or _cell_count(t) != len(ALL_COLUMNS) for t in texts):
        return None
    joined = "".join(texts)
    if any(c in joined for c in _LOADTXT_ONLY_SPACE):
        return None
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 only warns on some cells int() refuses, such as "80.0"
            warnings.simplefilter("error")
            table = np.loadtxt(
                texts, dtype=_NUMERIC_DTYPE, delimiter=",", comments=None, quotechar='"',
                usecols=_NUMERIC_COLUMNS, ndmin=1,
            )
    except (ValueError, Warning):
        return None
    return table["values"]


def _parse_cells(texts: Sequence[str], rows: Sequence[int]) -> np.ndarray:
    """The value matrix of the records cell by cell through csv.reader, int()
    and float(); RowParseError at the first record that fails."""
    values = np.empty((len(texts), len(FEATURE_NAMES)))
    reader = csv.reader(texts)
    for i, row_no in enumerate(rows):
        try:
            cells = next(reader)
        except csv.Error as exc:  # a cell longer than csv.field_size_limit()
            raise RowParseError(row_no, str(exc)) from exc
        if len(cells) != len(ALL_COLUMNS):
            raise RowParseError(row_no, f"{len(cells)} columns, expected {len(ALL_COLUMNS)}")
        try:
            int(cells[3]), int(cells[4]), int(cells[5])
            values[i] = [float(cell) for cell in cells[6:-1]]
        except ValueError as exc:
            raise RowParseError(row_no, str(exc)) from exc
    return values


class LabeledMatrix(NamedTuple):
    """A flow CSV's raw (n, 77) float64 value matrix and each record's label."""

    values: np.ndarray
    labels: list[str]


def read_csv(path: str | Path, taxonomy: LabelTaxonomy | None = None) -> LabeledMatrix:
    """The records' raw values and labels, with the checks of read_chunks.

    With a taxonomy, application labels are resolved to their class.
    """
    blocks, labels = [np.empty((0, len(FEATURE_NAMES)))], []
    for chunk in read_chunks(path):
        blocks.append(chunk.values)
        for text in chunk.texts:
            # read_chunks has checked the cells; without a quote the csv
            # module splits a record at every comma
            label = next(csv.reader([text]))[-1] if '"' in text else text.rpartition(",")[2]
            labels.append(label if taxonomy is None else taxonomy.resolve(label))
        del chunk  # its texts are freed before the next chunk is read
    return LabeledMatrix(np.concatenate(blocks), labels)


class CleanResult(NamedTuple):
    matrix: np.ndarray
    replaced: int


def clean(values) -> CleanResult:
    """The raw values as an (n, 77) float64 matrix, with every NaN or +/-Inf
    cell set to 0; replaced counts those cells. Finite values pass through bit
    for bit, and the input is not modified."""
    X = np.array(values, dtype=np.float64)
    X = X.reshape(len(X), len(FEATURE_NAMES))  # 2-D even with no rows
    bad = ~np.isfinite(X)
    X[bad] = 0.0
    return CleanResult(X, int(bad.sum()))


def _shuffled_classes(labels: Sequence[str], seed: int) -> Iterator[tuple[str, list[int]]]:
    """Each class's row indexes, classes in sorted order, each shuffled in turn
    by one generator seeded with seed: the draw the folds and the split deal from."""
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    rng = random.Random(seed)
    for label in sorted(by_class):
        group = by_class[label]
        rng.shuffle(group)
        yield label, group


def stratified_folds(labels: Sequence[str], k: int, seed: int) -> list[list[int]]:
    """Deterministic stratified folds of row indexes, each sorted: fold j
    gets positions j, j+k, ... of each class's shuffled order. Every class
    is checked to fill k folds before any fold is made, so a k far above
    the class sizes fails without allocating k lists."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    groups = list(_shuffled_classes(labels, seed))
    for label, group in groups:
        if len(group) < k:
            raise InsufficientSamples(f"class {label!r} has {len(group)} samples, need >= {k}")
    folds: list[list[int]] = [[] for _ in range(k)]
    for _, group in groups:
        for j, fold in enumerate(folds):
            fold += group[j::k]
    return [sorted(fold) for fold in folds]


def stratified_split(labels: Sequence[str], seed: int) -> tuple[list[int], list[int]]:
    """The 80/20 hold-out: row indexes to train on and to test on. Each
    class's shuffled order is cut after floor(0.8 * size + 0.5) rows, so
    every class keeps at least one training row."""
    if not labels:
        raise EmptyClass("no records to split")
    train: list[int] = []
    test: list[int] = []
    for _, group in _shuffled_classes(labels, seed):
        cut = math.floor(len(group) * 0.8 + 0.5)
        train += group[:cut]
        test += group[cut:]
    return train, test
