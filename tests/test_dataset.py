import csv
import math
import os
import random
import stat
import struct
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camsieve import dataset, synth, tree
from camsieve.dataset import (
    CHUNK_ROWS,
    CLASSES,
    LabelTaxonomy,
    LabeledRecord,
    class_order,
    clean,
    csv_row,
    default_taxonomy,
    read_chunks,
    read_csv,
    stratified_folds,
    stratified_split,
    write_csv,
)
from camsieve.errors import (
    BadEncoding,
    EmptyClass,
    InsufficientSamples,
    RowParseError,
    SchemaMismatch,
)
from camsieve.features import ALL_COLUMNS, FEATURE_NAMES


def record(label="IoTCam", seed=0, values=None):
    rng = random.Random(seed)
    if values is None:
        values = tuple(rng.uniform(-1e6, 1e6) for _ in FEATURE_NAMES)
    return LabeledRecord(
        flow_id=f"10.0.0.1-10.0.0.2-5000-6000-17-{seed}",
        src_ip="10.0.0.1",
        dst_ip="10.0.0.2",
        src_port=5000,
        dst_port=6000,
        protocol=17,
        values=values,
        label=label,
    )


class TestCsvRoundTrip:
    def test_bitwise_identical_values(self, tmp_path):
        records = [record(seed=i) for i in range(10)]
        path = tmp_path / "flows.csv"
        write_csv(records, path)
        values, labels = read_csv(path)
        expected = np.array([rec.values for rec in records])
        assert values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert labels == [rec.label for rec in records]
        cells, _ = cell_by_cell(path)
        assert [row[:6] for row in cells] == [
            [rec.flow_id, rec.src_ip, rec.dst_ip, str(rec.src_port), str(rec.dst_port),
             str(rec.protocol)]
            for rec in records
        ]

    def test_header_carries_schema_version(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv([record()], path)
        first_two = path.read_text().splitlines()[:2]
        assert first_two[0].startswith("#") and "camsieve-flow-stats" in first_two[0]
        assert first_two[1].split(",")[0] == "Flow ID"

    @pytest.mark.parametrize("line", [
        "# camsieve-flow-stats v2", "# camsieve-flow-stats v1.5",
        "# camsieve-flow-statsXYZ v9", "# camsieve-flow-stats v1 ", "#",
    ])
    def test_other_schema_line_rejected(self, tmp_path, line):
        path = tmp_path / "other.csv"
        write_csv([record()], path)
        _, rest = path.read_bytes().split(b"\r\n", 1)
        path.write_bytes(line.encode() + b"\r\n" + rest)
        with pytest.raises(SchemaMismatch, match="unrecognized schema line"):
            read_csv(path)

    @pytest.mark.parametrize("end", ["\r\n", "\n", "\r"])
    def test_schema_line_read_with_any_line_ending(self, tmp_path, end):
        path = tmp_path / "flows.csv"
        write_csv([record()], path)
        _, rest = path.read_bytes().split(b"\r\n", 1)
        path.write_bytes(f"# camsieve-flow-stats v1{end}".encode() + rest)
        assert read_csv(path).labels == [record().label]

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(ALL_COLUMNS[:-1]) + "\n")  # 83 columns
        with pytest.raises(SchemaMismatch):
            read_csv(path)

    def test_wrong_column_names_rejected(self, tmp_path):
        cols = list(ALL_COLUMNS)
        cols[10] = "Bogus Column"
        path = tmp_path / "bad.csv"
        path.write_text(",".join(cols) + "\n")
        with pytest.raises(SchemaMismatch):
            read_csv(path)

    def test_unparseable_cell_reports_row(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv([record(seed=1), record(seed=2)], path)
        lines = path.read_text().splitlines()
        broken = lines[3].split(",")
        broken[8] = "not-a-number"
        lines[3] = ",".join(broken)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RowParseError) as exc:
            read_csv(path)
        assert exc.value.row == 3  # 1-based, counting from the column header

    def test_short_row_reports_row(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv([record(seed=1)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("only,three,cells\n")
        with pytest.raises(RowParseError):
            read_csv(path)

    def test_quoted_flow_id_round_trips(self, tmp_path):
        rec = record()
        rec = LabeledRecord(
            flow_id='weird,"id"', src_ip=rec.src_ip, dst_ip=rec.dst_ip,
            src_port=rec.src_port, dst_port=rec.dst_port, protocol=rec.protocol,
            values=rec.values, label=rec.label,
        )
        path = tmp_path / "flows.csv"
        write_csv([rec], path)
        assert cell_by_cell(path)[0][0][0] == 'weird,"id"'
        values, labels = read_csv(path)
        assert values.tolist() == [list(rec.values)] and labels == [rec.label]

    def test_nonfinite_values_survive_round_trip(self, tmp_path):
        values = list(record().values)
        values[0], values[1], values[2] = float("inf"), float("-inf"), float("nan")
        rec = record(values=tuple(values))
        path = tmp_path / "flows.csv"
        write_csv([rec], path)
        loaded = read_csv(path).values[0]
        assert math.isinf(loaded[0]) and loaded[0] > 0
        assert math.isinf(loaded[1]) and loaded[1] < 0
        assert math.isnan(loaded[2])


def cell_by_cell(path):
    """The reference reader: csv.reader over the file, int() and float() on
    each cell. The cells and values of every non-blank record, or the
    RowParseError for the first bad one (row 1 is the column header)."""
    cells, values = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()  # the schema line
        reader = csv.reader(fh)
        next(reader)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(ALL_COLUMNS):
                raise RowParseError(row_no, f"{len(row)} columns, expected {len(ALL_COLUMNS)}")
            try:
                int(row[3]), int(row[4]), int(row[5])
                values.append([float(cell) for cell in row[6:-1]])
            except ValueError as exc:
                raise RowParseError(row_no, str(exc)) from exc
            cells.append(row)
    return cells, values


def chunked(path):
    """read_chunks' records in the reference's form."""
    cells, values = [], []
    for chunk in read_chunks(path):
        assert chunk.values.shape == (len(chunk.texts), len(FEATURE_NAMES))
        cells += list(csv.reader(chunk.texts))
        values += chunk.values.tolist()
    return cells, values


def labeled(path, taxonomy=None):
    """read_csv's records in the reference's form: the label cell alone."""
    values, labels = read_csv(path, taxonomy)
    assert values.shape == (len(labels), len(FEATURE_NAMES)) and values.dtype == np.float64
    return [[label] for label in labels], values


def labeled_cell_by_cell(path, taxonomy=None):
    """The reference reader's label cells, resolved through the taxonomy."""
    cells, values = cell_by_cell(path)
    resolve = taxonomy.resolve if taxonomy else str
    return [[resolve(row[-1])] for row in cells], values


def outcome(reader, path):
    try:
        cells, values = reader(path)
    except RowParseError as exc:
        return "error", exc.row, str(exc)
    bits = np.array(values, dtype=np.float64).view(np.uint64).tolist()
    return "ok", cells, bits


# cell spellings as written in the file, quotes included
IDENTITY_CELLS = ["f1", "10.0.0.1", "", '"weird,""id"""', 'a"b', '"ab"c', '"l,ab"', '"x\r\ny"']
PORT_CELLS = ["80", "+7", "1_000", "12345678901234567890", " 443 ", '"53"']
VALUE_CELLS = ["inf", "-inf", "nan", "NaN", "1.50", " 2 ", "1e400", "\xa01.5", "1_000", "١٢",
               '"1.5"', "-0.0", "5e-324"]
BAD_PORT_CELLS = ["80.0", "x", "\x1c80", ""]
BAD_VALUE_CELLS = ["abc", "", "1.5\x1c", "0x10", "١.٥x"]


@st.composite
def flow_csv(draw):
    """A flow CSV's text with hand spellings, blank rows, cells quoted or not,
    and at most one fault: a bad int or float cell, or 83 or 85 cells."""
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        cells = [draw(st.sampled_from(IDENTITY_CELLS)) for _ in range(3)]
        cells += [draw(st.sampled_from(PORT_CELLS)) for _ in range(3)]
        rng = random.Random(draw(st.integers(0, 2**32)))  # any double, nan and inf included
        cells += [repr(struct.unpack("<d", rng.randbytes(8))[0]) for _ in FEATURE_NAMES]
        for _ in range(draw(st.integers(0, 3))):
            cells[draw(st.integers(6, len(ALL_COLUMNS) - 2))] = draw(st.sampled_from(VALUE_CELLS))
        cells.append(draw(st.sampled_from(IDENTITY_CELLS + ["Teams"])))
        rows.append(cells)
    if rows and draw(st.booleans()):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(["port", "value", "83", "85"]))
        if fault == "port":
            cells[draw(st.integers(3, 5))] = draw(st.sampled_from(BAD_PORT_CELLS))
        elif fault == "value":
            cells[draw(st.integers(6, len(ALL_COLUMNS) - 2))] = draw(st.sampled_from(BAD_VALUE_CELLS))
        elif fault == "83":
            del cells[draw(st.integers(6, len(ALL_COLUMNS) - 2))]
        else:
            cells.insert(draw(st.integers(0, len(cells))), "1.0")
    lines = []
    for cells in rows:
        lines += [""] * draw(st.integers(0, 2)) + [",".join(cells)]
    end = draw(st.sampled_from(["\r\n", "\n"]))
    text = "# camsieve-flow-stats v1" + end + ",".join(ALL_COLUMNS) + end + end.join(lines)
    return text + (end if draw(st.booleans()) else "")


def awkward_csv(n):
    """A flow CSV's text of n records in turn: a quoted label with a comma,
    CRLF inside a quoted label, needless quotes, nan and inf cells and a plain
    app label; every third record is followed by a blank row."""
    lines = ["# camsieve-flow-stats v1", ",".join(ALL_COLUMNS)]
    for i in range(n):
        cells = [str(cell) for cell in csv_row(record(label="Teams", seed=i % 7))]
        if i % 5 == 0:
            cells[-1] = '"Conf, or not"'
        elif i % 5 == 1:
            cells[-1] = '"two\r\nlines"'
        elif i % 5 == 2:
            cells[0], cells[4], cells[6] = f'"{cells[0]}"', f'"{cells[4]}"', f'"{cells[6]}"'
        elif i % 5 == 3:
            cells[7:11] = ["nan", "inf", "-inf", "NaN"]
        lines += [",".join(cells)] + [""] * (i % 3 == 0)
    return "\r\n".join(lines) + "\r\n"


class TestWrittenMode:
    """Every output is written through atomic_write_text, whose temp file is
    made owner-only; the renamed file must have the mode open() gives."""

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
    def test_outputs_get_the_mode_open_gives(self, tmp_path, umask):
        model = tree.train([[0.0], [1.0]], ["a", "b"], ["x"])
        writes = {
            "flows.csv": lambda path: write_csv([record()], path),
            "model.json": lambda path: tree.save_model(model, path),
            "capture.pcap": lambda path: synth.write_pcap(path, [(0, b"\x01" * 14, 46)]),
        }
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            for name, write in writes.items():
                write(tmp_path / name)
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "plain").st_mode) == 0o666 & ~umask
        for name in writes:
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~umask, name

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
    @pytest.mark.parametrize("dangling", [False, True], ids=["target", "dangling"])
    def test_symlink_stays_a_link(self, tmp_path, umask, dangling):
        # the link's target gets the bytes and the mode of the test above; a
        # dangling link's target is made, as open() makes it
        links, targets = tmp_path / "links", tmp_path / "targets"
        links.mkdir()
        targets.mkdir()
        if not dangling:
            (targets / "flows.csv").write_bytes(b"old bytes")
        (links / "flows.csv").symlink_to(Path("..") / "targets" / "flows.csv")
        old = os.umask(umask)
        try:
            write_csv([record()], links / "flows.csv")
        finally:
            os.umask(old)
        write_csv([record()], tmp_path / "regular.csv")
        assert (links / "flows.csv").is_symlink()
        assert (targets / "flows.csv").read_bytes() == (tmp_path / "regular.csv").read_bytes()
        assert stat.S_IMODE(os.stat(targets / "flows.csv").st_mode) == 0o666 & ~umask
        for directory in (links, targets):  # no temp file left
            assert [p.name for p in directory.iterdir()] == ["flows.csv"]


class TestChunkReader:
    @settings(max_examples=200, deadline=None)
    @given(flow_csv(), st.integers(1, 4))
    def test_matches_cell_by_cell(self, text, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flows.csv"
            path.write_text(text, encoding="utf-8", newline="")
            expected = outcome(cell_by_cell, path)
            with mock.patch.object(dataset, "CHUNK_ROWS", chunk_rows):
                assert outcome(chunked, path) == expected

    @settings(max_examples=100, deadline=None)
    @given(flow_csv(), st.integers(1, 4))
    @example(awkward_csv(CHUNK_ROWS + 3), CHUNK_ROWS)  # a chunk boundary inside the file
    def test_read_csv_matches_cell_by_cell(self, text, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flows.csv"
            path.write_text(text, encoding="utf-8", newline="")
            for taxonomy in (None, default_taxonomy()):
                expected = outcome(lambda p: labeled_cell_by_cell(p, taxonomy), path)
                with mock.patch.object(dataset, "CHUNK_ROWS", chunk_rows):
                    assert outcome(lambda p: labeled(p, taxonomy), path) == expected

    @pytest.mark.parametrize("column, cell", [(8, "1.5\x1c"), (9, "\x1f2"), (4, "80\x1d")])
    def test_space_only_loadtxt_strips_is_an_error(self, tmp_path, column, cell):
        # np.loadtxt reads these cells as numbers; int() and float() do not
        path = tmp_path / "flows.csv"
        write_csv([record(seed=1), record(seed=2)], path)
        lines = path.read_bytes().decode().split("\r\n")
        cells = lines[3].split(",")
        cells[column] = cell
        lines[3] = ",".join(cells)
        path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(RowParseError) as exc:
            list(read_chunks(path))
        assert exc.value.row == 3

    def test_bad_cell_past_first_chunk(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv([record(seed=i % 7) for i in range(CHUNK_ROWS + 10)], path)
        lines = path.read_bytes().decode().split("\r\n")
        chunks = list(read_chunks(path))
        assert [len(c.texts) for c in chunks] == [CHUNK_ROWS, 10]
        assert [t for c in chunks for t in c.texts] == lines[2:-1]

        cells = lines[CHUNK_ROWS + 6].split(",")
        cells[40] = "1_0x"
        lines[CHUNK_ROWS + 6] = ",".join(cells)
        path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(RowParseError) as exc:
            list(read_chunks(path))
        # the schema line is not a row, the header is row 1
        assert exc.value.row == CHUNK_ROWS + 6
        assert "1_0x" in str(exc.value)

    def test_no_data_rows_warn_nothing(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv([], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(read_chunks(path)) == []
            values, labels = read_csv(path)
        assert values.shape == (0, len(FEATURE_NAMES)) and values.dtype == np.float64
        assert labels == []

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv([record(label="Kamera")], path)
        path.write_bytes(path.read_bytes().replace(b"Kamera", "Kämera".encode("latin-1")))
        with pytest.raises(BadEncoding, match="flows.csv: not UTF-8"):
            read_csv(path)


class TestTaxonomy:
    def test_app_resolves_to_class(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv([record(label="Skype")], path)
        assert read_csv(path, default_taxonomy()).labels == ["Conf"]

    def test_classes_pass_through(self):
        tax = default_taxonomy()
        for cls in CLASSES:
            assert tax.resolve(cls) == cls

    def test_unknown_app_is_others(self):
        assert default_taxonomy().resolve("Quake3") == "Others"

    def test_empty_label_stays_empty(self):
        assert default_taxonomy().resolve("") == ""

    def test_camera_names_map_to_iotcam(self):
        tax = default_taxonomy()
        for cam in ("Ezviz", "D3D", "V380 Spy Bulb", "Netatmo", "Canary", "Alarm Spy Clock"):
            assert tax.resolve(cam) == "IoTCam"

    def test_invalid_class_rejected(self):
        with pytest.raises(ValueError):
            LabelTaxonomy(app_to_class={"Foo": "NotAClass"})

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "tax.json"
        path.write_text('{"MyCam": "IoTCam"}')
        assert LabelTaxonomy.from_json(path).resolve("MyCam") == "IoTCam"


class TestClean:
    def test_nonfinite_replaced_with_zero(self):
        values = list(record().values)
        values[3] = float("inf")
        values[4] = float("-inf")
        values[5] = float("nan")
        X, replaced = clean([values])
        assert replaced == 3
        assert X[0, 3] == 0.0
        assert X[0, 4] == 0.0
        assert X[0, 5] == 0.0
        assert np.isfinite(X).all()

    def test_finite_records_untouched(self):
        records = [record(seed=5), record(seed=6)]
        X, replaced = clean([rec.values for rec in records])
        assert replaced == 0
        assert X.dtype == np.float64 and X.shape == (2, len(FEATURE_NAMES))
        assert [tuple(row) for row in X.tolist()] == [rec.values for rec in records]

    def test_finite_values_pass_bit_for_bit(self):
        tiny = 5e-324  # smallest subnormal
        values = [-0.0, tiny, -tiny, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1 / 3, 1e-300, 123456789.00000001]
        values += [float(i) * 0.7 for i in range(len(FEATURE_NAMES) - len(values) - 1)]
        values.append(float("nan"))
        X, replaced = clean([values])
        assert replaced == 1
        expected = np.array(values[:-1] + [0.0], dtype=np.float64)
        assert X[0].view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert math.copysign(1.0, X[0, 0]) == -1.0

    def test_empty_gives_two_dimensional_matrix(self):
        X, replaced = clean([])
        assert X.shape == (0, len(FEATURE_NAMES)) and X.dtype == np.float64
        assert replaced == 0

    def test_idempotent(self):
        values = list(record().values)
        values[0] = float("nan")
        once, n1 = clean([values])
        twice, n2 = clean(once)
        assert np.array_equal(twice, once)
        assert (n1, n2) == (1, 0)

    def test_identity_untouched(self):
        raw = np.full((2, len(FEATURE_NAMES)), np.inf)
        X, replaced = clean(raw)
        assert replaced == raw.size and not X.any()
        # the caller's raw values stay as they were
        assert np.isinf(raw).all()


class TestStratifiedSplit:
    def test_exact_divisibility(self):
        labels = ["A"] * 100 + ["B"] * 100
        parts = stratified_split(labels, seed=1)
        assert len(parts[0]) == 160 and len(parts[1]) == 40
        for label in ("A", "B"):
            assert sum(1 for i in parts[0] if labels[i] == label) == 80
            assert sum(1 for i in parts[1] if labels[i] == label) == 20

    def test_deterministic(self):
        labels = ["A", "B"] * 20
        a = stratified_split(labels, seed=9)
        b = stratified_split(labels, seed=9)
        assert a == b
        assert stratified_split(labels, seed=10) != a

    def test_round_half_up_on_first_partition(self):
        # a class of c rows trains on floor(0.8 * c + 0.5) of them: 1 of 1, 2
        # of 2, 2 of 3, 3 of 4; so the training part holds every class
        sizes = range(1, 21)
        labels = [f"c{c:02d}" for c in sizes for _ in range(c)]
        train_idx, test_idx = stratified_split(labels, seed=0)
        for c in sizes:
            label = f"c{c:02d}"
            assert sum(labels[i] == label for i in train_idx) == math.floor(c * 0.8 + 0.5) >= 1
            assert sum(labels[i] == label for i in test_idx) == c - math.floor(c * 0.8 + 0.5)
        assert [math.floor(c * 0.8 + 0.5) for c in (1, 2, 3, 4)] == [1, 2, 2, 3]
        assert class_order([labels[i] for i in train_idx]) == class_order(labels)

    def test_union_is_input_multiset(self):
        labels = ["A", "B", "C"] * 7
        parts = stratified_split(labels, seed=3)
        assert sorted(i for part in parts for i in part) == list(range(len(labels)))

    def test_same_rows_as_a_per_class_shuffle(self):
        # per class in sorted label order: shuffle the class's row indexes with
        # one shared generator, then cut at the cumulative boundaries
        labels = ["B", "A", "C", "A", "B", "A"] * 9
        rng = random.Random(7)
        expected = [[], []]
        for label in sorted(set(labels)):
            group = [i for i, lbl in enumerate(labels) if lbl == label]
            rng.shuffle(group)
            cut = math.floor(len(group) * 0.8 + 0.5)
            expected[0] += group[:cut]
            expected[1] += group[cut:]
        assert list(stratified_split(labels, seed=7)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 6), st.integers(0, 2**32))
    def test_folds_deal_the_split_order(self, data, k, seed):
        # the CV folds and the hold-out draw one shuffle: fold j holds
        # positions j, j+k, ... of each class's order, which is its training
        # rows then its test rows in the split
        counts = data.draw(st.lists(st.integers(k, 3 * k), min_size=1, max_size=4))
        labels = data.draw(st.permutations(
            [f"c{c}" for c, count in enumerate(counts) for _ in range(count)]))
        train_idx, test_idx = stratified_split(labels, seed)
        folds = stratified_folds(labels, k, seed)
        for label in set(labels):
            dealt = [i for i in train_idx + test_idx if labels[i] == label]
            assert [[i for i in fold if labels[i] == label] for fold in folds] == [
                sorted(dealt[j::k]) for j in range(k)]

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 10), st.integers(0, 2**32))
    def test_every_fold_and_the_split_train_on_every_class(self, data, k, seed):
        # a class of c >= k rows loses at most ceil(c / k) <= c - 1 to a fold,
        # so every tree grown on a fold's or the split's training rows has the
        # class order of all the labels
        names = data.draw(st.lists(st.sampled_from(CLASSES + ("", "zeta", "Alpha")),
                                   min_size=1, max_size=5, unique=True))
        counts = data.draw(st.lists(st.integers(k, 3 * k), min_size=len(names),
                                    max_size=len(names)))
        labels = data.draw(st.permutations(
            [name for name, count in zip(names, counts) for _ in range(count)]))
        order = class_order(labels)
        for fold in stratified_folds(labels, k, seed):
            held_out = set(fold)
            assert class_order([v for i, v in enumerate(labels) if i not in held_out]) == order
        train_idx, _ = stratified_split(labels, seed)
        assert class_order([labels[i] for i in train_idx]) == order

    def test_folds_beyond_a_class_fail_before_any_fold_is_made(self):
        # the first class in sorted order that cannot fill k folds is named;
        # k empty fold lists at 10**12 would need terabytes
        labels = ["b"] * 4 + ["a"] * 3 + ["c"] * 2
        with pytest.raises(InsufficientSamples, match="class 'a' has 3 samples, need >= 10+$"):
            stratified_folds(labels, 10**12, 0)
        with pytest.raises(InsufficientSamples, match="class 'c' has 2 samples, need >= 3$"):
            stratified_folds(labels, 3, 0)

    def test_empty_records(self):
        with pytest.raises(EmptyClass):
            stratified_split([], seed=0)
