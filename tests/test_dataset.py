import math
import random

import numpy as np
import pytest

from camsieve.dataset import (
    CLASSES,
    LabelTaxonomy,
    LabeledRecord,
    clean,
    default_taxonomy,
    read_csv,
    stratified_split,
    write_csv,
)
from camsieve.errors import EmptyClass, RowParseError, SchemaMismatch
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
        loaded = read_csv(path)
        assert loaded == records

    def test_header_carries_schema_version(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv([record()], path)
        first_two = path.read_text().splitlines()[:2]
        assert first_two[0].startswith("#") and "camsieve-flow-stats" in first_two[0]
        assert first_two[1].split(",")[0] == "Flow ID"

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
        assert read_csv(path)[0].flow_id == 'weird,"id"'

    def test_nonfinite_values_survive_round_trip(self, tmp_path):
        values = list(record().values)
        values[0], values[1], values[2] = float("inf"), float("-inf"), float("nan")
        rec = record(values=tuple(values))
        path = tmp_path / "flows.csv"
        write_csv([rec], path)
        loaded = read_csv(path)[0]
        assert math.isinf(loaded.values[0]) and loaded.values[0] > 0
        assert math.isinf(loaded.values[1]) and loaded.values[1] < 0
        assert math.isnan(loaded.values[2])


class TestTaxonomy:
    def test_app_resolves_to_class(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_csv([record(label="Skype")], path)
        loaded = read_csv(path, default_taxonomy())
        assert loaded[0].label == "Conf"

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
        X, replaced = clean([record(values=tuple(values))])
        assert replaced == 3
        assert X[0, 3] == 0.0
        assert X[0, 4] == 0.0
        assert X[0, 5] == 0.0
        assert np.isfinite(X).all()

    def test_finite_records_untouched(self):
        records = [record(seed=5), record(seed=6)]
        X, replaced = clean(records)
        assert replaced == 0
        assert X.dtype == np.float64 and X.shape == (2, len(FEATURE_NAMES))
        assert [tuple(row) for row in X.tolist()] == [rec.values for rec in records]

    def test_finite_values_pass_bit_for_bit(self):
        tiny = 5e-324  # smallest subnormal
        values = [-0.0, tiny, -tiny, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1 / 3, 1e-300, 123456789.00000001]
        values += [float(i) * 0.7 for i in range(len(FEATURE_NAMES) - len(values) - 1)]
        values.append(float("nan"))
        X, replaced = clean([record(values=tuple(values))])
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
        once, n1 = clean([record(values=tuple(values))])
        twice, n2 = clean([record(values=tuple(row)) for row in once.tolist()])
        assert np.array_equal(twice, once)
        assert (n1, n2) == (1, 0)

    def test_identity_untouched(self):
        values = [float("inf")] * len(FEATURE_NAMES)
        rec = record(values=tuple(values))
        X, replaced = clean([rec])
        assert replaced == len(FEATURE_NAMES) and not X.any()
        # the input record is not modified: its identity, label and raw values stay
        assert rec == record(values=tuple(values))
        assert all(math.isinf(v) for v in rec.values)


class TestStratifiedSplit:
    def test_exact_divisibility(self):
        labels = ["A"] * 100 + ["B"] * 100
        parts = stratified_split(labels, (0.8, 0.2), seed=1)
        assert len(parts[0]) == 160 and len(parts[1]) == 40
        for label in ("A", "B"):
            assert sum(1 for i in parts[0] if labels[i] == label) == 80
            assert sum(1 for i in parts[1] if labels[i] == label) == 20

    def test_deterministic(self):
        labels = ["A", "B"] * 20
        a = stratified_split(labels, (0.5, 0.5), seed=9)
        b = stratified_split(labels, (0.5, 0.5), seed=9)
        assert a == b
        assert stratified_split(labels, (0.5, 0.5), seed=10) != a

    def test_round_half_up_on_first_partition(self):
        parts = stratified_split(["A"] * 3, (0.5, 0.5), seed=0)
        assert (len(parts[0]), len(parts[1])) == (2, 1)

    def test_union_is_input_multiset(self):
        labels = ["A", "B", "C"] * 7
        parts = stratified_split(labels, (0.3, 0.3, 0.4), seed=3)
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
        assert stratified_split(labels, (0.8, 0.2), seed=7) == expected

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            stratified_split(["A"], (0.5, 0.4), seed=0)

    def test_empty_records(self):
        with pytest.raises(EmptyClass):
            stratified_split([], (0.5, 0.5), seed=0)
