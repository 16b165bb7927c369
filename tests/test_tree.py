import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from camsieve import tree
from camsieve.dataset import CLASSES, class_order, stratified_folds, stratified_split
from camsieve.errors import (
    AllFeaturesPruned,
    CorruptModel,
    DimensionMismatch,
    EmptyDataset,
    InsufficientSamples,
    IoFailure,
    UncleanData,
)
from camsieve.tree import (
    DecisionTreeModel,
    TreeNode,
    best_class,
    best_split,
    cross_validate,
    feature_importances,
    gini,
    load_model,
    model_bytes,
    predict_proba,
    prune_features,
    save_model,
    train,
)

from conftest import MALFORMED_PAYLOADS, predicted_class, small_model_payload, write_model_payload
from oracles import (
    exhaustive_best_split,
    gini_exact,
    node_order,
    reference_best_class,
    reference_predict_proba,
    split_node,
)


def unpacked_counts(packed, bits, n_classes):
    """The (classes x features x m) class counts that the scan packs into
    (words x features x m) int64 words, bits per class field."""
    per_word = 63 // bits
    return np.stack([(packed[c // per_word] >> (bits * (c % per_word))) & ((1 << bits) - 1)
                     for c in range(n_classes)])


def as_xy(rows):
    X = np.array([r[0] for r in rows], dtype=float)
    y = np.array([r[1] for r in rows], dtype=np.int64)
    return X, y


class TestGini:
    @pytest.mark.parametrize(
        "counts,expected",
        [([2, 2], 0.5), ([4, 0], 0.0), ([1, 3], 0.375), ([], 0.0), ([0, 0], 0.0)],
    )
    def test_known_values(self, counts, expected):
        assert gini(counts) == pytest.approx(expected, abs=1e-12)

    def test_matches_exact_closed_form(self, rng):
        for _ in range(200):
            counts = [rng.randint(0, 50) for _ in range(rng.randint(1, 5))]
            assert gini(counts) == pytest.approx(float(gini_exact(counts)), abs=1e-12)


class TestBestSplit:
    def test_textbook_example(self):
        rows = [((0.0,), 0), ((1.0,), 0), ((2.0,), 1), ((3.0,), 1)]
        X, y = as_xy(rows)
        fi, threshold, gain = split_node(X, y, 2, [0])
        assert (fi, threshold) == (0, 1.5)
        assert gain == pytest.approx(0.5, abs=1e-12)

    def test_pure_labels_give_none(self):
        rows = [((0.0,), 0), ((1.0,), 0), ((2.0,), 0)]
        assert split_node(*as_xy(rows), 2, [0]) is None

    def test_constant_feature_gives_none(self):
        rows = [((5.0,), 0), ((5.0,), 1)]
        assert split_node(*as_xy(rows), 2, [0]) is None

    def test_tie_breaks_to_lowest_feature(self):
        # both features split perfectly; the pinned rule picks feature 0
        rows = [((0.0, 0.0), 0), ((1.0, 1.0), 1)]
        fi, _, _ = split_node(*as_xy(rows), 2, [0, 1])
        assert fi == 0

    def test_matches_exhaustive_oracle_on_random_data(self):
        rng = random.Random(4242)
        checked_splits = 0
        for _ in range(200):
            n = rng.randint(2, 8)
            f = rng.randint(1, 3)
            classes = rng.randint(2, 3)
            # small integer grid provokes ties constantly
            rows = [
                (tuple(float(rng.randint(0, 3)) for _ in range(f)), rng.randrange(classes))
                for _ in range(n)
            ]
            X, y = as_xy(rows)
            got = split_node(X, y, classes, range(f))
            want = exhaustive_best_split([r[0] for r in rows], [r[1] for r in rows], classes)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got[0], got[1]) == (want[0], want[1])
                assert got[2] == pytest.approx(float(want[2]), abs=1e-12)
                checked_splits += 1
        assert checked_splits > 100


def tie_heavy(seed, n, f, k):
    """Seeded matrix full of ties: constant, few-valued and coarsely rounded
    columns, a quarter of the rows duplicated (labels drawn independently,
    so some equal rows disagree), and 40% of the labels noise."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, f))
    for j in range(f):
        kind = j % 4
        if kind == 0:
            X[:, j] = 7.0
        elif kind == 1:
            X[:, j] = rng.integers(0, 3, n)
        elif kind == 2:
            X[:, j] = rng.integers(0, 12, n) * 0.5
        else:
            X[:, j] = rng.normal(size=n).round(1)
    dup = rng.integers(0, n - n // 4, n // 4)
    X[n - n // 4:] = X[dup]
    signal = (X[:, 1].astype(np.int64) + (X[:, 3] > 0)) % k
    labels = np.where(rng.random(n) < 0.6, signal, rng.integers(0, k, n))
    return X, labels


def reference_nodes(X, labels, k, candidates, max_depth, min_samples_split):
    """Plain recursion that searches each node alone, as a matrix of its own
    rows; checks on the way that its rows' order within X gives the same
    split."""
    nodes = []

    def build(idx, depth):
        counts = tuple(int(c) for c in np.bincount(labels[idx], minlength=k))
        me = len(nodes)
        nodes.append(None)
        split = None
        if depth < max_depth and len(idx) >= min_samples_split:
            split = split_node(X[idx], labels[idx], k, candidates)
            assert split_node(X, labels, k, candidates, idx) == split
        if split is None:
            nodes[me] = TreeNode(-1, 0.0, -1, -1, counts)
        else:
            fi, threshold, _gain = split
            goes_left = X[idx, fi] <= threshold
            left = build(idx[goes_left], depth + 1)
            right = build(idx[~goes_left], depth + 1)
            nodes[me] = TreeNode(fi, threshold, left, right, counts)
        return me

    build(np.arange(len(labels)), 0)
    return tuple(nodes)


# Shapes that break the bookkeeping of a level's node segments: (n,
# max_depth, min_samples_split, classes present of 4, candidate columns,
# every row twice). They cover no split at all, a single split, nodes that
# close at once or split down to one row, nodes with no boundary in any
# candidate column beside nodes that still split, and runs of equal rows.
# Candidate "constant" takes tie_heavy's constant columns only, "few" the
# constant, 3-valued and 12-valued ones.
SEGMENT_SHAPES = [
    (2, 11, 2, 2, None, False),
    (3, 11, 2, 2, None, True),
    (4, 1, 2, 3, None, False),
    (5, 0, 2, 2, None, False),
    (5, 11, 5, 2, None, True),
    (40, 11, 40, 3, None, False),
    (60, 1, 2, 4, None, True),
    (60, 11, 2, 1, None, False),
    (80, 11, 2, 4, "constant", False),
    (120, 11, 3, 4, "constant", True),
    (150, 11, 2, 2, "few", True),
    (200, 11, 2, 3, "few", False),
    (200, 11, 2, 4, None, True),
    (300, 11, 150, 4, None, False),
]


class TestPresortedSplits:
    @pytest.mark.parametrize(
        "seed, shape",
        [(seed, None) for seed in range(8)]
        + [(100 + i, shape) for i, shape in enumerate(SEGMENT_SHAPES)],
        ids=[str(seed) for seed in range(8)] + [f"shape{i}" for i in range(len(SEGMENT_SHAPES))],
    )
    def test_train_matches_per_node_search(self, seed, shape):
        rng = random.Random(seed)
        if shape is None:
            k = 2 + seed % 3
            n, f = rng.randint(60, 300), rng.randint(5, 10)
            X, labels = tie_heavy(seed, n, f, k)
            subset = None if seed % 2 else sorted(rng.sample(range(f), rng.randint(2, f)))
            max_depth, min_samples_split = 7, rng.choice([2, 3, 8])
        else:
            n, max_depth, min_samples_split, present, kinds, twice = shape
            k, f = 4, 9
            X, labels = tie_heavy(seed, n, f, present)
            if twice:  # the copies' labels reversed, so equal rows may disagree
                X, labels = np.vstack([X, X]), np.concatenate([labels, labels[::-1]])
            subset = {None: None, "constant": [0, 4, 8], "few": [0, 1, 2, 4, 5, 6, 8]}[kinds]
        candidates = tuple(range(f)) if subset is None else tuple(subset)
        model = train(X, [f"c{i}" for i in labels], [f"x{j}" for j in range(f)],
                      max_depth=max_depth, min_samples_split=min_samples_split,
                      candidate_features=subset)
        # the tree's classes are the ones present, c0 < c1 < ... in class_order
        present = np.unique(labels)
        assert model.class_names == tuple(f"c{i}" for i in present)
        want = reference_nodes(X, np.searchsorted(present, labels), len(present), candidates,
                               max_depth, min_samples_split)
        assert model.nodes == want
        if shape is None:
            assert sum(not node.is_leaf for node in want) >= 3

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_split_matches_exhaustive_oracle(self, seed):
        k = 2 + seed % 3
        X, labels = tie_heavy(100 + seed, 200, 8, k)
        X[:, 6] = X[:, 5]  # an exact tie between two whole columns as well
        got = split_node(X, labels, k, range(8))
        want = exhaustive_best_split(X.tolist(), labels.tolist(), k)
        assert (got[0], got[1]) == (want[0], want[1])
        assert got[2] == pytest.approx(float(want[2]), abs=1e-12)

        # one call on a level of four nodes: two that split, a pure one and a
        # single row; each gets the split of a search on it alone
        pure = 160 + np.flatnonzero(labels[160:] == labels[160])
        nodes = [np.arange(80), np.arange(80, 159), pure, np.array([159])]
        assert len(pure) >= 2 and len(set(X[pure, 3])) > 1  # a pure node with boundaries
        order = np.hstack([node_order(X, idx, range(8)) for idx in nodes])
        bounds = np.cumsum([0] + [len(idx) for idx in nodes])
        splits = best_split(X, labels, k, range(8), order, bounds)
        assert len(splits) == 4 and splits[2] is None and splits[3] is None
        for idx, got in zip(nodes, splits):
            want = exhaustive_best_split(X[idx].tolist(), labels[idx].tolist(), k)
            if want is None:
                assert got is None
            else:
                assert (got[0], got[1]) == (want[0], want[1])
                assert got[2] == pytest.approx(float(want[2]), abs=1e-12)
        assert splits[0] is not None and splits[1] is not None

    def test_identical_columns_tie_to_lower_index(self, monkeypatch):
        X, labels = tie_heavy(11, 400, 8, 3)
        X[:, 2] = X[:, 5] = labels * 2.0 + (X[:, 3] > 1)  # best column, twice
        for cells in (tree._SCAN_CELLS, 1):  # one block, then one block per feature
            monkeypatch.setattr(tree, "_SCAN_CELLS", cells)
            for candidates in (range(8), [5, 2], [2, 5, 7]):
                assert split_node(X, labels, 3, candidates)[0] == 2
            model = train(X, [str(c) for c in labels], list("abcdefgh"), max_depth=1)
            assert model.nodes[0].feature == 2

    def test_python_int_rerank_grows_the_same_tree(self, monkeypatch):
        # levels of 2**20 rows or more re-rank with Python ints, not int64
        X, labels = tie_heavy(12, 600, 8, 4)
        X[:, 6] = X[:, 5]
        y = [str(c) for c in labels]
        names = [f"x{j}" for j in range(8)]
        want = train(X, y, names)
        monkeypatch.setattr(tree, "_INT64_RERANK_ROWS", 0)
        assert train(X, y, names).nodes == want.nodes
        assert sum(not node.is_leaf for node in want.nodes) >= 20


class TestScanMemoryBound:
    def test_order_matrix_is_int32(self):
        assert tree._presort(np.zeros((5, 3)), [0, 2]).dtype == np.int32

    def test_int32_class_counts_square_exactly(self):
        # 50,000 squared is past 2**31: a level this wide counts in int64
        n, cut = 60_000, 50_000
        X = np.arange(n, dtype=np.float64)[:, None]
        y = (np.arange(n) >= cut).astype(np.int64)
        level = tree._level(np.array([0, n]), np.array([[cut, n - cut]]), y, 1)
        assert level.counts.dtype == np.int64 and level.parent.dtype == np.int64
        w, packed = tree._scan(X.T, np.array([0]), np.arange(n)[None, :], level)
        assert unpacked_counts(packed, level.bits, 2)[:, 0, cut - 1].tolist() == [cut, 0]
        assert abs(w[0, cut - 1] + n) <= n * 3.4e-16 and w.argmin() == cut - 1
        fi, threshold, gain = split_node(X, y, 2, [0])
        assert (fi, threshold) == (0, cut - 0.5)
        assert gain == pytest.approx(1 - (cut / n) ** 2 - ((n - cut) / n) ** 2)

    @pytest.mark.parametrize("n, count_type", [(46_340, np.int32), (46_341, np.int64)])
    def test_count_dtype_switches_where_squares_leave_int32(self, n, count_type):
        # the winning split leaves n - 7 rows of class 0 on the left: its
        # squared count is within 0.1% of n**2, the most a level can hold
        cut = n - 7
        X = np.arange(n, dtype=np.float64)[:, None]
        y = (np.arange(n) >= cut).astype(np.int64)
        level = tree._level(np.array([0, n]), np.array([[cut, n - cut]]), y, 1)
        assert level.counts.dtype == count_type
        w, packed = tree._scan(X.T, np.array([0]), np.arange(n)[None, :], level)
        left = unpacked_counts(packed, level.bits, 2)[:, 0]
        assert left[:, cut - 1].tolist() == [cut, 0] and left[:, -2].tolist() == [cut, n - 1 - cut]
        assert abs(w[0, cut - 1] + n) <= n * 3.4e-16 and w.argmin() == cut - 1
        assert w[0, -1] == 0  # the node ends: no split
        fi, threshold, gain = split_node(X, y, 2, [0])
        assert (fi, threshold) == (0, cut - 0.5)
        exact = 1 - Fraction(cut, n) ** 2 - Fraction(n - cut, n) ** 2
        assert gain == pytest.approx(float(exact), abs=1e-15)

    def test_train_partitions_the_order_matrix_in_place(self):
        # each level's partition is written back over the order matrix, and
        # the next level is a column slice of it: the peak above the inputs
        # is 2.27 times the int32 order here, and a second order matrix per
        # level put it at 3.36
        n, f = 8000, 77
        rng = np.random.default_rng(0)
        X = np.asfortranarray(rng.random((n, f)))
        y = [CLASSES[i] for i in rng.integers(0, 3, n)]
        names = [f"x{j}" for j in range(f)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = train(X, y, names)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert tree._table_depth(model.nodes) == tree.DEFAULT_MAX_DEPTH
        assert peak <= 2.8 * n * f * np.dtype(np.int32).itemsize

    @pytest.mark.parametrize("cells", [1, 20_000])
    def test_tiny_budget_grows_the_same_tree(self, monkeypatch, cells):
        X, labels = tie_heavy(5, 3000, 12, 3)
        y = [str(c) for c in labels]
        names = [f"x{j}" for j in range(12)]
        want = train(X, y, names)
        assert len(want.nodes) > 50
        blocks = []  # (features, level width) of each scanned block
        scan = tree._scan

        def recording_scan(X_t, columns, rows, level):
            blocks.append(rows.shape)
            return scan(X_t, columns, rows, level)

        monkeypatch.setattr(tree, "_SCAN_CELLS", cells)
        monkeypatch.setattr(tree, "_scan", recording_scan)
        assert train(X, y, names).nodes == want.nodes
        assert all(rows * width <= max(cells, width) for rows, width in blocks)
        if cells == 1:
            assert {rows for rows, _ in blocks} == {1}
        else:  # the levels narrow as nodes close, and their blocks take more features
            assert len({rows for rows, _ in blocks}) > 1


@st.composite
def scan_levels(draw, widths):
    """A level for tree._scan of a width in widths: 1-6 classes, often
    skewed towards class 0 so that counts come near the width, up to 8
    nodes, and 1-4 features of 1 to about m values (one feature of about m
    values on wide levels, so that nearly every position is scored)."""
    m = draw(st.integers(*widths))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = min(m, draw(st.integers(1, 8)))
    bounds = np.r_[0, np.sort(rng.choice(np.arange(1, m), nodes - 1, replace=False)), m]
    f, values = 1, 10**6
    if m <= 1000:
        f, values = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 5, 60, 10**6]))
    X = rng.integers(0, values, (m, f)) * 0.25
    skew = draw(st.sampled_from([0.0, 0.5, 0.99, 1.0]))
    y = np.where(rng.random(m) < skew, 0, rng.integers(0, k, m))
    return k, X, y, bounds


class TestScanFloatError:
    # the docstring of best_split states this bound on the float w
    BOUND = 3.4e-16

    @pytest.mark.parametrize("widths, examples", [((2, 300), 60), ((46_330, 46_340), 3),
                                                  ((46_341, 46_350), 3)],
                             ids=["narrow", "int32-wide", "int64-wide"])
    def test_w_within_bound_of_exact(self, widths, examples):
        @settings(max_examples=examples, deadline=None)
        @given(scan_levels(widths))
        def check(case):
            k, X, y, bounds = case
            m, f = X.shape
            order = np.vstack([np.hstack([lo + np.argsort(X[lo:hi, i], kind="stable")
                                          for lo, hi in zip(bounds[:-1], bounds[1:])])
                               for i in range(f)])
            sizes = np.diff(bounds)
            node = np.repeat(np.arange(len(sizes)), sizes)
            counts = np.array([np.bincount(y[lo:hi], minlength=k)
                               for lo, hi in zip(bounds[:-1], bounds[1:])])
            level = tree._level(bounds, counts, y, f)
            assert level.counts.dtype == (np.int32 if m <= 46_340 else np.int64)
            w, packed = tree._scan(np.ascontiguousarray(X.T), np.arange(f), order, level)
            left = unpacked_counts(packed, level.bits, k)
            nl = np.arange(1, m + 1) - bounds[:-1][node]
            for i in range(f):
                # class counts left of each position, from the node's first row
                cum = np.cumsum(np.eye(k, dtype=np.int64)[y[order[i]]], axis=0)
                want = cum - np.vstack([np.zeros(k, dtype=np.int64), cum])[bounds[:-1]][node]
                assert (left[:, i].T == want).all()
                values = X[order[i], i]
                shut = np.r_[values[1:] == values[:-1], True]
                shut[bounds[1:] - 1] = True
                assert ((w[i] == 0) == shut).all() and (w[i] <= 0).all()
                sum_sq_left = (want * want).sum(axis=1).tolist()
                right = counts[node] - want
                sum_sq_right = (right * right).sum(axis=1).tolist()
                for p in np.flatnonzero(~shut).tolist():
                    n, a = int(sizes[node[p]]), int(nl[p])
                    exact = -Fraction(sum_sq_left[p], a) - Fraction(sum_sq_right[p], n - a)
                    assert abs(Fraction(float(w[i, p])) - exact) <= Fraction(n * self.BOUND)

        check()


class TestTrain:
    def test_xor_like_at_depth_two(self):
        # checkerboard labels, not separable by any single threshold
        rows = [((0.0, 0.0), "a"), ((0.0, 2.0), "b"), ((1.0, 1.0), "b"), ((1.0, 3.0), "a")]
        X = np.array([r[0] for r in rows])
        y = [r[1] for r in rows]

        def tree_accuracy_depth2():
            # exhaustive depth-2 attainability check: root split plus an
            # optimal majority label inside each (root-side, child-side) cell
            best = 0
            thresholds = [(-0.5,), (0.5,), (1.5,), (2.5,)]
            for rf in (0, 1):
                for (rt,) in thresholds:
                    for cf in (0, 1):
                        for (ct,) in thresholds:
                            correct = 0
                            for cell in [(True, True), (True, False), (False, True), (False, False)]:
                                members = [
                                    lbl for (vec, lbl) in rows
                                    if (vec[rf] <= rt) == cell[0] and (vec[cf] <= ct) == cell[1]
                                ]
                                if members:
                                    correct += max(members.count("a"), members.count("b"))
                            best = max(best, correct)
            return best / len(rows)

        assert tree_accuracy_depth2() == 1.0  # oracle: depth 2 suffices
        model = train(X, y, ["x", "y"], max_depth=2)
        assert [predicted_class(model, r[0]) for r in rows] == [r[1] for r in rows]
        depth1 = train(X, y, ["x", "y"], max_depth=1)
        assert sum(predicted_class(depth1, r[0]) == r[1] for r in rows) < 4

    def test_depth_zero_is_majority_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        model = train(X, ["a", "a", "b"], ["x"], max_depth=0)
        assert len(model.nodes) == 1
        assert predicted_class(model, [99.0]) == "a"

    def test_linearly_separable_depth_one(self):
        X = np.array([[float(i)] for i in range(10)])
        y = ["lo"] * 5 + ["hi"] * 5
        model = train(X, y, ["x"], max_depth=1)
        assert all(predicted_class(model, [x]) == lbl for x, lbl in zip(range(10), y))

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train(np.empty((0, 2)), [], ["a", "b"])

    def test_unclean_data(self):
        with pytest.raises(UncleanData):
            train(np.array([[1.0], [float("nan")]]), ["a", "b"], ["x"])

    @pytest.mark.parametrize("n_labels", [9, 11])
    @pytest.mark.parametrize("fit", [train, cross_validate])
    def test_labels_not_one_per_row(self, fit, n_labels):
        # 10 rows: one label short, or one over, which would count in the root
        X = np.array([[float(i)] for i in range(10)])
        with pytest.raises(DimensionMismatch, match=f"10 rows, {n_labels} labels"):
            fit(X, (["a", "b"] * 6)[:n_labels], ["x"])

    def test_monotone_capacity_in_depth(self, rng):
        X = np.array([[rng.random() for _ in range(4)] for _ in range(60)])
        y = [rng.choice("abc") for _ in range(60)]
        prev = 0.0
        for depth in range(0, 8):
            model = train(X, y, list("wxyz"), max_depth=depth)
            acc = sum(predicted_class(model, row) == lbl for row, lbl in zip(X, y)) / len(y)
            assert acc >= prev - 1e-12
            prev = acc

    def test_child_counts_partition_parent(self, rng):
        X = np.array([[rng.random() for _ in range(3)] for _ in range(40)])
        y = [rng.choice("ab") for _ in range(40)]
        model = train(X, y, list("abc"), max_depth=4)
        for node in model.nodes:
            if node.is_leaf:
                continue
            left = model.nodes[node.left]
            right = model.nodes[node.right]
            assert tuple(l + r for l, r in zip(left.counts, right.counts)) == node.counts

    def test_depth_bound_respected(self, rng):
        X = np.array([[rng.random()] for _ in range(64)])
        y = [rng.choice("ab") for _ in range(64)]
        model = train(X, y, ["x"], max_depth=3)

        def depth(i):
            node = model.nodes[i]
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(0) <= 3


class TestPredict:
    def leaf_model(self, counts, classes=("IoTCam", "Conf")):
        return DecisionTreeModel(
            nodes=(TreeNode(-1, 0.0, -1, -1, counts),),
            max_depth=0,
            feature_names=("f0", "f1"),
            class_names=classes,
        )

    def test_majority(self):
        assert predicted_class(self.leaf_model((10, 0)), [0.0, 0.0]) == "IoTCam"

    def test_tie_goes_to_first_declared_class(self):
        assert predicted_class(self.leaf_model((5, 5)), [0.0, 0.0]) == "IoTCam"
        assert best_class((0.2, 0.4, 0.4)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            predict_proba(self.leaf_model((1, 1)), [0.0])

    def test_proba_normalized(self):
        assert predict_proba(self.leaf_model((9, 1)), [0.0, 0.0]) == (0.9, 0.1)

    def test_pure_leaf(self):
        assert predict_proba(self.leaf_model((4, 0)), [0.0, 0.0]) == (1.0, 0.0)

    def test_argmax_consistency(self, rng):
        X = np.array([[rng.random() for _ in range(3)] for _ in range(50)])
        y = [rng.choice("abc") for _ in range(50)]
        model = train(X, y, list("pqr"), max_depth=4)
        for _ in range(100):
            v = [rng.random() for _ in range(3)]
            proba = predict_proba(model, v)
            assert sum(proba) == pytest.approx(1.0, abs=1e-12)
            assert best_class(proba) == reference_best_class(proba)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4), st.integers(2, 60))
    def test_flat_walk_is_the_node_walk(self, seed, n_classes, n_features, n_rows):
        # few distinct values, so that many rows sit on a split's threshold,
        # and leaves of equal class counts are common
        rng = random.Random(seed)
        X = np.array([[float(rng.randrange(4)) for _ in range(n_features)]
                      for _ in range(n_rows)])
        y = [rng.randrange(n_classes) for _ in range(n_rows)]
        model = train(X, y, [f"f{j}" for j in range(n_features)], max_depth=rng.randint(0, 5))
        thresholds = [node.threshold for node in model.nodes if not node.is_leaf]
        on_thresholds = [[rng.choice(thresholds + [0.0, 3.0]) for _ in range(n_features)]
                         for _ in range(20)]
        for row in X.tolist() + on_thresholds:
            proba = predict_proba(model, row)
            assert proba == reference_predict_proba(model, row)
            assert best_class(proba) == reference_best_class(proba)
        for view, row in zip(tree.row_views(X), X.tolist()):
            assert predict_proba(model, view) == predict_proba(model, row)


class TestImportances:
    def test_single_feature_gets_everything(self):
        X = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        model = train(X, ["a", "a", "b", "b"], ["x", "const"], max_depth=3)
        assert feature_importances(model) == (1.0, 0.0)

    def test_single_leaf_all_zero(self):
        model = train(np.array([[1.0]]), ["a"], ["x"], max_depth=5)
        assert feature_importances(model) == (0.0,)

    def test_hand_built_two_split_tree(self):
        # root splits on feature 1, right child on feature 2, equal node weights
        # scaled so the weighted decreases are 0.3 and 0.1
        nodes = (
            TreeNode(1, 0.5, 1, 2, (4, 4)),
            TreeNode(-1, 0.0, -1, -1, (4, 0)),
            TreeNode(2, 0.5, 3, 4, (0, 4)),
            TreeNode(-1, 0.0, -1, -1, (0, 2)),
            TreeNode(-1, 0.0, -1, -1, (0, 2)),
        )
        model = DecisionTreeModel(nodes, 2, ("a", "b", "c"), ("x", "y"))
        # root decrease: gini(4,4)=0.5 minus pure children -> 0.5 at weight 1
        # second split: gini(0,4)=0 -> contributes 0
        imp = feature_importances(model)
        assert imp[1] == 1.0 and imp[0] == 0.0 and imp[2] == 0.0

    def test_two_gains_normalize(self):
        # construct leaves so both internal nodes have impurity decreases
        # with known ratio 3:1
        nodes = (
            TreeNode(0, 0.5, 1, 2, (4, 4)),  # gini .5
            TreeNode(-1, 0.0, -1, -1, (4, 2)),  # gini 4/9
            TreeNode(1, 0.5, 3, 4, (0, 2)),
            TreeNode(-1, 0.0, -1, -1, (0, 1)),
            TreeNode(-1, 0.0, -1, -1, (0, 1)),
        )
        model = DecisionTreeModel(nodes, 2, ("a", "b"), ("x", "y"))
        imp = feature_importances(model)
        # root: 1.0 * (0.5 - 6/8 * 4/9 - 0) = 1/6; child: 2/8 * (0 - 0) = 0
        assert imp == (1.0, 0.0)

    def test_permuting_columns_permutes_importances(self, rng):
        X = np.array([[rng.random() for _ in range(4)] for _ in range(80)])
        y = [("a" if row[2] > 0.5 else "b") for row in X]
        names = ["c0", "c1", "c2", "c3"]
        model = train(X, y, names, max_depth=4)
        imp = feature_importances(model)
        perm = [3, 2, 1, 0]
        Xp = X[:, perm]
        model_p = train(Xp, y, [names[i] for i in perm], max_depth=4)
        imp_p = feature_importances(model_p)
        assert imp_p == tuple(imp[i] for i in perm)
        for row, row_p in zip(X[:10], Xp[:10]):
            assert predicted_class(model, row) == predicted_class(model_p, row_p)

    def test_importances_nonnegative_sum_one(self, rng):
        X = np.array([[rng.random() for _ in range(5)] for _ in range(60)])
        y = [rng.choice("ab") for _ in range(60)]
        model = train(X, y, list("abcde"), max_depth=5)
        imp = feature_importances(model)
        assert all(i >= 0 for i in imp)
        assert sum(imp) == pytest.approx(1.0, abs=1e-9)


class TestPruneFeatures:
    def test_constant_feature_always_pruned(self, rng):
        X = np.array([[rng.random(), 7.0] for _ in range(40)])
        y = ["a" if row[0] > 0.5 else "b" for row in X]
        selected, _ = prune_features(X, y, ["signal", "const"], threshold=1e-12)
        assert 1 not in selected

    def test_zero_threshold_keeps_everything(self, rng):
        X = np.array([[rng.random() for _ in range(3)] for _ in range(30)])
        y = [rng.choice("ab") for _ in range(30)]
        selected, _ = prune_features(X, y, list("abc"), threshold=0.0)
        assert selected == (0, 1, 2)

    def test_informative_features_survive(self):
        # 3 planted informative columns among 74 noise columns
        rng = random.Random(99)
        n, noise_features = 200, 74
        rows = []
        labels = []
        for _ in range(n):
            a, b, c = rng.random(), rng.random(), rng.random()
            label = "x" if (a > 0.5) ^ (b > 0.5) else ("y" if c > 0.5 else "z")
            rows.append([a, b, c] + [rng.random() for _ in range(noise_features)])
            labels.append(label)
        names = ["inf0", "inf1", "inf2"] + [f"noise{i}" for i in range(noise_features)]
        selected, model = prune_features(np.array(rows), labels, names, threshold=1e-4,
                                         max_depth=8)
        assert {0, 1, 2} <= set(selected)
        # the retrained model only ever splits on survivors
        used = {node.feature for node in model.nodes if not node.is_leaf}
        assert used <= set(selected)

    def test_all_pruned_raises(self):
        X = np.array([[1.0], [1.0]])
        with pytest.raises(AllFeaturesPruned):
            prune_features(X, ["a", "b"], ["x"], threshold=0.5)


class TestCrossValidate:
    def test_separable_dataset_perfect(self):
        # wide margin keeps every fold's boundary far from all test points
        X = np.array([[float(i)] for i in range(20)] + [[1000.0 + i] for i in range(20)])
        y = ["lo"] * 20 + ["hi"] * 20
        gap_split = split_node(X, np.array([0] * 20 + [1] * 20), 2, [0])
        assert gap_split is not None and gap_split[2] == pytest.approx(0.5)  # root-split oracle
        report = cross_validate(X, y, ["x"], k=10, max_depth=3, seed=1)
        assert report.mean == 1.0
        assert report.std == 0.0
        assert sum(sum(row) for row in report.confusion) == 40

    def test_stratification_forced(self):
        y = ["a", "a", "b", "b"]
        folds = stratified_folds(y, 2, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2]
        for fold in folds:
            assert {y[i] for i in fold} == {"a", "b"}

    def test_confusion_total_equals_dataset(self, rng):
        X = np.array([[rng.random() for _ in range(3)] for _ in range(50)])
        y = [rng.choice("ab") for _ in range(50)]
        report = cross_validate(X, y, list("fgh"), k=5, max_depth=3, seed=3)
        assert sum(sum(row) for row in report.confusion) == 50
        for ci, name in enumerate(report.class_names):
            assert sum(report.confusion[ci]) == y.count(name)

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_fewer_than_two_folds_rejected(self, k):
        with pytest.raises(ValueError):
            stratified_folds(["a", "b", "a", "b"], k, seed=0)

    def test_insufficient_samples(self):
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(InsufficientSamples):
            cross_validate(X, ["a", "a", "b"], ["x"], k=2)

    @pytest.mark.parametrize("subset", [None, (1, 2, 3, 5, 6, 7)])
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_fold_presorts_equal_training_each_fold_alone(self, monkeypatch, k, subset):
        # cross_validate argsorts once and hands each fold that order with
        # the held-out rows taken out; every fold must grow the tree that
        # training on the fold's rows alone grows
        X, labels = tie_heavy(40 + k, 150, 8, 3)
        X, labels = np.vstack([X, X]), np.concatenate([labels, labels])
        y = [f"c{c}" for c in labels]
        names = [f"x{j}" for j in range(8)]
        # the folds may grow on several threads, in any order: each recorded
        # model is found by the rows and labels it was given
        fold_models = []
        train_fold = tree.train

        def recording_train(*args, **kwargs):
            assert kwargs["presorted"] is not None
            model = train_fold(*args, **kwargs)
            fold_models.append(((args[0].tobytes(), tuple(args[1])), model))
            return model

        monkeypatch.setattr(tree, "train", recording_train)
        report = cross_validate(X, y, names, k=k, max_depth=8, seed=3, candidate_features=subset)
        monkeypatch.undo()

        classes = sorted(set(y))
        confusion = [[0] * len(classes) for _ in classes]
        accuracies = []
        folds = stratified_folds(y, k, 3)
        assert len(fold_models) == len(folds)
        models = []
        for fold in folds:
            held_out = set(fold)
            rest = [i for i in range(len(y)) if i not in held_out]
            given = X[rest].tobytes(), tuple(y[i] for i in rest)
            got = next(model for rows, model in fold_models if rows == given)
            models.append(got)
            alone = train(X[rest], [y[i] for i in rest], names, max_depth=8, seed=3,
                          candidate_features=subset)
            assert alone.class_names == tuple(classes)
            assert got.nodes == alone.nodes
            correct = 0
            for i in fold:
                predicted = predicted_class(alone, X[i])
                confusion[classes.index(y[i])][classes.index(predicted)] += 1
                correct += predicted == y[i]
            accuracies.append(correct / len(fold))
        assert report.fold_accuracies == tuple(accuracies)
        assert report.confusion == tuple(tuple(row) for row in confusion)
        assert sum(not node.is_leaf for node in models[0].nodes) >= 10

    def test_deterministic_given_seed(self, rng):
        X = np.array([[rng.random() for _ in range(3)] for _ in range(60)])
        y = [rng.choice("ab") for _ in range(60)]
        r1 = cross_validate(X, y, list("abc"), k=5, seed=11)
        r2 = cross_validate(X, y, list("abc"), k=5, seed=11)
        assert r1 == r2
        assert r1.render() == r2.render()


@st.composite
def prior_cases(draw):
    """A tie-heavy problem, a candidate subset C and a superset S of it (None
    for every feature): 1-5 classes, columns that are constant or take 2-4
    values, a third of the rows repeated with labels that may disagree,
    max_depth 0-12, min_samples_split 2-n."""
    n = draw(st.integers(2, 48))
    f = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, rng.integers(1, 5, f), (n, f)) * 0.5
    X[n - n // 3:] = X[rng.integers(0, n - n // 3, n // 3)]
    signal = (X * np.arange(1, f + 1)).sum(axis=1).astype(np.int64) % k
    labels = np.where(rng.random(n) < 0.7, signal, rng.integers(0, k, n))
    C = draw(st.sets(st.integers(0, f - 1)))
    S = draw(st.none() | st.sets(st.integers(0, f - 1)).map(C.union))
    return dict(X=X, y=[f"c{c}" for c in labels], names=[f"x{j}" for j in range(f)],
                C=sorted(C), S=None if S is None else sorted(S),
                max_depth=draw(st.integers(0, 12)), min_samples_split=draw(st.integers(2, n)))


class TestOneClassOrder:
    """Every tree the package grows orders its classes as class_order of all
    the labels, so a prediction tie goes to the same class in each: the fold
    trees, grown from scratch or from a prior, both trees of prune_features
    and the hold-out tree that report grows."""

    K = 5
    # CLASSES names out of their order, "Others", "" and a label outside
    # CLASSES; "zeta" has exactly K rows, so one of each fold's held-out
    # rows is a zeta
    COUNTS = {"zeta": 5, "Share": 23, "": 9, "IoTCam": 31, "Others": 12}

    def problem(self, seed=3):
        rng = np.random.default_rng(seed)
        y = [label for label, count in self.COUNTS.items() for _ in range(count)]
        y = [y[i] for i in rng.permutation(len(y))]
        X = rng.integers(0, 6, (len(y), 8)) * 0.5
        X[:, 2] += [len(label) for label in y]  # some signal, so the trees split
        return X, y, [f"x{j}" for j in range(8)]

    def test_fold_trees_from_scratch_and_from_a_prior(self):
        X, y, names = self.problem()
        order = tuple(class_order(y))
        assert order == ("IoTCam", "Share", "Others", "", "zeta")
        full = cross_validate(X, y, names, k=self.K, max_depth=6, seed=2)
        grown = cross_validate(X, y, names, k=self.K, max_depth=6, seed=2,
                               candidate_features=[0, 1, 3, 4, 5, 6], prior=full)
        for report in (full, grown):
            assert report.class_names == order
            assert [m.class_names for m in report.fold_models] == [order] * self.K
        assert any(not node.is_leaf for node in full.fold_models[0].nodes)

    def test_both_trees_of_prune_features(self, monkeypatch):
        X, y, names = self.problem()
        trees = []
        train_tree = tree.train

        def recording_train(*args, **kwargs):
            trees.append(train_tree(*args, **kwargs))
            return trees[-1]

        monkeypatch.setattr(tree, "train", recording_train)
        _, pruned = prune_features(X, y, names, threshold=0.05, max_depth=6)
        monkeypatch.undo()
        assert len(trees) == 2 and trees[1] is pruned
        assert [t.class_names for t in trees] == [tuple(class_order(y))] * 2

    @pytest.mark.parametrize("seed", range(4))
    def test_hold_out_tree(self, seed):
        # report trains on stratified_split's first part, which keeps a row
        # of every class
        X, y, names = self.problem(seed)
        train_idx, _ = stratified_split(y, seed)
        model = train(X[train_idx], [y[i] for i in train_idx], names, max_depth=6, seed=seed)
        assert model.class_names == tuple(class_order(y))


class TestPriorTree:
    @settings(max_examples=150, deadline=None)
    @given(prior_cases())
    def test_grown_from_prior_equals_grown_from_scratch(self, case):
        X, y, names, C = case["X"], case["y"], case["names"], case["C"]
        params = dict(max_depth=case["max_depth"], min_samples_split=case["min_samples_split"])
        prior = train(X, y, names, candidate_features=case["S"], **params)
        assert model_bytes(train(X, y, names, candidate_features=C, prior=prior, **params)) == \
            model_bytes(train(X, y, names, candidate_features=C, **params))

        # cross_validate grows each fold from the same fold of a prior report
        if min(y.count(c) for c in set(y)) >= 2:
            full_cv = cross_validate(X, y, names, k=2, candidate_features=case["S"], **params)
            grown = cross_validate(X, y, names, k=2, candidate_features=C, prior=full_cv, **params)
            scratch = cross_validate(X, y, names, k=2, candidate_features=C, **params)
            assert grown == scratch and grown.render() == scratch.render()
            assert [model_bytes(m) for m in grown.fold_models] == \
                [model_bytes(m) for m in scratch.fold_models]

        # a prior grown any other way is refused, one grown on other labels
        # with the same counts too
        others = [
            (y, dict(params, max_depth=case["max_depth"] + 1)),
            (y, dict(params, min_samples_split=case["min_samples_split"] + 1)),
            (["d" + label for label in y], params),
        ]
        for labels, kwargs in others:
            wrong = train(X, labels, names, candidate_features=case["S"], **kwargs)
            with pytest.raises(ValueError, match="prior tree"):
                train(X, y, names, candidate_features=C, prior=wrong, **params)
        fewer_rows = train(X[:-1], y[:-1], names, candidate_features=case["S"], **params)
        with pytest.raises(ValueError, match="prior tree"):
            train(X, y, names, candidate_features=C, prior=fewer_rows, **params)
        if C:
            narrower = train(X, y, names, candidate_features=C[1:], **params)
            with pytest.raises(ValueError, match="prior tree"):
                train(X, y, names, candidate_features=C, prior=narrower, **params)

    def test_cut_nodes_at_two_depths_grow_in_the_same_calls(self, monkeypatch):
        # the full tree first splits on x0 at node 1 (depth 1) and at node 8
        # (depth 2). Without x0 both are cut and grow again in the same
        # calls: node 1 for two levels, node 8 for one, where max_depth 3
        # stops it with an impure leaf
        X = [[0, 0, 1], [3, 2, 2], [1, 2, 0], [2, 3, 2], [2, 0, 2], [2, 0, 1], [0, 1, 0], [3, 3, 0],
             [0, 3, 0], [0, 3, 3], [3, 2, 1], [3, 1, 0], [1, 3, 1], [1, 1, 3], [0, 3, 0]]
        y = list("bbabbbbaaaaabbb")
        names, params = ["x0", "x1", "x2"], dict(max_depth=3)
        prior = train(X, y, names, **params)
        assert [prior.nodes[i].feature for i in (0, 1, 6, 8)] == [2, 0, 1, 0]
        segments = []

        def counting(*args):
            segments.append(len(args[5]) - 1)
            return best_split(*args)

        monkeypatch.setattr(tree, "best_split", counting)
        grown = train(X, y, names, candidate_features=[1, 2], prior=prior, **params)
        monkeypatch.undo()
        assert model_bytes(grown) == model_bytes(train(X, y, names, candidate_features=[1, 2], **params))
        assert segments == [2, 2]
        assert [grown.nodes[i].feature for i in (1, 3, 8)] == [1, 1, 2]
        assert grown.nodes[9].is_leaf and grown.nodes[9].counts == (1, 3)

    def test_prior_leaves_come_out_as_train_writes_them(self):
        # a leaf that holds a threshold, as a hand-edited model file may, is
        # a leaf with threshold 0.0 in the grown tree, as without the prior
        X = np.array([[float(i), float(i % 2)] for i in range(8)])
        y = list("aaaabcbc")
        names = ["x0", "x1"]
        prior = train(X, y, names)
        assert prior.nodes[0].feature == 0 and prior.nodes[1].is_leaf
        assert any(node.feature == 1 for node in prior.nodes)  # a split to cut
        edited = dataclasses.replace(prior, nodes=tuple(
            node._replace(threshold=2.5) if node.is_leaf else node for node in prior.nodes))
        grown = train(X, y, names, candidate_features=[0], prior=edited)
        assert model_bytes(grown) == model_bytes(train(X, y, names, candidate_features=[0]))

    def test_more_cut_nodes_than_a_byte_numbers(self, monkeypatch):
        # each pair of rows shares x0, and a row's label is its random x1,
        # inverted on every other pair: x1 is the first split on 291 paths,
        # more than 8-bit keys number, so the rows are grouped by 16-bit ones
        n = 4000
        X = np.c_[np.arange(n) // 2, np.random.default_rng(1).integers(0, 2, n)].astype(float)
        y = ["ba"[(i // 2 + int(x1)) % 2] for i, x1 in enumerate(X[:, 1])]
        names, params = ["x0", "x1"], dict(max_depth=40)
        prior = train(X, y, names, **params)
        segments = []

        def counting(*args):
            segments.append(len(args[5]) - 1)
            return best_split(*args)

        monkeypatch.setattr(tree, "best_split", counting)
        grown = train(X, y, names, candidate_features=[0], prior=prior, **params)
        monkeypatch.undo()
        assert segments[0] == 291
        scratch = train(X, y, names, candidate_features=[0], **params)
        assert model_bytes(grown) == model_bytes(scratch)

    def test_cross_validate_refuses_another_report(self):
        X, labels = tie_heavy(5, 60, 6, 3)
        y = [f"c{c}" for c in labels]
        names = [f"x{j}" for j in range(6)]
        base = dict(k=3, max_depth=4)
        full_cv = cross_validate(X, y, names, **base)
        for change in (dict(k=2), dict(seed=1), dict(max_depth=5), dict(min_samples_split=3)):
            with pytest.raises(ValueError, match="prior report"):
                cross_validate(X, y, names, candidate_features=[1, 3], prior=full_cv,
                               **{**base, **change})
        # a report on other labels, with the same folds and counts
        other_labels = cross_validate(X, ["d" + label for label in y], names, **base)
        with pytest.raises(ValueError, match="prior report"):
            cross_validate(X, y, names, candidate_features=[1, 3], prior=other_labels, **base)
        # the fold trees take no part in == or repr
        assert len(full_cv.fold_models) == 3
        assert dataclasses.replace(full_cv, fold_models=()) == full_cv
        assert "fold_models" not in repr(full_cv)

    def test_prune_features_grows_from_the_full_tree(self, monkeypatch):
        X, labels = tie_heavy(9, 200, 12, 3)
        y = [f"c{c}" for c in labels]
        names = [f"x{j}" for j in range(12)]
        priors = []
        train_tree = tree.train

        def recording_train(*args, **kwargs):
            priors.append(kwargs.get("prior"))
            return train_tree(*args, **kwargs)

        monkeypatch.setattr(tree, "train", recording_train)
        selected, pruned = prune_features(X, y, names, threshold=0.05, max_depth=8)
        monkeypatch.undo()
        assert priors[0] is None and priors[1] is not None
        assert any(not node.is_leaf and node.feature not in selected for node in priors[1].nodes)
        scratch = train(X, y, names, max_depth=8, candidate_features=selected)
        scratch.training_meta["importance_threshold"] = 0.05
        assert model_bytes(pruned) == model_bytes(scratch)


    def test_pruned_train_at_a_huge_max_depth_finishes(self):
        # each row walks the cut table as deep as the table goes, not
        # max_depth steps: at 10**9 that walk would never end
        child = subprocess.run([sys.executable, "-c", PRUNE_AT_HUGE_DEPTH],
                               env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["same"]


SRC_DIR = Path(tree.__file__).resolve().parents[1]

# prune_features at max_depth 10**9 on a case whose full tree splits on a
# dropped feature, against the tree grown without a prior
PRUNE_AT_HUGE_DEPTH = """
import numpy as np
from camsieve.tree import model_bytes, prune_features, train
rng = np.random.default_rng(9)
X = rng.integers(0, 6, (200, 12)) * 0.5
y = [f"c{c}" for c in (X[:, 0] + X[:, 5] + rng.integers(0, 3, 200)).astype(int) % 3]
names = [f"x{j}" for j in range(12)]
full = train(X, y, names, max_depth=10**9)
selected, pruned = prune_features(X, y, names, threshold=0.05, max_depth=10**9)
assert any(not node.is_leaf and node.feature not in selected for node in full.nodes)
scratch = train(X, y, names, max_depth=10**9, candidate_features=selected)
scratch.training_meta["importance_threshold"] = 0.05
print("same" if model_bytes(pruned) == model_bytes(scratch) else "differ")
"""


class TestIndependentTrees:
    """cross_validate grows its folds through run_independent, at most two at
    once; the report and every fold tree are the same for any number of
    workers, three included, past the cap."""

    @staticmethod
    def workers(monkeypatch, n):
        """n workers: n cores, and the cap raised to n."""
        monkeypatch.setattr(tree, "_cores", lambda: n)
        monkeypatch.setattr(tree, "_MAX_WORKERS", n)

    @staticmethod
    def cv_outputs(X, y, names, k, full_candidates, pruned_candidates, **params):
        """The full CV and a pruned CV grown from it: each report, its
        rendering and its fold trees' bytes."""
        full = cross_validate(X, y, names, k=k, candidate_features=full_candidates, **params)
        pruned = cross_validate(X, y, names, k=k, candidate_features=pruned_candidates,
                                prior=full, **params)
        return [(report, report.render(), [model_bytes(m) for m in report.fold_models])
                for report in (full, pruned)]

    @settings(max_examples=60, deadline=None)
    @given(prior_cases(), st.integers(2, 4))
    def test_same_bytes_on_one_two_and_three_cores(self, case, k):
        k = min(k, min(case["y"].count(c) for c in set(case["y"])))
        assume(k >= 2)
        outputs = []
        for n in (1, 2, 3):
            with pytest.MonkeyPatch.context() as monkeypatch:
                self.workers(monkeypatch, n)
                outputs.append(self.cv_outputs(
                    case["X"], case["y"], case["names"], k, case["S"], case["C"],
                    max_depth=case["max_depth"], min_samples_split=case["min_samples_split"]))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_stress_three_workers_with_a_short_switch_interval(self, monkeypatch):
        X, labels = tie_heavy(21, 240, 10, 3)
        y = [f"c{c}" for c in labels]
        names = [f"x{j}" for j in range(10)]
        args = (X, y, names, 6, None, [1, 2, 3, 5, 6, 9])
        self.workers(monkeypatch, 1)
        serial = self.cv_outputs(*args, max_depth=8)
        self.workers(monkeypatch, 3)
        threaded = []

        def run():
            threaded.append(self.cv_outputs(*args, max_depth=8))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert threaded == [serial]

    @pytest.mark.parametrize("cores, most", [(1, 0), (2, 2), (64, 2)])
    def test_threads_started_are_at_most_cores_and_two(self, monkeypatch, cores, most):
        # k is 3, so 64 cores would take 3 threads but for the cap
        X, labels = tie_heavy(4, 90, 6, 3)
        y = [f"c{c}" for c in labels]
        monkeypatch.setattr(tree, "_cores", lambda: cores)
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        callers = set()
        train_tree = tree.train

        def recording_train(*args, **kwargs):
            callers.add(threading.current_thread())
            return train_tree(*args, **kwargs)

        monkeypatch.setattr(tree, "train", recording_train)
        cross_validate(X, y, [f"x{j}" for j in range(6)], k=3)
        # a pool starts a thread per call until one is idle, so at most `most`
        if most:
            assert 1 <= len(started) <= most and callers <= set(started)
        else:
            assert not started and callers == {threading.current_thread()}

    def test_results_in_call_order_and_the_first_failure_raised(self, monkeypatch):
        self.workers(monkeypatch, 3)
        ready = threading.Event()

        def late():
            assert ready.wait(timeout=30)
            return "late"

        def early():
            ready.set()
            return "early"

        assert tree.run_independent([late, early]) == ["late", "early"]

        def fails(message):
            def call():
                raise ValueError(message)
            return call

        with pytest.raises(ValueError, match="first"):
            tree.run_independent([lambda: 1, fails("first"), fails("second")])

    def test_cores_are_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert tree._cores() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert tree._cores() == 5


class TestConstantColumns:
    @staticmethod
    def recorded_calls(monkeypatch):
        """(X, candidate_features, is_root) of each best_split call from now on."""
        calls = []
        search = tree.best_split

        def recording(X, y, n_classes, candidate_features, order, bounds):
            calls.append((X, list(candidate_features), list(bounds) == [0, len(X)]))
            return search(X, y, n_classes, candidate_features, order, bounds)

        monkeypatch.setattr(tree, "best_split", recording)
        return calls

    @staticmethod
    def varying(X, candidates):
        return [c for c in candidates if X[:, c].min() < X[:, c].max()]

    def test_no_constant_column_reaches_best_split(self, monkeypatch):
        X, labels = tie_heavy(21, 300, 12, 3)  # columns 0, 4 and 8 are constant
        y = [f"c{c}" for c in labels]
        names = [f"x{j}" for j in range(12)]
        calls = self.recorded_calls(monkeypatch)
        train(X, y, names, max_depth=6)
        train(X, y, names, max_depth=6, candidate_features=[0, 1, 2, 4])
        selected, _ = prune_features(X, y, names, threshold=0.05, max_depth=6)
        full_cv = cross_validate(X, y, names, k=5, max_depth=6)
        cross_validate(X, y, names, k=5, max_depth=6, candidate_features=selected, prior=full_cv)
        # two trains, prune_features' full tree and the five full-CV folds
        # search their roots; the grown-from-prior trees keep theirs
        assert len(calls) > 20 and sum(root for _, _, root in calls) == 8
        for X_call, candidates, _ in calls:
            # each call gets every requested column that varies over its
            # tree's rows, and no other
            assert {0, 4, 8}.isdisjoint(candidates) and candidates
            assert candidates in [self.varying(X_call, requested)
                                  for requested in (range(12), [0, 1, 2, 4], selected)]

    def test_a_column_constant_in_one_fold_is_searched_in_the_others(self, monkeypatch):
        X, labels = tie_heavy(22, 120, 6, 3)
        X[:, 0] = 0.0
        X[17, 0] = 1.0  # varies only in the folds that train on row 17
        y = [f"c{c}" for c in labels]
        names = [f"x{j}" for j in range(6)]
        calls = self.recorded_calls(monkeypatch)
        report = cross_validate(X, y, names, k=4, max_depth=5, seed=9)
        monkeypatch.undo()
        roots = [(X_call, candidates) for X_call, candidates, root in calls if root]
        folds = stratified_folds(y, 4, 9)
        rests = [[j for j in range(120) if j not in set(fold)] for fold in folds]
        held_out = next(i for i, fold in enumerate(folds) if 17 in fold)
        assert len(roots) == 4
        # the folds may grow on several threads, in any order: each root
        # search is matched to its fold by the rows it was given
        for i, rest in enumerate(rests):
            (candidates,) = [c for X_call, c in roots if X_call.tobytes() == X[rest].tobytes()]
            assert (0 in candidates) == (i != held_out)
            assert 1 in candidates and 4 not in candidates  # x4 is constant everywhere
        scratch = [train(X[rest], [y[j] for j in rest], names, max_depth=5, seed=9)
                   for rest in rests]
        assert [model_bytes(m) for m in report.fold_models] == [model_bytes(m) for m in scratch]

    @pytest.mark.parametrize("candidates", [None, [0, 2]])
    def test_all_constant_matrix_gives_one_leaf(self, monkeypatch, candidates):
        X = np.full((40, 3), 2.5)
        X[:, 1] = -1.0
        y = ["Share"] * 15 + ["IoTCam"] * 25
        calls = self.recorded_calls(monkeypatch)
        model = train(X, y, ["a", "b", "c"], seed=7, candidate_features=candidates)
        report = cross_validate(X, y, ["a", "b", "c"], k=5, candidate_features=candidates)
        assert calls == []
        want = DecisionTreeModel(
            nodes=(TreeNode(-1, 0.0, -1, -1, (25, 15)),), max_depth=tree.DEFAULT_MAX_DEPTH,
            feature_names=("a", "b", "c"), class_names=("IoTCam", "Share"),
            training_meta={"seed": 7, "n_samples": 40, "min_samples_split": 2,
                           "candidate_features": candidates, "importance_threshold": None},
        )
        assert model_bytes(model) == model_bytes(want)
        assert report.confusion == ((25, 0), (15, 0))
        assert all(len(m.nodes) == 1 for m in report.fold_models)


class TestPersistence:
    def trained(self, rng):
        X = np.array([[rng.random() for _ in range(4)] for _ in range(50)])
        y = [rng.choice(("IoTCam", "Conf", "Share")) for _ in range(50)]
        return train(X, y, list("wxyz"), max_depth=5, seed=9)

    def test_round_trip_identical_nodes(self, tmp_path, rng):
        model = self.trained(rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.nodes == model.nodes
        assert loaded.feature_names == model.feature_names
        assert loaded.class_names == model.class_names
        assert model_bytes(loaded) == model_bytes(model)

    def test_predictions_stable_across_round_trip(self, tmp_path, rng):
        model = self.trained(rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(100):
            v = [rng.random() for _ in range(4)]
            assert predict_proba(model, v) == predict_proba(loaded, v)

    def test_wrong_version_rejected(self, tmp_path, rng):
        import json

        model = self.trained(rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        blob = json.loads(path.read_text())
        blob["payload"]["version"] = 999
        import hashlib

        body = json.dumps(blob["payload"], sort_keys=True, separators=(",", ":"))
        blob["checksum"] = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(json.dumps(blob))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_checksum_mismatch_rejected(self, tmp_path, rng):
        model = self.trained(rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(path.read_bytes().replace(b'"nodes"', b'"nodez"', 1))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        # not JSON, not UTF-8, and nested past the parser's recursion limit
        for junk in [b"\x00\x01\x02 not json", b"\x80\x81{}", b"[" * 100_000 + b"]" * 100_000]:
            path.write_bytes(junk)
            with pytest.raises(CorruptModel):
                load_model(path)

    def test_blocked_rename_leaves_no_file(self, tmp_path, rng, monkeypatch):
        model = self.trained(rng)

        def blocked(src, dst):
            raise PermissionError(f"rename to {dst} blocked")

        monkeypatch.setattr(os, "replace", blocked)
        with pytest.raises(IoFailure, match="^cannot write .*model.json") as failure:
            save_model(model, tmp_path / "model.json")
        assert isinstance(failure.value.__cause__, PermissionError)
        assert list(tmp_path.iterdir()) == []

    def test_training_determinism_bytes(self, rng):
        X = np.array([[rng.random() for _ in range(4)] for _ in range(50)])
        y = [rng.choice("ab") for _ in range(50)]
        m1 = train(X, y, list("wxyz"), max_depth=6, seed=5)
        m2 = train(X, y, list("wxyz"), max_depth=6, seed=5)
        assert model_bytes(m1) == model_bytes(m2)


class TestMalformedModel:
    def test_small_model_loads_and_predicts(self, tmp_path):
        path = tmp_path / "model.json"
        write_model_payload(path, small_model_payload())
        model = load_model(path)
        assert len(model.nodes) == 5
        row = [0.0] * len(model.feature_names)
        assert predicted_class(model, row) == "Conf"
        row[0], row[5] = 1.0, 11.0
        assert predicted_class(model, row) == "IoTCam"

    @pytest.mark.parametrize(
        "mutate", [pytest.param(m, id=name) for name, m in MALFORMED_PAYLOADS]
    )
    def test_rejected_on_load(self, tmp_path, mutate):
        payload = small_model_payload()
        mutate(payload)
        path = tmp_path / "model.json"
        write_model_payload(path, payload)
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_payload_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        write_model_payload(path, [small_model_payload()])
        with pytest.raises(CorruptModel, match="payload is not an object"):
            load_model(path)


def field_paths(value, path=()):
    """The path (dict keys and list indexes) of every field below value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


# top-level field -> its path and the paths below it, so that the 77 feature
# names do not crowd out the other fields
MODEL_FIELD_PATHS = {
    field: [(field,), *field_paths(value, (field,))]
    for field, value in small_model_payload().items()
}

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 80), st.integers(),
              st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)


def neighbours(value):
    """Values one small step from a field's value, often of another JSON type."""
    if isinstance(value, bool):
        return [not value, int(value)]
    if isinstance(value, int):
        return [value - 1, value + 1, -value, float(value), value == 1, str(value), [value]]
    if isinstance(value, float):
        return [value / 2, value * 2 + 1, -value, int(value), str(value), float("inf")]
    if isinstance(value, str):
        return [value + "x", value[:-1], value.upper(), "", 1]
    if isinstance(value, list):
        return [value[:-1], value + value[-1:], value[::-1], [], [value]]
    return [{}, {"note": value}, [value]]


@st.composite
def mutated_payloads(draw):
    """small_model_payload() with one field deleted, set to a neighbouring
    value, or set to any JSON value."""
    payload = small_model_payload()
    field = draw(st.sampled_from(sorted(MODEL_FIELD_PATHS)))
    *parents, key = draw(st.sampled_from(MODEL_FIELD_PATHS[field]))
    container = payload
    for parent in parents:
        container = container[parent]
    kind = draw(st.sampled_from(["delete", "neighbour", "any"]))
    if kind == "delete":
        del container[key]
    elif kind == "neighbour":
        container[key] = draw(st.sampled_from(neighbours(container[key])))
    else:
        container[key] = draw(json_values)
    return payload


class TestLoadModelProperty:
    """A mutated model file loads only as save_model would write it."""

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_payloads())
    def test_corrupt_or_the_bytes_save_model_writes(self, tmp_path, payload):
        path = tmp_path / "model.json"
        write_model_payload(path, payload)
        try:
            model = load_model(path)
        except CorruptModel:
            return
        # the file in save_model's layout: sorted keys, no spaces
        written = json.dumps(json.loads(path.read_bytes()), sort_keys=True, separators=(",", ":"))
        assert model_bytes(model) == written.encode("utf-8")

    def test_mutations_load_often_enough_to_compare(self, tmp_path):
        # the generator must reach models that load, not only rejections
        loaded = []

        @settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @given(mutated_payloads())
        def tally(payload):
            path = tmp_path / "model.json"
            write_model_payload(path, payload)
            try:
                load_model(path)
                loaded.append(True)
            except CorruptModel:
                loaded.append(False)

        tally()
        assert sum(loaded) >= len(loaded) // 40
