"""CART-style decision tree: training, Gini importances, pruning, k-fold CV.

Splits minimize Gini impurity over every midpoint between consecutive
distinct feature values. Near-tied candidates are re-compared with exact
integer arithmetic so the chosen split is reproducible across platforms
and reimplementations: ties go to the lowest feature index, then the
lowest threshold. A tree's classes are dataset.class_order of its labels,
and prediction ties go to the first class in that order.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .dataset import atomic_write_text, class_order, stratified_folds
from .errors import (
    AllFeaturesPruned,
    CorruptModel,
    DimensionMismatch,
    EmptyDataset,
    UncleanData,
)
from .features import schema_hash

DEFAULT_MAX_DEPTH = 11
DEFAULT_MIN_SAMPLES_SPLIT = 2
DEFAULT_SEED = 42
DEFAULT_K_FOLDS = 10

# importance-threshold presets: the first drops only negligible features,
# the second trades a few more features for a compact model
IMPORTANCE_THRESHOLD_NEGLIGIBLE = 1e-6
IMPORTANCE_THRESHOLD_COMPACT = 1e-4

MODEL_FORMAT = "camsieve-tree"
MODEL_VERSION = 1

def _tie_margin(n: int | np.ndarray) -> float | np.ndarray:
    # float scores within this margin of the best are re-ranked exactly;
    # comfortably above the scan's accumulated rounding error (which grows
    # with n), and false inclusions only cost an exact re-check
    return 1e-9 + n * 1e-13


# Cells (features x level rows) that one block of the split scan covers. The
# scan's buffers take 41 bytes per cell plus 8 per word of packed class
# counts, and 16 more on levels wider than 46,340 rows, whose counts are
# int64; a block of up to five classes on a level of at most 2,047 rows (one
# word) stays near 1.6 MB, inside a core's L2 cache, at any dataset size. A
# block holds at least one feature, so a level wider than this is scanned one
# feature at a time.
_SCAN_CELLS = 1 << 15

# Below this many rows in a level, the exact re-rank's A <= n**3 / 4 and its
# other terms fit in int64; from here on it computes with Python ints.
_INT64_RERANK_ROWS = 1 << 20


def gini(class_counts: Sequence[int]) -> float:
    """Gini impurity 1 - sum(p_i^2); 0 for empty counts."""
    total = sum(class_counts)
    if total == 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in class_counts)


def _presort(X: np.ndarray, features: Sequence[int]) -> np.ndarray:
    """Row indexes of X sorted stably by each feature, one row per feature."""
    order = np.empty((len(features), len(X)), dtype=np.int32 if len(X) < 2**31 else np.int64)
    for i, fi in enumerate(features):
        order[i] = np.argsort(X[:, fi], kind="stable")
    return order


def _varying(X: np.ndarray, features: Sequence[int]) -> tuple[int, ...]:
    """The features, in the given order, that take more than one value over
    the rows of X. The others hold no boundary in any node of a tree grown on
    these rows, so no split search needs them."""
    if not len(X):
        return ()
    spread = X.max(axis=0) > X.min(axis=0)
    return tuple(fi for fi in features if spread[fi])


class _Level(NamedTuple):
    """What the scan of one level shares across its blocks. Position p of a
    row is the split after the p-th row of the level; it puts the rows of its
    node up to p on the left, nl of them, and the nr others on the right.

    The class counts are packed: a word holds up to 63 // bits classes, each
    in a bits-wide field that no count of the level can overflow, so one
    cumulative sum per word counts all of its classes at once. A field is cut
    out in int64 and narrowed to the count dtype, int32 while the level is at
    most 46,340 rows wide (a sum of squared counts is at most m**2 < 2**31
    there) and int64 above that."""

    node: np.ndarray  # (m,) node of each position
    ends: np.ndarray  # the last position of each node, where no split is allowed
    inv_left: np.ndarray  # (m,) float64 -1 / nl
    inv_right: np.ndarray  # (m,) float64 -1 / nr; -1 at a node's last position, where nr is 0
    parent: np.ndarray  # (classes, m) class counts of the position's node, in the count dtype
    bits: int
    # per word: each row's code (its class's field set to 1) and the packed
    # counts of the nodes before each position
    words: tuple[tuple[np.ndarray, np.ndarray], ...]
    # (block features x m) buffers that every block reuses: fresh arrays of
    # this size cost a page fault per 4 KiB on each use
    index: np.ndarray  # intp rows; take() copies any other index type first
    # (2, block, m) int64: the cell indexes, then shifted fields; as float64,
    # the gathered values, then the two halves of w
    wide: np.ndarray
    packed: np.ndarray  # (words, block, m) int64 packed class counts left of each position
    counts: np.ndarray  # (4, block, m) left and right counts and their sums of squares
    boundary: np.ndarray  # (block, m) bool: the next value differs, and the node does not end


def _level(bounds: np.ndarray, counts: np.ndarray, y: np.ndarray, block: int) -> _Level:
    """The level of the node segments [bounds[j], bounds[j + 1]) with the
    given (nodes x classes) counts, for rows labelled y, scanned block
    features at a time."""
    sizes = np.diff(bounds)
    m = int(bounds[-1])
    node = np.repeat(np.arange(len(sizes)), sizes)
    nl = np.arange(1, m + 1) - bounds[:-1][node]
    nr = sizes[node] - nl
    ends = bounds[1:] - 1
    nr[ends] = 1
    bits = m.bit_length()
    per_word = 63 // bits
    classes = np.arange(counts.shape[1])
    one = np.left_shift(1, bits * (classes % per_word))  # a count of 1 in each class's field
    before = ((np.cumsum(counts, axis=0) - counts) * one)[node]
    words = tuple(
        (np.where(y // per_word == word, one[y], 0), before[:, classes // per_word == word].sum(axis=1))
        for word in range(-(-len(classes) // per_word))
    )
    count_type = np.int32 if m * m <= np.iinfo(np.int32).max else np.int64
    return _Level(
        node, ends, -1.0 / nl, -1.0 / nr, counts[node].T.astype(count_type), bits, words,
        np.empty((block, m), dtype=np.intp), np.empty((2, block, m), dtype=np.int64),
        np.empty((len(words), block, m), dtype=np.int64),
        np.empty((4, block, m), dtype=count_type), np.empty((block, m), dtype=bool),
    )


def _scan(X_t: np.ndarray, features: np.ndarray, rows: np.ndarray,
          level: _Level) -> tuple[np.ndarray, np.ndarray]:
    """Float w = -(sum(left**2) / nl + sum(right**2) / nr) after each position
    of each sorted row, over the class counts left and right of it in its
    node. w is the weighted child impurity A / (nl * nr) less the node's n,
    so it ranks a node's positions as the impurity does, and it is at most
    -n / classes wherever a split is allowed. Where none is, because the
    next value is equal (no boundary there) or the node ends, w is 0. Also
    returns the (words x features x m) packed class counts left of each
    position.

    X_t is the transposed, C-contiguous feature matrix. rows (features x m)
    holds the level's node segments in every row, each segment sorted by
    that row's feature in features. Both results are views of the level's
    buffers, valid until its next scan.
    """
    b, m = rows.shape
    index, boundary = level.index[:b], level.boundary[:b]
    cells, spare = level.wide[:, :b]
    left, right, sum_sq_left, sum_sq_right = level.counts[:, :b]
    np.copyto(index, rows)
    np.add(index, (features * X_t.shape[1])[:, None], out=cells)
    values = X_t.reshape(-1).take(cells, out=spare.view(np.float64))
    np.not_equal(values[:, 1:], values[:, :-1], out=boundary[:, :-1])
    boundary[:, level.ends] = False
    per_word, mask = 63 // level.bits, (1 << level.bits) - 1
    for c in range(len(level.parent)):
        word, slot = divmod(c, per_word)
        packed = field = level.packed[word, :b]
        if slot == 0:
            code, before = level.words[word]
            np.cumsum(code.take(index, out=packed), axis=1, out=packed)
            packed -= before  # count from the node's first row, not the level's
        else:
            field = np.right_shift(packed, level.bits * slot, out=cells)
        np.bitwise_and(field, mask, out=left)  # at most m, so it fits the count dtype
        np.subtract(level.parent[c], left, out=right)
        # squares and their sums stay at most m**2, inside the count dtype
        if c == 0:
            np.multiply(left, left, out=sum_sq_left)
            np.multiply(right, right, out=sum_sq_right)
        else:
            sum_sq_left += np.multiply(left, left, out=left)
            sum_sq_right += np.multiply(right, right, out=right)
    # below 2**26 rows the sums convert to float64 exactly
    w = np.multiply(sum_sq_left, level.inv_left, out=spare.view(np.float64))
    w += np.multiply(sum_sq_right, level.inv_right, out=cells.view(np.float64))
    w *= boundary  # a product, not a masked copy: no branch per cell
    return w, level.packed[:, :b]


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    candidate_features: Sequence[int],
    order: np.ndarray,
    bounds: Sequence[int],
) -> list[tuple[int, float, float] | None]:
    """Exhaustive best (feature, threshold) by Gini gain of each node of a level.

    y must be integer class ids in [0, n_classes). order holds the nodes
    side by side: node j is the non-empty column segment [bounds[j],
    bounds[j + 1]) of every row, and order[i] lists each node's row indexes
    of X sorted stably by feature sorted(candidate_features)[i]. train makes
    one call per tree level. The result holds one (feature_index, threshold,
    gain) per node, or None where no split has positive gain, as in a pure
    node or a single row.

    All features of all nodes are scanned at once in float, in blocks of at
    most _SCAN_CELLS cells (at least one feature each). Every position whose
    w is within _tie_margin(n) of the smallest w of its node is then
    re-ranked with exact integers. The float w of a position is off from the
    exact -(sl / nl + sr / nr) by at most n * 3.4e-16, under a two-hundredth
    of the margin: the sums of squared counts sl and sr are at most n**2 and
    exact in float64 below 2**26 rows, and the reciprocals -1 / nl and
    -1 / nr, the two products and their sum are each rounded once, which
    leaves a relative error below (1 + 2**-53)**3 - 1 < 3.4e-16 of
    sl / nl + sr / nr <= n. The exact winner's w is therefore within twice
    that of the smallest float w of its node. So the exact winner, and
    every position tied with it, is among those re-ranked, and the exact
    order (impurity, then feature, then threshold) picks the same split as a
    search that re-ranked every position.
    """
    features = sorted(candidate_features)
    segments = np.array(bounds, dtype=np.int64)
    starts, sizes = segments[:-1], np.diff(segments)
    splits: list[tuple[int, float, float] | None] = [None] * len(sizes)
    if not features or not len(sizes):
        return splits
    node = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.bincount(node * n_classes + y[order[0]], minlength=len(sizes) * n_classes)
    counts = counts.reshape(len(sizes), n_classes)

    m = order.shape[1]
    block = min(len(features), max(1, _SCAN_CELLS // m))
    level = _level(segments, counts, y, block)
    margin = _tie_margin(sizes)
    best = np.zeros(len(sizes))  # each node's smallest w so far
    X_t = np.ascontiguousarray(X.T)  # a view when X is in Fortran order, as train keeps it
    columns = np.array(features, dtype=np.int64)
    # (w, row of order, position, packed counts left of it) near a node's min
    near: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for start in range(0, len(features), block):
        w, packed = _scan(X_t, columns[start:start + block], order[start:start + block], level)
        low = w.min(axis=0)
        np.minimum(best, np.minimum.reduceat(low, starts), out=best)
        # a node with no boundary so far (best 0) has no candidates, and
        # only positions whose block minimum is near hold any
        limit = np.where(best < 0, best + margin, -np.inf)[level.node]
        pos = np.flatnonzero(low <= limit)
        i, j = np.nonzero(w[:, pos] <= limit[pos])
        pos = pos[j]
        near.append((w[i, pos], i + start, pos, packed[:, i, pos]))
    w, i, pos, packed = (np.concatenate(parts, axis=-1) for parts in zip(*near))
    at = level.node[pos]
    # each node's candidates within its final margin, in ascending (feature,
    # threshold) order, so that the first exact minimum wins
    pick = np.flatnonzero(w <= (best + margin)[at])
    if not len(pick):
        return splits
    pick = pick[np.argsort(at[pick], kind="stable")]
    i, pos, at, packed = i[pick], pos[pick], at[pick], packed[:, pick]

    # Lower weighted child impurity A / (n * nl * nr) means higher gain.
    exact = np.int64 if m < _INT64_RERANK_ROWS else object
    per_word, mask = 63 // level.bits, (1 << level.bits) - 1
    left = np.stack([(packed[c // per_word] >> level.bits * (c % per_word)) & mask
                     for c in range(n_classes)], axis=1).astype(exact)
    right = counts[at].astype(exact) - left
    nl = (pos - starts[at] + 1).astype(exact)
    nr = sizes[at].astype(exact) - nl
    # A = nr*(nl^2 - sum(left^2)) + nl*(nr^2 - sum(right^2))
    a = nr * (nl * nl - (left * left).sum(axis=1)) + nl * (nr * nr - (right * right).sum(axis=1))
    pair = nl * nr
    # The float quotient of the exact integers is off by an ulp or two, so a
    # relative 1e-12 keeps every exact minimum of a node; where more than one
    # candidate is left, cross-multiplied Python ints pick the first minimum.
    ratio = a.astype(np.float64) / pair.astype(np.float64)
    first = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])
    group = np.repeat(np.arange(len(first)), np.diff(np.r_[first, len(at)]))
    tied = np.flatnonzero(ratio <= np.minimum.reduceat(ratio, first)[group] * (1 + 1e-12))
    lead = np.r_[True, group[tied[1:]] != group[tied[:-1]]]
    winners = tied[lead].tolist()  # one per group, as each holds its float minimum
    a_list, pair_list = a.tolist(), pair.tolist()
    for g, other in zip(group[tied[~lead]].tolist(), tied[~lead].tolist()):
        j = winners[g]
        if a_list[other] * pair_list[j] < a_list[j] * pair_list[other]:
            winners[g] = other

    i, pos, at = i[winners], pos[winners], at[winners]
    fis = np.array(features)[i]
    lo, hi = X[order[i, pos], fis], X[order[i, pos + 1], fis]
    mid = (lo + hi) / 2.0
    thresholds = np.where(mid >= hi, lo, mid)  # midpoint rounded up between adjacent floats
    totals_list, sizes_list = counts.tolist(), sizes.tolist()
    for j, node_j, row, threshold in zip(winners, at.tolist(), i.tolist(), thresholds.tolist()):
        totals, n = totals_list[node_j], sizes_list[node_j]
        # positive gain check, exact: (n^2 - parent_sq) * pair > A * n
        if (n * n - sum(c * c for c in totals)) * pair_list[j] <= a_list[j] * n:
            continue
        splits[node_j] = (features[row], threshold, gini(totals) - a_list[j] / (n * pair_list[j]))
    return splits


class TreeNode(NamedTuple):
    """One row of a tree's node table. A leaf is (-1, 0.0, -1, -1, counts)."""

    feature: int  # -1 marks a leaf
    threshold: float
    left: int  # child indexes into the node table, -1 for leaves
    right: int
    counts: tuple[int, ...]

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class DecisionTreeModel:
    nodes: tuple[TreeNode, ...]
    max_depth: int
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    training_meta: dict = field(default_factory=dict)
    # predict_proba's walk, made from nodes once: their feature, threshold, left
    # and right columns, each leaf's class probabilities, and the feature count
    _walk: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        features, thresholds, lefts, rights, counts = zip(*self.nodes)
        leaves = tuple(tuple(c / total for c in row) if fi < 0 else None
                       for fi, row, total in zip(features, counts, map(sum, counts)))
        object.__setattr__(self, "_walk", (features, thresholds, lefts, rights, leaves,
                                           len(self.feature_names)))

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def schema_hash(self) -> str:
        return schema_hash(self.feature_names)


def row_views(X: np.ndarray) -> Iterator[memoryview]:
    """Each row of a 2-D matrix as a memoryview of float64. Indexing a view
    gives a Python float, and only the features a walk reads are made into
    floats."""
    arr = np.ascontiguousarray(X, dtype=np.float64)
    n = arr.shape[1]
    flat = memoryview(arr.reshape(-1))
    return (flat[i * n:i * n + n] for i in range(len(arr)))


def _as_matrix(X) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("feature matrix must be 2-dimensional")
    return arr


def _check_prior(prior: DecisionTreeModel, root: np.ndarray, f: int, candidates: tuple[int, ...],
                 class_names: tuple[str, ...], max_depth: int, min_samples_split: int) -> None:
    """ValueError unless prior could have been grown on this call's rows from
    a superset of its candidates, with the same classes and limits."""
    meta, counts = prior.training_meta, tuple(root.tolist())
    grown_from = meta.get("candidate_features")
    if grown_from is None:
        grown_from = range(prior.n_features)
    problems = [
        (prior.n_features != f, f"{prior.n_features} features, not {f}"),
        (prior.class_names != class_names, f"classes {prior.class_names}, not {class_names}"),
        (prior.max_depth != max_depth, f"max_depth {prior.max_depth!r}, not {max_depth}"),
        (meta.get("min_samples_split") != min_samples_split,
         f"min_samples_split {meta.get('min_samples_split')!r}, not {min_samples_split}"),
        (meta.get("n_samples") != sum(counts),
         f"{meta.get('n_samples')!r} rows, not {sum(counts)}"),
        (prior.nodes[0].counts != counts,
         f"root class counts {prior.nodes[0].counts}, not {counts}"),
        (not isinstance(grown_from, (list, range)) or any(c not in grown_from for c in candidates),
         "candidates that are not a superset of these"),
    ]
    for failed, what in problems:
        if failed:
            raise ValueError(f"prior tree was grown with {what}")


def train(
    X,
    y: Sequence[str],
    feature_names: Sequence[str],
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_samples_split: int = DEFAULT_MIN_SAMPLES_SPLIT,
    seed: int = DEFAULT_SEED,
    candidate_features: Sequence[int] | None = None,
    *,
    presorted: np.ndarray | None = None,
    prior: DecisionTreeModel | None = None,
) -> DecisionTreeModel:
    """Deterministic recursive partitioning; stops at depth, purity or size.
    The classes are dataset.class_order(y).

    candidate_features restricts which columns may be split on without
    changing the feature space (used by importance pruning).

    The tree grows one level at a time. A candidate column with one value
    over all rows can split no node, so it is dropped once, before the first
    level; training_meta still records the candidates asked for. Each other
    candidate column is argsorted once (presorted, when given, is that
    argsort: one row per such column in ascending order, as _presort returns
    it for them). The order matrix holds every node that may still split as
    a column segment, each row sorted by its feature; one best_split call
    searches them all. A stable partition of each row (left children, then
    right children) is written back over the start of that row, and the
    next level is that column slice of the same matrix, still sorted. So
    presorted, when given, is reordered in place. Nodes are renumbered to
    preorder at the end, as a depth-first recursion would number them.

    prior, when given, is a tree grown on the same rows and labels, with the
    same max_depth and min_samples_split, from a superset of this call's
    candidates (ValueError otherwise). The result is the tree
    grown without it. prior's table is cut at the first split on a dropped
    feature on each path, and only the nodes cut there grow again, all in
    the same calls whatever their depth. Above a cut every node keeps its
    outcome in prior: a split that wins over a superset of the candidates
    wins over any subset that keeps its feature, and a node with no
    positive-gain split over the superset has none over a subset. The order
    matrix starts as the rows of the cut nodes, grouped by a stable argsort
    of their cut nodes' numbers, in the smallest unsigned dtype that holds
    them (a radix sort below 65,536 cut nodes); the argsort holds an intp
    matrix of the order matrix's shape.

    seed does not steer training, which has no randomness; it is only
    recorded in training_meta. It stays because training_meta is part of the
    checksummed model payload, so dropping it would change the model bytes,
    and because it records the seed that cross_validate and the CLI use for
    fold and hold-out assignment.
    """
    arr = _as_matrix(X)
    n, f = arr.shape
    if n == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if f != len(feature_names):
        raise DimensionMismatch(f"matrix has {f} columns, {len(feature_names)} names given")
    if len(y) != n:
        raise DimensionMismatch(f"matrix has {n} rows, {len(y)} labels given")
    if not np.isfinite(arr).all():
        raise UncleanData("dataset contains non-finite values; run cleaning first")
    arr = np.asfortranarray(arr)  # each column contiguous, for the scan's gathers
    class_names = tuple(class_order(y))
    class_index = {c: i for i, c in enumerate(class_names)}
    labels = np.array([class_index[v] for v in y], dtype=np.int64)
    k = len(class_names)
    candidates = tuple(range(f)) if candidate_features is None else tuple(sorted(candidate_features))

    root = np.bincount(labels, minlength=k)
    nodes = [TreeNode(-1, 0.0, -1, -1, tuple(root.tolist()))]  # in breadth-first order
    growing: list[int] = []  # the nodes that may split, in the order of their segments
    depth: list[int] = []  # the depth of each
    if prior is not None:
        _check_prior(prior, root, f, candidates, class_names, max_depth, min_samples_split)
        # prior's table, cut at the first split on a dropped feature on each
        # path: that node becomes a leaf that grows again, and the nodes below
        # it are never reached
        nodes = list(prior.nodes)
        kept, stack = set(candidates), [(0, 0)]
        while stack:
            i, d = stack.pop()
            node = nodes[i]
            if node.feature in kept:
                stack += (node.right, d + 1), (node.left, d + 1)
            else:  # a leaf, written as train writes one, or a cut node
                nodes[i] = TreeNode(-1, 0.0, -1, -1, node.counts)
                if not node.is_leaf:
                    growing.append(i)
                    depth.append(d)
    elif max_depth > 0 and n >= min_samples_split and root.max() < n:
        growing, depth = [0], [0]
    varying = _varying(arr, candidates)
    if growing and varying:
        order = _presort(arr, varying) if presorted is None else presorted
        bounds = np.array([0, n])
        if prior is not None:
            # each row walks the cut table down to its node; every row of
            # order is then grouped by cut node, stably so that each segment
            # stays sorted, and the rows that reached no cut node are dropped
            feature, threshold, left, right, _ = zip(*nodes)
            feature, threshold, children = np.array(feature), np.array(threshold), np.array((left, right))
            at = np.zeros(n, dtype=np.intp)
            for _ in range(_table_depth(nodes)):
                fi = feature[at]
                at = np.where(fi >= 0, children[(arr[np.arange(n), fi] > threshold[at]) * 1, at], at)
            # the smallest unsigned keys that hold every cut node's number and
            # len(growing), the no-cut key: numpy's stable argsort radix-sorts
            # keys of 16 bits or fewer, and comparison-sorts wider ones
            keys = np.min_scalar_type(len(growing))
            segment = np.full(len(nodes), len(growing), dtype=keys)
            segment[growing] = np.arange(len(growing))
            cut = segment[at]
            bounds = np.r_[0, np.cumsum(np.bincount(cut, minlength=len(growing) + 1)[:-1])]
            by_cut = np.argsort(cut[order], axis=1, kind="stable")[:, :bounds[-1]]
            order = np.take_along_axis(order, by_cut, axis=1)
    else:
        growing = []
    depth = np.array(depth)
    code = np.empty(n, dtype=np.int8)  # per row: 0 left, 1 right child still growing, 2 done
    while growing:
        splits = best_split(arr, labels, k, varying, order, bounds)
        rows = order[0]
        at = np.repeat(np.arange(len(growing)), np.diff(bounds))
        feature = np.array([-1 if s is None else s[0] for s in splits])[at]
        threshold = np.array([0.0 if s is None else s[1] for s in splits])[at]
        split = feature >= 0
        child = 2 * at + (arr[rows, feature] > threshold)  # left, right slot per node
        child_counts = np.bincount(child[split] * k + labels[rows[split]], minlength=2 * len(growing) * k)
        child_counts = child_counts.reshape(2 * len(growing), k)
        child_sizes = child_counts.sum(axis=1)
        depth += 1
        grows = (child_counts.max(axis=1) < child_sizes) & (child_sizes >= min_samples_split)
        grows &= np.repeat(depth, 2) < max_depth
        ids = np.full(2 * len(growing), -1)  # node of each child slot
        counts_list = child_counts.tolist()
        for j, s in enumerate(splits):
            if s is not None:
                ids[2 * j:2 * j + 2] = len(nodes), len(nodes) + 1
                parent = growing[j]
                nodes[parent] = TreeNode(s[0], s[1], len(nodes), len(nodes) + 1, nodes[parent].counts)
                nodes += [TreeNode(-1, 0.0, -1, -1, tuple(c)) for c in counts_list[2 * j:2 * j + 2]]
        if not grows.any():
            break
        # stable partition of every row: the growing left children, then the
        # growing right children, each in the order of its parent's segment
        code[rows] = np.where(grows, np.arange(2 * len(growing)) % 2, 2)[child]
        sizes = child_sizes[0::2][grows[0::2]], child_sizes[1::2][grows[1::2]]
        m_left, m_right = int(sizes[0].sum()), int(sizes[1].sum())
        block = max(1, _SCAN_CELLS // order.shape[1])
        index = np.empty((min(block, len(order)), order.shape[1]), dtype=np.intp)
        for start in range(0, len(order), block):
            part = order[start:start + block]
            np.copyto(index[:len(part)], part)
            side = code.take(index[:len(part)]).ravel()
            # np.compress on flat arrays; a 2-D boolean index is several times
            # slower. Both sides are copied out before either is written back
            left = np.compress(side == 0, part).reshape(len(part), m_left)
            right = np.compress(side == 1, part).reshape(len(part), m_right)
            part[:, :m_left] = left
            part[:, m_left:m_left + m_right] = right
        order = order[:, :m_left + m_right]
        bounds = np.r_[0, np.cumsum(np.concatenate(sizes))]
        growing = ids[0::2][grows[0::2]].tolist() + ids[1::2][grows[1::2]].tolist()
        depth = np.r_[depth[grows[0::2]], depth[grows[1::2]]]

    preorder = []
    stack = [0]
    while stack:
        i = stack.pop()
        preorder.append(i)
        if not nodes[i].is_leaf:
            stack += nodes[i].right, nodes[i].left
    number = [-1] * (len(nodes) + 1)  # the last entry keeps a leaf's -1 children -1
    for new, i in enumerate(preorder):
        number[i] = new
    return DecisionTreeModel(
        nodes=tuple(nodes[i]._replace(left=number[nodes[i].left], right=number[nodes[i].right])
                    for i in preorder),
        max_depth=max_depth,
        feature_names=tuple(feature_names),
        class_names=class_names,
        training_meta={
            "seed": seed,
            "n_samples": n,
            "min_samples_split": min_samples_split,
            "candidate_features": list(candidates) if candidate_features is not None else None,
            "importance_threshold": None,
        },
    )


def predict_proba(model: DecisionTreeModel, vector: Sequence[float]) -> tuple[float, ...]:
    """Relative class frequencies of the reached leaf; sums to 1. Every row
    that reaches a leaf gets the same tuple, made when the model was."""
    features, thresholds, lefts, rights, leaves, n_features = model._walk
    if len(vector) != n_features:
        raise DimensionMismatch(
            f"vector has {len(vector)} features, model expects {n_features}"
        )
    i = 0
    feature = features[0]
    while feature >= 0:
        i = lefts[i] if vector[feature] <= thresholds[i] else rights[i]
        feature = features[i]
    return leaves[i]


def best_class(proba: Sequence[float]) -> int:
    """Index of the most probable class; ties go to the first class of the
    model's class_names."""
    return proba.index(max(proba))


def feature_importances(model: DecisionTreeModel) -> tuple[float, ...]:
    """Normalized Gini importances; all zeros for a single-leaf tree."""
    raw = [0.0] * model.n_features
    n_root = sum(model.nodes[0].counts)
    for node in model.nodes:
        if node.is_leaf:
            continue
        left = model.nodes[node.left]
        right = model.nodes[node.right]
        n_node = sum(node.counts)
        decrease = gini(node.counts) - (
            sum(left.counts) / n_node * gini(left.counts)
            + sum(right.counts) / n_node * gini(right.counts)
        )
        raw[node.feature] += n_node / n_root * decrease
    total = sum(raw)
    if total <= 0.0:
        return tuple(0.0 for _ in raw)
    return tuple(v / total for v in raw)


def select_features(importances: Sequence[float], threshold: float) -> tuple[int, ...]:
    """Indexes of the features whose importance reaches the threshold."""
    selected = tuple(i for i, imp in enumerate(importances) if imp >= threshold)
    if not selected:
        raise AllFeaturesPruned(f"threshold {threshold} removed all {len(importances)} features")
    return selected


def prune_features(
    X,
    y: Sequence[str],
    feature_names: Sequence[str],
    threshold: float = IMPORTANCE_THRESHOLD_COMPACT,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_samples_split: int = DEFAULT_MIN_SAMPLES_SPLIT,
    seed: int = DEFAULT_SEED,
) -> tuple[tuple[int, ...], DecisionTreeModel]:
    """Single pass: train on everything, drop features with importance below
    the threshold, retrain restricted to the survivors.

    The retrained tree is grown with the full one as its prior (see train):
    same rows, labels and limits, and the survivors are a subset of all
    features, so only the nodes below the full tree's splits on dropped
    features are searched again."""
    full = train(X, y, feature_names, max_depth=max_depth, min_samples_split=min_samples_split,
                 seed=seed)
    selected = select_features(feature_importances(full), threshold)
    pruned = train(X, y, feature_names, max_depth=max_depth, min_samples_split=min_samples_split,
                   seed=seed, candidate_features=selected, prior=full)
    pruned.training_meta["importance_threshold"] = threshold
    return selected, pruned


def _cores() -> int:
    """The CPUs this process may run on: its affinity set, which taskset
    limits, or every CPU where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_T = TypeVar("_T")

# The most trees grown at once. The Python part of each level holds the
# interpreter lock, so two threads grew trees 1.2-1.4 times as fast as one
# on a 2-CPU host, and a third was never measured; each tree in flight holds
# its own fold copy and order matrix, so the cap also bounds the memory
_MAX_WORKERS = 2


def run_independent(calls: Sequence[Callable[[], _T]]) -> list[_T]:
    """Each call's result, in the order of calls, from
    min(len(calls), cores, _MAX_WORKERS) threads. The calls must share no
    state that one of them changes. numpy releases the interpreter lock in
    most of a tree's array work, so trees grown side by side overlap. With
    one worker the calls run one after another in this thread, and no
    thread starts. Every result is read in call order, so the first failing
    call's exception is raised, as in a serial loop, and the calls not yet
    started are dropped."""
    workers = min(len(calls), _cores(), _MAX_WORKERS)
    if workers <= 1:
        return [call() for call in calls]
    from concurrent.futures import ThreadPoolExecutor  # here: extract and inspect never train

    pool = ThreadPoolExecutor(workers)
    try:
        futures = [pool.submit(call) for call in calls]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class CvReport:
    fold_accuracies: tuple[float, ...]
    mean: float
    std: float
    confusion: tuple[tuple[int, ...], ...]  # rows true class, columns predicted
    class_names: tuple[str, ...]
    params: dict
    # each fold's tree, in fold order; a later cross_validate may grow its
    # folds from them (its prior)
    fold_models: tuple[DecisionTreeModel, ...] = field(default=(), compare=False, repr=False)

    def render(self) -> str:
        lines = [
            f"{len(self.fold_accuracies)}-fold cross-validation "
            f"(max_depth={self.params['max_depth']}, seed={self.params['seed']})",
            f"mean accuracy: {self.mean:.6f}  std: {self.std:.6f}",
            "fold accuracies: " + ", ".join(f"{a:.6f}" for a in self.fold_accuracies),
            "confusion matrix (rows true, columns predicted):",
        ]
        width = max(len(c) for c in self.class_names) + 2
        header = " " * width + "".join(f"{c:>{width}}" for c in self.class_names)
        lines.append(header)
        for name, row in zip(self.class_names, self.confusion):
            lines.append(f"{name:>{width}}" + "".join(f"{v:>{width}}" for v in row))
        return "\n".join(lines) + "\n"


def cross_validate(
    X,
    y: Sequence[str],
    feature_names: Sequence[str],
    k: int = DEFAULT_K_FOLDS,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_samples_split: int = DEFAULT_MIN_SAMPLES_SPLIT,
    seed: int = DEFAULT_SEED,
    candidate_features: Sequence[int] | None = None,
    *,
    prior: CvReport | None = None,
) -> CvReport:
    """Stratified k-fold accuracy with a summed confusion matrix.

    The candidate columns are argsorted once, but for those with one value
    over all rows, which split no fold. A fold's presort is that order with
    the held-out rows taken out and the rest renumbered; removing rows keeps
    the order of ties, so it equals a stable argsort of the fold. It leaves
    out the columns with one value over the fold's rows, as train does. The
    folds are grown through run_independent, at most two at once, and scored
    in fold order, so the report is the same for any number of cores.

    The classes are dataset.class_order(y). A fold holds out at most
    ceil(c / k) <= c - 1 of a class's c >= k rows, so each fold's tree has
    the same classes.

    prior, when given, is a report of this function on the same X and y,
    with the same k, seed, max_depth, min_samples_split and classes
    (ValueError otherwise), from a superset of these candidates. Each fold
    is then grown with the same fold of prior as its prior tree (see train),
    which searches only below the splits on dropped features; the report is
    the one grown without it.
    """
    arr = _as_matrix(X)
    if len(y) != len(arr):
        raise DimensionMismatch(f"matrix has {len(arr)} rows, {len(y)} labels given")
    class_names = tuple(class_order(y))
    class_index = {c: i for i, c in enumerate(class_names)}
    params = {"k": k, "max_depth": max_depth, "min_samples_split": min_samples_split, "seed": seed}
    if prior is not None and (prior.params != params or prior.class_names != class_names
                              or len(prior.fold_models) != k):
        raise ValueError(
            f"prior report has {prior.params}, classes {prior.class_names} and "
            f"{len(prior.fold_models)} fold trees; this one needs {params}, classes "
            f"{class_names} and {k}"
        )
    if not len(arr):
        raise EmptyDataset("cannot train on an empty dataset")
    folds = stratified_folds(y, k, seed)
    y_list = list(y)
    candidates = range(arr.shape[1]) if candidate_features is None else sorted(candidate_features)
    candidates = _varying(arr, candidates)
    order = _presort(arr, candidates)

    def grow(fold: list[int], fold_prior: DecisionTreeModel | None) -> DecisionTreeModel:
        in_train = np.ones(len(y_list), dtype=bool)
        in_train[fold] = False
        train_idx = np.flatnonzero(in_train)
        fold_X = arr[train_idx]
        varying = _varying(fold_X, candidates)
        rows = order if len(varying) == len(candidates) else order[np.isin(candidates, varying)]
        renumber = np.cumsum(in_train, dtype=order.dtype) - 1  # row -> row of the fold
        fold_order = renumber[rows[in_train[rows]]].reshape(len(rows), len(train_idx))
        return train(
            fold_X, [y_list[i] for i in train_idx], feature_names, max_depth=max_depth,
            min_samples_split=min_samples_split, seed=seed,
            candidate_features=candidate_features, presorted=fold_order,
            prior=fold_prior,
        )

    priors = [None] * k if prior is None else prior.fold_models
    models = run_independent([partial(grow, fold, p) for fold, p in zip(folds, priors)])
    accuracies: list[float] = []
    confusion = [[0] * len(class_names) for _ in class_names]
    for fold, model in zip(folds, models):
        correct = 0
        for i, row in zip(fold, row_views(arr[fold])):
            truth, predicted = class_index[y_list[i]], best_class(predict_proba(model, row))
            confusion[truth][predicted] += 1
            correct += predicted == truth
        accuracies.append(correct / len(fold))

    mean = sum(accuracies) / len(accuracies)
    if len(accuracies) > 1:
        std = math.sqrt(sum((a - mean) ** 2 for a in accuracies) / (len(accuracies) - 1))
    else:
        std = 0.0
    return CvReport(
        fold_accuracies=tuple(accuracies),
        mean=mean,
        std=std,
        confusion=tuple(tuple(row) for row in confusion),
        class_names=class_names,
        params=params,
        fold_models=tuple(models),
    )


def _model_payload(model: DecisionTreeModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "max_depth": model.max_depth,
        "feature_names": list(model.feature_names),
        "schema_hash": model.schema_hash,
        "class_names": list(model.class_names),
        "training_meta": model.training_meta,
        "nodes": [[*node[:4], list(node.counts)] for node in model.nodes],
    }


def _checksum(payload) -> str:
    """sha256 of the payload's canonical JSON body: sorted keys, no spaces."""
    import hashlib  # here, not at the top: extract and inspect never hash

    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def model_bytes(model: DecisionTreeModel) -> bytes:
    """Canonical serialized form; identical training runs give identical bytes."""
    payload = _model_payload(model)
    return json.dumps({"checksum": _checksum(payload), "payload": payload}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def save_model(model: DecisionTreeModel, path: str | Path) -> None:
    """Write model_bytes through a temp file and rename; a failure leaves no file."""
    blob = model_bytes(model)
    atomic_write_text(path, lambda fh: fh.write(blob), binary=True)


def _node_table(raw, n_features: int, n_classes: int) -> tuple[TreeNode, ...]:
    """The stored node table, checked so that every walk from the root moves
    down the table (preorder: children come after their parent) and ends on
    a leaf with a usable class count. ValueError names the first bad node."""
    if not isinstance(raw, list) or not raw:
        raise ValueError("empty or missing node table")
    for i, node in enumerate(raw):
        if not isinstance(node, list) or len(node) != 5:
            raise ValueError(f"node {i} does not have 5 fields")
        feature, threshold, left, right, counts = node
        # exact types: bool is an int subclass, so JSON's true would pass as feature 1
        if not all(type(v) is int for v in (feature, left, right)):
            raise ValueError(f"node {i} has a non-int feature or child")
        if type(threshold) not in (int, float):
            raise ValueError(f"node {i} has a non-numeric threshold")
        # a NaN threshold sends every row right, and an int beyond the float
        # range cannot be compared as a float
        if not abs(threshold) <= sys.float_info.max:
            raise ValueError(f"node {i} has a threshold that is not a finite float")
        if not -1 <= feature < n_features:
            raise ValueError(f"node {i} splits on feature {feature} of {n_features}")
        if feature == -1 and (left, right) != (-1, -1):
            raise ValueError(f"leaf {i} has children {left}, {right}")
        if feature >= 0 and not (i < left < len(raw) and i < right < len(raw)):
            raise ValueError(f"node {i} has children {left}, {right} outside {i + 1}..{len(raw) - 1}")
        if not (isinstance(counts, list) and len(counts) == n_classes
                and all(type(c) is int and c >= 0 for c in counts) and sum(counts) > 0):
            raise ValueError(f"node {i} counts are not {n_classes} non-negative ints with samples")
    return tuple(TreeNode(f, t, l, r, tuple(counts)) for f, t, l, r, counts in raw)


def _names(raw, field_name: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(name, str) for name in raw):
        raise ValueError(f"{field_name} is not a list of strings")
    if len(set(raw)) != len(raw):
        raise ValueError(f"{field_name} repeats a name")
    return tuple(raw)


def _table_depth(nodes: Sequence[TreeNode]) -> int:
    depth = [0] * len(nodes)
    for i, node in enumerate(nodes):  # children come after their parent
        if not node.is_leaf:
            depth[node.left] = depth[node.right] = depth[i] + 1
    return max(depth)


def load_model(path: str | Path) -> DecisionTreeModel:
    """Inverse of save_model; checksum, version, node-table or field problems
    raise CorruptModel. Beyond the node table, a field is checked to be what
    save_model writes: max_depth an int no smaller than the table's depth,
    the names distinct, the feature names non-empty, the stored schema hash
    that of the feature names, training_meta an object. A class may be
    named "": the library trains on any label. Last, the loaded model must
    save to the same checksum, so every field is as save_model writes it,
    JSON type for JSON type (a `"version": true` is not 1)."""
    try:
        wrapper = json.loads(Path(path).read_bytes())
        checksum = wrapper["checksum"]
        payload = wrapper["payload"]
    except (ValueError, RecursionError, KeyError, TypeError) as exc:  # bad UTF-8 or JSON, too deep
        raise CorruptModel(f"{path}: not a model file ({exc})") from exc
    if _checksum(payload) != checksum:
        raise CorruptModel(f"{path}: checksum mismatch")
    if not isinstance(payload, dict):
        raise CorruptModel(f"{path}: payload is not an object")
    if payload.get("format") != MODEL_FORMAT or payload.get("version") != MODEL_VERSION:
        raise CorruptModel(
            f"{path}: unsupported format {payload.get('format')!r} v{payload.get('version')!r}"
        )
    try:
        feature_names = _names(payload["feature_names"], "feature_names")
        if "" in feature_names:
            raise ValueError("feature_names has an empty name")
        stored_hash, names_hash = payload["schema_hash"], schema_hash(feature_names)
        if stored_hash != names_hash:
            raise ValueError(f"stored schema hash {stored_hash!r} is not the schema hash "
                             f"{names_hash} of its feature_names")
        class_names = _names(payload["class_names"], "class_names")
        nodes = _node_table(payload["nodes"], len(feature_names), len(class_names))
        max_depth, training_meta = payload["max_depth"], payload["training_meta"]
        if type(max_depth) is not int or max_depth < _table_depth(nodes):  # bool is not an int here
            raise ValueError(f"max_depth {max_depth!r} is not an int of at least the table's depth")
        if not isinstance(training_meta, dict):
            raise ValueError("training_meta is not an object")
        model = DecisionTreeModel(
            nodes=nodes,
            max_depth=max_depth,
            feature_names=feature_names,
            class_names=class_names,
            training_meta=training_meta,
        )
    except KeyError as exc:
        raise CorruptModel(f"{path}: model has no {exc} field") from exc
    except ValueError as exc:
        raise CorruptModel(f"{path}: {exc}") from exc
    if _checksum(_model_payload(model)) != checksum:
        raise CorruptModel(f"{path}: a field is not as save_model writes it")
    return model
