"""CART-style decision tree: training, Gini importances, pruning, k-fold CV.

Splits minimize Gini impurity over every midpoint between consecutive
distinct feature values. Near-tied candidates are re-compared with exact
integer arithmetic so the chosen split is reproducible across platforms
and reimplementations: ties go to the lowest feature index, then the
lowest threshold. Prediction ties go to the first class in declared order.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import atomic_write_text
from .errors import (
    AllFeaturesPruned,
    CorruptModel,
    DimensionMismatch,
    EmptyDataset,
    InsufficientSamples,
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

def _tie_margin(n: int) -> float:
    # float scores within this margin of the best are re-ranked exactly;
    # comfortably above the scan's accumulated rounding error (which grows
    # with n), and false inclusions only cost an exact re-check
    return 1e-9 + n * 1e-13


# Cells (features x node rows) that one block of the split scan covers. The
# scan's temporaries take about 42 bytes per cell plus 4 per class, so a
# block of four classes stays near 15 MB at any dataset size.
_SCAN_CELLS = 1 << 18


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


def _scan(
    values: np.ndarray, labels: np.ndarray, parent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Float weighted child impurity w = A / (nl * nr) after each position of
    each sorted row, inf where the next value is equal (no boundary there),
    and the (classes x features x n - 1) integer counts of each class left of
    each position.

    values and labels are (features x n) in the same sorted order; parent
    holds the node's class counts as floats.
    """
    n = values.shape[1]
    nl = np.arange(1, n, dtype=np.float64)
    sum_sq_left = np.zeros((len(values), n - 1))
    sum_sq_right = np.zeros((len(values), n - 1))
    square = np.empty((len(values), n - 1))
    lefts = np.empty((len(parent), len(values), n - 1), dtype=np.int32 if n < 2**31 else np.int64)
    left_labels = labels[:, :-1]
    for c, total in enumerate(parent):
        left = np.cumsum(left_labels == c, axis=1, dtype=lefts.dtype, out=lefts[c])
        # squares are exact integers in float64; in int32 they could overflow
        sum_sq_left += np.multiply(left, left, out=square, dtype=np.float64)
        np.subtract(left, total, out=square, dtype=np.float64)  # minus the right count
        sum_sq_right += np.multiply(square, square, out=square)
    sum_sq_left /= nl
    sum_sq_right /= nl[::-1]
    sum_sq_left += sum_sq_right
    w = np.subtract(n, sum_sq_left, out=sum_sq_left)  # n - (sl / nl + sr / nr)
    w[values[:, 1:] == values[:, :-1]] = np.inf
    return w, lefts


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    candidate_features: Sequence[int],
    order: np.ndarray | None = None,
) -> tuple[int, float, float] | None:
    """Exhaustive best (feature, threshold) by Gini gain; None without positive gain.

    y must be integer class ids in [0, n_classes). Returns (feature_index,
    threshold, gain). Without order the node is every row of X. With it,
    order[i] lists the node's row indexes of X sorted stably by feature
    sorted(candidate_features)[i], as train passes them down the tree.

    All features are scanned at once in float, in blocks of at most
    _SCAN_CELLS cells. Every position whose w is within _tie_margin(n) of the
    smallest w over all features is then re-ranked with exact integers. The
    float w of any position is off by at most a few ulps of n: counts and
    their squared sums are exact in float64 below 2**26 rows, and two
    divisions, one add and one subtract leave an error below n * 5e-16, a
    hundredth of the margin. So the exact winner, and every position tied
    with it, is among those re-ranked, and the exact order (impurity, then
    feature, then threshold) picks the same split as a search that re-ranked
    every position.
    """
    features = sorted(candidate_features)
    if order is None:
        order = _presort(X, features)
    n = order.shape[1]
    if n < 2 or not features:
        return None
    parent_counts = np.bincount(y[order[0]], minlength=n_classes)
    parent_sq = int((parent_counts * parent_counts).sum())
    if parent_sq == n * n:  # pure node
        return None

    margin = _tie_margin(n)
    parent = parent_counts.astype(np.float64)
    columns = np.array(features)[:, None]
    block = max(1, _SCAN_CELLS // n)
    w_min = np.inf
    # (w, row of order, position, class counts left of it) near a block's min
    near: list[tuple[float, int, int, list[int]]] = []
    for start in range(0, len(features), block):
        rows = order[start:start + block]
        w, lefts = _scan(X[rows, columns[start:start + block]], y[rows], parent)
        block_min = w.min()
        if block_min == np.inf or block_min > w_min + margin:
            continue
        w_min = min(w_min, block_min)
        i, pos = np.nonzero(w <= block_min + margin)
        near += zip(w[i, pos].tolist(), (i + start).tolist(), pos.tolist(),
                    lefts[:, i, pos].T.tolist())
    if w_min == np.inf:
        return None

    # Lower weighted child impurity A / (n * nl * nr) means higher gain, so
    # candidates compare by cross-multiplied integer products. near runs in
    # ascending (feature, threshold) order, so the first exact minimum wins.
    totals = parent_counts.tolist()
    best: tuple[int, int, int, int] | None = None  # (A, nl * nr, row of order, position)
    for w_float, i, b, l_counts in near:
        if w_float > w_min + margin:
            continue
        nl_i = b + 1
        nr_i = n - nl_i
        s_left = sum(c * c for c in l_counts)
        s_right = sum((t - c) * (t - c) for t, c in zip(totals, l_counts))
        # A = nr*(nl^2 - sum(left^2)) + nl*(nr^2 - sum(right^2))
        a = nr_i * (nl_i * nl_i - s_left) + nl_i * (nr_i * nr_i - s_right)
        pair = nl_i * nr_i
        if best is None or a * best[1] < best[0] * pair:
            best = (a, pair, i, b)

    a, pair, i, b = best
    # positive gain check, exact: (n^2 - parent_sq) * pair > A * n
    if (n * n - parent_sq) * pair <= a * n:
        return None
    fi = features[i]
    lo, hi = X[order[i, b], fi], X[order[i, b + 1], fi]
    threshold = float((lo + hi) / 2.0)
    if threshold >= hi:  # midpoint rounded up between adjacent floats
        threshold = float(lo)
    return fi, threshold, gini(totals) - a / (n * pair)


@dataclass(frozen=True)
class TreeNode:
    feature: int  # -1 marks a leaf
    threshold: float
    left: int  # child indexes into the node array, -1 for leaves
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

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def schema_hash(self) -> str:
        return schema_hash(self.feature_names)


def _as_matrix(X) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("feature matrix must be 2-dimensional")
    return arr


def train(
    X,
    y: Sequence[str],
    feature_names: Sequence[str],
    class_names: Sequence[str] | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_samples_split: int = DEFAULT_MIN_SAMPLES_SPLIT,
    seed: int = DEFAULT_SEED,
    candidate_features: Sequence[int] | None = None,
) -> DecisionTreeModel:
    """Deterministic recursive partitioning; stops at depth, purity or size.

    candidate_features restricts which columns may be split on without
    changing the feature space (used by importance pruning).

    Each candidate column is argsorted once; every node hands best_split its
    rows in that order and splits the order matrix stably into its children.

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
    if not np.isfinite(arr).all():
        raise UncleanData("dataset contains non-finite values; run cleaning first")
    if class_names is None:
        class_names = sorted(set(y))
    class_index = {c: i for i, c in enumerate(class_names)}
    labels = np.array([class_index[v] for v in y], dtype=np.int64)
    k = len(class_names)
    candidates = tuple(range(f)) if candidate_features is None else tuple(sorted(candidate_features))

    nodes: list[TreeNode] = []
    # depth first, left before right, so nodes are numbered in preorder as a
    # recursion would; pending nodes hold disjoint rows, so their row-order
    # matrices together hold at most n_candidates x n indexes
    pending = [(_presort(arr, candidates), 0, -1)]  # (order, depth, parent of a right child)
    goes_left = np.empty(n, dtype=bool)
    while pending:
        order, depth, parent = pending.pop()
        my_index = len(nodes)
        if parent >= 0:
            nodes[parent] = replace(nodes[parent], right=my_index)
        rows = order[0] if candidates else np.arange(n)  # without candidates only the root exists
        counts = tuple(int(c) for c in np.bincount(labels[rows], minlength=k))
        nodes.append(TreeNode(-1, 0.0, -1, -1, counts))
        split = None
        if depth < max_depth and len(rows) >= min_samples_split:
            split = best_split(arr, labels, k, candidates, order)
        if split is not None:
            fi, threshold, _gain = split
            nodes[my_index] = TreeNode(fi, threshold, my_index + 1, -1, counts)
            goes_left[rows] = arr[rows, fi] <= threshold
            mask = goes_left[order]
            n_left = int(mask[0].sum())
            pending.append((order[~mask].reshape(len(order), -1), depth + 1, my_index))
            pending.append((order[mask].reshape(len(order), n_left), depth + 1, -1))

    return DecisionTreeModel(
        nodes=tuple(nodes),
        max_depth=max_depth,
        feature_names=tuple(feature_names),
        class_names=tuple(class_names),
        training_meta={
            "seed": seed,
            "n_samples": n,
            "min_samples_split": min_samples_split,
            "candidate_features": list(candidates) if candidate_features is not None else None,
            "importance_threshold": None,
        },
    )


def predict_proba(model: DecisionTreeModel, vector: Sequence[float]) -> tuple[float, ...]:
    """Relative class frequencies of the reached leaf; sums to 1."""
    if len(vector) != model.n_features:
        raise DimensionMismatch(
            f"vector has {len(vector)} features, model expects {model.n_features}"
        )
    nodes = model.nodes
    node = nodes[0]
    while not node.is_leaf:
        node = nodes[node.left if vector[node.feature] <= node.threshold else node.right]
    counts = node.counts
    total = sum(counts)
    return tuple(c / total for c in counts)


def best_class(proba: Sequence[float]) -> int:
    """Index of the most probable class; ties go to the first declared class."""
    return max(range(len(proba)), key=lambda i: (proba[i], -i))


def predict(model: DecisionTreeModel, vector: Sequence[float]) -> str:
    """Majority class of the reached leaf; ties go to the first declared class."""
    return model.class_names[best_class(predict_proba(model, vector))]


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
    class_names: Sequence[str] | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_samples_split: int = DEFAULT_MIN_SAMPLES_SPLIT,
    seed: int = DEFAULT_SEED,
) -> tuple[tuple[int, ...], DecisionTreeModel]:
    """Single pass: train on everything, drop features with importance below
    the threshold, retrain restricted to the survivors."""
    full = train(
        X, y, feature_names, class_names=class_names, max_depth=max_depth,
        min_samples_split=min_samples_split, seed=seed,
    )
    selected = select_features(feature_importances(full), threshold)
    pruned = train(
        X, y, feature_names, class_names=full.class_names, max_depth=max_depth,
        min_samples_split=min_samples_split, seed=seed, candidate_features=selected,
    )
    pruned.training_meta["importance_threshold"] = threshold
    return selected, pruned


@dataclass(frozen=True)
class CvReport:
    fold_accuracies: tuple[float, ...]
    mean: float
    std: float
    confusion: tuple[tuple[int, ...], ...]  # rows true class, columns predicted
    class_names: tuple[str, ...]
    params: dict

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


def stratified_folds(y: Sequence[str], k: int, seed: int) -> list[list[int]]:
    """Deterministic stratified fold assignment: per-class shuffle, round robin."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(y):
        by_class.setdefault(label, []).append(i)
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in sorted(by_class):
        idx = by_class[label]
        if len(idx) < k:
            raise InsufficientSamples(f"class {label!r} has {len(idx)} samples, need >= {k}")
        rng.shuffle(idx)
        for j, sample in enumerate(idx):
            folds[j % k].append(sample)
    return [sorted(fold) for fold in folds]


def cross_validate(
    X,
    y: Sequence[str],
    feature_names: Sequence[str],
    k: int = DEFAULT_K_FOLDS,
    class_names: Sequence[str] | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_samples_split: int = DEFAULT_MIN_SAMPLES_SPLIT,
    seed: int = DEFAULT_SEED,
    candidate_features: Sequence[int] | None = None,
) -> CvReport:
    """Stratified k-fold accuracy with a summed confusion matrix."""
    arr = _as_matrix(X)
    if class_names is None:
        class_names = sorted(set(y))
    class_index = {c: i for i, c in enumerate(class_names)}
    folds = stratified_folds(y, k, seed)
    y_list = list(y)

    accuracies: list[float] = []
    confusion = [[0] * len(class_names) for _ in class_names]
    for fold in folds:
        in_train = np.ones(len(y_list), dtype=bool)
        in_train[fold] = False
        train_idx = np.flatnonzero(in_train)
        model = train(
            arr[train_idx], [y_list[i] for i in train_idx], feature_names,
            class_names=class_names, max_depth=max_depth,
            min_samples_split=min_samples_split, seed=seed,
            candidate_features=candidate_features,
        )
        correct = 0
        for i in fold:
            predicted = predict(model, arr[i])
            confusion[class_index[y_list[i]]][class_index[predicted]] += 1
            correct += predicted == y_list[i]
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
        class_names=tuple(class_names),
        params={
            "k": k,
            "max_depth": max_depth,
            "min_samples_split": min_samples_split,
            "seed": seed,
        },
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
        "nodes": [
            [n.feature, n.threshold, n.left, n.right, list(n.counts)] for n in model.nodes
        ],
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
        if not math.isfinite(threshold):  # a NaN threshold sends every row right
            raise ValueError(f"node {i} has a non-finite threshold {threshold}")
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
    return tuple(raw)


def load_model(path: str | Path) -> DecisionTreeModel:
    """Inverse of save_model; checksum, version or node-table problems raise
    CorruptModel."""
    try:
        wrapper = json.loads(Path(path).read_bytes())
        checksum = wrapper["checksum"]
        payload = wrapper["payload"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
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
        class_names = _names(payload["class_names"], "class_names")
        return DecisionTreeModel(
            nodes=_node_table(payload["nodes"], len(feature_names), len(class_names)),
            max_depth=payload["max_depth"],
            feature_names=feature_names,
            class_names=class_names,
            training_meta=payload["training_meta"],
        )
    except KeyError as exc:
        raise CorruptModel(f"{path}: model has no {exc} field") from exc
    except ValueError as exc:
        raise CorruptModel(f"{path}: {exc}") from exc
