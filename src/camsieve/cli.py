"""Command-line surface: extract, inspect, synth, train, cv, predict, report."""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import dataset, features, flows, packets, protocols, synth, tree
from .errors import CamsieveError, OutOfOrderTimestamp

DEFAULT_FLOW_TIMEOUT_S = flows.DEFAULT_FLOW_TIMEOUT_US / 1e6
DEFAULT_ACTIVITY_THRESHOLD_S = features.DEFAULT_ACTIVITY_THRESHOLD_US / 1e6
PREDICT_SLICE = 256  # rows whose output lines predict writes at once
WRITE_BATCH = 4096  # text chunks joined into one write


def extract_records(
    pcap_path: str | Path,
    label: str = "",
    flow_timeout_us: int = flows.DEFAULT_FLOW_TIMEOUT_US,
    activity_threshold_us: int = features.DEFAULT_ACTIVITY_THRESHOLD_US,
) -> list[dataset.LabeledRecord]:
    """pcap to labeled feature records: decode, assemble, summarize."""
    flow_list = _assemble(pcap_path, flow_timeout_us)
    return [features.compute_features(f, activity_threshold_us, label) for f in flow_list]


def _assemble(
    pcap_path: str | Path, flow_timeout_us: int, flow_type: type[flows.Flow] = flows.FlowState
) -> list[flows.Flow]:
    """The capture's flows, made as `flow_type`. A regular file is assembled as
    it is read, and read again sorted only if a timestamp falls; anything
    else, such as a pipe, which cannot be read twice, is sorted in a list
    first. The flows of an aborted pass are freed, with all they keep, once
    the except block's traceback is gone."""
    if Path(pcap_path).is_file():
        try:
            return flows.assemble_flows(packets.read_packets(pcap_path), flow_timeout_us,
                                        flow_type)
        except OutOfOrderTimestamp:
            pass  # read again below
    return flows.assemble_flows(packets.read_packets_sorted(pcap_path), flow_timeout_us,
                                flow_type)


class _ReaderGone(Exception):
    """The reader of standard output has closed its end of the pipe."""


def _write_batched(fh, chunks) -> None:
    """Write text chunks WRITE_BATCH at a time: one write per chunk would cost a
    call each, and a flush each at every newline on a line-buffered stdout."""
    chunks = iter(chunks)
    while batch := list(islice(chunks, WRITE_BATCH)):
        fh.write("".join(batch))


def _to_stdout(chunks=()) -> None:
    """Write text chunks to standard output, then flush it; _ReaderGone when
    its reader has closed the pipe."""
    try:
        _write_batched(sys.stdout, chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        raise _ReaderGone from None


def _is_stdout(path: Path) -> bool:
    """Whether path names the file that standard output writes to, as
    /dev/stdout does."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such file yet, or a stdout with no descriptor
        return False


def _write_report(text: str, output: Path | None) -> None:
    """Write cv's or report's text to output, when given, and to standard
    output, unless output is standard output: the text goes there once."""
    echo = output is None or not _is_stdout(output)  # before a rename can replace it
    if output is not None:
        dataset.atomic_write_text(output, lambda fh: fh.write(text))
    if echo:
        _to_stdout([text])


def _int_at_least(minimum: int, unit: str):
    """argparse type: an int no smaller than minimum (exit 2 otherwise)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"need at least {minimum} {unit}, got {value}")
        return value

    return parse


def _flow_count(text: str) -> int:
    """argparse type: a number of synthetic flows, 1 to synth.MAX_FLOWS (exit 2
    otherwise), checked before any flow is generated."""
    value = _int_at_least(1, "flow")(text)
    if value > synth.MAX_FLOWS:
        raise argparse.ArgumentTypeError(f"need at most {synth.MAX_FLOWS} flows, got {value}")
    return value


def _finite(text: str) -> float:
    """argparse type: a finite number (exit 2 on nan or inf)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text}")
    return value


def _seconds(minimum_us: int):
    """argparse type: a finite, non-negative number of seconds, given as the
    whole microseconds in the text's exact decimal value, truncated; at least
    minimum_us (exit 2 otherwise)."""

    def parse(text: str) -> int:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number of seconds: {text!r}") from None
        if not math.isfinite(value * 1e6):  # nan, inf, or too large in microseconds
            raise argparse.ArgumentTypeError(f"need a finite number of seconds, got {text}")
        if value >= 0:
            # not int(value * 1e6): the float 1.001 gives 1000999.99... A
            # finite float count of microseconds has at most 309 integer
            # digits, so 400 digits rounded down truncate the text's value
            import decimal
            microseconds = int(decimal.Decimal(text).scaleb(
                6, decimal.Context(prec=400, rounding=decimal.ROUND_DOWN)))
            if microseconds >= minimum_us:
                return microseconds
        raise argparse.ArgumentTypeError(f"need at least {minimum_us / 1e6:g} seconds, got {text}")

    return parse


def _add_common_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", type=_int_at_least(0, "levels"), default=tree.DEFAULT_MAX_DEPTH)
    p.add_argument("--min-samples-split", type=_int_at_least(2, "samples"),
                   default=tree.DEFAULT_MIN_SAMPLES_SPLIT)
    p.add_argument("--seed", type=int, default=tree.DEFAULT_SEED)
    p.add_argument("--taxonomy", type=Path, default=None,
                   help="JSON file mapping application labels to classes")


def _load(args) -> tuple[np.ndarray, list[str], int]:
    """The labeled CSV's cleaned feature matrix, its labels resolved through
    the taxonomy, and the number of non-finite cells set to 0."""
    taxonomy = (dataset.LabelTaxonomy.from_json(args.taxonomy) if args.taxonomy
                else dataset.default_taxonomy())
    values, labels = dataset.read_csv(args.csv, taxonomy)
    if "" in labels:
        raise CamsieveError(f"{args.csv}: record {labels.index('') + 1} has no label")
    X, replaced = dataset.clean(values)
    if replaced:
        print(f"cleaned {replaced} non-finite values to 0", file=sys.stderr)
    return X, labels, replaced


def cmd_extract(args) -> int:
    records = extract_records(
        args.pcap,
        label=args.label,
        flow_timeout_us=args.flow_timeout,
        activity_threshold_us=args.activity_threshold,
    )
    dataset.write_csv(records, args.output)
    print(f"wrote {len(records)} flows to {args.output}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    profile = synth.SynthProfile(synth.TrafficKind(args.kind), args.count, args.seed)
    flows, packets = synth.generate(profile, args.output, args.manifest)
    print(f"wrote {packets} packets in {flows} {args.kind} flows to {args.output}", file=sys.stderr)
    return 0


def cmd_inspect(args) -> int:
    flow_list = _assemble(args.pcap, args.flow_timeout, protocols.InspectedFlow)
    report = protocols.build_report(flow_list, protocols.AppContext(args.app.upper()))
    if args.json:
        # the chunks that json.dumps(report, indent=2) joins, written as they
        # come: the same bytes without the whole text in memory
        chunks = chain(json.JSONEncoder(indent=2).iterencode(report), ["\n"])
    else:
        chunks = [protocols.render_report(report)]
    if args.output:
        dataset.atomic_write_text(args.output, lambda fh: _write_batched(fh, chunks))
    else:
        _to_stdout(chunks)
    return 0


def cmd_train(args) -> int:
    X, y, _ = _load(args)
    if args.prune_threshold is not None:
        selected, model = tree.prune_features(
            X, y, features.FEATURE_NAMES, threshold=args.prune_threshold,
            max_depth=args.max_depth, min_samples_split=args.min_samples_split, seed=args.seed,
        )
        print(f"importance pruning kept {len(selected)} of {len(features.FEATURE_NAMES)} features",
              file=sys.stderr)
    else:
        model = tree.train(
            X, y, features.FEATURE_NAMES, max_depth=args.max_depth,
            min_samples_split=args.min_samples_split, seed=args.seed,
        )
    tree.save_model(model, args.output)
    print(f"trained on {len(y)} records ({', '.join(model.class_names)}); model at {args.output}",
          file=sys.stderr)
    return 0


def cmd_cv(args) -> int:
    X, y, _ = _load(args)
    report = tree.cross_validate(
        X, y, features.FEATURE_NAMES, k=args.k, max_depth=args.max_depth,
        min_samples_split=args.min_samples_split, seed=args.seed,
    )
    _write_report(report.render(), args.output)
    return 0


def cmd_predict(args) -> int:
    model = tree.load_model(args.model)
    csv_hash = features.schema_hash(features.FEATURE_NAMES)
    if model.schema_hash != csv_hash:
        raise CamsieveError(
            f"model schema hash {model.schema_hash} does not match "
            f"input schema hash {csv_hash}; refusing to predict"
        )
    # each class name's cell as the csv writer quotes it, with the comma before it
    class_cells = []
    for name in model.class_names:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(["", name])
        class_cells.append(buf.getvalue())
    # a leaf's probabilities -> its output cells, made once a leaf
    tails: dict[tuple[float, ...], str] = {}
    rows = 0

    def emit(fh):
        nonlocal rows
        header = list(features.ALL_COLUMNS) + ["Predicted Class", "Prediction Probability"]
        csv.writer(fh).writerow(header)
        # each record is echoed as read, nan/inf included; only scoring sees the cleaned rows
        for chunk in dataset.read_chunks(args.csv):
            X, _ = dataset.clean(chunk.values)
            # output lines for PREDICT_SLICE rows at a time, and the chunk
            # dropped before the next one is read: then the peak is the same
            # for any number of rows
            for start in range(0, len(X), PREDICT_SLICE):
                texts = chunk.texts[start:start + PREDICT_SLICE]
                lines = []
                for text, row in zip(texts, tree.row_views(X[start:start + PREDICT_SLICE])):
                    proba = tree.predict_proba(model, row)
                    tail = tails.get(proba)
                    if tail is None:
                        best = tree.best_class(proba)
                        tail = tails[proba] = f"{class_cells[best]},{proba[best]!r}\r\n"
                    lines.append(text + tail)
                fh.write("".join(lines))
                rows += len(lines)
            del chunk, X

    dataset.atomic_write_text(args.output, emit)
    print(f"predicted {rows} rows into {args.output}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    X, y, replaced = _load(args)
    lines: list[str] = ["dataset summary:"]
    for name in dataset.class_order(y):
        lines.append(f"  {name}: {y.count(name)} records")
    lines.append(f"  non-finite values cleaned: {replaced}")
    lines.append("")

    params = dict(max_depth=args.max_depth, min_samples_split=args.min_samples_split,
                  seed=args.seed)
    full_cv = tree.cross_validate(X, y, features.FEATURE_NAMES, k=args.k, **params)
    lines.append("all features:")
    lines.append(full_cv.render())

    # the full model and the deployment-style model of a held-out split are
    # independent, so they grow side by side; after the full CV, whose folds
    # already fill the workers, and which fails first on an empty dataset
    train_idx, test_idx = dataset.stratified_split(y, args.seed)
    full_model, deploy_model = tree.run_independent([
        lambda: tree.train(X, y, features.FEATURE_NAMES, **params),
        lambda: tree.train(X[train_idx], [y[i] for i in train_idx], features.FEATURE_NAMES,
                           **params),
    ])
    importances = tree.feature_importances(full_model)
    selected = tree.select_features(importances, args.importance_threshold)
    # the pruned folds are grown from the full CV's fold trees: only the
    # nodes below their splits on dropped features are searched again
    pruned_cv = tree.cross_validate(
        X, y, features.FEATURE_NAMES, k=args.k, candidate_features=selected, prior=full_cv,
        **params
    )
    lines.append(
        f"importance pruning at {args.importance_threshold:g}: kept {len(selected)} "
        f"of {len(features.FEATURE_NAMES)} features"
    )
    lines.append(pruned_cv.render())

    top = sorted(enumerate(importances), key=lambda kv: -kv[1])[:10]
    lines.append("top feature importances:")
    for idx, imp in top:
        if imp > 0:
            lines.append(f"  {features.FEATURE_NAMES[idx]}: {imp:.6f}")
    lines.append("")

    X_te = X[test_idx]
    confident = 0
    for row in tree.row_views(X_te):
        if max(tree.predict_proba(deploy_model, row)) >= 0.9:
            confident += 1
    frac = confident / len(X_te) if len(X_te) else 0.0
    lines.append(
        f"held-out flows with max class probability >= 0.9: {frac:.4f} "
        f"({confident}/{len(X_te)})"
    )

    _write_report("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camsieve",
        description="Classify IoT-camera video traffic from flow statistics, "
                    "without IP or port features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="pcap to 84-column feature CSV")
    p.add_argument("pcap", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--label", default="", help="label written on every flow")
    # these two hold microseconds, which _seconds gives and the library takes
    p.add_argument("--flow-timeout", type=_seconds(minimum_us=1),
                   default=flows.DEFAULT_FLOW_TIMEOUT_US,
                   help=f"flow window in seconds (default {DEFAULT_FLOW_TIMEOUT_S:g})")
    p.add_argument("--activity-threshold", type=_seconds(minimum_us=0),
                   default=features.DEFAULT_ACTIVITY_THRESHOLD_US,
                   help="active/idle gap threshold in seconds "
                        f"(default {DEFAULT_ACTIVITY_THRESHOLD_S:g})")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="generate synthetic traffic as pcap + manifest")
    p.add_argument("--kind", choices=[k.value for k in synth.TrafficKind], required=True)
    p.add_argument("-n", "--count", type=_flow_count, default=50,
                   help=f"number of flows, at most {synth.MAX_FLOWS}")
    p.add_argument("--seed", type=int, default=tree.DEFAULT_SEED)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--manifest", type=Path, default=None,
                   help="manifest path (default: <output>.manifest.jsonl)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="media-protocol hint report for a pcap")
    p.add_argument("pcap", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--app", choices=[a.value.lower() for a in protocols.AppContext],
                   default="generic", help="payload-type table to apply")
    p.add_argument("--flow-timeout", type=_seconds(minimum_us=1),
                   default=flows.DEFAULT_FLOW_TIMEOUT_US)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("train", help="train a decision tree from a labeled CSV")
    p.add_argument("csv", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--prune-threshold", type=_finite, default=None,
                   help="if set, drop features below this importance and retrain "
                        f"(presets: {tree.IMPORTANCE_THRESHOLD_NEGLIGIBLE:g} negligible, "
                        f"{tree.IMPORTANCE_THRESHOLD_COMPACT:g} compact)")
    _add_common_model_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation report")
    p.add_argument("csv", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("-k", type=_int_at_least(2, "folds"), default=tree.DEFAULT_K_FOLDS)
    _add_common_model_args(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("predict", help="append predicted class and probability per row")
    p.add_argument("model", type=Path)
    p.add_argument("csv", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="full evaluation: CV, importances, pruning, probabilities")
    p.add_argument("csv", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.add_argument("-k", type=_int_at_least(2, "folds"), default=tree.DEFAULT_K_FOLDS)
    p.add_argument("--importance-threshold", type=_finite,
                   default=tree.IMPORTANCE_THRESHOLD_COMPACT)
    _add_common_model_args(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        _to_stdout()  # what print() left in the buffer
        return code
    except _ReaderGone:
        # a reader that stops early, such as `head`, is not an error. The rest
        # of the output goes to /dev/null, so that the interpreter's last
        # flush meets no closed pipe (the signal module's note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (CamsieveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
