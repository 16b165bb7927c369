"""Spans and counters around camsieve's public functions, for traced runs.

`install` replaces module attributes at run time, so every call that goes
through the module (from the CLI or from inside the package) is seen.
Nothing in the package itself is changed. Coarse calls (one per command or
per stage) become spans with a parent; per-item calls (one per frame, packet,
flow, node or row) are summed into totals, so that tracing stays cheap.
"""
from __future__ import annotations

import time
from functools import wraps


class Tracer:
    def __init__(self):
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self.spans: list[list] = []  # [id, name, start_s, end_s, parent_id]
        self.totals: dict[str, list[float]] = {}  # name -> [seconds, calls]
        self.counts: dict[str, float] = {}
        self.models: list[list[int]] = []  # [nodes, depth] per tree.train call

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _add_total(self, name: str, seconds: float) -> None:
        entry = self.totals.setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += 1

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call is one span nested under the open span."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(self.spans), name, time.perf_counter() - self._t0, None,
                      self._stack[-1] if self._stack else None]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[3] = time.perf_counter() - self._t0
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def summed(self, name: str, fn, on_result=None):
        """Wrap a per-item function: time and calls add up under one name."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self._add_total(name, time.perf_counter() - start)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def summed_iter(self, name: str, fn):
        """Wrap a generator function: the time spent producing each item adds up."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._add_total(name, time.perf_counter() - start)
                    yield item
            finally:
                inner.close()

        return wrapper

    def report(self) -> dict:
        return {"spans": self.spans, "totals": self.totals, "counts": self.counts,
                "models": self.models}


def open_peak(intervals) -> int:
    """Largest number of [start, end] intervals that overlap at one instant."""
    events = sorted([(s, 0) for s, _ in intervals] + [(e, 1) for _, e in intervals])
    open_now = peak = 0
    for _, kind in events:  # at equal times starts sort before ends: both count
        open_now += 1 if kind == 0 else -1
        peak = max(peak, open_now)
    return peak


def _tree_depth(nodes) -> int:
    depth = [0] * len(nodes)
    best = 0
    for i, node in enumerate(nodes):  # children always follow their parent
        if not node.is_leaf:
            depth[node.left] = depth[node.right] = depth[i] + 1
            best = max(best, depth[i] + 1)
    return best


def install(tracer: Tracer) -> None:
    from camsieve import dataset, features, flows, packets, protocols, tree

    def on_decode(args, result):
        tracer.count("packets.decoded" if result is not None else "packets.skipped")

    def on_flows(args, result):
        tracer.count("flows.count", len(result))
        for flow in result:
            tracer.count(f"flows.by_termination.{flow.termination.value}")
        peak = open_peak([(f.start_ts, f.last_ts) for f in result])
        tracer.counts["flows.open_peak"] = max(tracer.counts.get("flows.open_peak", 0), peak)

    def on_features(args, result):
        tracer.count("features.packets", args[0].packet_count)

    def on_clean(args, result):
        tracer.count("dataset.cleaned_values", result.replaced)

    def on_train(args, result):
        tracer.models.append([len(result.nodes), _tree_depth(result.nodes)])

    def on_classify(args, result):
        tracer.count("protocols.payloads_classified")
        if result.kind is protocols.HintKind.RTP:
            tracer.count("protocols.rtp_payloads")

    open_capture = packets.open_capture

    def frames(*args, **kwargs):
        for frame in open_capture(*args, **kwargs):
            tracer.count("packets.frames")
            yield frame

    patches = [
        (packets, "open_capture", tracer.summed_iter("packets.read_frames", frames)),
        (packets, "decode_packet", tracer.summed("packets.decode", packets.decode_packet, on_decode)),
        (packets, "read_packets_sorted", tracer.span("packets.read_sorted", packets.read_packets_sorted)),
        (flows, "assemble_flows", tracer.span("flows.assemble", flows.assemble_flows, on_flows)),
        (features, "compute_features",
         tracer.summed("features.compute", features.compute_features, on_features)),
        (dataset, "write_csv", tracer.span("dataset.write_csv", dataset.write_csv)),
        (dataset, "read_csv", tracer.span("dataset.read_csv", dataset.read_csv)),
        (dataset, "clean", tracer.span("dataset.clean", dataset.clean, on_clean)),
        (tree, "train", tracer.span("tree.train", tree.train, on_train)),
        (tree, "best_split", tracer.summed("tree.best_split", tree.best_split)),
        (tree, "cross_validate", tracer.span("tree.cross_validate", tree.cross_validate)),
        (tree, "prune_features", tracer.span("tree.prune_features", tree.prune_features)),
        (tree, "predict_proba", tracer.summed("tree.predict_proba", tree.predict_proba)),
        (protocols, "build_report", tracer.span("protocols.build_report", protocols.build_report)),
        (protocols, "classify_udp_payload",
         tracer.summed("protocols.classify", protocols.classify_udp_payload, on_classify)),
    ]
    for module, name, wrapper in patches:
        setattr(module, name, wrapper)
