"""Run one camsieve CLI command in this fresh process and record how it went.

Usage: python3 perfbench/op.py SRC_DIR RESULT_JSON TRACE(0|1) -- <camsieve args...>

The command runs through `camsieve.cli.main`, timed from the call to its
return; interpreter start-up and imports are outside the timing. The time is
also given normalized to the machine's speed meanwhile (see speed.py). With
TRACE=1 the spans and counters of `tracing` are recorded as well. The result
file holds {"rc", "wall_s", "norm_s", "reference_s", "trace"}. Peak RSS is
read by the parent from this process's rusage, so it belongs to this one
command.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from speed import SpeedSampler


def main(argv: list[str]) -> int:
    src, result_path, traced, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: op.py SRC_DIR RESULT_JSON TRACE -- <camsieve args...>")
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    from camsieve import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"camsieve imported from {cli.__file__}, not from {src}")

    tracer = None
    if traced == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        cli_main = tracer.span("cli.main", cli.main)
    else:
        cli_main = cli.main

    with SpeedSampler() as sampler:
        rc = cli_main(cli_args)
    result = {"rc": rc, **sampler.result, "trace": tracer.report() if tracer else None}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
