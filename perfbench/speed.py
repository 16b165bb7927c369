"""Machine-speed reference, sampled on the same core while a command runs.

Shared hosts change speed under a benchmark: on the 2-vCPU machine this
benchmark was written on, a fixed pure-Python loop ran anywhere between 65
and 130 ms over a 100 s window, in phases of 10 to 40 s, and CPU time moved
with wall time (the core itself slows; the process is not descheduled). Raw
times of whole runs spread by 25-45% between runs; normalized, by 3-7%.

So every timed command also times a fixed reference computation
(`reference`) every PERIOD_S, from a SIGALRM handler in its own process, plus
once just before and once just after. The command's time is then scaled to a
machine on which the reference takes NOMINAL_S:

    normalized_s = (wall_s - time spent in the handler) * NOMINAL_S / mean(reference)

Samples are evenly spaced in time, so their mean is the time-weighted speed
over the command. The reference is the benchmark's own code; a change to
camsieve cannot move it.
"""
from __future__ import annotations

import signal
import time

ARITHMETIC_LOOPS = 10_000
CHURN_ROWS = 750
FLOAT_LIST = 15_000
NOMINAL_S = 0.002
PERIOD_S = 0.1


def reference() -> float:
    """Time one pass of integer arithmetic, object churn (tuples, str, dict,
    repr, join) and a throw-away list of floats. Together they tracked the
    slow-down of extract, inspect, train and predict better than any one of
    them alone (per-command spread 0.05-0.08, against 0.17-0.36 unnormalized)."""
    start = time.perf_counter()
    acc = 0
    for i in range(ARITHMETIC_LOOPS):
        acc += i * i % 7
    table = {}
    for i in range(CHURN_ROWS):
        row = (i, str(i), i * 0.5)
        table[row[1]] = row
    ",".join(repr(row[2]) for row in table.values())
    floats = [float(i) for i in range(FLOAT_LIST)]
    del floats
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager timing its block and sampling the reference meanwhile.

    After the block, `result` holds the block's own time (`wall_s`, handler
    time taken out), `norm_s` and the mean reference time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.result: dict = {}
        self._inside_s = 0.0
        self._start = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        took = reference()
        self.samples.append(took)
        self._inside_s += took

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(reference())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        own = time.perf_counter() - self._start - self._inside_s
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference())
        mean = sum(self.samples) / len(self.samples)
        self.result = {"wall_s": own, "norm_s": own * NOMINAL_S / mean, "reference_s": mean}
