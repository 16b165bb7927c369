"""Independent calls run side by side in forked worker processes.

run_independent is the one fork mechanism of the package: cross_validate's
fold trees, report's full and hold-out trees and read_chunks' CSV chunks go
through it.
"""
from __future__ import annotations

import os
import signal
from typing import Callable, Sequence, TypeVar


def _cores() -> int:
    """The CPUs this process may run on: its affinity set, which taskset
    limits, or every CPU where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_T = TypeVar("_T")

# The most calls run at once, each in its own process (see run_independent).
# Two grew cv's folds 1.6-2 times as fast as one on a 2-CPU host, and parsed
# predict's CSV chunks about 1.3 times as fast; a third was never measured.
# Each call in flight holds its own data, a fold copy and order matrix or a
# chunk's record texts, so the cap also bounds the memory
_MAX_WORKERS = 2


def worker_count() -> int:
    """The most calls run_independent runs at once: the CPUs this process may
    run on, at most _MAX_WORKERS, and one where the platform has no fork."""
    return min(_cores(), _MAX_WORKERS) if hasattr(os, "fork") else 1


def _run_share(calls: Sequence[Callable[[], _T]], start: int, step: int) -> list[tuple]:
    """(index, ok, result or exception) of calls[start::step], in turn, up
    to and with the first that raises: a later one could not raise first."""
    outcomes = []
    for i in range(start, len(calls), step):
        try:
            outcomes.append((i, True, calls[i]()))
        except Exception as exc:
            outcomes.append((i, False, exc))
            break
    return outcomes


def _send_share(writer, calls: Sequence[Callable[[], _T]], start: int, step: int) -> None:
    """A worker process's body: its share of the calls, sent to the parent."""
    # Ctrl-C reaches the whole process group: the parent stops and kills
    # this process, which must not print a traceback of its own
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    writer.send(_run_share(calls, start, step))


def run_independent(calls: Sequence[Callable[[], _T]]) -> list[_T]:
    """Each call's result, in the order of calls, from
    w = min(len(calls), worker_count()) workers. The calls must share no
    state that one of them changes, and their results and exceptions must
    pickle.

    This process runs calls 0, w, 2w, ... itself, and w - 1 forked children
    run the rest, child j calls j, j + w, ...; a child inherits the calls and
    what they read, so nothing but its results is pickled, and it sends them
    back through a pipe. fork, not spawn or forkserver: those take about
    0.2 s to start a worker, most of what a second worker saves on cv. The
    parent runs its own share rather than wait, so w workers keep w CPUs
    busy and no more. The exception of the lowest failing call is raised,
    as in a serial loop; a child that exits without sending, or whose
    results cannot be unpickled, raises ChildProcessError. Every child is
    killed and reaped before this returns or raises. A child leaves through
    os._exit, so it flushes and closes no file it inherited.

    With one worker, or where the platform has no fork, the calls run one
    after another in this process, and no process starts."""
    workers = min(len(calls), worker_count())
    if workers <= 1:
        return [call() for call in calls]
    import multiprocessing  # here: extract and inspect never fork

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for j in range(1, workers):
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_send_share, args=(writer, calls, j, workers))
            child.start()
            children.append((child, reader))
            writer.close()  # the child's end: EOF on the reader once the child exits
        outcomes = _run_share(calls, 0, workers)
        for child, reader in children:
            try:
                outcomes += reader.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"worker {child.pid} exited with code {child.exitcode} "
                    "before sending its results"
                ) from None
            except Exception as exc:  # such as an exception class that does not unpickle
                raise ChildProcessError(
                    f"worker {child.pid} sent results that cannot be read back: {exc}"
                ) from exc
    finally:
        for child, reader in children:
            child.kill()
            child.join()
            reader.close()
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [result for _, _, result in outcomes]
