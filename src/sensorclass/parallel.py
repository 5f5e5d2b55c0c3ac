"""The block map: one loop's items cut into contiguous runs, each run in a
forked worker on its own usable CPU.

Three loops run on every CPU in the process's affinity mask through one
block map, _map_blocks: the fold loop of evaluate, the trace loop of
evaluate.build_dataset and of the CLI's features command (map_traces),
and the CLI synth command's loop, which generates and writes a corpus's
traces. It cuts its items into contiguous runs of about equal weight, one
per usable CPU: folds by rows x trees, a manifest's traces by file size, a
corpus's entries by count. Each run goes through the serial loop in a
forked worker, which holds one trace at a time, and the per-item results
are joined in item order. A mapped function logs nothing: a trace it
skips is in its result, and the caller logs it. A fold's forest is a pure
function of its rows and config, a trace's rows of the trace, and a
synthetic trace of its seed path, so the outputs, and the warnings, are
the same for any CPU count.

A worker compiles no module: the caller imports every module the mapped
function needs before it maps.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .reporting import ManifestTraces
from .trace import SensorTrace


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask (taskset limits it); 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _workers(tasks: int) -> int:
    """How many blocks to cut `tasks` tasks into: one per usable CPU and at
    most one per task, or one, which keeps the work in this process, where
    "fork" is not a start method or while another thread is alive, which
    forking is not safe with."""
    workers = min(tasks, _usable_cpus())
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing  # here, so no command that stays serial pays for the import

        if "fork" in multiprocessing.get_all_start_methods():
            return workers
    return 1


def _map_blocks(fn: Callable, items: Sequence, weights: Sequence[float]) -> list:
    """fn's results for the items, in item order: fn takes a contiguous run of
    items and returns one result per item. The runs, one per worker
    (_workers), are of about equal total weight and go through _forked_map."""
    blocks = _workers(len(items))
    cost = np.cumsum(weights)
    cuts = [0, *(int(np.abs(cost - cost[-1] * k / blocks).argmin()) + 1
                 for k in range(1, blocks)), len(items)]
    runs = _forked_map(fn, [items[a:b] for a, b in zip(cuts, cuts[1:]) if b > a])
    return [result for run in runs for result in run]


def _forked_map(fn: Callable, blocks: Sequence) -> list:
    """[fn(block) for block in blocks], in block order.

    With more than one block, each runs in a worker process forked from this
    one, so neither fn nor its block is pickled. A worker sends its result,
    or the exception it raised, down its own pipe, and nothing else, so fn
    logs nothing: what it has to report goes in its result. The first
    failed block's exception is raised here, its message unchanged. The
    workers keep SIGINT blocked from the fork on, so Ctrl-C raises
    KeyboardInterrupt here and never in a worker, even in multiprocessing's
    own start-up code. Every worker is joined before this returns or raises,
    even on a second Ctrl-C.
    """
    if len(blocks) <= 1:
        return [fn(block) for block in blocks]
    import multiprocessing
    import signal

    context = multiprocessing.get_context("fork")
    running = []  # (process, receiving end of its pipe), in block order
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for block in blocks:
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_send_result, args=(send, fn, block))
            process.start()
            running.append((process, receive))
            send.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, held)  # a Ctrl-C held meanwhile is raised now
        results = []
        for process, receive in running:
            try:
                error, result = receive.recv()
            except EOFError:  # the worker died without a word, killed by a signal perhaps
                process.join()
                raise RuntimeError(f"a worker exited with code {process.exitcode} "
                                   "before sending its result") from None
            if error is not None:
                raise error
            results.append(result)
        return results
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # a second Ctrl-C waits for the joins
        for process, receive in running:
            if process.is_alive():
                process.terminate()
            process.join()
            receive.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _send_result(conn, fn: Callable, block) -> None:
    """A forked worker's body: (the error fn raised or None, fn(block) or None) down conn."""
    try:
        outcome = (None, fn(block))
    except Exception as exc:  # raised again in the parent, message unchanged
        outcome = (exc, None)
    conn.send(outcome)


def map_traces(fn: Callable, traces: Iterable[SensorTrace]) -> list:
    """[fn(trace) for trace in traces], on every usable CPU for a manifest's
    traces (load_manifest_traces), cut by file size (_map_blocks), each
    worker reading its run one trace at a time; any other iterable of traces
    is read in this process."""
    if not isinstance(traces, ManifestTraces):
        return [fn(trace) for trace in traces]
    # a file that cannot be read weighs nothing: reading it raises the error, in manifest order
    sizes = [path.stat().st_size if path.is_file() else 0 for _, path, _ in traces.entries]
    return _map_blocks(lambda run: [fn(trace) for trace in ManifestTraces(run)],
                       traces.entries, sizes)
