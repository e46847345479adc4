"""The one rule for how many CPUs a run may use, and `fork_map`, which
splits independent exact computations across them.

`fork_map(fn, items)` is ``[fn(item) for item in items]`` computed by up
to `usable_cpus()` processes: the caller takes every k-th item itself and
each forked child one other stride of k, so a slow stretch of items is
shared out.  A child sends back, through a pipe, the pickled results of its
items up to the first one that raised, then exits.  The caller walks the
items in order and computes itself any item that has no result: the one
that raised, which so raises again with its own type, message and
traceback, as in a serial run, and the items of a child that could not be
started or did not exit 0.  Only a child's bytes are unpickled, and only
after it exited 0.

It runs serially when one CPU is usable, for at most one item, when the
platform has no ``os.fork``, and while another Python thread is alive: a
forked child has only the calling thread, so a lock another thread held at
the fork (``poly._LOCK``, say) would stay held in the child for good.  A
``pipe`` or ``fork`` that fails (``OSError``) leaves its stride to the
caller.

The thread rule counts Python threads, not OS threads, and ignores
whether numpy is loaded: numpy starts an OS thread at import, which the
pure-Python exact work given here never calls into, and either other rule
would make a caller that imported numpy first, such as a benchmark
harness running ``verify`` in its own process, run serially.

Every command imports `certificates` and `montecarlo`, but only `verify`
and the estimators use this module, so they import it where they use it,
and it imports all but ``os`` inside its functions: importing the
command-line front end loads none of it.
"""

from __future__ import annotations

import os


def usable_cpus():
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``taskset -c 0`` gives 1), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_stride(fn, items, start, step, results):
    """Put fn(items[i]) into ``results[i]`` for i = start, start + step,
    ...; stop at the first item that raises."""
    for i in range(start, len(items), step):
        try:
            results[i] = fn(items[i])
        except Exception:
            return


def _child(fn, items, start, step, write_fd):
    """The body of a forked child; never returns."""
    import pickle

    status = 1
    try:
        results = {}
        _run_stride(fn, items, start, step, results)
        data = memoryview(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(write_fd, data):]
        status = 0
    finally:
        # No atexit handler, buffered output or caller frame of the parent
        # may run in the child.
        os._exit(status)


def _stop(pid):
    """Kill and reap a child the caller no longer waits for."""
    import signal

    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass  # already reaped


def fork_map(fn, items):
    """``[fn(item) for item in items]``, with the items shared among up to
    `usable_cpus()` processes; see the module docstring."""
    import threading
    from functools import partial

    items = list(items)
    procs = min(usable_cpus(), len(items))
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    import pickle

    results = {}
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for start in range(1, procs):
            try:
                read_fd, write_fd = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                pid = None
            if pid == 0:
                os.close(read_fd)
                _child(fn, items, start, procs, write_fd)
            os.close(write_fd)
            if pid is None:
                os.close(read_fd)
                break
            children[pid] = read_fd
        _run_stride(fn, items, 0, procs, results)
        for pid, read_fd in list(children.items()):
            data = b"".join(iter(partial(os.read, read_fd, 1 << 16), b""))
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if os.waitstatus_to_exitcode(status) == 0:
                results.update(pickle.loads(data))
    finally:
        # Left only when the caller's own work was interrupted.
        for pid, read_fd in children.items():
            os.close(read_fd)
            _stop(pid)
    return [results[i] if i in results else fn(item)
            for i, item in enumerate(items)]
