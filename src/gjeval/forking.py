"""Run one function in a forked child process while this process runs another.

Three phases of a large run use a second CPU this way: the curve writer
(``cli._write_outputs``), the plain-text predictions parser
(``data.parse_predictions``) and the two-file parse of ``compare`` and
``readers`` (``cli._parse_pair``). Each decides for itself whether the work
is large enough to pay for a fork; ``run_forked`` decides whether a CPU is
free for it, and where none is, the phase does the work in one process.
There is one extra process at a time: while ``run_forked``'s ``here`` runs,
and in its child, ``run_forked`` forks nothing.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, NoReturn, TypeVar

__all__ = ["run_forked"]

A = TypeVar("A")
B = TypeVar("B")

_forked = False  # True while run_forked's ``here`` runs, and in its child


def _spare_cpu() -> bool:
    """Whether a forked child could run on a CPU of its own: this process may
    run on more than one CPU and no child of ``run_forked`` is running or
    being run. Without ``os.sched_getaffinity`` (any platform but Linux) it
    is False, so nothing is forked there."""
    return not _forked and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def run_forked(here: Callable[[], A], there: Callable[[], B], *, kill_on_error: bool) -> tuple[A, B] | None:
    """``(here(), there())``, with ``there`` called in a forked child process
    while this one calls ``here``. None, and neither is called, when the
    child would have no CPU of its own (``_spare_cpu``) or no process can be
    forked: the caller then does the work itself.

    The child sends what ``there`` returns, or the exception it raises,
    pickled through a pipe. It must print nothing and call no BLAS (numpy's
    OpenBLAS threads are not copied into it). It always leaves by
    ``os._exit``, so it never flushes the stdout buffer it inherited, runs no
    ``atexit`` handler and never returns into the caller.

    The child is reaped before this returns or raises. If ``here`` raises,
    that exception propagates, after the child is killed when
    ``kill_on_error`` and after it finishes otherwise. Else the child's
    exception is raised here; a child that ends without sending one (killed
    by a signal) is an OSError naming its exit code."""
    global _forked
    if not _spare_cpu():
        return None
    read_fd, write_fd = os.pipe()
    _forked = True  # before the fork, so the child sees it too
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory
        _forked = False
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        _child(there, read_fd, write_fd)
    os.close(write_fd)
    try:
        mine = here()
    except BaseException:
        if kill_on_error:
            import signal  # only here: importing it costs every run about 1 ms

            os.kill(pid, signal.SIGKILL)
        _reap(pid, read_fd)
        raise
    finally:
        _forked = False
    payload, code = _reap(pid, read_fd)
    if code == 0:
        return mine, pickle.loads(payload)
    if code == 1 and payload:
        raise pickle.loads(payload)
    raise OSError(f"the forked child process ended with exit code {code}")


def _child(there: Callable[[], object], read_fd: int, write_fd: int) -> NoReturn:
    """Run ``there`` and write its pickled value (exit 0) or exception
    (exit 1) to ``write_fd``."""
    status = 1
    try:
        os.close(read_fd)
        try:
            payload, code = there(), 0
        except BaseException as exc:
            payload, code = exc, 1
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = code
    finally:
        os._exit(status)


def _reap(pid: int, read_fd: int) -> tuple[bytes, int]:
    """Everything the child wrote to the pipe, and its exit code, once it has ended."""
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    return payload, os.waitstatus_to_exitcode(status)
