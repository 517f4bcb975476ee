"""Run one function in a forked child process while this process runs another.

Three phases of a large run use a second CPU this way: the curve writer
(``cli._write_outputs``), the plain-text predictions parser
(``data.parse_predictions``) and the two-file parse of ``compare`` and
``readers`` (``cli._parse_pair``). Each phase only decides whether its work
is large enough to pay for a fork; ``run_forked`` owns the plan: it forks a
child where one can run on a CPU of its own, and otherwise calls both
functions in this process, in the same order. Either way the first error
is the same: a fault in this process's share ends the phase, and a child
still running is killed then. There is one extra process at a time: while
``run_forked``'s ``here`` runs, and in its child, ``run_forked`` forks
nothing.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, NoReturn, TypeVar

__all__ = ["run_forked"]

A = TypeVar("A")
B = TypeVar("B")

_forked = False  # True while run_forked's ``here`` runs, and in its child


def run_forked(here: Callable[[], A], there: Callable[[], B]) -> tuple[A, B]:
    """``(here(), there())``, with ``there`` called in a forked child process
    while this one calls ``here``. Where the child would have no CPU of its
    own, ``here`` and then ``there`` are called in this process: when this
    process may run on one CPU only, while a child of ``run_forked`` is
    running or being run, without ``os.sched_getaffinity`` (any platform but
    Linux) and where no process can be forked. A fault in ``here`` then
    means ``there`` is never called.

    The child sends what ``there`` returns, or the exception it raises,
    pickled through a pipe. It must print nothing and call no BLAS (numpy's
    OpenBLAS threads are not copied into it). It always leaves by
    ``os._exit``, so it never flushes the stdout buffer it inherited, runs no
    ``atexit`` handler and never returns into the caller.

    The child is reaped before this returns or raises. If ``here`` raises,
    the child is killed, and that exception propagates: what the child was
    making is of no use then, and it may be half made. Else the child's
    exception is raised here; a child that ends without sending one (killed
    by a signal) is an OSError naming its exit code."""
    global _forked
    if _forked or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return here(), there()
    read_fd, write_fd = os.pipe()
    _forked = True  # before the fork, so the child sees it too
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory
        _forked = False
        os.close(read_fd)
        os.close(write_fd)
        return here(), there()
    if pid == 0:
        _child(there, read_fd, write_fd)
    os.close(write_fd)
    try:
        mine = here()
    except BaseException:
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
