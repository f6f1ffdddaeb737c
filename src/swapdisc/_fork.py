"""Independent shares of one computation, run in forked processes.

`split` cuts work into shares, one per usable core, and `fork_map(fn,
shares, what)` is [fn(share) for share in shares], with share 0 run here
and every other share in an os.fork child.  A child inherits everything
the parent built (caches, tables, the share itself), so nothing but its
result is pickled: it returns that through a pipe and leaves with
os._exit, never returning into the caller's code.  `verify --sample` and
`search` use it; neither imports multiprocessing or concurrent.futures,
whose imports and helper threads cost more than the fork itself.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

S = TypeVar("S")
R = TypeVar("R")
Q = TypeVar("Q", list, range)


def usable_cores() -> int:
    """The cores this process may run on: at most one share each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def split(items: Q, min_share: int) -> list[Q]:
    """`items` cut into contiguous slices of about equal length, in order:
    one per usable core, each of at least `min_share` items, and one
    slice (all of `items`, possibly empty) when there are fewer."""
    shares = max(1, min(usable_cores(), len(items) // min_share))
    cuts = [len(items) * s // shares for s in range(shares + 1)]
    return [items[cuts[s]:cuts[s + 1]] for s in range(shares)]


def fork_map(fn: Callable[[S], R], shares: Sequence[S], what: str) -> list[R]:
    """[fn(share) for share in shares], one process per share.

    Share 0 runs here while the others run in forked children.  Like the
    one-process loop, this raises the exception of the earliest share that
    raises, whichever process ran it; a child that dies or sends no result
    is a ChildProcessError naming `what` it ran.  If a fork fails, the
    children already started are stopped and every share runs here; a
    process without os.fork, or running more than one thread (a child
    would hold only the calling thread), runs every share here as well.
    Every child is reaped before this returns or raises."""
    import threading

    if len(shares) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(share) for share in shares]
    import pickle

    children: list[tuple[int, int]] = []  # (pid, pipe read end) of shares 1, 2, ...
    try:
        for share in shares[1:]:
            try:
                children.append(_forked(fn, share))
            except OSError:  # no process to spare: every share runs here
                _stop(children)
                return [fn(share) for share in shares]
        results = [fn(shares[0])]
        while children:
            pid, fd = children[0]
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            status = os.waitpid(pid, 0)[1]
            del children[0]
            os.close(fd)
            if status or not chunks:  # a child exits with 0 once its result is written
                code = os.waitstatus_to_exitcode(status)
                how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
                raise ChildProcessError(f"a {what} died: process {pid} {how}")
            raised, value = pickle.loads(b"".join(chunks))
            if raised:
                raise value
            results.append(value)
        return results
    finally:
        _stop(children)  # left only when an error ends the loop


def _forked(fn: Callable[[S], R], share: S) -> tuple[int, int]:
    """Fork a child that writes the pickled (raised, fn(share) or its
    exception) to a pipe and exits; returns (its pid, the pipe's read
    end)."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        try:
            data = pickle.dumps((False, fn(share)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # the parent raises it
            try:
                data = pickle.dumps((True, exc), pickle.HIGHEST_PROTOCOL)
            except Exception:  # an exception pickle cannot carry
                data = pickle.dumps((True, RuntimeError(f"{type(exc).__name__}: {exc}")))
        view = memoryview(data)
        while view:
            view = view[os.write(write_fd, view):]
        code = 0
    finally:
        os._exit(code)


def _stop(children: list[tuple[int, int]]) -> None:
    """Kill and reap the children whose results are not needed."""
    import signal

    for pid, fd in children:
        os.close(fd)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:  # already gone
            pass
    children.clear()
