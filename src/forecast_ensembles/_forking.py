"""Work done by a forked child process, whose return value comes back here.

A `Child` holds its work.  `Child.start` forks a child that calls it,
pickles what it returns into an unlinked temporary file of its own, which
grows as needed, then leaves by `os._exit`, so nothing it inherits runs
twice, neither `finally` blocks, nor atexit handlers, nor buffered output.
`Child.wait` returns that value once the child has ended well, and
`Child.stop` ends and reaps a child that still runs.  Where the child
failed, a fork or a file raised OSError, or no child was started, `wait`
calls the work in this process, so the caller has no second way to do it.

The fork runs with SIGINT blocked, and the child keeps it blocked: a
Ctrl-C reaches the whole process group, but only this process takes it,
and its `stop` ends the child.  The child's pid is kept before any
bytecode runs after the fork, so an interrupt cannot lose it.  Python
3.12's DeprecationWarning about a fork in a process with threads (BLAS
starts some) is silenced for the fork only, by a filter that all threads
share, so a caller forks only while `allowed` holds.  Each caller decides
how much work is worth a child; there is no option for it.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import tempfile
import threading
import warnings
from itertools import starmap
from typing import Any, Callable


def allowed() -> bool:
    """Whether work may go to a child: the platform forks, and no other
    thread of this interpreter runs, whose warning filters `Child.start`
    would change under it."""
    return hasattr(os, "fork") and threading.active_count() == 1


class Child:
    """A child process that calls ``work``, which takes no argument.  The
    work must only read and compute, since `wait` calls it again here when
    the child fails: it takes no lock another thread of this process may
    hold, and the child writes to no file or stream it inherits, only to
    its own result file."""

    def __init__(self, work: Callable[[], Any]) -> None:
        self.work = work
        self.pids: list[int] = []  # the child's, once forked
        self.result = None  # the file the child pickles its value into, until read

    def start(self) -> None:
        """Fork a child that calls the work, unless files or processes run
        short."""
        try:
            self.result = tempfile.TemporaryFile()
            # the mask to restore, read apart from the change, after which
            # pthread_sigmask may raise a pending KeyboardInterrupt
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
            try:
                signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
                with warnings.catch_warnings():
                    # the child takes no lock the other threads hold
                    warnings.simplefilter("ignore", DeprecationWarning)
                    # list.extend stores the pid in C, with no bytecode
                    # between where a KeyboardInterrupt would lose it
                    self.pids.extend(starmap(os.fork, [()]))
            finally:
                if self.pids != [0]:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        except OSError:
            self.stop()
            return
        if self.pids == [0]:
            code = 1
            try:
                pickle.dump(self.work(), self.result)
                self.result.flush()
                code = 0
            finally:
                os._exit(code)

    def wait(self) -> Any:
        """What the work returned: the child's value once the child has
        ended well, or else the work called in this process."""
        if self.pids:
            try:
                _, status = os.waitpid(self.pids[0], 0)
            except ChildProcessError:  # reaped already: SIGCHLD is ignored
                status = -1
            self.pids.clear()
            with self.result:
                if status == 0:  # the file is written by the child alone
                    self.result.seek(0)
                    return pickle.load(self.result)
        return self.work()

    def stop(self) -> None:
        """End the child if it still runs, wait for it, and close its file."""
        if self.pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pids[0], signal.SIGKILL)
                os.waitpid(self.pids[0], 0)
            self.pids.clear()
        if self.result is not None:
            self.result.close()
