"""Every process a run starts ends before the run does.

A run's processes are not all its children: the warm pool's workers each
start a multiprocessing resource tracker, and ``repro serve`` starts workers
of its own.  Such a grandchild outlives its parent by a moment, and without
care it outlives the run too.  :func:`adopt_orphans` makes the run the child
subreaper, so a process whose parent exits is re-parented to the run;
:func:`reap` then waits for every process below the run, kills what is still
there after a grace period, and collects each exit status.
"""

from __future__ import annotations

import os
import signal
import time

from measure import descendants

#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a run's processes get to end on their own before they are killed.
GRACE_S = 20.0


def adopt_orphans() -> bool:
    """Become the child subreaper (Linux); False where that is not possible."""
    try:
        import ctypes

        return ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _stop_helpers() -> None:
    """Stop this process's resource tracker and fork server, if it has them.
    Each exits only when the pipe from its owner closes, and is waited for."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def _collect() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap(grace_s: float = GRACE_S) -> list[int]:
    """Wait until no process is left below this one; SIGKILL whatever is
    still running after ``grace_s`` seconds.  Returns the pids killed."""
    import multiprocessing

    for child in multiprocessing.active_children():  # pool workers told to exit
        child.join(grace_s)
    if not multiprocessing.active_children():
        # A forked worker holds the helpers' pipes too; with one still
        # running, stopping them would wait on it, so the kill below ends both.
        _stop_helpers()
    killed: list[int] = []
    deadline = time.monotonic() + grace_s
    while True:
        _collect()
        left = descendants(os.getpid())
        if not left:
            return killed
        if time.monotonic() >= deadline:
            for pid in set(left) - set(killed):
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
