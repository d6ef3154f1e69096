"""Run the benchmark so that no process it starts outlives it.

The runner, its serving child and its cold-start children all use
``multiprocessing``: worker pools, and a resource tracker per process
that touches shared memory. A tracker ends only *after* its parent has
gone (it waits for the parent's pipe to close), so a parent can never
wait for it, and it is re-parented to init, which may reap it late or
not at all. Killing process groups does not cover it either: it has
already left with its parent's group by the time the parent is waited
for.

So the process the driver starts is only a supervisor. It marks itself
a *child subreaper* (Linux ``prctl``): every orphan below it is
re-parented to it instead of init. It runs the real runner as a child in
its own session, and then waits for every child it has, adopted ones
included, killing whatever outstays a short grace period. When
``supervised`` returns, no descendant is left -- running or defunct --
whichever way the runner ended. Only the standard library is used.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
#: The contract wants an exit within 180 s; a runner still going then is killed.
RUNNER_TIMEOUT_S = 170.0
#: How long orphans (resource trackers unlinking their segments) get to end by themselves.
GRACE_S = 5.0


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # After the parenthesised command name: state, ppid, ...
        if int(stat.rpartition(b")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def end_descendants(grace_s: float = GRACE_S) -> None:
    """Wait until this process has no child left; kill those that outstay the grace.

    As a subreaper this process adopts every orphan below it, so "no
    child" means "no descendant": killing a child hands its children
    over, and the loop goes on until ``waitpid`` finds nothing to wait for.
    """
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.005)


def _terminated(signum, _frame):
    raise SystemExit(128 + signum)


def supervised(
    command: list[str], timeout_s: float = RUNNER_TIMEOUT_S, grace_s: float = GRACE_S
) -> int:
    """Run ``command`` to its end, then end everything it left; returns its exit code."""
    become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _terminated)
    sys.stdout.flush()
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"error: runner still going after {timeout_s:.0f} s; killed", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        end_descendants(grace_s)
