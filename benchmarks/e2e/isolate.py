"""Fork-per-trial isolation.

Repeating a replay inside one process drifts (the issue measured
1.9 s -> 3.2 s over eight repeats of the same 20k-route replay, CPU time
not scheduling), so every trial runs in a freshly forked child that
inherits the generated inputs for free, sends its result back through a
pipe and exits without running the parent's exit handlers.  The parent
is single-threaded, which is what makes a bare ``fork`` safe here.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import time
import traceback
from typing import Callable, Optional, Tuple

__all__ = ["run_isolated"]


def run_isolated(
    body: Callable[[], object], timeout_s: float
) -> Tuple[Optional[object], Optional[str]]:
    """Run ``body()`` in a forked child; return ``(result, error)``.

    Exactly one of the two is None.  A child that raises, dies or
    outlives ``timeout_s`` is an error (never a hang): it is killed and
    reaped before this returns.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            # Own process group: a timeout kills the trial together with
            # any shard workers it started.
            os.setpgid(0, 0)
            payload = pickle.dumps(body(), protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:  # the child must never return into the parent's stack
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)

    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout_s
    timed_out = False
    with os.fdopen(read_fd, "rb", buffering=0) as pipe:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([pipe], [], [], remaining)
            if not ready:
                continue
            chunk = pipe.read(1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        os.killpg(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    if timed_out:
        return None, f"trial exceeded its {timeout_s:.0f} s timeout and was killed"
    if status != 0:
        return None, f"trial child ended with wait status {status}"
    # Only bytes written by our own child a moment ago are unpickled.
    return pickle.loads(b"".join(chunks)), None
