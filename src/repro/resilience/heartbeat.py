"""File-based worker heartbeats: how a watchdog tells slow from hung.

A worker owns one heartbeat file (a queue lease) and rewrites it (atomic
temp + rename, so the watchdog never reads a torn JSON) at checkpoint
boundaries and other progress points.  The watchdog judges liveness by
the file's **mtime** — the payload (pid, cycle, stage) says whose file
it is and feeds "worker killed after N cycles at stage X" messages, but
is not the staleness signal itself, so a worker that wedges *between*
writes is still detected.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Dict, Optional

#: Cached once: the host tag lets a reader decide whether the writer's
#: pid is probeable (same host) or opaque (over a shared filesystem).
_HOSTNAME = socket.gethostname()


class Heartbeat:
    """Writer side: owned by the worker process."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def beat(self, *, cycle: Optional[int] = None,
             stage: Optional[str] = None) -> None:
        payload = {"pid": os.getpid(), "host": _HOSTNAME,
                   "time": time.time()}
        if cycle is not None:
            payload["cycle"] = int(cycle)
        if stage is not None:
            payload["stage"] = stage
        tmp = self.path.with_name(self.path.name + f".tmp.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, self.path)
        except OSError:
            # A failed beat must never kill the run it is reporting on.
            pass


def read_heartbeat(path: Path) -> Optional[Dict[str, object]]:
    """Last-written heartbeat payload, or None if absent/unreadable."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def heartbeat_age(path: Path, now: Optional[float] = None
                  ) -> Optional[float]:
    """Seconds since the heartbeat file was last written (None if absent)."""
    try:
        mtime = Path(path).stat().st_mtime
    except OSError:
        return None
    return (now if now is not None else time.time()) - mtime
