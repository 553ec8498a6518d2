"""The workers a waiting client runs itself: inline, or forked and watched.

:class:`LocalWorkers` is how a batch's cache misses execute on the
client's own machine — the one execution engine behind
:meth:`~repro.service.client.ServiceClient.run_batch` and so behind every
:class:`~repro.runner.executor.Runner` miss:

* ``jobs=1`` without resilience is one inline
  :class:`~repro.service.worker.ServiceWorker` in the client's process:
  no fork;
* otherwise ``jobs`` forked workers each drain the queue.  The parent
  waits on them and, on a resilient run, is their watchdog:
  a child whose lease heartbeat is older than ``heartbeat_timeout`` is
  SIGKILLed and replaced while jobs remain.  The queue's dead-owner fast
  path redelivers the job, and the steal counts toward poison.  A
  resilient run therefore never executes in the parent, so a hang is
  always killable.

Either way the workers hand each result they execute to the client
(a forked one over a pipe), so the client need not read it back from
the store.  If forking fails, the parent drains inline.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Set)

from ..resilience.config import ResilienceConfig
from ..resilience.heartbeat import heartbeat_age, read_heartbeat
from ..runner.cache import ResultCache
from ..runner.spec import RunSpec
from .queue import JobQueue, default_worker_id
from .worker import ServiceWorker

#: Per-process ordinal that makes every local worker id unique.
_ORDINALS = itertools.count()


def _die_with_parent() -> None:
    """Tie this forked worker's life to its parent's.

    ``daemon=True`` only covers a *clean* parent exit; a SIGKILLed
    parent would leave the worker orphaned, silently finishing — and
    then *retiring the checkpoints of* — the very run the kill
    abandoned, racing any resumed replacement.  ``PR_SET_PDEATHSIG``
    makes the kernel deliver SIGKILL here the moment the parent dies
    (Linux-only; elsewhere the orphan completes, which is safe but
    untidy).  The ``getppid`` check closes the fork-to-prctl race: a
    parent that died first has already reparented us, and no signal
    will ever arrive.
    """
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # 1 == PR_SET_PDEATHSIG
    except Exception:  # pragma: no cover - non-Linux hosts
        return
    if os.getppid() == 1:  # pragma: no cover - lost the race already
        os._exit(1)


def _drain_forked(worker: ServiceWorker, prefer, conn) -> None:
    """Child-process body: drain until the queue starves, sending each
    executed job's entry to the parent, then exit."""
    _die_with_parent()
    worker.on_result = lambda digest, entry: conn.send((digest, entry))
    worker.drain(prefer=prefer)


class LocalWorkers:
    """A client's own workers for one batch."""

    def __init__(self, queue: JobQueue, backend: ResultCache,
                 task_fn: Optional[Callable], jobs: int = 1,
                 resilience: Optional[ResilienceConfig] = None,
                 checkpoint_root: Optional[Path] = None):
        self.queue = queue
        self.backend = backend
        self.task_fn = task_fn
        self.jobs = max(1, int(jobs))
        self.resilience = resilience
        self.checkpoint_root = checkpoint_root
        self.forking = resilience is not None or self.jobs > 1
        #: hash -> cache entry of each job a local worker executed.
        self.results: Dict[str, Dict] = {}
        #: Worker ids of every local worker (done records name them).
        self.ids: Set[str] = set()
        #: hash -> one message per watchdog kill of a worker on that job.
        self.kills: Dict[str, List[str]] = {}
        self._inline: Optional[ServiceWorker] = None
        self._shares: Iterator[Set[str]] = iter(())

    def _worker(self, forked: bool) -> ServiceWorker:
        worker = ServiceWorker(
            self.queue, self.backend, task_fn=self.task_fn,
            worker_id=f"{default_worker_id()}-{next(_ORDINALS)}",
            resilience=self.resilience)
        worker.checkpoint_root = self.checkpoint_root
        worker.forked = forked
        self.ids.add(worker.worker_id)
        return worker

    def work(self, specs: Sequence[RunSpec],
             deadline: Optional[float]) -> None:
        """Run the workers on the batch of ``specs`` (and then on any
        other queued job) until the queue starves them or ``deadline``
        (a ``time.monotonic`` instant) passes."""
        if self.forking and self._run_forked(specs, deadline):
            return
        # Never forked, or the fork failed: drain in this process.
        self.forking = False
        if self._inline is None:
            self._inline = self._worker(forked=False)
            self._inline.on_result = self.results.__setitem__
        prefer = {spec.content_hash() for spec in specs}
        while self._inline.step(prefer=prefer) is not None:
            if deadline is not None and time.monotonic() > deadline:
                return

    def _partition(self, specs: Sequence[RunSpec]) -> List[Set[str]]:
        """One claim preference per forked worker: the jobs of every
        ``jobs``-th workload, so that one worker builds each workload's
        artifacts.  A worker whose share is done helps with the rest."""
        workloads = sorted({spec.workload for spec in specs})
        owner = {name: i % self.jobs for i, name in enumerate(workloads)}
        shares: List[Set[str]] = [set() for _ in range(self.jobs)]
        for spec in specs:
            shares[owner[spec.workload]].add(spec.content_hash())
        return shares

    # -- forked workers --------------------------------------------------------------

    def _run_forked(self, specs: Sequence[RunSpec],
                    deadline: Optional[float]) -> bool:
        """Fork ``jobs`` workers and tend them until all have exited;
        False when not even the first one could be started."""
        # Import the execution layer here, once, before the first fork:
        # each child would otherwise pay for it again.
        from ..runner import worker  # noqa: F401
        # A child flushes the stdio buffers it inherited when it exits:
        # empty them first so nothing is printed twice.
        sys.stdout.flush()
        sys.stderr.flush()
        # Replacements take over the shares in turn.
        self._shares = itertools.cycle(self._partition(specs))
        # Each child's result pipe -> the child.  A pipe reads end of
        # file once its child has exited.
        live: Dict[Connection, multiprocessing.Process] = {}
        for _ in range(self.jobs):
            if not self._fork(live):
                break
        if not live:
            return False
        cfg = self.resilience
        tick = min(1.0, cfg.heartbeat_timeout / 4) if cfg else 1.0
        try:
            while live:
                timeout = (tick if deadline is None else
                           min(tick, max(0.0, deadline - time.monotonic())))
                for conn in multiprocessing.connection.wait(list(live),
                                                            timeout):
                    if self._receive(conn):
                        continue
                    proc = live.pop(conn)
                    proc.join()
                    if proc.exitcode and any(
                            self.queue.pending_dir.glob("*.json")):
                        # Died mid-job: its lease names a dead pid now.
                        self._fork(live)
                if cfg is not None:
                    self._watchdog(live, cfg.heartbeat_timeout)
                if deadline is not None and time.monotonic() > deadline:
                    break
        finally:
            for conn, proc in live.items():
                proc.kill()
                proc.join()
                conn.close()
        return True

    def _fork(self, live: Dict) -> bool:
        ctx = multiprocessing.get_context("fork")
        conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_drain_forked,
                           args=(self._worker(forked=True),
                                 next(self._shares), child_conn),
                           daemon=True)
        try:
            proc.start()
        except Exception:  # noqa: BLE001 - no fork here: drain inline
            conn.close()
            return False
        finally:
            child_conn.close()
        live[conn] = proc
        return True

    def _receive(self, conn: Connection) -> bool:
        """Take every result waiting on ``conn``; False (and the pipe
        closed) at end of file."""
        try:
            while conn.poll():
                digest, entry = conn.recv()
                self.results[digest] = entry
        except (EOFError, OSError):
            conn.close()
            return False
        return True

    def _watchdog(self, live: Dict, timeout: float) -> None:
        """SIGKILL every child whose lease heartbeat is older than
        ``timeout``, count the kill against the job, and replace it."""
        leases = {}
        for path in self.queue.lease_dir.glob("*.lease"):
            payload = read_heartbeat(path)
            if isinstance(payload, dict) and payload.get("pid"):
                leases[payload["pid"]] = path
        for conn, proc in list(live.items()):
            path = leases.get(proc.pid)
            age = heartbeat_age(path) if path is not None else None
            if age is None or age <= timeout:
                continue
            proc.kill()
            proc.join()
            del live[conn]
            self._receive(conn)  # what it finished before the hang
            self.kills.setdefault(path.stem, []).append(
                f"no heartbeat for {age:.1f}s (timeout {timeout}s)")
            self._fork(live)
