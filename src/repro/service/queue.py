"""File/dir-based work queue with leases, heartbeats and at-least-once.

The queue is three directories under a service root shared by every
client and worker (one host or many, over a shared filesystem)::

    <root>/queue/
      pending/<spec-hash>.json     submitted jobs (spec in key() form)
      leases/<spec-hash>.lease     in-flight claims, heartbeat-refreshed
      done/<spec-hash>.json        terminal records (ok or failed)
      poisoned/<spec-hash>.json    quarantined jobs (structured diagnostic)

Everything is keyed by the spec's content hash, which is what makes the
semantics simple:

* **submission is idempotent** — a second submit of the same spec (from
  any client, any time) is a no-op while the job is pending, in flight,
  or done;
* **in-flight dedupe** — a lease file is created with ``O_EXCL``, so
  exactly one worker holds a spec at a time;
* **at-least-once, not exactly-once** — a worker that dies mid-job stops
  refreshing its lease (the heartbeat writer is
  :class:`repro.resilience.heartbeat.Heartbeat`, judged by file mtime
  exactly like the local watchdog judges its forked workers); after
  ``visibility_timeout`` seconds of silence any other worker may steal
  the lease and re-execute.  Duplicate execution is harmless because
  results are content-addressed: both workers write byte-identical
  entries to the same cache address.
* **dead-owner fast path** — lease payloads record the owner's pid and
  host; a claimer (or ``gc``) on the same host probes ``os.kill(pid,
  0)`` and steals immediately when the owner is gone, so a crashed
  worker's job is redelivered in seconds instead of waiting out the
  visibility timeout.
* **poison quarantine** — at-least-once must not mean *forever*: a job
  whose lease is stolen ``poison_threshold`` times (every owner died or
  wedged mid-execution — the signature of a job that kills its workers)
  is tombstoned to ``poisoned/`` with a structured diagnostic instead
  of being redelivered again.  Poisoned jobs are terminal to waiting
  clients, surfaced by ``service status``/``service top``, reaped by
  ``service gc``, and revivable only by an explicit ``resubmit``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from ..guard import faultinject
from ..resilience.heartbeat import Heartbeat, heartbeat_age
from ..runner.spec import RunSpec

#: Default seconds of lease silence before another worker may steal it.
DEFAULT_VISIBILITY_TIMEOUT = 60.0

#: Execution attempts per job before it is failed terminally.
DEFAULT_MAX_ATTEMPTS = 3

#: Lease steals before a job is quarantined as poison (every owner so
#: far died or wedged mid-job; stop feeding it workers).
DEFAULT_POISON_THRESHOLD = 3

_HOSTNAME = os.uname().nodename


def default_worker_id() -> str:
    """host-pid tag identifying a queue participant in leases/records."""
    return f"{_HOSTNAME}-{os.getpid()}"


def _write_json_atomic(path: Path, payload: Dict) -> None:
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def _read_json(path: Path) -> Optional[Dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _read_lease_payload(path: Path) -> Optional[Dict]:
    """Last lease/heartbeat payload, or None — distinguishing a missing
    file (no recovery to record) from unreadable garbage, which is the
    ``queue.lease.corrupt`` failure handled by falling back to mtime."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        faultinject.record_recovery("queue.lease.corrupt")
        return None
    return payload if isinstance(payload, dict) else None


def _owner_is_dead(payload: Optional[Dict]) -> bool:
    """True when a lease payload names a same-host pid that no longer
    exists.  Cross-host owners (shared filesystem) are never probeable;
    an unreadable payload falls back to the mtime-based timeout."""
    if not payload or payload.get("host") != _HOSTNAME:
        return False
    pid = payload.get("pid")
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:  # pragma: no cover - e.g. EPERM: alive, other user
        return False
    return False


@dataclass
class Lease:
    """One worker's exclusive claim on one pending job."""

    queue: "JobQueue"
    hash: str
    spec: RunSpec
    job: Dict
    path: Path
    #: True when this claim displaced a stale lease (previous owner died
    #: or wedged past the visibility timeout).
    stolen: bool = False
    _heartbeat: Heartbeat = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._heartbeat = Heartbeat(self.path)

    @property
    def attempt(self) -> int:
        return int(self.job.get("attempts", 0)) + 1

    def beat(self, *, cycle: Optional[int] = None,
             stage: Optional[str] = None) -> None:
        """Refresh the lease mtime so the claim stays visible as live."""
        self._heartbeat.beat(cycle=cycle, stage=stage)

    def release(self) -> None:
        """Give the claim up without completing it (job stays pending)."""
        try:
            self.path.unlink()
        except FileNotFoundError:  # pragma: no cover - racing steal
            pass

    def complete(self, *, executed: bool, wall_time: float = 0.0,
                 worker: str = "",
                 meta: Optional[Dict] = None) -> None:
        """Terminal success: write the done record, retire the job.

        ``meta`` rides along in the done record — the service worker
        uses it to publish the degradation rung and the executed
        (possibly degraded) spec so clients can find the result under
        its honest content hash.
        """
        record = {
            "hash": self.hash,
            "spec": self.job.get("spec"),
            "label": self.job.get("label", ""),
            "ok": True,
            "executed": executed,
            "attempts": self.attempt,
            "wall_time": wall_time,
            "worker": worker,
            "completed": time.time(),
        }
        if meta:
            record.update(meta)
        self.queue._write_done(self.hash, record)
        self.queue._retire_pending(self.hash)
        self.release()

    def fail(self, error: str, worker: str = "",
             fault_site: Optional[str] = None,
             traceback_text: Optional[str] = None) -> bool:
        """Attempt failed: requeue if budget remains, else fail terminally.

        Returns True when the job went back to pending (another attempt
        will happen), False when a terminal failure record was written.
        ``fault_site``/``traceback_text`` persist in the requeued job so
        a later poison tombstone can say what kept killing the job.
        """
        attempts = self.attempt
        if attempts < self.queue.max_attempts:
            job = dict(self.job)
            job["attempts"] = attempts
            job["last_error"] = error
            job["last_worker"] = worker
            if fault_site is not None:
                job["last_fault_site"] = fault_site
            if traceback_text is not None:
                job["last_traceback"] = traceback_text
            _write_json_atomic(self.queue.pending_dir / f"{self.hash}.json",
                               job)
            self.release()
            return True
        self.queue._write_done(self.hash, {
            "hash": self.hash,
            "spec": self.job.get("spec"),
            "label": self.job.get("label", ""),
            "ok": False,
            "executed": True,
            "attempts": attempts,
            "error": error,
            "fault_site": fault_site,
            "traceback": traceback_text,
            "worker": worker,
            "completed": time.time(),
        })
        self.queue._retire_pending(self.hash)
        self.release()
        return False


class JobQueue:
    """The shared pending/leases/done directories under one root."""

    def __init__(self, root: os.PathLike,
                 visibility_timeout: float = DEFAULT_VISIBILITY_TIMEOUT,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 poison_threshold: int = DEFAULT_POISON_THRESHOLD):
        self.root = Path(root)
        self.visibility_timeout = visibility_timeout
        self.max_attempts = max(1, int(max_attempts))
        self.poison_threshold = max(1, int(poison_threshold))
        queue_root = self.root / "queue"
        self.pending_dir = queue_root / "pending"
        self.lease_dir = queue_root / "leases"
        self.done_dir = queue_root / "done"
        self.poisoned_dir = queue_root / "poisoned"

    def ensure(self) -> "JobQueue":
        for directory in (self.pending_dir, self.lease_dir,
                          self.done_dir, self.poisoned_dir):
            directory.mkdir(parents=True, exist_ok=True)
        return self

    # -- submission ------------------------------------------------------------------

    def submit(self, spec: RunSpec) -> "tuple[str, bool]":
        """Enqueue one spec; returns ``(hash, newly_enqueued)``.

        Content-addressed and idempotent: already pending or already
        done means no new job file is written.
        """
        self.ensure()
        digest = spec.content_hash()
        if (self.done_dir / f"{digest}.json").exists():
            return digest, False
        if (self.poisoned_dir / f"{digest}.json").exists():
            # Quarantine is terminal; only an explicit resubmit revives.
            return digest, False
        path = self.pending_dir / f"{digest}.json"
        if path.exists():
            return digest, False
        _write_json_atomic(path, {
            "hash": digest,
            "spec": spec.key(),
            "label": spec.label(),
            "submitted": time.time(),
            "attempts": 0,
        })
        return digest, True

    def resubmit(self, spec: RunSpec) -> str:
        """Force a spec back onto the queue (self-heal of a lost job, or
        an operator reviving a quarantined one): drops any terminal
        record — done *or* poisoned — so ``submit`` enqueues anew."""
        digest = spec.content_hash()
        for terminal in (self.done_dir / f"{digest}.json",
                         self.poisoned_dir / f"{digest}.json"):
            try:
                terminal.unlink()
            except FileNotFoundError:
                pass
        return self.submit(spec)[0]

    # -- claiming --------------------------------------------------------------------

    def claim(self, worker_id: str,
              prefer: Optional[Iterable[str]] = None) -> Optional[Lease]:
        """Acquire a lease on some pending job, or None when starved.

        ``prefer`` biases claim order toward the given spec hashes (a
        client draining its own batch works its jobs first but still
        helps with anything else in the queue).
        """
        self.ensure()
        preferred = set(prefer) if prefer else set()
        candidates = sorted(self.pending_dir.glob("*.json"),
                            key=lambda p: (p.stem not in preferred,
                                           p.name))
        for path in candidates:
            digest = path.stem
            if (self.done_dir / f"{digest}.json").exists():
                # Completed elsewhere; retire the stale pending file.
                self._retire_pending(digest)
                continue
            if (self.poisoned_dir / f"{digest}.json").exists():
                # Quarantined elsewhere; never redeliver.
                self._retire_pending(digest)
                continue
            acquired = self._acquire_lease(digest, worker_id)
            if acquired is None:
                continue
            lease_path, stolen, corpse = acquired
            job = _read_json(path)
            if job is None:
                # Pending file vanished (or is torn) between listing and
                # read — drop the claim and move on.
                try:
                    lease_path.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                continue
            if stolen:
                # Every steal means the previous owner died or wedged
                # mid-job.  Count them on the job itself (the pending
                # file outlives leases), and quarantine once the job
                # has burned through the poison budget of workers.
                job["steals"] = int(job.get("steals", 0)) + 1
                faultinject.record_recovery("worker.crash")
                if job["steals"] >= self.poison_threshold:
                    self.poison(digest, job, corpse=corpse,
                                worker=worker_id)
                    try:
                        lease_path.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
                    continue
                _write_json_atomic(path, job)
            try:
                spec = RunSpec.from_key(job["spec"])
            except ValueError as exc:
                # A key this version cannot rebuild exactly (a field it
                # does not define) must not run under another address:
                # fail the attempt so waiters end on ``failed``.
                Lease(queue=self, hash=digest, spec=None, job=job,
                      path=lease_path, stolen=stolen).fail(
                          f"unrunnable spec: {exc}", worker=worker_id)
                continue
            return Lease(queue=self, hash=digest, spec=spec, job=job,
                         path=lease_path, stolen=stolen)
        return None

    def _acquire_lease(self, digest: str, worker_id: str):
        """(lease_path, stolen, prev_payload) on success, None when the
        lease is live in someone else's hands.  ``prev_payload`` is the
        displaced owner's last lease/heartbeat payload on a steal (its
        corpse — diagnostic input for poison tombstones), else None."""
        lease_path = self.lease_dir / f"{digest}.lease"
        stolen = False
        corpse: Optional[Dict] = None
        try:
            fd = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                         0o644)
        except FileExistsError:
            corpse = _read_lease_payload(lease_path)
            if not _owner_is_dead(corpse):
                age = heartbeat_age(lease_path)
                if age is None or age <= self.visibility_timeout:
                    return None
            if faultinject.fires("queue.steal.race"):
                # Chaos: pretend a rival won the election below.
                # Yielding (and retrying on a later claim) is exactly
                # the designed loser behaviour, so recovery is
                # immediate.
                faultinject.record_recovery("queue.steal.race")
                return None
            # Stale or dead-owned lease: steal it.  os.replace is the
            # election — only the first stealer's rename succeeds; the
            # loser's raises.
            tombstone = lease_path.with_name(
                lease_path.name + f".expired.{os.getpid()}")
            try:
                os.replace(lease_path, tombstone)
            except OSError:
                return None
            try:
                tombstone.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            stolen = True
            try:
                fd = os.open(lease_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                # A third worker slipped in after the steal; yield.
                return None
        payload = {"worker": worker_id, "pid": os.getpid(),
                   "host": _HOSTNAME, "time": time.time(),
                   "stolen": stolen}
        try:
            os.write(fd, json.dumps(payload).encode("utf-8"))
        finally:
            os.close(fd)
        if faultinject.fires("queue.lease.corrupt"):
            # Chaos: scribble over the payload we just wrote.  Liveness
            # falls back to the file's mtime (which our own heartbeats
            # keep fresh); readers record the recovery when they hit
            # the garbage.
            try:
                lease_path.write_bytes(b"\x00corrupt lease{")
            except OSError:  # pragma: no cover - racing delete
                pass
        return lease_path, stolen, corpse

    # -- poison quarantine -----------------------------------------------------------

    def poison(self, digest: str, job: Dict,
               corpse: Optional[Dict] = None, worker: str = "") -> Path:
        """Tombstone a job that keeps killing its workers.

        The structured diagnostic records everything an operator needs
        to decide between fixing and reviving (``resubmit``): attempt
        and steal counts, the last owner's identity and final
        heartbeat, and the last recorded error/fault site/traceback
        from any failed attempt.
        """
        corpse = corpse or {}
        last_worker = corpse.get("worker") or job.get("last_worker")
        if not last_worker and corpse.get("pid"):
            last_worker = f"{corpse.get('host', '?')}-{corpse['pid']}"
        record = {
            "hash": digest,
            "spec": job.get("spec"),
            "label": job.get("label", ""),
            "poisoned": time.time(),
            "by": worker,
            "attempts": int(job.get("attempts", 0)),
            "steals": int(job.get("steals", 0)),
            "last_worker": last_worker,
            "last_heartbeat": {
                key: corpse[key] for key in ("time", "cycle", "stage")
                if corpse.get(key) is not None},
            "last_error": job.get("last_error"),
            "last_fault_site": job.get("last_fault_site"),
            "traceback": job.get("last_traceback"),
        }
        self.ensure()
        path = self.poisoned_dir / f"{digest}.json"
        _write_json_atomic(path, record)
        self._retire_pending(digest)
        return path

    def read_poisoned(self, digest: str) -> Optional[Dict]:
        return _read_json(self.poisoned_dir / f"{digest}.json")

    # -- completion / inspection -----------------------------------------------------

    def _write_done(self, digest: str, record: Dict) -> None:
        self.ensure()
        _write_json_atomic(self.done_dir / f"{digest}.json", record)

    def _retire_pending(self, digest: str) -> None:
        try:
            (self.pending_dir / f"{digest}.json").unlink()
        except FileNotFoundError:
            pass

    def read_done(self, digest: str) -> Optional[Dict]:
        return _read_json(self.done_dir / f"{digest}.json")

    def state_of(self, digest: str) -> str:
        """One of ``done``/``failed``/``poisoned``/``running``/
        ``queued``/``missing``."""
        record = self.read_done(digest)
        if record is not None:
            return "done" if record.get("ok") else "failed"
        if (self.poisoned_dir / f"{digest}.json").exists():
            return "poisoned"
        lease_age = heartbeat_age(self.lease_dir / f"{digest}.lease")
        if lease_age is not None and lease_age <= self.visibility_timeout:
            return "running"
        if (self.pending_dir / f"{digest}.json").exists():
            return "queued"
        return "missing"

    def counts(self) -> Dict[str, int]:
        leases = list(self.lease_dir.glob("*.lease"))
        fresh = sum(
            1 for lease in leases
            if (heartbeat_age(lease) or 0.0) <= self.visibility_timeout)
        done = failed = 0
        for path in self.done_dir.glob("*.json"):
            record = _read_json(path)
            if record is not None and record.get("ok"):
                done += 1
            else:
                failed += 1
        return {
            "pending": len(list(self.pending_dir.glob("*.json"))),
            "leased": fresh,
            "stale_leases": len(leases) - fresh,
            "done": done,
            "failed": failed,
            "poisoned": len(list(self.poisoned_dir.glob("*.json"))),
        }

    def pending_hashes(self) -> List[str]:
        return [path.stem for path in
                sorted(self.pending_dir.glob("*.json"))]

    # -- housekeeping ----------------------------------------------------------------

    def gc(self, max_age: Optional[float] = None,
           now: Optional[float] = None) -> int:
        """Reap aged-out done records and poison tombstones, orphan
        steal tombstones, dead-owned leases (``os.kill(pid, 0)`` probe
        — redelivery in seconds, not a visibility timeout) and stale
        leases of retired jobs; returns how many files were removed."""
        self.ensure()
        now = time.time() if now is None else now
        removed = 0
        if max_age is not None:
            for path in self.done_dir.glob("*.json"):
                record = _read_json(path)
                completed = (record or {}).get("completed", 0.0)
                if now - completed > max_age:
                    try:
                        path.unlink()
                        removed += 1
                    except FileNotFoundError:  # pragma: no cover
                        pass
            for path in self.poisoned_dir.glob("*.json"):
                record = _read_json(path)
                poisoned = (record or {}).get("poisoned", 0.0)
                if now - poisoned > max_age:
                    try:
                        path.unlink()
                        removed += 1
                    except FileNotFoundError:  # pragma: no cover
                        pass
        for tombstone in self.lease_dir.glob("*.lease.expired.*"):
            try:
                tombstone.unlink()
                removed += 1
            except FileNotFoundError:  # pragma: no cover
                pass
        for lease in self.lease_dir.glob("*.lease"):
            digest = lease.stem
            pending_path = self.pending_dir / f"{digest}.json"
            age = heartbeat_age(lease, now=now)
            corpse = _read_lease_payload(lease)
            dead = _owner_is_dead(corpse)
            stale = age is not None and age > self.visibility_timeout
            if not dead and (pending_path.exists() or not stale):
                continue
            if dead:
                # Reaping a dead owner's lease is a steal by other
                # means: count it against the job's poison budget so
                # gc-redelivered crashes still converge on quarantine.
                faultinject.record_recovery("worker.crash")
                job = _read_json(pending_path)
                if job is not None:
                    job["steals"] = int(job.get("steals", 0)) + 1
                    if job["steals"] >= self.poison_threshold:
                        self.poison(digest, job, corpse=corpse,
                                    worker="gc")
                    else:
                        _write_json_atomic(pending_path, job)
            try:
                lease.unlink()
                removed += 1
            except FileNotFoundError:  # pragma: no cover
                pass
        return removed
