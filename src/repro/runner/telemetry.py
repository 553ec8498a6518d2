"""Outcome accounting for runner executions.

One :class:`RunnerTelemetry` instance accumulates across every
``Runner.run`` call that shares it, so an experiment harness can report a
whole session.  It is the ``runner`` section of the run record
(:mod:`repro.obs.record`): the counter map under the record's counter
names, plus one record per spec the runner served.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.record import SCHEMA, counters, hit_rate, requests
from ..obs.report import runner_line


class RunnerTelemetry:
    """The runner's counter map plus its per-spec records."""

    def __init__(self):
        self.counters: Dict[str, int] = counters()
        #: One dict per spec served: ``spec``, ``label``, ``cached``,
        #: ``wall_time``, ``attempts`` (and ``deduped`` for a result
        #: another worker paid for).
        self.records: List[Dict] = []
        #: The latest ``counters_snapshot()`` of the runner's cache.
        self.cache_backend: Optional[Dict] = None

    def snapshot(self) -> Dict:
        """The record's ``runner`` section."""
        sim = sum(r["wall_time"] for r in self.records if not r["cached"])
        saved = sum(r["wall_time"] for r in self.records if r["cached"])
        return {**self.counters,
                "requests": requests(self.counters),
                "hit_rate": hit_rate(self.counters),
                "sim_wall_time": sim, "saved_wall_time": saved,
                "cache_backend": self.cache_backend}

    def to_dict(self) -> Dict:
        """Machine-readable session record (``--telemetry-json``)."""
        return {"schema": SCHEMA, "runner": self.snapshot(),
                "records": list(self.records)}

    def summary(self) -> str:
        return runner_line(self.snapshot())

