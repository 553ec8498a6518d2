"""Shared experiment infrastructure.

Running the paper's evaluation means simulating every benchmark under many
configurations (baseline/SSP × in-order/OOO × perfect-memory variants).
All simulations route through :mod:`repro.runner`: each (workload, scale,
model, variant) pair becomes a content-addressed
:class:`~repro.runner.spec.RunSpec`, executed by the context's
:class:`~repro.runner.executor.Runner` — which consults the on-disk result
cache first, can fan a warmed batch out over worker processes, and records
telemetry.  On top of that, :class:`WorkloadRun` keeps the historical
in-memory memo so repeated queries within one context return the same
:class:`~repro.sim.stats.SimStats` object.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..isa.program import Program
from ..profiling.profile import ProgramProfile
from ..runner import Runner, RunSpec, artifacts_for
from ..sim.stats import SimStats
from ..tool.postpass import ToolOptions, ToolResult
from ..workloads import PAPER_ORDER, make_workload

#: (model, variant) pairs covering the full evaluation grid (the ``hand``
#: variant exists only for mcf/health and is warmed separately).
ALL_PAIRS: Tuple[Tuple[str, str], ...] = tuple(
    (model, variant)
    for model in ("inorder", "ooo")
    for variant in ("base", "ssp", "perfect_mem", "perfect_dloads"))


class WorkloadRun:
    """All artifacts for one benchmark at one scale, lazily built.

    Build products (program, profile, tool adaptation) come from the
    runner's per-process artifact memo, so in-process simulation shares
    them with this object instead of building twice.
    """

    def __init__(self, name: str, scale: str,
                 tool_options: Optional[ToolOptions] = None,
                 runner: Optional[Runner] = None):
        self.name = name
        self.scale = scale
        self.tool_options = tool_options
        self.runner = runner or Runner()
        self._artifacts = artifacts_for(self.spec("inorder", "base"))
        self.workload = self._artifacts.workload
        self._stats: Dict[Tuple[str, str], SimStats] = {}

    # -- artifacts -----------------------------------------------------------------

    @property
    def program(self) -> Program:
        return self._artifacts.program

    @property
    def profile(self) -> ProgramProfile:
        return self._artifacts.profile

    @property
    def tool_result(self) -> ToolResult:
        return self._artifacts.tool_result

    @property
    def adapted_program(self) -> Program:
        return self.tool_result.program

    @property
    def delinquent_uids(self) -> List[int]:
        return self.tool_result.delinquent_uids

    # -- simulation ------------------------------------------------------------------

    def spec(self, model: str, variant: str = "base") -> RunSpec:
        """The declarative run spec for one (model, variant) pair."""
        return RunSpec.create(self.name, scale=self.scale, model=model,
                              variant=variant,
                              tool_options=self.tool_options)

    def stats(self, model: str, variant: str = "base") -> SimStats:
        """Memoised simulation of one (model, variant) configuration."""
        key = (model, variant)
        if key in self._stats:
            self.runner.telemetry.counters["memo_hits"] += 1
            return self._stats[key]
        result = self.runner.stats(self.spec(model, variant))
        self._stats[key] = result
        return result

    def cycles(self, model: str, variant: str = "base") -> int:
        return self.stats(model, variant).cycles

    def speedup(self, model: str, variant: str,
                over: Tuple[str, str] = ("inorder", "base")) -> float:
        """Speedup of (model, variant) over a reference configuration."""
        return self.cycles(*over) / self.cycles(model, variant)


class ExperimentContext:
    """Memoised workload runs shared across experiment harnesses.

    The optional ``runner`` is shared by every :class:`WorkloadRun`; give
    it ``jobs > 1`` (or pass ``jobs=`` here) to execute each experiment's
    warmed batch of simulations in parallel worker processes.
    """

    def __init__(self, scale: str = "small",
                 tool_options: Optional[ToolOptions] = None,
                 runner: Optional[Runner] = None,
                 jobs: Optional[int] = None):
        self.scale = scale
        self.tool_options = tool_options
        self.runner = runner or Runner(jobs=jobs or 1)
        self._runs: Dict[str, WorkloadRun] = {}

    @property
    def telemetry(self):
        return self.runner.telemetry

    def run(self, name: str) -> WorkloadRun:
        if name not in self._runs:
            self._runs[name] = WorkloadRun(name, self.scale,
                                           self.tool_options,
                                           runner=self.runner)
        return self._runs[name]

    def runs(self, names: Optional[List[str]] = None) -> List[WorkloadRun]:
        return [self.run(n) for n in (names or PAPER_ORDER)]

    def warm(self, names: Optional[Iterable[str]] = None,
             pairs: Iterable[Tuple[str, str]] = ALL_PAIRS) -> int:
        """Execute every missing (benchmark, model, variant) run as one
        batch through the runner.

        Experiments call this with exactly the grid they query, so a
        multi-job runner overlaps the simulations instead of discovering
        them one ``stats()`` call at a time.  Returns the number of runs
        that were actually dispatched (cache hits included, memo hits
        not).  Failed runs are left unmemoised; the eventual ``stats()``
        query surfaces the error.
        """
        pairs = list(pairs)
        requests = []
        for name in names or PAPER_ORDER:
            wr = self.run(name)
            for model, variant in pairs:
                if (model, variant) not in wr._stats:
                    requests.append((wr, (model, variant)))
        if not requests:
            return 0
        results = self.runner.run(
            [wr.spec(model, variant) for wr, (model, variant) in requests])
        for (wr, key), result in zip(requests, results):
            if result.ok:
                wr._stats[key] = result.stats
        return len(requests)


class ExperimentResult:
    """A reproduced table/figure: headers + rows + formatting."""

    def __init__(self, title: str, headers: List[str],
                 rows: List[List], notes: str = ""):
        self.title = title
        self.headers = headers
        self.rows = rows
        self.notes = notes

    def format(self) -> str:
        def fmt(cell) -> str:
            if isinstance(cell, float):
                return f"{cell:.2f}"
            return str(cell)

        table = [self.headers] + [[fmt(c) for c in row]
                                  for row in self.rows]
        widths = [max(len(row[i]) for row in table)
                  for i in range(len(self.headers))]
        lines = [self.title, "=" * len(self.title)]
        for r, row in enumerate(table):
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)

    def row_map(self) -> Dict[str, List]:
        """Rows keyed by their first column (benchmark name)."""
        return {row[0]: row for row in self.rows}
