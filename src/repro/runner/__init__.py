"""Parallel simulation-run orchestration with a content-addressed cache.

The evaluation harness re-runs the cycle-accurate simulators for many
overlapping (workload, scale, model, variant, config) combinations; this
package turns each combination into a declarative
:class:`~repro.runner.spec.RunSpec`, executes batches of them through a
:class:`~repro.runner.executor.Runner` (cache lookups, then the
:mod:`repro.service` job queue and its inline or forked workers), and
memoises every result on disk in a
:class:`~repro.runner.cache.ResultCache` keyed by spec content hash and a
source-tree salt.  Experiments, the CLI and the benchmark harness all
route their simulations through here.

The names below resolve on first use (PEP 562).  :mod:`repro.runner.worker`,
the execution layer, pulls in the simulators, the tool, profiling and
codegen; only code that executes a task imports it, so a client that
submits, polls or fetches never does.
"""

from .._lazy import lazy_exports

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "RunSpec": ".spec", "VARIANTS": ".spec", "freeze_options": ".spec",
    "freeze_overrides": ".spec",
    "ResultCache": ".cache", "code_version": ".cache",
    "RunnerTelemetry": ".telemetry",
    "Runner": ".executor", "RunnerError": ".executor",
    "RunResult": ".executor",
    "WorkerTask": ".worker", "WorkloadArtifacts": ".worker",
    "artifacts_for": ".worker", "clear_artifact_cache": ".worker",
    "config_for": ".worker", "execute_spec": ".worker",
    "execute_task": ".worker",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS, globals())
