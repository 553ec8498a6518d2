"""Typed error taxonomy and degradation accounting for the guarded pipeline.

The post-pass tool rewrites a working binary, so its cardinal rule is that
a failure anywhere in the flow must degrade to "less adaptation" — never to
a crashed tool or a corrupted binary.  Every recoverable failure is
expressed as a :class:`GuardError` subclass carrying

* **stage** — which pipeline pass it belongs to (slicing, scheduling,
  triggers, codegen, verify),
* **severity** — ``warning`` (informational drop), ``error`` (a load or
  slice was lost), ``fatal`` (the whole adaptation must be abandoned),
* **policy** — the recovery action the pipeline takes: drop the load, drop
  the slice, roll the adaptation back, or abort to a no-op adaptation.

The :class:`GuardReport` accumulates the structured :class:`Diagnostic`
records the recovery boundaries produce, plus the adapted / skipped /
failed load counts and any semantic-equivalence rollbacks, and is attached
to every :class:`~repro.tool.postpass.ToolResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

# -- severities -----------------------------------------------------------------------

WARNING = "warning"
ERROR = "error"
FATAL = "fatal"

# -- recovery policies ----------------------------------------------------------------

#: Drop the delinquent load; the rest of the adaptation proceeds.
DROP_LOAD = "drop-load"
#: Drop the (possibly merged) slice; other slices proceed.
DROP_SLICE = "drop-slice"
#: Roll back to the unadapted binary (per function where possible).
ROLLBACK = "rollback"
#: Abandon the adaptation entirely (no-op result, never an exception).
ABORT = "abort"
#: Fall back to older good state (previous checkpoint, or a fresh run).
FALLBACK = "fallback"


class GuardError(Exception):
    """Base of the guarded pipeline's typed error hierarchy."""

    stage = "pipeline"
    severity = ERROR
    policy = ABORT

    def __init__(self, message: str, *, load_uid: Optional[int] = None,
                 function: Optional[str] = None,
                 cause: Optional[BaseException] = None):
        super().__init__(message)
        self.load_uid = load_uid
        self.function = function
        #: The original (wrapped) exception, when the boundary converted a
        #: foreign error into a typed one.
        self.cause = cause


class SliceError(GuardError):
    """Slicing a delinquent load's address failed; drop that load."""

    stage = "slicing"
    policy = DROP_LOAD


class ScheduleError(GuardError):
    """Scheduling produced an unusable p-slice (e.g. negative slack)."""

    stage = "scheduling"
    policy = DROP_SLICE


class CodegenError(GuardError):
    """Emission produced (or would produce) an ill-formed binary."""

    stage = "codegen"
    policy = DROP_SLICE


class VerifyError(GuardError):
    """The adapted binary is not semantically equivalent to the input."""

    stage = "verify"
    policy = ROLLBACK


class CheckpointError(GuardError):
    """A checkpoint is unusable (corrupt, truncated, wrong version/model).

    The execution layer never trusts a damaged checkpoint: restore refuses
    it and the runner falls back to the previous checkpoint, or to a fresh
    run when none survives.
    """

    stage = "resilience"
    policy = FALLBACK


class ResourceBudgetError(GuardError):
    """A run blew its wall-clock or RSS budget mid-execution.

    The queue worker reacts by stepping the spec down the graceful-
    degradation ladder (chaining SP → basic SP → top-1 delinquent load →
    unadapted binary) rather than by retrying the same work.
    """

    stage = "resilience"
    policy = FALLBACK


#: Stage name -> the error class a boundary wraps foreign exceptions into.
STAGE_ERRORS: Dict[str, type] = {
    "slicing": SliceError,
    "scheduling": ScheduleError,
    "triggers": CodegenError,
    "codegen": CodegenError,
    "verify": VerifyError,
}


@dataclass
class Diagnostic:
    """One structured record of a recovered failure."""

    stage: str
    error: str
    severity: str
    policy: str
    message: str
    load_uid: Optional[int] = None
    function: Optional[str] = None

    @classmethod
    def from_error(cls, exc: GuardError) -> "Diagnostic":
        return cls(stage=exc.stage, error=type(exc).__name__,
                   severity=exc.severity, policy=exc.policy,
                   message=str(exc), load_uid=exc.load_uid,
                   function=exc.function)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "stage": self.stage, "error": self.error,
            "severity": self.severity, "policy": self.policy,
            "message": self.message,
        }
        if self.load_uid is not None:
            out["load_uid"] = self.load_uid
        if self.function is not None:
            out["function"] = self.function
        return out


@dataclass
class GuardReport:
    """Degradation ledger of one post-pass run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Semantic-equivalence rollbacks: {"function": ..., "reason": ...};
    #: function is None for a whole-binary rollback.
    rollbacks: List[Dict[str, Any]] = field(default_factory=list)
    adapted_loads: int = 0
    skipped_loads: int = 0
    failed_loads: int = 0

    def record(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def record_rollback(self, function: Optional[str], reason: str) -> None:
        self.rollbacks.append({"function": function, "reason": reason})

    @property
    def degraded(self) -> bool:
        """True when anything was lost relative to a clean adaptation."""
        return bool(self.rollbacks or self.failed_loads
                    or any(d.severity != WARNING for d in self.diagnostics))

    @property
    def rolled_back(self) -> bool:
        return bool(self.rollbacks)

    def failures_in(self, stage: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.stage == stage]

    def summary(self) -> str:
        """The one-line degradation summary the CLI prints."""
        parts = [f"adapted={self.adapted_loads}",
                 f"skipped={self.skipped_loads}",
                 f"failed={self.failed_loads}"]
        if self.rollbacks:
            parts.append(f"rolled_back={len(self.rollbacks)}")
        if self.diagnostics:
            by_stage: Dict[str, int] = {}
            for d in self.diagnostics:
                by_stage[d.stage] = by_stage.get(d.stage, 0) + 1
            parts.append("diagnostics=" + ",".join(
                f"{stage}:{n}" for stage, n in sorted(by_stage.items())))
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "adapted_loads": self.adapted_loads,
            "skipped_loads": self.skipped_loads,
            "failed_loads": self.failed_loads,
            "degraded": self.degraded,
            "rollbacks": [dict(r) for r in self.rollbacks],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
