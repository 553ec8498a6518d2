"""The graceful-degradation ladder: re-adapt down instead of failing.

When an adapted run blows its wall-clock or RSS budget or runs out of
memory, the service worker walks the run *down* the paper's own
capability ladder, inside one lease — each step trades speculative
coverage for a cheaper, better-understood binary:

    full     — the tool's defaults (chaining SP, all delinquent loads)
    basic    — basic SP only (``disable_chaining``)
    top1     — basic SP for the single worst delinquent load
    unadapted — the original binary, no speculative threads at all

Each step is expressed as a *new* :class:`~repro.runner.spec.RunSpec`
(merged tool options, or the ``base`` variant for the final rung), so a
degraded result is cached under its own content hash and can never
masquerade as the full-capability result.
"""

from __future__ import annotations

from typing import Optional

from ..runner.spec import RunSpec
from ..tool.options import DEGRADATION_PRESETS

STEP_FULL = "full"
STEP_BASIC = "basic"
STEP_TOP1 = "top1"
STEP_UNADAPTED = "unadapted"

#: Rungs in descending capability order.  The tool-adapted middle rungs
#: take their ToolOptions overrides from
#: :data:`repro.tool.options.DEGRADATION_PRESETS`.
LADDER = (STEP_FULL, STEP_BASIC, STEP_TOP1, STEP_UNADAPTED)


def ladder_steps(spec: RunSpec) -> tuple:
    """The rungs available to one spec, in descending capability order.

    Tool-adapted runs have the full ladder; hand-adapted binaries can
    only fall back to the unadapted original (there is no tool to
    re-run with weaker options); everything else has nothing to shed.
    """
    if spec.variant == "ssp":
        return LADDER
    if spec.variant == "hand":
        return (STEP_FULL, STEP_UNADAPTED)
    return (STEP_FULL,)


def ladder_applies(spec: RunSpec) -> bool:
    """Whether the spec has any capability to shed."""
    return len(ladder_steps(spec)) > 1


def next_step(step: str) -> Optional[str]:
    """The rung below ``step``, or None at the bottom."""
    idx = LADDER.index(step)
    return LADDER[idx + 1] if idx + 1 < len(LADDER) else None


def degrade_spec(spec: RunSpec, step: str) -> RunSpec:
    """Re-express ``spec`` at the given ladder rung.

    ``unadapted`` switches to the ``base`` variant (original binary, no
    spawning); the tool-adapted rungs merge the rung's overrides into the
    spec's existing tool options.
    """
    if step == STEP_FULL:
        return spec
    if step == STEP_UNADAPTED:
        return spec.derive(variant="base", spawning=False,
                           tool_options=None)
    merged = dict(spec.tool_options)
    merged.update(DEGRADATION_PRESETS[step])
    return spec.derive(tool_options=merged)
