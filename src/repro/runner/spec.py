"""Declarative description of one simulation run.

A :class:`RunSpec` names everything a run depends on — workload, scale,
machine model, experiment variant, post-pass tool options, configuration
overrides — as plain data.  Because every build step in this repository is
deterministic (seeded heap layouts, deterministic profiling and adaptation,
cycle-accurate simulation), the spec fully determines the resulting
:class:`~repro.sim.stats.SimStats`; its :meth:`~RunSpec.content_hash` is
therefore a valid content address for the run's result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..sim.config import PRESETS

#: Simulation variants a spec may name.  ``base`` and the two ``perfect_*``
#: ablations run the original binary without spawning; ``ssp`` runs the
#: tool-adapted binary and ``hand`` the hand-adapted one (Section 4.5).
VARIANTS = ("base", "ssp", "perfect_mem", "perfect_dloads", "hand")

#: Variants that execute a spawning (SSP-enhanced) binary.
_SPAWNING_VARIANTS = ("ssp", "hand")


def freeze_options(options: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalise tool options (dataclass, mapping, or None) to a sorted,
    hashable tuple of (field, value) pairs."""
    if options is None:
        return ()
    if dataclasses.is_dataclass(options) and not isinstance(options, type):
        options = dataclasses.asdict(options)
    elif not isinstance(options, dict):
        raise TypeError(f"cannot freeze tool options of type "
                        f"{type(options).__name__}")
    return tuple(sorted(options.items()))


def freeze_overrides(overrides: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalise config overrides to a sorted, hashable tuple.

    Sequence-valued overrides (e.g. ``perfect_load_uids``) are stored as
    sorted tuples so that set- and list-typed inputs hash identically.
    """
    if not overrides:
        return ()
    if isinstance(overrides, dict):
        overrides = overrides.items()
    frozen = []
    for key, value in overrides:
        if isinstance(value, (set, frozenset, list, tuple)):
            value = tuple(sorted(value))
        frozen.append((key, value))
    return tuple(sorted(frozen))


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, as content-addressable data."""

    workload: str
    scale: str = "small"
    model: str = "inorder"
    variant: str = "base"
    #: Spawning override; None derives it from the variant (only the
    #: adapted ``ssp``/``hand`` binaries spawn speculative threads).
    spawning: Optional[bool] = None
    #: Frozen :class:`~repro.tool.options.ToolOptions` field/value pairs
    #: (build with :func:`freeze_options`); () means the tool defaults.
    tool_options: Tuple[Tuple[str, Any], ...] = ()
    #: :class:`~repro.sim.config.MachineConfig` field replacements applied
    #: on top of the model preset (build with :func:`freeze_overrides`).
    config_overrides: Tuple[Tuple[str, Any], ...] = ()
    max_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        if self.model not in PRESETS:
            raise ValueError(f"unknown model {self.model!r}; expected one "
                             f"of {tuple(PRESETS)}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected "
                             f"one of {VARIANTS}")

    @classmethod
    def create(cls, workload: str, scale: str = "small",
               model: str = "inorder", variant: str = "base",
               spawning: Optional[bool] = None,
               tool_options: Any = None,
               config_overrides: Any = None,
               max_cycles: int = 200_000_000) -> "RunSpec":
        """Build a spec from rich inputs (ToolOptions/dicts are frozen)."""
        return cls(workload=workload, scale=scale, model=model,
                   variant=variant, spawning=spawning,
                   tool_options=freeze_options(tool_options),
                   config_overrides=freeze_overrides(config_overrides),
                   max_cycles=max_cycles)

    def derive(self, **changes: Any) -> "RunSpec":
        """A copy with rich-typed field replacements (options re-frozen).

        This is how the resilience ladder expresses degraded capability:
        the derived spec has its own content hash, so degraded results
        are cached under their own address and can never be mistaken for
        the original run's.
        """
        if "tool_options" in changes:
            changes["tool_options"] = freeze_options(
                changes["tool_options"])
        if "config_overrides" in changes:
            changes["config_overrides"] = freeze_overrides(
                changes["config_overrides"])
        return dataclasses.replace(self, **changes)

    @property
    def effective_spawning(self) -> bool:
        if self.spawning is not None:
            return self.spawning
        return self.variant in _SPAWNING_VARIANTS

    def tool_options_dict(self) -> Optional[Dict[str, Any]]:
        return dict(self.tool_options) if self.tool_options else None

    # -- content addressing ----------------------------------------------------------

    def key(self) -> Dict[str, Any]:
        """Canonical JSON-safe form used for hashing and cache metadata."""
        return {
            "workload": self.workload,
            "scale": self.scale,
            "model": self.model,
            "variant": self.variant,
            "spawning": self.effective_spawning,
            "tool_options": [list(kv) for kv in self.tool_options],
            "config_overrides": [
                [k, list(v) if isinstance(v, tuple) else v]
                for k, v in self.config_overrides],
            "max_cycles": self.max_cycles,
        }

    @classmethod
    def from_key(cls, key: Dict[str, Any]) -> "RunSpec":
        """Rebuild a spec from its :meth:`key` dict (JSON round trip).

        The service job queue ships specs between hosts as their
        canonical key form; reconstruction is hash-preserving —
        ``RunSpec.from_key(s.key()).content_hash() == s.content_hash()``
        — because ``key()`` already records the *effective* spawning
        flag and sorted option/override pairs.

        Raises ``ValueError`` on a field the spec does not define: a key
        minted elsewhere (another version, a hand-edited job) names a
        different run, and dropping the field would silently rebuild a
        spec that hashes to a different address than the key.
        """
        unknown = sorted(set(key) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"spec key has unknown fields: "
                             f"{', '.join(unknown)}")
        return cls(
            workload=key["workload"],
            scale=key["scale"],
            model=key["model"],
            variant=key["variant"],
            spawning=key["spawning"],
            tool_options=tuple((k, v) for k, v in key["tool_options"]),
            config_overrides=tuple(
                (k, tuple(v) if isinstance(v, list) else v)
                for k, v in key["config_overrides"]),
            max_cycles=key["max_cycles"],
        )

    def content_hash(self) -> str:
        """Stable hex digest; changes when any result-relevant field does."""
        canonical = json.dumps(self.key(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for telemetry/progress lines."""
        return f"{self.workload}/{self.scale}/{self.model}/{self.variant}"
