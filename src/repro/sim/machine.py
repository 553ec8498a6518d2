"""Top-level simulation facade.

``simulate(program, heap, model="inorder")`` picks the right pipeline model
and runs the program to completion, returning :class:`SimStats`.  Heaps are
mutated by program stores, so callers re-create the heap (workloads provide
a ``build()`` that does both) for every run.
"""

from __future__ import annotations

from typing import Optional

from ..isa.memory import Heap
from ..isa.program import Program
from .config import MachineConfig, inorder_config, ooo_config
from .inorder import InOrderSimulator
from .ooo import OOOSimulator
from .smt import DEFAULT_MAX_CYCLES
from .stats import SimStats

#: model name -> (default-config factory, simulator class).  The single
#: source of truth for model validation: both :func:`make_config` and
#: :func:`simulate` resolve names here, so a bad model raises immediately
#: even when the caller supplies a custom ``config``.
MODELS = {
    "inorder": (inorder_config, InOrderSimulator),
    "ooo": (ooo_config, OOOSimulator),
}


def _lookup(model: str):
    try:
        return MODELS[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}; expected one of "
                         f"{tuple(MODELS)}") from None


def make_config(model: str) -> MachineConfig:
    """Default configuration for a model name."""
    config_factory, _ = _lookup(model)
    return config_factory()


def make_simulator(program: Program, heap: Heap, model: str = "inorder",
                   config: Optional[MachineConfig] = None,
                   spawning: bool = True,
                   max_cycles: int = DEFAULT_MAX_CYCLES):
    """Construct (without running) the simulator for a model name.

    This is the entry point for checkpoint/resume callers, which need the
    simulator object itself to drive ``snapshot()``/``restore()`` and the
    ``run(checkpoint_every=..., on_checkpoint=...)`` hooks.
    """
    config_factory, sim_cls = _lookup(model)
    if config is None:
        config = config_factory()
    return sim_cls(program, heap, config, spawning, max_cycles)


def simulate(program: Program, heap: Heap, model: str = "inorder",
             config: Optional[MachineConfig] = None, spawning: bool = True,
             max_cycles: int = DEFAULT_MAX_CYCLES,
             checkpoint_every: Optional[int] = None,
             on_checkpoint=None) -> SimStats:
    """Run ``program`` on the selected machine model and return statistics.

    Args:
        program: a finalised (or finalisable) IR program.
        heap: its initialised data memory.
        model: ``"inorder"`` or ``"ooo"``.
        config: machine configuration; defaults to the Table 1 preset of
            the chosen model.
        spawning: when False, ``chk.c`` never fires (used for profiling
            runs of un-adapted binaries and for baselines).
        max_cycles: runaway guard.
        checkpoint_every / on_checkpoint: periodic checkpoint hook,
            forwarded to the simulator's ``run`` (cadence never affects
            the statistics).
    """
    sim = make_simulator(program, heap, model, config, spawning, max_cycles)
    return sim.run(checkpoint_every=checkpoint_every,
                   on_checkpoint=on_checkpoint)
