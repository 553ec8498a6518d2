"""Workload infrastructure.

A :class:`Workload` packages one benchmark kernel: the IR program and a
deterministic heap initialiser.  Programs embed absolute data addresses
(as a loader-relocated binary would), so the heap layout must be bit-for-
bit reproducible — every ``build_heap()`` call replays the same seeded
allocation sequence, letting callers run the same program object many
times on fresh data.

Workloads sprinkle ``nop`` instructions near loop preheaders the way an
Itanium code generator leaves scheduling nops; the post-pass tool replaces
one with its ``chk.c`` trigger (Figure 7).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Type

from ..isa.instructions import numbered_after
from ..isa.memory import Heap
from ..isa.program import Program

#: Scale presets: "tiny" for unit tests, "small" for quick integration
#: runs, "default" for the experiment harness.
SCALES = ("tiny", "small", "default")


class Workload:
    """Base class for the seven benchmark kernels."""

    #: Registry name, e.g. ``"mcf"``.
    name: str = ""
    #: Short description for reports.
    description: str = ""
    #: Olden or SPEC CPU2000 (provenance, for documentation).
    suite: str = ""

    def __init__(self, scale: str = "default", seed: int = 20020617):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected {SCALES}")
        self.scale = scale
        self.seed = seed
        self._program: Optional[Program] = None
        self._layout: Optional[dict] = None

    # -- subclass API ---------------------------------------------------------------

    def heap_bytes(self) -> int:
        return 1 << 25

    def _build_layout(self, heap: Heap, rng: random.Random) -> dict:
        """Allocate and initialise the data structures; return addresses
        the program needs (deterministic given the seed)."""
        raise NotImplementedError

    def _build_program(self, layout: dict) -> Program:
        """Construct the kernel IR from the layout addresses."""
        raise NotImplementedError

    def expected_output(self, layout: dict) -> Optional[int]:
        """The value the kernel must leave in ``layout['out']`` (None to
        skip checking)."""
        return None

    # -- public API ------------------------------------------------------------------

    def build_heap(self) -> Heap:
        """A fresh heap with the canonical deterministic layout."""
        heap = Heap(self.heap_bytes())
        layout = self._build_layout(heap, random.Random(self.seed))
        if self._layout is None:
            self._layout = layout
        elif layout != self._layout:
            raise RuntimeError(
                f"{self.name}: non-deterministic heap layout — programs "
                "embed addresses, so layouts must replay exactly")
        return heap

    def build_program(self) -> Program:
        """The kernel program (cached; finalised), its instructions
        numbered from 1 whatever the process built before it."""
        if self._program is None:
            if self._layout is None:
                self.build_heap()
            with numbered_after():
                self._program = self._build_program(self._layout)
                self._program.finalize()
        return self._program

    @property
    def layout(self) -> dict:
        if self._layout is None:
            self.build_heap()
        return self._layout

    def check_output(self, heap: Heap) -> None:
        """Assert the kernel produced the expected result on ``heap``."""
        expected = self.expected_output(self.layout)
        if expected is None:
            return
        actual = heap.load(self.layout["out"])
        if actual != expected:
            raise AssertionError(
                f"{self.name}: expected {expected}, got {actual}")


_REGISTRY: Dict[str, Type[Workload]] = {}


def register(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the registry."""
    if not cls.name:
        raise ValueError("workload needs a name")
    _REGISTRY[cls.name] = cls
    return cls


def workload_names() -> list:
    return sorted(_REGISTRY)


def make_workload(name: str, scale: str = "default") -> Workload:
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; have {workload_names()}") from None
    return cls(scale=scale)
