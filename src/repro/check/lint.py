"""Static rules over SSP-adapted binaries.

Binary rewriting is only trustworthy when the rewritten binary is provably
well formed.  This module is the one place each static property of an
adapted :class:`~repro.isa.program.Program` is written: the emitter's
:meth:`~repro.codegen.emit.SSPEmitter.finalize` runs the Figure 7 shape
rules through :func:`verify_adapted_binary`, and the static proof
(:mod:`repro.check.proof`) runs every rule through :func:`lint_program`.

**Figure 7 shape** (needs no original binary; the rules
:func:`verify_adapted_binary` runs)

* ``cfi.stub-shape`` — every stub block is ``lib.st* ; spawn ; rfi``: it
  copies live-ins, spawns and returns to the interrupted instruction,
  and writes no register, so a fired trigger cannot clobber main-thread
  state;
* ``cfi.spawn-target`` — every main-code ``chk.c`` targets a stub block
  of its own function that spawns;
* ``cfi.main-code-op`` — ``rfi`` and ``kill`` appear only in speculative
  (stub and slice) blocks;
* ``cfi.slice-termination`` — a stub ends in ``rfi``; a slice region
  contains a ``kill`` and no ``halt``;
* ``cfi.spec-store`` — speculative code (stub and slice blocks, and
  ``.sspclone`` callees) contains no stores;
* ``regs.live-in-coverage`` — every live-in slot a slice reads is written
  by each stub that spawns it.

**Control-flow integrity**

* ``cfi.spawn-target`` — every ``spawn`` in a stub or a slice targets a
  slice block of its own function;
* ``cfi.slice-escape`` — control flow started in a slice region stays in
  the region (branches, fall-throughs) until the thread stops;
* ``cfi.slice-termination`` — every slice-region exit is a ``kill``
  (thread-stop), never a fall-through into neighbouring code;
* ``cfi.fallthrough`` — no reachable main-code path falls through into an
  appended stub/slice block or off the end of a function into the next
  function's code;
* ``cfi.slice-call`` — direct calls from slices only reach store-free
  clones.

**Trigger legality** (against the *original* binary)

* ``trig.main-code-preserved`` — the entry function and the function
  table are the original's, no original function is missing, every
  added function is a speculative clone, and each function keeps the
  original's main-code blocks in order, each the original's block with
  only ``chk.c`` added and at most one ``nop`` removed per ``chk.c``,
  compared by uid and by content (op, operands, predicate, target,
  relation);
* ``trig.double-trigger`` — no two triggers of one slice lie on a common
  path (one dominates the other);
* ``trig.covers-load`` — every path from the function entry to a slice's
  delinquent load executes one of the slice's triggers first (the cut-set
  property of Section 3.3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..analysis.cfg import CFG, EXIT
from ..analysis.dominance import dominator_tree
from ..codegen.emit import SLICE_PREFIX, SPEC_CLONE_SUFFIX, STUB_PREFIX
from ..isa.instructions import (
    OP_BR,
    OP_BR_COND,
    OP_CALL,
    OP_CHK_C,
    OP_HALT,
    OP_KILL,
    OP_LIB_LD,
    OP_LIB_ST,
    OP_NOP,
    OP_RFI,
    OP_SPAWN,
    Instruction,
)
from ..isa.program import BasicBlock, Function, Program


class VerificationError(Exception):
    """An adapted binary violates an SSP structural invariant."""


@dataclass
class LintViolation:
    """One broken rule at one location."""

    rule: str
    function: str
    location: str
    message: str

    def __str__(self) -> str:
        return (f"[{self.rule}] {self.function}:{self.location}: "
                f"{self.message}")


def is_speculative(label: str) -> bool:
    """True for the label of a stub or slice block."""
    return label.startswith(STUB_PREFIX) or label.startswith(SLICE_PREFIX)


def _slice_region(func: Function, root: str) -> List[str]:
    """The slice root plus its continuation blocks (``root.*`` chains)."""
    labels = [b.label for b in func.blocks]
    out = [root]
    for label in labels[labels.index(root) + 1:]:
        if label.startswith(root + "."):
            out.append(label)
        else:
            break
    return out


def _local_label(target: Optional[str], func_name: str) -> Optional[str]:
    """Strip a ``func::label`` qualification when it names ``func_name``."""
    if target is None:
        return None
    if "::" in target:
        qualifier, label = target.split("::", 1)
        return label if qualifier == func_name else None
    return target


def _content(instr: Instruction) -> Tuple:
    return (instr.op, instr.dest, tuple(instr.srcs), instr.imm, instr.pred,
            instr.target, instr.relation)


class _FunctionLint:
    """All lint rules for one function of the adapted program."""

    def __init__(self, program: Program, func: Function,
                 violations: List[LintViolation]):
        self.program = program
        self.func = func
        self.violations = violations
        self.stub_labels = [b.label for b in func.blocks
                            if b.label.startswith(STUB_PREFIX)]
        #: slice root -> its region (the root and its continuations).
        self.regions: Dict[str, List[str]] = {
            b.label: _slice_region(func, b.label) for b in func.blocks
            if b.label.startswith(SLICE_PREFIX)
            and "." not in b.label[len(SLICE_PREFIX):]}
        #: stub label -> target of its first ``spawn`` (None: no spawn).
        self.stub_spawn: Dict[str, Optional[str]] = {
            label: next((i.target for i in func.block(label).instrs
                         if i.op == OP_SPAWN), None)
            for label in self.stub_labels}
        self.main_blocks = [b for b in func.blocks
                            if not is_speculative(b.label)]

    @cached_property
    def cfg(self) -> CFG:
        return CFG(self.func)

    def report(self, rule: str, location: str, message: str) -> None:
        self.violations.append(LintViolation(
            rule=rule, function=self.func.name, location=location,
            message=message))

    def region_instrs(self, root: str) -> List[Instruction]:
        return [i for label in self.regions[root]
                for i in self.func.block(label).instrs]

    # -- Figure 7 shape ------------------------------------------------------------------

    def check_shape(self, counts: Counter) -> None:
        """The rules that need no original binary, tallying ``counts``."""
        func = self.func
        for label in self.stub_labels:
            counts["stubs"] += 1
            ops = [i.op for i in func.block(label).instrs]
            if not ops or ops[-1] != OP_RFI:
                self.report("cfi.slice-termination", label,
                            "stub block does not end in rfi")
            if ops[-2:] != [OP_SPAWN, OP_RFI] or any(
                    op != OP_LIB_ST for op in ops[:-2]):
                self.report("cfi.stub-shape", label,
                            f"stub is {' ; '.join(ops)}, not "
                            "lib.st* ; spawn ; rfi")

        for block in self.main_blocks:
            for instr in block.instrs:
                if instr.op == OP_CHK_C:
                    counts["triggers"] += 1
                    if self.stub_spawn.get(instr.target) is None:
                        self.report("cfi.spawn-target", block.label,
                                    f"chk.c targets {instr.target!r}, "
                                    "which is not a stub that spawns")
                elif instr.op in (OP_RFI, OP_KILL):
                    self.report("cfi.main-code-op", block.label,
                                f"{instr.op} outside speculative code")

        for root in self.regions:
            counts["slices"] += 1
            instrs = self.region_instrs(root)
            ops = [i.op for i in instrs]
            counts["spawns"] += ops.count(OP_SPAWN)
            if OP_KILL not in ops:
                self.report("cfi.slice-termination", root,
                            "slice never kills itself")
            if OP_HALT in ops:
                self.report("cfi.slice-termination", root,
                            "slice must kill, not halt")

        clone = func.name.endswith(SPEC_CLONE_SUFFIX)
        for block in func.blocks:
            if clone or is_speculative(block.label):
                for instr in block.instrs:
                    if instr.is_store:
                        self.report("cfi.spec-store", block.label,
                                    f"store in speculative code: {instr}")

        for stub, target in self.stub_spawn.items():
            root = _local_label(target, func.name)
            if root not in self.regions:
                continue
            written = {i.imm for i in func.block(stub).instrs
                       if i.op == OP_LIB_ST}
            missing = {i.imm for i in self.region_instrs(root)
                       if i.op == OP_LIB_LD} - written
            if missing:
                self.report(
                    "regs.live-in-coverage", root,
                    f"slice reads live-in slots {sorted(missing)} that "
                    f"stub {stub} never writes")

    # -- control-flow integrity ------------------------------------------------------

    def check_cfi(self) -> None:
        func = self.func
        reachable = self.cfg.reachable()
        last_label = func.blocks[-1].label
        for block in self.main_blocks:
            if block.label not in reachable:
                continue  # dead code cannot leak control flow
            term = block.instrs[-1] if block.instrs else None
            falls = term is None or not term.is_terminator
            if falls and block.label == last_label:
                self.report("cfi.fallthrough", block.label,
                            "reachable block falls off the end of the "
                            "function into the next function's code")
            for succ in self.cfg.successors(block.label):
                if is_speculative(succ):
                    self.report("cfi.fallthrough", block.label,
                                f"main code falls through or branches "
                                f"into appended block {succ!r}")

        for label in self.stub_labels:
            for instr in func.block(label).instrs:
                if instr.op == OP_SPAWN:
                    self._check_spawn_target(label, instr.target)

        for root, labels in self.regions.items():
            self._check_slice_region(root, labels)

    def _check_spawn_target(self, label: str, target: str) -> None:
        if _local_label(target, self.func.name) not in self.regions:
            self.report("cfi.spawn-target", label,
                        f"spawn targets {target!r}, not a slice block of "
                        "this function")

    def _check_slice_region(self, root: str, labels: List[str]) -> None:
        func = self.func
        region = set(labels)
        for label in labels:
            block = func.block(label)
            term = block.instrs[-1] if block.instrs else None
            succs = [s for s in self.cfg.successors(label) if s != EXIT]
            if not succs:
                if term is None or term.op != OP_KILL:
                    self.report("cfi.slice-termination", label,
                                "slice-region exit does not stop the "
                                "thread with kill")
            # Every control transfer (including mid-block branches the
            # block-granular CFG does not model) must stay in the region.
            for instr in block.instrs:
                if instr.op in (OP_BR, OP_BR_COND):
                    target = _local_label(instr.target, func.name)
                    if target is None or target not in region:
                        self.report(
                            "cfi.slice-escape", label,
                            f"{instr.op} leaves the slice region for "
                            f"{instr.target!r}")
                elif instr.op == OP_SPAWN:
                    self._check_spawn_target(label, instr.target)
                elif instr.op == OP_CALL:
                    if not instr.target.endswith(SPEC_CLONE_SUFFIX):
                        self.report(
                            "cfi.slice-call", label,
                            f"slice calls {instr.target!r}, which is not "
                            "a store-free speculative clone")
            # Fall-through out of the region (block-granular edges; the
            # virtual exit is the legal kill/ret destination).
            for succ in succs:
                if succ not in region:
                    self.report("cfi.slice-escape", label,
                                f"slice region falls through to {succ!r}")

    # -- trigger legality -------------------------------------------------------------

    def check_main_code_preserved(self, original: Optional[Function]
                                  ) -> None:
        if original is None:
            if not self.func.name.endswith(SPEC_CLONE_SUFFIX):
                self.report("trig.main-code-preserved", "<function>",
                            "function does not exist in the original "
                            "binary and is not a speculative clone")
            return
        orig_labels = [b.label for b in original.blocks]
        labels = [b.label for b in self.main_blocks]
        for block in self.main_blocks:
            if original.has_block(block.label):
                self._check_block_preserved(
                    block, original.block(block.label))
            else:
                self.report("trig.main-code-preserved", block.label,
                            "main-code block does not exist in the "
                            "original binary")
        for label in orig_labels:
            if label not in labels:
                self.report("trig.main-code-preserved", label,
                            "original block missing from the adapted "
                            "binary")
        if labels != orig_labels and set(labels) == set(orig_labels):
            self.report("trig.main-code-preserved", "<function>",
                        "main-code blocks are reordered")

    def _check_block_preserved(self, block: BasicBlock,
                               orig: BasicBlock) -> None:
        """Adapted block == original with nops replaced by / chk.c added,
        matched by uid and by content."""
        kept = [i for i in block.instrs if i.op != OP_CHK_C]
        j = 0
        for instr in orig.instrs:
            if j < len(kept) and kept[j].uid == instr.uid \
                    and _content(kept[j]) == _content(instr):
                j += 1
            elif instr.op != OP_NOP:
                self.report("trig.main-code-preserved", block.label,
                            f"original instruction {instr} was dropped, "
                            "reordered or changed by adaptation")
                return
        if j != len(kept):
            self.report("trig.main-code-preserved", block.label,
                        f"adaptation introduced {kept[j]} into main code")
            return
        chks = len(block.instrs) - len(kept)
        nops = len(orig.instrs) - len(kept)
        if nops > chks:
            self.report("trig.main-code-preserved", block.label,
                        f"{nops} nops vanished but only {chks} chk.c "
                        "were placed")

    def _triggers_by_slice(self) -> Dict[str, List[Tuple[str, int]]]:
        """slice root -> [(block label, index)] of its chk.c triggers."""
        out: Dict[str, List[Tuple[str, int]]] = {}
        for block in self.main_blocks:
            for index, instr in enumerate(block.instrs):
                if instr.op != OP_CHK_C:
                    continue
                stub = _local_label(instr.target, self.func.name)
                root = _local_label(self.stub_spawn.get(stub),
                                    self.func.name)
                if root is not None:
                    out.setdefault(root, []).append((block.label, index))
        return out

    def check_trigger_legality(self) -> None:
        triggers = self._triggers_by_slice()
        if not triggers:
            return
        dom = dominator_tree(self.cfg)
        prefetch_sources = self.program.prefetch_sources
        uid_site: Dict[int, Tuple[str, int]] = {}
        for block in self.main_blocks:
            for index, instr in enumerate(block.instrs):
                uid_site[instr.uid] = (block.label, index)
        for root, sites in triggers.items():
            # One trigger per path: no trigger dominates another.
            for a_label, a_index in sites:
                for b_label, b_index in sites:
                    if (a_label, a_index) >= (b_label, b_index):
                        continue
                    if a_label == b_label or dom.dominates(a_label,
                                                           b_label):
                        self.report(
                            "trig.double-trigger",
                            f"{a_label}@{a_index}",
                            f"trigger for {root} at {b_label}@{b_index} "
                            "lies on the same path (double trigger)")
            # Cut-set: every entry-to-load path passes a trigger first.
            delinquents = {
                prefetch_sources[i.uid]
                for label in self.regions.get(root, [])
                for i in self.func.block(label).instrs
                if i.uid in prefetch_sources}
            trigger_blocks: Dict[str, int] = {}
            for label, index in sites:
                prev = trigger_blocks.get(label)
                trigger_blocks[label] = index if prev is None \
                    else min(prev, index)
            for uid in sorted(delinquents):
                site = uid_site.get(uid)
                if site is None:
                    continue  # load lives in another function
                self._check_cut_set(root, trigger_blocks, site)

    def _check_cut_set(self, root: str, triggers: Dict[str, int],
                       load_site: Tuple[str, int]) -> None:
        """BFS from entry; trigger blocks absorb paths (the trigger runs
        before the block's continuation), so reaching the load through
        trigger-free blocks — or before the trigger inside its own block —
        breaks the cut."""
        load_label, load_index = load_site
        entry = self.cfg.entry
        seen = {entry}
        work = [entry]
        while work:
            label = work.pop()
            trig_index = triggers.get(label)
            if label == load_label and (trig_index is None
                                        or load_index < trig_index):
                self.report(
                    "trig.covers-load", f"{load_label}@{load_index}",
                    f"delinquent load of slice {root} is reachable from "
                    "the entry without executing a trigger first")
                return
            if trig_index is not None:
                continue  # path covered from here on
            for succ in self.cfg.successors(label):
                if succ != EXIT and succ not in seen:
                    seen.add(succ)
                    work.append(succ)


def verify_adapted_binary(program: Program) -> Dict[str, int]:
    """Hold ``program`` against the Figure 7 shape rules.

    Returns the number of triggers, stubs, slices and spawns inside
    slices; raises the first violation as :class:`VerificationError`.
    """
    counts: Counter = Counter(triggers=0, stubs=0, slices=0, spawns=0)
    violations: List[LintViolation] = []
    for func in program.functions.values():
        _FunctionLint(program, func, violations).check_shape(counts)
        if violations:
            raise VerificationError(str(violations[0]))
    return dict(counts)


def is_well_formed(program: Program) -> bool:
    """Boolean convenience wrapper around :func:`verify_adapted_binary`."""
    try:
        verify_adapted_binary(program)
        return True
    except VerificationError:
        return False


def lint_program(original: Program, adapted: Program) -> List[LintViolation]:
    """Lint ``adapted`` against every rule; returns all violations.

    ``original`` is the pre-adaptation binary the trigger-legality rules
    compare against (instruction uids are preserved by the tool's clone).
    An empty list means the binary passed.
    """
    violations: List[LintViolation] = []

    def preserved(function: str, message: str) -> None:
        violations.append(LintViolation(
            rule="trig.main-code-preserved", function=function,
            location="<function>", message=message))

    if adapted.entry != original.entry:
        preserved(adapted.entry, f"entry function changed from "
                                 f"{original.entry!r}")
    names = list(original.functions)
    if list(adapted.functions)[:len(names)] != names:
        preserved(adapted.entry, "function table changed")
    for name in names:
        if name not in adapted.functions:
            preserved(name, "original function missing from the adapted "
                            "binary")
    counts: Counter = Counter()
    for name, func in adapted.functions.items():
        checker = _FunctionLint(adapted, func, violations)
        checker.check_shape(counts)
        checker.check_main_code_preserved(original.functions.get(name))
        if func.blocks:
            checker.check_cfi()
            checker.check_trigger_legality()
    return violations
