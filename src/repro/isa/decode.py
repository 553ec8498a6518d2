"""The ISA's semantics: one decode into register slots and step closures.

``repro.isa`` instructions are convenient value objects, but an engine
that re-reads them pays on every step: ``Instruction.reads`` builds a
tuple per call, registers are looked up by name and opcode dispatch is a
string-compare chain.  This module lifts a finalised
:class:`~repro.isa.program.Program` **once**, on its first run, into a
table of flat per-instruction tuples:

* every register name gets a dense slot (:class:`RegisterSlots`), so a
  thread's registers, predicates and the timing models' scoreboards are
  lists indexed by ints;
* every instruction gets a **step closure**, which holds its operands'
  slots, its immediate, its fall-through pc and its branch target in
  cells, and does exactly what its opcode does to a
  :class:`~repro.isa.interp.ThreadState`.  A predicated instruction's
  closure tests the predicate itself; no closure wraps another.

What each kind does is written once, as source text: the
:data:`SEMANTICS` table.  It is rendered two ways.  Spelled over cells,
it is the step closure factory of each kind and form (predicated or not,
register or immediate operands), compiled once per process the first
time a program needs it (:func:`_build_factories`).  Spelled with one
instruction's slots and constants as literals (:func:`inline`), it is
how the in-order model's compiled issue groups (``repro.sim.groups``)
run that instruction on the main thread.

The table is the only definition of what an opcode does.  Every engine
runs it and keeps only its own timing or bookkeeping around it: both
simulators' run loops (``repro.sim.inorder``, ``repro.sim.ooo``),
:class:`~repro.isa.interp.FunctionalInterpreter`, the differential
verify's :class:`~repro.codegen.verify.ShadowInterpreter` and, through
those, the cross-model oracle of ``repro.check``.  The test suite holds
it equal to an independent Instruction-object statement of the semantics
(``execute`` in ``tests/sim_reference.py``): kind by kind in
``tests/test_isa_step_closures.py`` (closures) and
``tests/test_sim_compiled.py`` (groups), and over whole runs through
``tests/test_sim_fastpath.py`` and ``tests/test_isa_decoded_interp.py``.

A step is called as ``step(state, heap, fire)`` — ``fire`` tells a
``chk.c`` whether a free hardware context is available (the timing
model's decision; when false the check behaves like a nop, Section
3.4.2) — and returns one value whose meaning depends on the kind:

* ``ld``, ``st``, ``lfetch``: the byte address accessed; 0 when the
  instruction executed without a memory access (a speculative load's
  deferred fault, a prefetch outside the heap); None when squashed;
* ``spawn``: the spawned thread's start pc, or None when squashed;
* ``chk.c``: whether it fired;
* every other kind: whether it executed (a false qualifying predicate
  squashes it).  An executed ``br.cond`` is always taken, since its
  predicate is also its condition.

The decode cache is keyed on ``Program._decode_version``, bumped by every
``Program.finalize()`` — the tool's in-place nop→``chk.c`` patching is
always followed by a re-finalise (branch targets must be resolved), so a
stale table cannot be observed.  Like the simulators themselves, decoding
assumes the program is not mutated *between* ``finalize()`` and the run.
"""

from __future__ import annotations

import operator
import re
import weakref
from string import Template
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .instructions import ALU_OPS, FIXED_LATENCY, Instruction
from .interp import ExecutionError, RegisterSlots
from .memory import HEAP_BASE
from .program import Program

# ---------------------------------------------------------------------------
# Decoded-entry layout
# ---------------------------------------------------------------------------

#: Instruction kinds — small ints replacing opcode string dispatch.  Each
#: class the engines time alike is contiguous, so "is this one" is a range
#: check: the fixed-latency register writes (``kind <= K_LIBLD``), the
#: memory kinds (``K_LD <= kind <= K_LFETCH``) and the branches
#: (``K_BR <= kind <= K_RET``).
(K_ALU, K_MOV, K_CMP, K_LIBLD, K_LD, K_ST, K_LFETCH,
 K_BR, K_BRC, K_CALL, K_CALLI, K_RET,
 K_CHK, K_RFI, K_SPAWN, K_LIBST, K_KILL, K_HALT, K_NOP) = range(19)

_KIND_OF_OP = {
    "mov": K_MOV, "cmp": K_CMP, "ld": K_LD, "st": K_ST, "lfetch": K_LFETCH,
    "br": K_BR, "br.cond": K_BRC, "br.call": K_CALL,
    "br.call.ind": K_CALLI, "br.ret": K_RET,
    "chk.c": K_CHK, "rfi": K_RFI, "spawn": K_SPAWN,
    "lib.st": K_LIBST, "lib.ld": K_LIBLD,
    "kill": K_KILL, "halt": K_HALT, "nop": K_NOP,
}
for _op in ALU_OPS:
    _KIND_OF_OP[_op] = K_ALU

#: Relation of each ``cmp`` and operation of each ALU opcode: the C
#: ``operator`` functions, so an ALU or ``cmp`` step makes no Python-level
#: call (on ints they are exactly the Python operators).
_RELATIONS: Dict[str, Callable[[int, int], bool]] = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

_ALU: Dict[str, Callable[[int, int], int]] = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": operator.lshift, "shr": operator.rshift,
}

#: Structural-resource classes, matching the in-order issue logic exactly:
#: memory ops take a memory port; branches *plus* ``chk.c`` and ``spawn``
#: take a branch unit; everything else an integer unit.
RES_MEM, RES_BR, RES_INT = range(3)

#: Field indices of one decoded entry.
(D_KIND,    # int kind constant (K_*)
 D_STEP,    # the step closure
 D_DEST,    # scoreboard slot of the destination register, or None
 D_READS,   # scoreboard slots of every register read (sources, predicate)
 D_LAT,     # fixed latency (FIXED_LATENCY.get(op, 1))
 D_RES,     # structural-resource class (RES_*)
 D_UID,     # the instruction's uid
 D_SRC0,    # register slot of the first source (r0's when none)
 ) = range(8)

DecodedEntry = Tuple[Any, ...]

#: ``r8``'s register slot (see RegisterSlots): what ``br.ret`` carries.
_RET_SLOT = 1


class Decoded:
    """A program decoded for running: its entry table, the register
    slots the entries and every :class:`ThreadState` of the run use, and
    each instruction's :class:`Operands`.

    ``compiled`` is free for a timing model to keep code it derived from
    the program in (the in-order model's issue groups), so that the code
    lives exactly as long as this decode.
    """

    __slots__ = ("table", "slots", "ops", "compiled")

    def __init__(self, table: List[DecodedEntry], slots: RegisterSlots,
                 ops: List["Operands"]):
        self.table = table
        self.slots = slots
        self.ops = ops
        self.compiled: Dict[Any, Any] = {}


# ---------------------------------------------------------------------------
# The semantics table
# ---------------------------------------------------------------------------

class Semantics(NamedTuple):
    """What one kind does to a thread, as source text.

    The text names its operands by ``$``-placeholders, which a rendering
    spells either as a step closure's cells or as one instruction's
    literal slots and constants (:func:`inline`):

    * ``$x``, ``$y``: the first and second operand's value, a register
      read (``rd[slot]``) or the immediate;
    * ``$w``: the written slot (the sink slot for ``r0``/``p0``);
    * ``$imm``: the immediate;
    * ``$addr``: the address a memory access computes, ``$x`` plus the
      immediate;
    * ``$pc``, ``$nxt``, ``$target``: the instruction's pc, the next pc
      and the branch target;
    * ``$fn``: the ALU operation or ``cmp`` relation, a C ``operator``
      function;
    * ``$spec``: whether the stepping thread is speculative;
    * ``$ret``: the slot of ``r8``, the value a ``br.ret`` carries;
    * ``$words``, ``$size``: the heap's word map and its size.

    In scope are ``state``, ``heap``, ``fire`` (see the module
    docstring), ``rd`` (``state.regs``), ``preds`` (``state.preds``),
    ``entries`` (each function id's entry pc), ``code`` (the program's
    instructions, for error messages) and :data:`HELPERS`.
    """

    #: Run when the instruction executes (its qualifying predicate holds).
    body: str
    #: The step's result then.
    result: str
    #: The step's result under a false predicate (the pc moves on).
    squashed: str
    #: Whether an executed step moves on to the next pc; the other kinds
    #: set the pc themselves, or leave it (``kill``, ``halt``).
    falls: bool


_LOAD = """\
addr = $addr
if not addr & 7 and HEAP_BASE <= addr < $size:
    rd[$w] = $words.get(addr >> 3, 0)
else:
    rd[$w] = addr = load_fault(state, addr, $pc, code)"""

_STORE = """\
addr = $addr
if $spec or addr & 7 or not HEAP_BASE <= addr < $size:
    store_fault(state, addr, $pc, code)
$words[addr >> 3] = $y"""

_PREFETCH = """\
addr = $addr
if addr & 7 or not HEAP_BASE <= addr < $size:
    addr = 0  # non-faulting prefetch: dropped"""

_CALL = """\
state.call_stack.append(($nxt, rd[:]))
state.pc = $target"""

_CALL_INDIRECT = """\
fid = $x
if 0 <= fid < len(entries):
    state.call_stack.append(($nxt, rd[:]))
    state.pc = entries[fid]
    r = True
else:
    r = call_fault(state, fid, $pc)"""

_RETURN = """\
stack = state.call_stack
if stack:
    ret_pc, saved = stack.pop()
    saved[$ret] = rd[$ret]
    state.regs = saved
    state.pc = ret_pc
else:
    state.halted = True"""

_CHECK = """\
if fire:
    state.rfi_stack.append($nxt)
    state.pc = $target
    r = True
else:
    state.pc = $nxt
    r = False"""

_RESUME = """\
stack = state.rfi_stack
if not stack:
    raise ExecutionError(f"rfi with no pending recovery at pc {$pc}")
state.pc = stack.pop()"""

def load_fault(state, addr: int, pc: int, code: List[Instruction]) -> int:
    """A load outside the heap: a speculative thread's fault is deferred
    (it reads 0 and no memory access is made), the main thread's
    raises."""
    if state.speculative:
        return 0
    raise ExecutionError(
        f"bad load address {addr:#x} at pc {pc} ({code[pc]})")


def store_fault(state, addr: int, pc: int, code: List[Instruction]):
    """A store by a speculative thread, or outside the heap: raises."""
    if state.speculative:
        raise ExecutionError(
            "speculative thread attempted a store — the emitter must never "
            f"place stores in p-slices ({code[pc]} at pc {pc})")
    raise ExecutionError(
        f"bad store address {addr:#x} at pc {pc} ({code[pc]})")


def call_fault(state, fid: int, pc: int) -> bool:
    """An indirect call to no function: kills a speculative thread (the
    call did not happen), raises for the main thread."""
    if state.speculative:
        state.killed = True
        return False
    raise ExecutionError(f"bad indirect call target {fid} at pc {pc}")


#: The helpers the semantics call, bound wherever they are rendered.
HELPERS = {"HEAP_BASE": HEAP_BASE, "ExecutionError": ExecutionError,
           "load_fault": load_fault, "store_fault": store_fault,
           "call_fault": call_fault}

#: The one definition of what each kind does.  An executed ``br.cond``
#: is always taken: its predicate is also its condition.
SEMANTICS: Dict[int, Semantics] = {
    K_ALU: Semantics("rd[$w] = $fn($x, $y)", "True", "False", True),
    K_MOV: Semantics("rd[$w] = $x", "True", "False", True),
    K_CMP: Semantics("preds[$w] = $fn($x, $y)", "True", "False", True),
    K_LIBLD: Semantics("rd[$w] = state.lib_in[$imm]", "True", "False",
                       True),
    K_LD: Semantics(_LOAD, "addr", "None", True),
    K_ST: Semantics(_STORE, "addr", "None", True),
    K_LFETCH: Semantics(_PREFETCH, "addr", "None", True),
    K_BR: Semantics("state.pc = $target", "True", "False", False),
    K_BRC: Semantics("state.pc = $target", "True", "False", False),
    K_CALL: Semantics(_CALL, "True", "False", False),
    K_CALLI: Semantics(_CALL_INDIRECT, "r", "False", False),
    K_RET: Semantics(_RETURN, "True", "False", False),
    K_CHK: Semantics(_CHECK, "r", "False", False),
    K_RFI: Semantics(_RESUME, "True", "False", False),
    K_SPAWN: Semantics("", "$target", "None", True),
    K_LIBST: Semantics("state.lib_out[$imm] = $x", "True", "False", True),
    K_KILL: Semantics("state.killed = True", "True", "False", False),
    K_HALT: Semantics("state.halted = True", "True", "False", False),
    K_NOP: Semantics("", "True", "False", True),
}

#: The name each ALU operation and ``cmp`` relation has where it is
#: spelled literally (:func:`inline`); :data:`OPERATIONS` binds them.
_FN_NAME = {**{op: f"op_{op}" for op in _ALU},
            **{rel: f"rel_{rel}" for rel in _RELATIONS}}
OPERATIONS: Dict[str, Callable[[int, int], Any]] = {
    **{_FN_NAME[op]: fn for op, fn in _ALU.items()},
    **{_FN_NAME[rel]: fn for rel, fn in _RELATIONS.items()}}


class Operands(NamedTuple):
    """One instruction's operands, in the terms :data:`SEMANTICS` uses."""

    kind: int
    #: Predicate slot; 0 when unpredicated (``p0`` is always true).
    p: int
    a: int               # first source slot (r0's when none)
    b: Optional[int]     # second source slot, or None
    w: Optional[int]     # written slot, or None
    imm: Any
    off: int
    nxt: int
    target: Optional[int]
    fn: Optional[str]    # the ALU operation or cmp relation
    x: str               # "reg", "imm" or "": how ``$x`` is read
    y: str               # likewise ``$y``


_X_REG = (K_LD, K_LFETCH, K_CALLI, K_LIBST, K_ST)


def _operands(program: Program, pc: int, instr: Instruction,
              slots: RegisterSlots) -> Operands:
    kind = _KIND_OF_OP[instr.op]
    regs = slots.regs
    srcs = [regs[s] for s in instr.srcs]
    a = srcs[0] if srcs else 0         # a missing source reads r0
    b = srcs[1] if len(srcs) > 1 else None
    w = None
    if instr.dest is not None:
        # Writes to r0 and p0 land in the sink slot.
        if kind == K_CMP:
            w = slots.preds[instr.dest] or len(slots.preds)
        else:
            w = regs[instr.dest] or len(regs)
    fn = x = y = ""
    if kind == K_ALU or kind == K_CMP:
        fn = instr.op if kind == K_ALU else instr.relation
        x, y = "reg", ("imm" if b is None else "reg")
    elif kind == K_MOV:
        x = "reg" if srcs else "imm"
    elif kind in _X_REG:
        x = "reg"
        if kind == K_ST:
            y = "reg"
            if b is None:
                b = 0                  # a missing value stores r0
    return Operands(kind,
                    slots.preds[instr.pred] if instr.pred is not None
                    else 0,
                    a, b, w, instr.imm, instr.imm or 0, pc + 1,
                    program.branch_target.get(pc), fn or None, x, y)


def _render(kind: int, names: Dict[str, Any]) -> Tuple[str, str]:
    """``kind``'s body and executed result, spelled by ``names``."""
    sem = SEMANTICS[kind]
    return (Template(sem.body).substitute(names),
            Template(sem.result).substitute(names))


def inline(ops: Operands) -> Tuple[str, str]:
    """One main-thread instruction's semantics with its operands spelled
    as literal slots and constants: its body and its executed result.

    This is how the in-order model's compiled issue groups run an
    instruction (``repro.sim.groups``).  ``rd``, ``preds``, ``state``,
    ``heap`` and ``fire`` are the caller's; the operations are bound by
    :data:`OPERATIONS`; ``words`` and ``hsize`` are the heap's word map
    and size.
    """
    def read(form, slot):
        return f"rd[{slot}]" if form == "reg" else repr(ops.imm)

    x = read(ops.x, ops.a)
    return _render(ops.kind, {
        "x": x, "y": read(ops.y, ops.b), "w": ops.w, "imm": repr(ops.imm),
        "addr": f"{x} + {ops.off}" if ops.off else x,
        "words": "words", "size": "hsize", "pc": ops.nxt - 1,
        "nxt": ops.nxt, "target": ops.target,
        "fn": _FN_NAME.get(ops.fn), "spec": "False", "ret": _RET_SLOT})


# ---------------------------------------------------------------------------
# Step closures
# ---------------------------------------------------------------------------

#: A step closure factory per (kind, predicated, x form, y form), each
#: compiled from :data:`SEMANTICS` the first time a program needs it and
#: kept for the process.  A factory takes every operand and returns the
#: instruction's step; the closure holds only the operands it reads.
_FACTORIES: Dict[Tuple, Callable] = {}

_FACTORY_ARGS = "a, b, w, p, imm, off, nxt, target, pc, fn, entries, code"

#: How a closure spells each placeholder but the operand reads.
_CLOSURE_NAMES = {
    "w": "w", "imm": "imm", "addr": "rd[a] + off", "words": "heap._words",
    "size": "heap.size", "pc": "pc", "nxt": "nxt", "target": "target",
    "fn": "fn", "spec": "state.speculative", "ret": _RET_SLOT}


def _factory_key(ops: Operands) -> Tuple:
    return ops.kind, bool(ops.p), ops.x, ops.y


def _factory_source(name: str, key: Tuple) -> str:
    """The source of one step closure factory (see ``_FACTORIES``)."""
    kind, predicated, x, y = key
    body, result = _render(kind, {**_CLOSURE_NAMES,
                                  "x": "rd[a]" if x == "reg" else "imm",
                                  "y": "rd[b]" if y == "reg" else "imm"})
    sem = SEMANTICS[kind]
    pad = " " * 8
    lines = [f"def {name}({_FACTORY_ARGS}):",
             "    def step(state, heap, fire):"]
    if predicated:
        lines += [f"{pad}if not state.preds[p]:",
                  f"{pad}    state.pc = nxt",
                  f"{pad}    return {sem.squashed}"]
    text = body + " " + result
    if re.search(r"\brd\b", text):
        lines.append(f"{pad}rd = state.regs")
    if re.search(r"\bpreds\b", text):
        lines.append(f"{pad}preds = state.preds")
    lines += [pad + line for line in body.splitlines()]
    if sem.falls:
        lines.append(f"{pad}state.pc = nxt")
    lines += [f"{pad}return {result}", "    return step", ""]
    return "\n".join(lines)


def _build_factories(keys) -> None:
    """Compile the factories of ``keys`` not built yet, in one unit."""
    missing = sorted({key for key in keys if key not in _FACTORIES})
    if not missing:
        return
    names = [f"_f{len(_FACTORIES) + i}" for i in range(len(missing))]
    namespace = dict(HELPERS)
    exec(compile("\n".join(_factory_source(name, key)
                           for name, key in zip(names, missing)),
                 "<step closures>", "exec"), namespace)
    for name, key in zip(names, missing):
        _FACTORIES[key] = namespace[name]


def _step(ops: Operands, code: List[Instruction],
          entries: Tuple[int, ...]) -> Callable:
    """The step closure of the instruction with operands ``ops`` (see
    the module docstring for its call and its result).

    Only ``code`` (for error messages) is held, never the program: the
    decode cache's weak key would then never die.
    """
    fn = _ALU.get(ops.fn) if ops.kind == K_ALU else _RELATIONS.get(ops.fn)
    return _FACTORIES[_factory_key(ops)](
        ops.a, ops.b, ops.w, ops.p, ops.imm, ops.off, ops.nxt, ops.target,
        ops.nxt - 1, fn, entries, code)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

_DECODE_CACHE: "weakref.WeakKeyDictionary[Program, Tuple[int, Decoded]]" = \
    weakref.WeakKeyDictionary()


def _register_slots(code: List[Instruction]) -> RegisterSlots:
    """Number the registers of ``code`` by role, in order of first use."""
    reg_names: List[str] = []
    pred_names: List[str] = []
    for instr in code:
        if instr.dest is not None:
            (pred_names if instr.op == "cmp" else reg_names).append(
                instr.dest)
        reg_names.extend(instr.srcs)
        if instr.pred is not None:
            pred_names.append(instr.pred)
    return RegisterSlots(reg_names, pred_names)


def _decode_one(instr: Instruction, ops: Operands, slots: RegisterSlots,
                step: Callable) -> DecodedEntry:
    op = instr.op
    if instr.is_memory:
        rescls = RES_MEM
    elif instr.is_branch or op in ("chk.c", "spawn"):
        rescls = RES_BR
    else:
        rescls = RES_INT
    board = slots.board
    return (
        ops.kind,
        step,
        board[instr.dest] if instr.dest is not None else None,
        tuple(board[reg] for reg in instr.reads),
        FIXED_LATENCY.get(op, 1),
        rescls,
        instr.uid,
        ops.a,
    )


def decode_program(program: Program) -> Decoded:
    """Decode ``program`` into register slots and step entries; cached
    per finalise."""
    if not program.finalized:
        program.finalize()
    version = getattr(program, "_decode_version", 0)
    cached = _DECODE_CACHE.get(program)
    if cached is not None and cached[0] == version:
        return cached[1]
    code = program.code
    slots = _register_slots(code)
    # Entry pc of each function id, for br.call.ind.
    entries = tuple(program.function_entry[name]
                    for name in program.function_by_id)
    ops = [_operands(program, pc, instr, slots)
           for pc, instr in enumerate(code)]
    _build_factories(_factory_key(o) for o in ops)
    decoded = Decoded([_decode_one(instr, o, slots, _step(o, code, entries))
                       for instr, o in zip(code, ops)], slots, ops)
    _DECODE_CACHE[program] = (version, decoded)
    return decoded
