"""Shared program-construction helpers for the test suite."""

from __future__ import annotations

import json
import random
from typing import Dict, List, Tuple

from repro.isa import FunctionBuilder, Heap, Program
from repro.isa.instructions import Instruction


def rebased_stats(stats: Dict) -> Dict:
    """A ``SimStats.to_dict()`` with instruction uids densely renumbered.

    Uid numbering depends on artifact build order within a process: a
    worker that built another workload first numbers this one higher,
    and because the program parse (load uids) is memoised while the
    adaptation (slice uids) is lazy, a worker that touched a workload,
    got faulted off it, did other work and came back can shift the two
    uid families by *different* offsets.  What IS stable is the relative
    order — loads are numbered before their slices, deterministically
    within each family — so mapping the sorted union of uids (table
    keys plus ``prefetch_sources`` values) to dense ranks restores
    byte-comparability across any build history; every other field is
    untouched."""
    doc = json.loads(json.dumps(stats))
    memory = doc.get("memory") or {}
    tables = ("load_stats", "prefetch_stats", "prefetch_sources")
    uids = {int(key) for name in tables
            for key in (memory.get(name) or {})}
    uids |= {int(value) for value
             in (memory.get("prefetch_sources") or {}).values()}
    if not uids:
        return doc
    rank = {uid: i for i, uid in enumerate(sorted(uids))}
    for name in tables:
        table = memory.get(name)
        if table:
            memory[name] = {str(rank[int(key)]): value
                            for key, value in table.items()}
    if memory.get("prefetch_sources"):
        memory["prefetch_sources"] = {
            key: rank[int(value)]
            for key, value in memory["prefetch_sources"].items()}
    return doc


def linked_list_heap(n: int, *, node_bytes: int = 64, shuffle: bool = True,
                     seed: int = 7, heap_bytes: int = 1 << 24
                     ) -> Tuple[Heap, List[int], int]:
    """A heap holding an ``n``-node singly linked list.

    Node layout: +0 value (i+1), +8 next pointer.  Returns
    (heap, node addresses in list order, result cell address).
    """
    heap = Heap(heap_bytes)
    addrs = [heap.alloc(node_bytes, align=64) for _ in range(n)]
    if shuffle:
        rng = random.Random(seed)
        rng.shuffle(addrs)
    for i, a in enumerate(addrs):
        heap.store(a, i + 1)
        heap.store(a + 8, addrs[i + 1] if i + 1 < len(addrs) else 0)
    out = heap.alloc(8)
    return heap, addrs, out


def list_sum_program(head: int, out: int) -> Program:
    """Walk the list at ``head``, summing values into ``out``."""
    prog = Program(entry="main")
    fb = FunctionBuilder(prog.add_function("main"))
    fb.mov_imm(0, dest="r50")
    fb.mov_imm(head, dest="r51")
    fb.label("loop")
    v = fb.load("r51", 0)
    fb.add("r50", v, dest="r50")
    fb.load("r51", 8, dest="r51")
    p = fb.cmp("ne", "r51", imm=0)
    fb.br_cond(p, "loop")
    o = fb.mov_imm(out)
    fb.store(o, "r50")
    fb.halt()
    return prog.finalize()


def mcf_like_workload(ssp: bool = False, narcs: int = 2000,
                      nnodes: int = 1000, seed: int = 11
                      ) -> Tuple[Program, Heap, int]:
    """The paper's Figure 3 kernel: a strided arc scan with a dependent
    pointer dereference per iteration, optionally with a hand-built
    chaining-SP adaptation (Figures 5 and 7).

    Returns (program, heap, result cell address).
    """
    rng = random.Random(seed)
    prog = Program(entry="main")
    fb = FunctionBuilder(prog.add_function("main"))
    heap = Heap(1 << 25)
    stride = 64
    nodes = [heap.alloc(64, align=64) for _ in range(nnodes)]
    arcs_base = heap.alloc(narcs * stride, align=64)
    for i in range(narcs):
        heap.store(arcs_base + i * stride, rng.choice(nodes))
    for node in nodes:
        heap.store(node + 16, rng.randrange(1000))
    out = heap.alloc(8)

    fb.mov_imm(arcs_base, dest="r50")
    fb.mov_imm(arcs_base + narcs * stride, dest="r51")
    fb.mov_imm(0, dest="r52")
    if ssp:
        fb.chk_c("stub1")
    fb.label("loop")
    t = fb.mov("r50")
    u = fb.load(t, 0)
    pot = fb.load(u, 16)
    fb.add("r52", pot, dest="r52")
    fb.add("r50", imm=stride, dest="r50")
    p = fb.cmp("lt", "r50", "r51")
    fb.br_cond(p, "loop")
    o = fb.mov_imm(out)
    fb.store(o, "r52")
    fb.halt()

    if ssp:
        fb.label("stub1")
        fb.lib_store(0, "r50")
        fb.lib_store(1, "r51")
        fb.spawn("slice1")
        fb.rfi()
        fb.label("slice1")
        fb.lib_load(0, dest="r60")
        fb.lib_load(1, dest="r61")
        fb.mov("r60", dest="r62")
        fb.add("r60", imm=stride, dest="r60")
        fb.lib_store(0, "r60")
        fb.lib_store(1, "r61")
        pc2 = fb.cmp("lt", "r60", "r61")
        fb.emit(Instruction(op="spawn", target="slice1", pred=pc2))
        fb.load("r62", 0, dest="r63")
        fb.prefetch("r63", 16)
        fb.kill()
    prog.finalize()
    return prog, heap, out
