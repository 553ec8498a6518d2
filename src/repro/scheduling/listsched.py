"""Forward list scheduling with maximum-cumulative-cost priority
(Section 3.2.1.2.2).

"We select the forward cycle scheduling with maximum cumulative cost
heuristics.  As the heuristics accumulates the cost, or latency, for each
path, the node with longer latency to the leaf nodes of the slice has a
higher priority.  If two nodes have the same cost, the node with the lower
instruction address in the original binary has a higher priority.  Finally,
the instructions within each non-degenerate SCC are list scheduled by
ignoring all the loop-carried dependence edges."

Ordering constraints: intra-iteration true dependences *and* intra-
iteration anti/output dependences (registers are reused within one thread;
only loop-carried false dependences may be ignored, because chained threads
have private register files).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from ..isa.instructions import Instruction
from ..analysis.depgraph import DependenceGraph


def list_schedule(dg: DependenceGraph, nodes: Sequence[Instruction],
                  placed: Iterable[int] = ()) -> List[Instruction]:
    """Order ``nodes`` respecting intra-iteration dependences.

    ``placed`` names uids already scheduled earlier (e.g. the critical
    sub-slice when scheduling the non-critical part); dependences from them
    are considered satisfied.
    """
    node_uids = {ins.uid for ins in nodes}
    done: Set[int] = set(placed)
    instr_by_uid: Dict[int, Instruction] = {ins.uid: ins for ins in nodes}

    # Unsatisfied intra-iteration predecessor counts.
    pending: Dict[int, int] = {}
    for ins in nodes:
        count = 0
        for edge in dg.preds(ins.uid):
            if edge.loop_carried:
                continue
            if edge.src in node_uids and edge.src not in done:
                count += 1
        pending[ins.uid] = count

    # Priority: max cumulative latency to the leaves (node height within
    # the set), tie broken by lower original address.
    heights = dg.heights(node_uids, within=node_uids)

    ready = [uid for uid in node_uids if pending[uid] == 0]
    order: List[Instruction] = []
    while ready:
        ready.sort(key=lambda uid: (-heights[uid],
                                    instr_by_uid[uid].addr,
                                    uid))
        uid = ready.pop(0)
        order.append(instr_by_uid[uid])
        done.add(uid)
        for edge in dg.succs(uid):
            if edge.loop_carried or edge.dst not in node_uids or \
                    edge.dst in done:
                continue
            pending[edge.dst] -= 1
            if pending[edge.dst] == 0:
                ready.append(edge.dst)

    if len(order) != len(nodes):
        # A cycle of intra-iteration false dependences (rare): fall back to
        # original layout order for the stragglers.
        scheduled = {ins.uid for ins in order}
        for ins in sorted(nodes, key=lambda i: i.addr):
            if ins.uid not in scheduled:
                order.append(ins)
    return order
