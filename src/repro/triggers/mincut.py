"""Optimal trigger cuts via max-flow min-cut (Section 3.3).

"As infrequent edges are filtered out in a pre-pass, the optimal solution
is to find the minimum total cost of the cut weighted by the frequency,
Σ_i (f_i * c_i) ... if we map the problem to the max-flow min-cut problem
by representing cost as capacity, the complexity for finding the optimal
cut is polynomial."

The paper notes that computing the precise per-edge triggering cost is
hard, so its tool falls back to the conservative dominance-based placement
(:mod:`repro.triggers.placement`).  This module provides the optimal
formulation as an alternative/validation mode: edges are weighted by
profiled frequency times a unit triggering cost, infrequent edges are
filtered, and the min cut separating the function entry from the delinquent
load's block is returned.

The tool itself never calls this mode, so :mod:`networkx` is imported
inside :func:`optimal_trigger_cut`: the runtime stays standard-library
only, and only that call raises :class:`ImportError` where networkx is
not installed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis.cfg import CFG, EXIT

#: Edges below this fraction of the hottest edge are filtered pre-cut.
INFREQUENT_FRACTION = 0.001


def edge_frequencies(cfg: CFG, block_freq: Dict[str, int]
                     ) -> Dict[Tuple[str, str], float]:
    """Approximate edge frequencies from block counts: a block's count is
    split evenly over its successors (sufficient for cut weighting)."""
    freqs: Dict[Tuple[str, str], float] = {}
    for src in cfg.labels:
        succs = [s for s in cfg.successors(src)]
        if not succs:
            continue
        share = block_freq.get(src, 0) / len(succs)
        for dst in succs:
            freqs[(src, dst)] = share
    return freqs


def optimal_trigger_cut(cfg: CFG, block_freq: Dict[str, int],
                        target_block: str,
                        cost_per_trigger: float = 1.0
                        ) -> List[Tuple[str, str]]:
    """The min-cost edge cut separating the entry from ``target_block``.

    Every returned edge carries exactly one trigger; together they cover
    each path from the entry to the delinquent load exactly once.
    """
    import networkx as nx
    freqs = edge_frequencies(cfg, block_freq)
    hottest = max(freqs.values(), default=0.0)
    graph = nx.DiGraph()
    for (src, dst), freq in freqs.items():
        if dst == EXIT:
            continue
        if hottest and freq <= hottest * INFREQUENT_FRACTION:
            continue
        # Cost = frequency * per-trigger cost; +1 epsilon keeps zero-freq
        # edges cuttable but non-free.
        graph.add_edge(src, dst,
                       capacity=freq * cost_per_trigger + 1e-9)
    if target_block not in graph or cfg.entry not in graph:
        return []
    if not nx.has_path(graph, cfg.entry, target_block):
        return []
    _, (reachable, unreachable) = nx.minimum_cut(graph, cfg.entry,
                                                 target_block)
    cut: List[Tuple[str, str]] = []
    for src in reachable:
        for dst in graph.successors(src):
            if dst in unreachable:
                cut.append((src, dst))
    return sorted(cut)
