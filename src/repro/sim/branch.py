"""Branch prediction: 2k-entry gshare with a 256-entry 4-way BTB (Table 1).

Only conditional branches are predicted; direct branches, calls and returns
are resolved in the front end (returns via a perfect return stack, a common
simplification).  A direction misprediction costs a full pipeline refill; a
taken conditional branch that misses the BTB costs a small redirect bubble.
"""

from __future__ import annotations

from typing import Dict, List


#: Redirect bubble for a taken branch missing the BTB.
BTB_MISS_BUBBLE = 2

#: Global-history bits folded into the gshare index.
HISTORY_BITS = 11
_HISTORY_MASK = (1 << HISTORY_BITS) - 1


class GsharePredictor:
    """Gshare direction predictor + BTB presence model.

    Tables are shared by all hardware threads (they alias, as on real SMT
    parts); global history is per-thread.
    """

    def __init__(self, entries: int = 2048, btb_entries: int = 256,
                 btb_ways: int = 4):
        if entries & (entries - 1):
            raise ValueError("gshare entries must be a power of two")
        self.entries = entries
        # 2-bit saturating counters, initialised weakly taken.
        self._counters: List[int] = [2] * entries
        #: tid -> global history; a thread's first branch reads 0.
        self._history: Dict[int, int] = {}
        self._btb_sets = btb_entries // btb_ways
        self._btb_ways = btb_ways
        self._btb: List[List[int]] = [[] for _ in range(self._btb_sets)]
        self.lookups = 0
        self.mispredicts = 0
        self.btb_misses = 0

    def predict_and_update(self, pc: int, tid: int, taken: bool) -> int:
        """Predict the branch at ``pc``, update state, return the penalty.

        Returns 0 for a correct prediction, ``BTB_MISS_BUBBLE`` for a
        correctly-predicted taken branch whose target was not in the BTB,
        or -1 to signal a direction misprediction (caller applies its
        pipeline's refill penalty).  A mispredicted branch still touches
        the BTB (LRU lookup+insert of ``pc``), as a taken one does.
        """
        self.lookups += 1
        history = self._history
        hist = history.get(tid, 0)
        idx = (pc ^ (hist << 1)) & (self.entries - 1)
        counters = self._counters
        counter = counters[idx]
        predicted = counter >= 2

        # Update the counter and per-thread history.
        if taken and counter < 3:
            counters[idx] = counter + 1
        elif not taken and counter > 0:
            counters[idx] = counter - 1
        history[tid] = ((hist << 1) | (1 if taken else 0)) & _HISTORY_MASK

        if not taken and not predicted:
            return 0  # correctly predicted not taken: no BTB access
        s = self._btb[pc % self._btb_sets]
        if pc in s:
            s.remove(pc)
            s.append(pc)
            hit = True
        else:
            s.append(pc)
            if len(s) > self._btb_ways:
                s.pop(0)
            hit = False
        if predicted != taken:
            self.mispredicts += 1
            return -1
        if not hit:
            self.btb_misses += 1
            return BTB_MISS_BUBBLE
        return 0
