"""SMT research-Itanium timing simulator (the SMTSIM/IPFsim substitute)."""

from .config import (
    CacheConfig,
    MachineConfig,
    inorder_config,
    ooo_config,
    table1_rows,
)
from .caches import (
    CacheLevel,
    LoadStats,
    MemorySystem,
    PrefetchStats,
)
from .branch import GsharePredictor
from .stats import CYCLE_CATEGORIES, STALL_CATEGORY, SimStats
from .inorder import InOrderSimulator
from .ooo import OOOSimulator
from .machine import MODELS, make_config, make_simulator, simulate
from .trace import ContextTrace, trace_run

__all__ = [
    "CacheConfig", "MachineConfig", "inorder_config", "ooo_config",
    "table1_rows",
    "CacheLevel", "LoadStats", "MemorySystem",
    "PrefetchStats",
    "GsharePredictor",
    "CYCLE_CATEGORIES", "STALL_CATEGORY", "SimStats",
    "InOrderSimulator", "OOOSimulator",
    "MODELS", "make_config", "make_simulator", "simulate",
    "ContextTrace", "trace_run",
]
