"""SMT research-Itanium timing simulator (the SMTSIM/IPFsim substitute).

The names below resolve on first use (PEP 562), so importing one
submodule — :mod:`repro.sim.stats` for :class:`SimStats`, or
:mod:`repro.sim.config` — does not load the simulators.
"""

from .._lazy import lazy_exports

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "CacheConfig": ".config", "MachineConfig": ".config",
    "inorder_config": ".config", "ooo_config": ".config",
    "table1_rows": ".config",
    "CacheLevel": ".caches", "LoadStats": ".caches",
    "MemorySystem": ".caches", "PrefetchStats": ".caches",
    "GsharePredictor": ".branch",
    "CYCLE_CATEGORIES": ".stats", "STALL_CATEGORY": ".stats",
    "SimStats": ".stats",
    "InOrderSimulator": ".inorder", "OOOSimulator": ".ooo",
    "MODELS": ".machine", "make_config": ".machine",
    "make_simulator": ".machine", "simulate": ".machine",
    "ContextTrace": ".trace", "trace_run": ".trace",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS, globals())
