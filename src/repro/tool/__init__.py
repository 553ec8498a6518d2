"""The SSP post-pass adaptation tool (the paper's contribution).

The names below resolve on first use (PEP 562): ``repro.tool.cli`` lives
in this package, and a command that never adapts a binary must not load
the tool, the simulators and the proof behind it.
"""

from .._lazy import lazy_exports

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "RegionDecision": ".postpass", "SSPPostPassTool": ".postpass",
    "ToolOptions": ".options", "ToolResult": ".postpass",
}

__all__ = sorted(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS, globals())
