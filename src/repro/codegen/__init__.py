"""SSP-enabled code generation (Section 3.4.2).

The Figure 7 rules the emitted binary is held against live in
:mod:`repro.check.lint`; :mod:`repro.codegen.verify` holds the
differential check.
"""

from .liveins import LiveInLayout
from .emit import (
    SLICE_PREFIX,
    SPEC_CLONE_SUFFIX,
    STUB_PREFIX,
    AdaptedBinary,
    EmitError,
    SliceRecord,
    SSPEmitter,
)

__all__ = ["LiveInLayout", "SLICE_PREFIX", "SPEC_CLONE_SUFFIX",
           "STUB_PREFIX", "AdaptedBinary", "EmitError", "SliceRecord",
           "SSPEmitter"]
