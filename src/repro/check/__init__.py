"""Correctness subsystem: binary linter, static proof, differential oracle,
fuzzing.

Four layers of assurance over the post-pass adaptation pipeline:

* :mod:`repro.check.lint` — the static rules over adapted binaries
  (Figure 7 shape, control-flow integrity, register discipline, trigger
  legality); the emitter runs the shape rules through
  ``verify_adapted_binary`` before it ships a binary;
* :mod:`repro.check.proof` — the static equivalence proof the tool's
  verify stage tries before it runs the shadow check;
* :mod:`repro.check.oracle` — cross-model differential testing of the
  interpreter and both timing pipelines on the benchmark workloads;
* :mod:`repro.check.fuzz` — seeded random-program generation driving the
  whole pipeline and re-asserting the above on every generated binary.

``python -m repro check`` runs the linter, the oracle and the fuzzer.

The names below resolve on first use (PEP 562): the tool imports the
linter and the proof, and the fuzzer imports the tool, so importing this
package must not import the fuzzer.
"""

import importlib

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "FuzzReport": ".fuzz", "run_case": ".fuzz", "run_fuzz": ".fuzz",
    "LintViolation": ".lint", "lint_program": ".lint",
    "VerificationError": ".lint", "verify_adapted_binary": ".lint",
    "OracleResult": ".oracle", "run_oracle": ".oracle",
    "prove_equivalent": ".proof",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a re-exported name's submodule on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
