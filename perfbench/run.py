"""End-to-end and per-layer benchmark of the post-pass tool and its stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-tiny --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that yields the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in this
directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter as clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Fresh-interpreter set-up runs per benchmark run (median reported).
SETUP_REPEATS = 7
#: ``-X importtime`` runs per traced run (median reported).
IMPORT_REPEATS = 3

SETUP_CODE = """\
import repro.tool.cli
from repro.workloads import PAPER_ORDER, make_workload
for name in PAPER_ORDER:
    workload = make_workload(name, {scale!r})
    workload.build_program()
    workload.build_heap()
"""

#: ``import.*`` metric -> module whose cumulative import time it reports.
IMPORT_MODULES = {
    "import.cli_s": "repro.tool.cli",
    "import.runner_s": "repro.runner",
    "import.resilience_s": "repro.resilience",
    "import.service_s": "repro.service",
    "import.codegen_s": "repro.codegen",
    "import.sim_s": "repro.sim",
    "import.obs_s": "repro.obs",
}


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the program's sources.

    No ``timeout``: with one, ``wait`` polls in sleeps of up to 50 ms,
    which would quantise the set-up times measured around it.
    """
    return subprocess.run([sys.executable, *args], cwd=ROOT, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          **kwargs)


def setup_seconds(scale: str) -> float:
    """Wall time of one fresh interpreter that imports the CLI and
    builds the workload's kernels."""
    start = clock()
    _python("-c", SETUP_CODE.format(scale=scale))
    return clock() - start


def import_seconds() -> dict:
    """Cumulative ``-X importtime`` of each layer's package when a fresh
    interpreter imports the CLI."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = _python("-X", "importtime", "-c", "import repro.tool.cli",
                       capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            try:
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
            except ValueError:  # the header line
                continue
        samples.append(cumulative)
    return {metric: statistics.median(s.get(module, 0.0) for s in samples)
            for metric, module in IMPORT_MODULES.items()}


def children_rss_kib() -> int:
    """Peak RSS of the largest child waited for so far (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(children_kib: int) -> float:
    """Peak RSS of this process plus ``children_kib``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + children_kib) / 1024.0


def run_pair(scenario, ledger, rec, warm_repeats: int) -> dict:
    """One cold pass and its warm passes; returns their wall times."""
    scenario.reset()
    warm, warm_ops = [], []
    start = clock()
    with (rec.span("pass") if rec is not None
          else contextlib.nullcontext()):
        ops = scenario.cold(rec)
        cold = clock() - start
        for _ in range(warm_repeats):
            began = clock()
            warm_ops.append(scenario.warm(rec))
            warm.append(clock() - began)
    total = clock() - start
    ledger.record(ops)
    for batch in warm_ops:
        ledger.record(batch)
    return {"cold": cold, "warm": warm, "total": total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # The program reads REPRO_* (cache dir, service root, fault plans,
    # legacy loops); the benchmark passes everything explicitly instead.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    import repro.tool.cli  # noqa: F401 - compiles bytecode before set-up runs
    from checks import Ledger, sim_counts, ssp_speedup
    from scenarios import SCENARIOS
    from spans import Recorder, layer_metrics

    if args.workload not in SCENARIOS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(SCENARIOS)}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        scenario = SCENARIOS[args.workload](args.seed, WORK)
        ledger = Ledger()
        plain, traced, layers, setups = [], [], [], []
        pool_rss = 0
        # The warm passes feed only per-layer metrics, so an untraced
        # run makes cold passes alone and gets more of them.
        warm = scenario.warm_repeats if args.trace else 0
        for _ in range(scenario.warmup_pairs):
            run_pair(scenario, ledger, None, warm)
        # Host speed on a shared machine moves in phases of seconds, so
        # the set-up runs are spread over the run (between pass pairs,
        # outside the measured time) rather than made back to back.
        setup_every = args.seconds / SETUP_REPEATS
        measured = 0.0
        while True:
            began = clock()
            plain.append(run_pair(scenario, ledger, None, warm))
            if args.trace:
                rec = Recorder()
                traced.append(run_pair(scenario, ledger, rec, warm))
                layers.append(layer_metrics(rec))
            last = clock() - began
            measured += last
            if not setups:
                # No set-up interpreter has run yet, so the largest
                # child so far is a pool worker.
                pool_rss = children_rss_kib()
            while (not args.trace and len(setups) < SETUP_REPEATS
                   and measured >= len(setups) * setup_every):
                setups.append(setup_seconds(scenario.scale))
            if measured + last > args.seconds:
                break
        while not args.trace and len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(scenario.scale))
        rss = peak_rss_mb(pool_rss)
        ledger.record(scenario.finish())
        reference = ledger.reference
        if args.trace:
            metrics = {name: statistics.median(sample[name]
                                               for sample in layers)
                       for name in layers[0]}
            metrics.update(import_seconds())
            metrics.update(sim_counts(reference))
            # A warm pass takes milliseconds; its run-to-run spread on a
            # shared host is wider than any regression bound, so it is
            # reported here rather than gated as an end-to-end metric.
            metrics["warm_s"] = statistics.median(w for p in plain
                                                  for w in p["warm"])
            metrics["bench.trace_overhead"] = (
                statistics.median(p["total"] for p in traced)
                / statistics.median(p["total"] for p in plain) - 1)
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                # Contention from other tenants only ever adds time, in
                # phases of seconds, so the fastest time is the steady one.
                "wall_s": scenario.fastest_cold([p["cold"] for p in plain]),
                "peak_rss_mb": rss,
                "ssp_speedup_inorder": ssp_speedup(reference, "inorder"),
                "ssp_speedup_ooo": ssp_speedup(reference, "ooo"),
            }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"]
               for m in declared["end_to_end"] + declared["per_layer"]}
    print(f"stats_digest {args.workload} {ledger.stats_digest()}")
    print(f"cold passes {len(plain)}; operations {ledger.attempted}, "
          f"failed {ledger.failed}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit_of[name]}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
