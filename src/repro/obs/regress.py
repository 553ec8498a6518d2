"""Append-only bench ledger + statistical throughput-regression gate.

This module gives the repository a throughput *trajectory* and a gate:

* :func:`measure` — median-of-K wall-time runs per workload (one
  discarded warm-up pays the artifact build), recording simulator
  throughput in cycles/second with a MAD-based noise band;
* :func:`append_record` — the append-only ledger ``BENCH_history.jsonl``
  (one record per line, never rewritten), the trajectory every later
  speed PR (ROADMAP item 1) plots itself against;
* :func:`pin_baseline` / :func:`compare` — ``BENCH_baseline.json`` and
  the gate: a workload regresses only when its throughput drop clears
  *both* the combined noise band (``nsigma`` sigmas, sigma estimated as
  1.4826·MAD) and a relative floor (``min_rel``) — so run-to-run jitter
  passes and a real slowdown fails, with a nonzero exit from
  ``repro bench compare``.

Timings are host-dependent, so CI pins a same-host baseline before
comparing; the committed baseline documents the trajectory's origin.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Ledger / baseline schema version.
LEDGER_SCHEMA = 1

#: Default file names (repository root).
LEDGER_NAME = "BENCH_history.jsonl"
BASELINE_NAME = "BENCH_baseline.json"

#: Gate defaults: flag only drops beyond 3 combined sigmas AND 10%.
DEFAULT_NSIGMA = 3.0
DEFAULT_MIN_REL = 0.10

#: Consistency factor turning a MAD into a normal-equivalent sigma.
MAD_SIGMA = 1.4826

#: Cap on the *relative* noise band.  MAD over K<=5 samples is a crude
#: sigma estimate: on a loaded host it can balloon past the median
#: itself, producing a band no real slowdown could ever clear — a gate
#: that cannot fire.  A baseline noisier than +-50% cannot veto the
#: gate; a drop past the cap always counts.
MAX_REL_BAND = 0.50


def _mad(values: Sequence[float], center: float) -> float:
    return statistics.median(abs(v - center) for v in values)


def measure(workloads: Sequence[str], scale: str = "tiny", k: int = 5,
            model: str = "inorder", variant: str = "ssp",
            label: str = "", inject_slowdown: float = 1.0,
            progress=None) -> Dict[str, Any]:
    """Median-of-K timing record for the given workloads.

    Each workload gets one discarded warm-up run (pays the per-process
    artifact build) and ``k`` measured runs.  ``inject_slowdown``
    multiplies every measured wall time — a self-test knob proving the
    compare gate actually fires (used by ``bench compare
    --inject-slowdown`` and CI).
    """
    # Imported lazily: repro.runner imports repro.obs at module load.
    from ..runner.spec import RunSpec
    from ..runner.worker import WorkerTask, execute_task

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if inject_slowdown <= 0:
        raise ValueError("inject_slowdown must be > 0")
    rows: Dict[str, Any] = {}
    for name in workloads:
        spec = RunSpec.create(name, scale=scale, model=model,
                              variant=variant)
        execute_task(WorkerTask(spec=spec))  # warm-up (artifact build)
        walls: List[float] = []
        cycles = 0
        for _ in range(k):
            payload = execute_task(WorkerTask(spec=spec))
            walls.append(payload["wall_time"] * inject_slowdown)
            cycles = payload["stats"]["cycles"]
        wall_median = statistics.median(walls)
        wall_mad = _mad(walls, wall_median)
        cps = [cycles / w for w in walls]
        cps_median = statistics.median(cps)
        rows[name] = {
            "cycles": cycles,
            "n": len(walls),
            "wall": [round(w, 5) for w in walls],
            "wall_median": wall_median,
            "wall_mad": wall_mad,
            "cps_median": cps_median,
            "cps_mad": _mad(cps, cps_median),
        }
        if progress is not None:
            progress(f"{name}: {cycles} cycles, median "
                     f"{wall_median:.3f}s ({cps_median:,.0f} cyc/s "
                     f"+- {MAD_SIGMA * rows[name]['cps_mad']:,.0f})")
    return {
        "schema": LEDGER_SCHEMA,
        "created": time.time(),
        "label": label,
        "host": platform.node(),
        "python": sys.version.split()[0],
        "scale": scale,
        "model": model,
        "variant": variant,
        "k": k,
        "inject_slowdown": inject_slowdown,
        "workloads": rows,
    }


# -- ledger / baseline files -------------------------------------------------------


def append_record(record: Dict[str, Any], path: os.PathLike) -> None:
    """Append one record to the JSONL ledger (append-only by design)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True))
        fh.write("\n")


def read_ledger(path: os.PathLike) -> List[Dict[str, Any]]:
    """All parseable ledger records, oldest first."""
    records: List[Dict[str, Any]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue  # torn tail line of a killed writer
    except OSError:
        pass
    return records


def pin_baseline(record: Dict[str, Any], path: os.PathLike) -> None:
    """Write the pinned baseline ``compare`` gates against."""
    Path(path).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def load_baseline(path: os.PathLike) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# -- the gate ----------------------------------------------------------------------


def compare(baseline: Dict[str, Any], current: Dict[str, Any],
            nsigma: float = DEFAULT_NSIGMA,
            min_rel: float = DEFAULT_MIN_REL) -> Dict[str, Any]:
    """Gate ``current`` against ``baseline``; returns the verdict doc.

    Per workload present in both records, the throughput drop must clear
    both the combined noise band (``nsigma`` * sqrt(sigma_base^2 +
    sigma_new^2), sigma = 1.4826 * MAD, capped at
    :data:`MAX_REL_BAND` of the baseline) and the relative floor
    ``min_rel`` to count as a regression.  Symmetric improvements are
    reported but never fail the gate.

    A baseline row with ``cps_median == 0`` is **stale** — it carries no
    usable throughput signal (a truncated write, a killed measurement,
    or a hand-edited file), and gating against it would silently wave
    every slowdown through (``drop / base_cps`` is undefined, so no
    relative drop could ever clear the threshold).  Stale rows fail the
    gate: re-pin the baseline.

    The result carries ``median_speedup`` — the median of
    ``new_cps / base_cps`` across comparable rows — for
    ``bench compare --assert-speedup``.
    """
    base_rows = baseline.get("workloads") or {}
    new_rows = current.get("workloads") or {}
    rows: List[Dict[str, Any]] = []
    regressions = 0
    stale = 0
    ratios: List[float] = []
    for name in sorted(base_rows):
        base = base_rows[name]
        new = new_rows.get(name)
        if new is None:
            rows.append({"workload": name, "verdict": "missing"})
            continue
        base_cps = float(base.get("cps_median") or 0.0)
        new_cps = float(new.get("cps_median") or 0.0)
        if base_cps <= 0:
            stale += 1
            rows.append({
                "workload": name,
                "verdict": "stale",
                "base_cps": base_cps,
                "new_cps": new_cps,
                "base_n": int(base.get("n") or 0),
                "new_n": int(new.get("n") or 0),
            })
            continue
        sigma_base = MAD_SIGMA * float(base.get("cps_mad") or 0.0)
        sigma_new = MAD_SIGMA * float(new.get("cps_mad") or 0.0)
        band = nsigma * (sigma_base ** 2 + sigma_new ** 2) ** 0.5
        drop = base_cps - new_cps
        rel = drop / base_cps
        rel_band = min(band / base_cps, MAX_REL_BAND)
        threshold = max(min_rel, rel_band)
        if rel > threshold:
            verdict = "regressed"
            regressions += 1
        elif -rel > threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        ratios.append(new_cps / base_cps)
        rows.append({
            "workload": name,
            "verdict": verdict,
            "base_cps": base_cps,
            "new_cps": new_cps,
            "base_n": int(base.get("n") or 0),
            "new_n": int(new.get("n") or 0),
            "delta_rel": -rel,
            "noise_band": band,
            "rel_band": rel_band,
        })
    extra = sorted(set(new_rows) - set(base_rows))
    return {
        "ok": regressions == 0 and stale == 0,
        "regressions": regressions,
        "stale": stale,
        "median_speedup": statistics.median(ratios) if ratios else 0.0,
        "nsigma": nsigma,
        "min_rel": min_rel,
        "rows": rows,
        "new_workloads": extra,
    }


def render_compare(result: Dict[str, Any]) -> str:
    """The ``bench compare`` verdict table as printable text."""
    lines = []
    header = (f"{'workload':<12} {'verdict':<10} {'base cyc/s':>12} "
              f"{'new cyc/s':>12} {'n':>5} {'delta':>8} {'band':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for row in result.get("rows", []):
        if row.get("verdict") == "missing":
            lines.append(f"{row['workload']:<12} {'missing':<10}")
            continue
        samples = f"{row.get('base_n', 0)}/{row.get('new_n', 0)}"
        if row.get("verdict") == "stale":
            lines.append(
                f"{row['workload']:<12} {'stale':<10} "
                f"{row['base_cps']:>12,.0f} {row['new_cps']:>12,.0f} "
                f"{samples:>5}  (baseline has no throughput signal; "
                f"re-pin it)")
            continue
        lines.append(
            f"{row['workload']:<12} {row['verdict']:<10} "
            f"{row['base_cps']:>12,.0f} {row['new_cps']:>12,.0f} "
            f"{samples:>5} {100 * row['delta_rel']:>+7.1f}% "
            f"{row['noise_band']:>10,.0f}")
    if result.get("new_workloads"):
        lines.append("not in baseline: "
                     + ", ".join(result["new_workloads"]))
    if result.get("ok"):
        verdict = "PASS"
    elif result.get("stale"):
        verdict = (f"FAIL ({result.get('regressions', 0)} regression(s), "
                   f"{result['stale']} stale baseline row(s))")
    else:
        verdict = f"FAIL ({result.get('regressions', 0)} regression(s))"
    lines.append(f"gate: {verdict}  "
                 f"(> {result.get('nsigma', DEFAULT_NSIGMA):g} sigma "
                 f"and > {100 * result.get('min_rel', DEFAULT_MIN_REL):g}% "
                 f"drop)")
    if result.get("median_speedup"):
        lines.append(f"median throughput ratio vs baseline: "
                     f"{result['median_speedup']:.2f}x")
    return "\n".join(lines)
