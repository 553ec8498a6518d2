"""Human-readable rendering of a run record (``repro report``).

Turns a view of the run record (:mod:`repro.obs.record`) — the metrics
document of :func:`repro.obs.metrics.collect_metrics`, a runner
telemetry document or a fleet document — into the observability
report: pass spans with wall times and key metrics, the Table 2 slice
rows, per-delinquent-load prefetch coverage / accuracy / timeliness,
the runner counters, the cycle-attribution profile, and the
service-fleet summary.  Each section renders when the document has it,
and defensively: any section may be missing, empty, or partial (older
schema versions, zero-run telemetry) and still produce a report instead
of a crash.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .profiler import render_profile
from .record import render_counters


def _fmt_metric(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    table = [headers] + rows
    widths = [max(len(row[i]) for row in table)
              for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i])
                       for i, cell in enumerate(table[0]))]
    lines.append("  ".join("-" * w for w in widths))
    for row in table[1:]:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return lines


def runner_line(runner: Dict[str, Any]) -> str:
    """One line for a run record's ``runner`` section: its counters,
    hit rate and wall times."""
    return (f"{render_counters(runner, always=('launched', 'cache_hits'))}"
            f" ({100 * (runner.get('hit_rate') or 0.0):.0f}% hit rate); "
            f"sim wall time {runner.get('sim_wall_time') or 0.0:.2f}s "
            f"(saved {runner.get('saved_wall_time') or 0.0:.2f}s)")


def render_report(metrics: Dict[str, Any]) -> str:
    """The observability report for one run-record document."""
    lines: List[str] = []
    title = (f"observability report: {metrics.get('workload', '?')} "
             f"({metrics.get('scale', '?')}, {metrics.get('model', '?')})")
    lines.append(title)
    lines.append("=" * len(title))

    profile = metrics.get("profile")
    if profile:
        lines.append(
            f"baseline cycles: {profile.get('baseline_cycles', '-')}  "
            f"total miss cycles: {profile.get('total_miss_cycles', '-')}")

    passes = metrics.get("passes")
    if passes:
        lines.append("")
        lines.append("pipeline passes")
        rows = []
        for entry in passes:
            detail = "  ".join(
                f"{key}={_fmt_metric(value)}"
                for key, value in sorted(entry.get("metrics", {}).items()))
            rows.append([entry["name"],
                         f"{entry['wall_time'] * 1e3:8.2f}ms", detail])
        lines.extend(_table(["pass", "wall", "metrics"], rows))

    slices = metrics.get("slices")
    if slices:
        lines.append("")
        lines.append("emitted slices (Table 2 material)")
        rows = [[
            s["slice_label"], s["kind"],
            "yes" if s["interprocedural"] else "no",
            str(s["size"]), str(s["live_ins"]),
            f"{s['slack_per_iteration']:.1f}",
            f"{s['height_slice']}/{s['height_critical']}",
            str(s["triggers"]),
        ] for s in slices]
        lines.extend(_table(
            ["slice", "kind", "interproc", "size", "live-ins",
             "slack/iter", "height s/c", "triggers"], rows))

    loads = metrics.get("delinquent_loads")
    if loads:
        lines.append("")
        lines.append("delinquent loads: prefetch coverage / accuracy / "
                     "timeliness")
        rows = []
        for key in sorted(loads, key=lambda k: int(k)):
            row = loads[key]
            rows.append([
                str(row.get("uid", key)),
                str(row.get("accesses", "-")),
                str(row.get("l1_misses", "-")),
                str(row.get("prefetches_issued", "-")),
                f"{row.get('coverage', 0.0):6.1%}",
                f"{row.get('accuracy', 0.0):6.1%}",
                f"{row.get('timeliness', 0.0):6.1%}",
            ])
        lines.extend(_table(
            ["load", "accesses", "L1 misses", "prefetches", "coverage",
             "accuracy", "timeliness"], rows))

    guard = metrics.get("guard")
    if guard and (guard.get("degraded") or guard.get("diagnostics")):
        lines.append("")
        lines.append(f"guard: adapted={guard.get('adapted_loads', 0)} "
                     f"skipped={guard.get('skipped_loads', 0)} "
                     f"failed={guard.get('failed_loads', 0)}"
                     + (f"  rollbacks={len(guard['rollbacks'])}"
                        if guard.get("rollbacks") else ""))
        for diag in guard.get("diagnostics", []):
            where = diag.get("function") or "-"
            lines.append(f"  [{diag.get('severity', '?')}] "
                         f"{diag.get('stage', '?')} "
                         f"({where}): {diag.get('message', '')}")

    sim = metrics.get("sim")
    if sim:
        lines.append("")
        parts = [f"cycles={sim.get('cycles', 0)}"]
        if "speedup" in sim:
            parts.append(f"speedup={sim['speedup']:.2f}x")
        parts.append(f"spawns={sim.get('spawns', 0)}")
        parts.append(f"chk fired/ignored={sim.get('chk_fired', 0)}/"
                     f"{sim.get('chk_ignored', 0)}")
        parts.append(f"prefetches={sim.get('prefetches_issued', 0)}")
        lines.append("simulation: " + "  ".join(parts))
        breakdown = sim.get("cycle_breakdown")
        if breakdown:
            total = sum(breakdown.values()) or 1
            lines.append("cycle breakdown: " + ", ".join(
                f"{cat}={count} ({count / total:.0%})"
                for cat, count in breakdown.items() if count))

    runner = metrics.get("runner")
    if runner:
        lines.append("")
        lines.append("runner: " + runner_line(runner))
        backend = runner.get("cache_backend")
        if backend:
            parts = [f"kind={backend.get('kind', 'local')}"]
            for counter in ("hits", "misses", "puts", "evictions",
                            "quarantines"):
                if backend.get(counter):
                    parts.append(f"{counter}={backend[counter]}")
            lines.append("cache backend: " + "  ".join(parts))

    run_meta = metrics.get("resilience")
    if run_meta:
        lines.append("")
        parts = [f"ladder step={run_meta.get('ladder_step', 'full')}"]
        if run_meta.get("watchdog_kills"):
            parts.append(f"watchdog kills={run_meta['watchdog_kills']}")
        if run_meta.get("checkpoints"):
            parts.append(f"checkpoints={run_meta['checkpoints']}")
        if run_meta.get("resumed_from_cycle") is not None:
            parts.append(
                f"resumed from cycle {run_meta['resumed_from_cycle']}")
        lines.append("run resilience: " + "  ".join(parts))

    profiler = metrics.get("profiler")
    if profiler:
        lines.append("")
        lines.append(render_profile(profiler))

    # A fleet document is the record's fleet section on its own.
    fleet = metrics.get("fleet", metrics if "totals" in metrics else None)
    if fleet:
        from .fleet import fleet_summary_lines
        lines.append("")
        lines.extend(fleet_summary_lines(fleet))
    return "\n".join(lines)
