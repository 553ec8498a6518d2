"""Command-line interface: ``ssp-postpass``.

Runs the post-pass flow on a named benchmark workload and reports the
adaptation and its effect::

    ssp-postpass mcf --scale small --model inorder
    ssp-postpass --list
    ssp-postpass --experiments figure8 table2 --jobs 4
    ssp-postpass treeadd.df --trace out.jsonl --metrics-json metrics.json
    ssp-postpass report treeadd.df --scale tiny
    ssp-postpass report --from metrics.json
    ssp-postpass cache stats
    ssp-postpass cache clear [--stale]
    ssp-postpass runs
    ssp-postpass service submit em3d health --variant ssp
    ssp-postpass service worker --idle-exit 5
    ssp-postpass service status BATCH && ssp-postpass service fetch BATCH
    ssp-postpass service top --watch 2
    ssp-postpass mcf --profile profile.json --trace out.jsonl

All simulations go through :mod:`repro.runner`: results are cached under
``.repro-cache/`` (disable with ``--no-cache``) and ``--jobs N`` fans each
experiment's simulation batch out over N worker processes.

Observability (:mod:`repro.obs`): ``--trace FILE`` writes a JSONL event
log plus a Perfetto-loadable Chrome trace next to it, ``--metrics-json``
a structured metrics document, ``--gantt`` the ASCII context-occupancy
chart, and ``--telemetry-json`` the runner's cache/wall-time summary; the
``report`` subcommand renders a human-readable observability report.
``--profile FILE`` attaches the cycle-attribution profiler to the
simulation (in-process) and writes its phase/stall/tick document to
FILE; with ``--trace`` the profiler's counter tracks ride along in the
Perfetto trace.  ``service top`` renders fleet-wide telemetry for a
service root (``--watch`` refreshes).

Robustness (:mod:`repro.guard`): every run prints a one-line guard
summary; exit codes distinguish success (0) from tool/simulation failure
(1), usage errors (2), a degraded adaptation — some delinquent loads
dropped by fault isolation — (3), and a semantic-equivalence rollback
(4).  ``--inject SITE[:PROB[:TIMES]]`` (with ``--inject-seed``) arms the
deterministic fault-injection harness; ``--inject list`` prints the
sites.

Service mode (:mod:`repro.service`): ``service submit`` enqueues a batch
of runs on a shared root (``--root`` or ``REPRO_SERVICE_ROOT``), any
number of ``service worker`` processes — on any host sharing the root —
drain the queue into the shared content-addressed backend, and ``service
status``/``fetch`` poll and collect results.  ``service gc`` prunes aged
queue records and evicts cold cache entries by size/age budget.

Resilience (:mod:`repro.resilience`): ``--checkpoint-every N`` writes a
crash-safe checkpoint every N simulated cycles, ``--resume`` continues a
killed run from its last good checkpoint (``ssp-postpass runs`` lists
what is resumable), and ``--deadline SECS`` gives each run a wall-clock
budget.  Any of these flags runs the simulations on forked workers that
the CLI process watches: a hung worker is killed and its job redelivered
(a job that keeps killing its workers is quarantined as poison), a
failed attempt is retried once, and budget blowouts descend the
degradation ladder (chaining SP → basic SP → top-1 load → unadapted).
**Exit codes are unchanged by resilience**: a run that completes — even
degraded down the ladder, which is recorded in telemetry and
``RunResult.metrics["resilience"]`` rather than the exit code — still
exits 0/3/4 per the guard semantics above; only a spec whose attempts
ran out (or that was quarantined) surfaces as failure (1).

Import weight: this module loads only the standard library and
:mod:`repro.guard` (with the tracer it needs); each handler imports the
layers it reaches.  ``service submit|status|fetch|top`` therefore never
load the simulators, the tool or the execution layer
(:mod:`repro.runner.worker`), and ``--list`` loads only the workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from ..guard import faultinject
from ..guard.faultinject import FaultInjector, FaultSpec, describe_sites

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runner import Runner, RunSpec, WorkloadArtifacts

#: Exit codes.  0/1/2 keep their conventional meanings; 3 and 4 let
#: scripts distinguish a run that *succeeded but degraded* (some loads
#: dropped by the guard) from one where the semantic-equivalence check
#: rolled the adaptation back.  5 and 6 are service-plane terminals: a
#: batch with poison-quarantined jobs (workers kept dying on them) vs.
#: a wait that blew its ``--deadline`` — operators page on the former
#: and retry the latter.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3
EXIT_ROLLED_BACK = 4
EXIT_POISONED = 5
EXIT_DEADLINE = 6


def _guard_exit_code(guard, base: int) -> int:
    """Fold the guard report into the exit code (rollback > degraded)."""
    if guard.rolled_back:
        return EXIT_ROLLED_BACK
    if guard.degraded:
        return EXIT_DEGRADED
    return base


def _make_runner(args) -> Runner:
    from ..runner import Runner
    resilience = None
    if (getattr(args, "deadline", None) is not None
            or getattr(args, "checkpoint_every", None) is not None
            or getattr(args, "resume", False)):
        from ..resilience import ResilienceConfig
        resilience = ResilienceConfig(
            deadline=args.deadline,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume)
    if args.no_cache:
        # Also force standalone mode: service dedupe flows through the
        # shared backend, which --no-cache explicitly opts out of.
        return Runner(jobs=args.jobs, cache=None, resilience=resilience,
                      service=None)
    # Default cache AND service resolution stay inside Runner, so the
    # CLI honours REPRO_CACHE_DIR / REPRO_SERVICE_ROOT identically to
    # library use.
    return Runner(jobs=args.jobs, resilience=resilience)


def _observed_artifacts(spec: RunSpec, tracer) -> WorkloadArtifacts:
    """Fresh (non-memoised) artifacts so every pass runs under ``tracer``.

    The shared :func:`artifacts_for` memo may already hold a fully-built
    profile/adaptation for this spec, in which case no spans would be
    recorded; an observed run pays the rebuild to get a complete trace.
    """
    from ..runner.worker import WorkloadArtifacts
    artifacts = WorkloadArtifacts(spec.workload, spec.scale,
                                  spec.tool_options_dict())
    artifacts.tracer = tracer
    return artifacts


def _print_prefetch_effectiveness(stats, delinquent_uids) -> None:
    """Per-delinquent-load coverage / accuracy / timeliness lines."""
    prefetch = stats.prefetch_metrics(delinquent_uids)
    if not prefetch:
        return
    print("      prefetch effectiveness per delinquent load:")
    for uid in sorted(prefetch):
        m = prefetch[uid]
        print(f"        load {uid}: coverage {m['coverage']:6.1%}  "
              f"accuracy {m['accuracy']:6.1%}  "
              f"timeliness {m['timeliness']:6.1%}  "
              f"(L1 misses {m['l1_misses']}, "
              f"prefetches {m['prefetches_issued']})")


def _simulate(artifacts: WorkloadArtifacts, ssp_spec: RunSpec,
              runner: Runner, tracer, profiler, observing: bool):
    """Simulate the adapted binary of ``artifacts`` on ``ssp_spec``'s
    model: (stats, baseline cycles, context trace, resilience meta), or
    None when a simulation failed.

    An observed run (either model) is context-traced and a profiled run
    is in-process (the profiler hooks the live run loop); both bypass the
    runner.  Everything else, and the OOO baseline, goes through
    ``runner``.
    """
    from ..runner import RunSpec
    model = ssp_spec.model
    base_spec = RunSpec.create(ssp_spec.workload, scale=ssp_spec.scale,
                               model=model, variant="base")
    specs = [] if observing or profiler is not None else [ssp_spec]
    if model != "inorder":
        specs.append(base_spec)
    results = runner.run(specs)
    for result in results:
        if not result.ok:
            print(f"      simulation failed: {result.error}",
                  file=sys.stderr)
            return None
    base = (results[-1].stats.cycles if model != "inorder"
            else artifacts.profile.baseline_cycles)
    if specs and specs[0] is ssp_spec:
        return (results[0].stats, base, None,
                results[0].metrics.get("resilience"))
    program = artifacts.tool_result.program
    heap = artifacts.workload.build_heap()
    context_trace = None
    if observing:
        from ..sim import trace_run
        with tracer.span("simulate", category="sim") as sp:
            stats, context_trace = trace_run(program, heap,
                                             profiler=profiler, model=model)
            sp.set(cycles=stats.cycles, spawns=stats.spawns)
    else:
        from ..sim import make_simulator
        sim = make_simulator(program, heap, model)
        sim.attach_profiler(profiler)
        stats = sim.run()
    artifacts.workload.check_output(heap)
    return stats, base, context_trace, None


def _run_record(artifacts: WorkloadArtifacts, spec: RunSpec, tracer,
                runner: Runner, stats=None, baseline=None,
                resilience_meta=None, profiler=None, fleet=None) -> dict:
    """The run record of one workload run: the document of both
    ``--metrics-json`` and ``report WORKLOAD``."""
    from ..obs import collect_metrics
    return collect_metrics(
        spec.workload, spec.scale, spec.model, profile=artifacts.profile,
        tool_result=artifacts.tool_result, stats=stats,
        baseline_cycles=baseline, tracer=tracer,
        telemetry=runner.telemetry, resilience=resilience_meta,
        profiler=profiler, fleet=fleet)


def _adapt_and_report(name: str, scale: str, model: str,
                      show_disassembly: bool, runner: Runner,
                      trace: Optional[str] = None,
                      metrics_json: Optional[str] = None,
                      gantt: Optional[str] = None,
                      profile_out: Optional[str] = None,
                      profile_interval: Optional[int] = None) -> int:
    from ..obs import (NULL_TRACER, Tracer, chrome_trace_events,
                       jsonl_records, write_chrome_trace, write_jsonl)
    from ..runner import RunSpec
    from ..runner.worker import artifacts_for
    observing = bool(trace or metrics_json or gantt)
    profiler = None
    if profile_out:
        from ..obs import CycleProfiler, DEFAULT_INTERVAL
        profiler = CycleProfiler(
            interval=profile_interval or DEFAULT_INTERVAL)
    tracer = Tracer() if observing else NULL_TRACER
    ssp_spec = RunSpec.create(name, scale=scale, model=model,
                              variant="ssp")
    artifacts = (_observed_artifacts(ssp_spec, tracer) if observing
                 else artifacts_for(ssp_spec))
    print(f"[1/4] profiling {name} ({scale}) on the baseline in-order "
          "model ...")
    profile = artifacts.profile
    print(f"      baseline cycles: {profile.baseline_cycles}, "
          f"total miss cycles: {profile.total_miss_cycles()}")

    print("[2/4] running the post-pass tool ...")
    result = artifacts.tool_result
    print(f"      delinquent loads: {result.delinquent_uids}")
    for decision in result.decisions:
        flag = "*" if decision.selected else " "
        print(f"     {flag} load {decision.load_uid} {decision.region_name}"
              f" {decision.kind}: slack/iter="
              f"{decision.slack_per_iteration:.1f} reduced="
              f"{decision.reduced_miss_cycles:.0f} "
              f"threshold={decision.threshold:.0f}")
    guard = result.guard
    print(f"      [guard] {guard.summary()}")
    if result.adapted is None:
        print("      no slices generated")
        return _guard_exit_code(guard, EXIT_FAILURE)
    row = result.table2_row()
    print(f"      slices={row['slices']:.0f} "
          f"interproc={row['interproc']:.0f} "
          f"avg size={row['avg_size']:.1f} "
          f"avg live-ins={row['avg_live_ins']:.1f}")

    print(f"[3/4] simulating the SSP-enhanced binary ({model}) ...")
    run = _simulate(artifacts, ssp_spec, runner, tracer, profiler,
                    observing)
    if run is None:
        return _guard_exit_code(guard, EXIT_FAILURE)
    stats, base, context_trace, resilience_meta = run
    print(f"      {model} baseline: {base} cycles; SSP: {stats.cycles} "
          f"cycles; speedup {base / stats.cycles:.2f}x")
    print(f"      spawns={stats.spawns} chk fired/ignored="
          f"{stats.chk_fired}/{stats.chk_ignored} "
          f"prefetches={stats.memory.prefetches_issued}")
    _print_prefetch_effectiveness(stats, result.delinquent_uids)

    print(f"[4/4] done.  [runner] {runner.telemetry.summary()}")
    if profiler is not None:
        print()
        print(profiler.render())
        with open(profile_out, "w", encoding="utf-8") as fh:
            json.dump(profiler.to_dict(), fh, indent=2, sort_keys=True)
        print(f"      profile written to {profile_out}")
    if gantt:
        Path(gantt).write_text(context_trace.render_gantt() + "\n",
                               encoding="utf-8")
        print(f"      gantt chart written to {gantt}")
    if trace:
        meta = {"workload": name, "scale": scale, "model": model}
        write_jsonl(trace, jsonl_records(tracer, context_trace, meta=meta))
        chrome_path = Path(trace).with_suffix(".chrome.json")
        write_chrome_trace(chrome_path,
                           chrome_trace_events(tracer, context_trace,
                                               profiler=profiler))
        print(f"      trace written to {trace} (JSONL) and "
              f"{chrome_path} (Perfetto/chrome://tracing)")
    if metrics_json:
        metrics = _run_record(artifacts, ssp_spec, tracer, runner, stats,
                              base, resilience_meta, profiler)
        with open(metrics_json, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
        print(f"      metrics written to {metrics_json}")
    if show_disassembly:
        print()
        print(result.program.disassemble())
    return _guard_exit_code(guard, EXIT_OK)


def _run_experiments(names: List[str], scale: str, runner: Runner) -> int:
    from ..experiments import ALL_EXPERIMENTS, ExperimentContext
    context = ExperimentContext(scale, runner=runner)
    for name in names:
        experiment = ALL_EXPERIMENTS.get(name)
        if experiment is None:
            print(f"unknown experiment {name!r}; have "
                  f"{sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
            return 2
        print()
        print(experiment(context=context, scale=scale).format())
    print()
    print(f"[runner] {runner.telemetry.summary()}")
    return 0


def _cache_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ssp-postpass cache",
        description="Inspect or clear the content-addressed result cache "
                    "(.repro-cache/, override with REPRO_CACHE_DIR).")
    parser.add_argument("action", choices=("stats", "clear"))
    parser.add_argument("--stale", action="store_true",
                        help="with clear: only remove generations from "
                             "older source-tree versions")
    args = parser.parse_args(argv)
    from ..runner import ResultCache
    cache = ResultCache()
    if args.action == "stats":
        info = cache.stats()
        print(f"cache root:   {info['root']}")
        print(f"current salt: {info['current_salt']}")
        print(f"entries:      {info['entries']} "
              f"({info['bytes'] / 1024:.1f} KiB)")
        if info.get("quarantined"):
            print(f"quarantined:  {info['quarantined']} corrupt "
                  f"entr{'y' if info['quarantined'] == 1 else 'ies'} "
                  f"(*.json.bad; reap with 'cache clear --stale')")
        for gen in info["generations"]:
            tag = " (current)" if gen["current"] else " (stale)"
            line = (f"  {gen['salt']}{tag}: {gen['entries']} entries, "
                    f"{gen['bytes'] / 1024:.1f} KiB")
            if gen.get("quarantined"):
                line += f", {gen['quarantined']} quarantined"
            print(line)
        if not info["generations"]:
            print("  (empty)")
        return 0
    removed = cache.clear(stale_only=args.stale)
    print(f"removed {removed} cached result(s)")
    return 0


def _add_service_root_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="service root directory (default: "
                             "$REPRO_SERVICE_ROOT or .repro-service)")
    parser.add_argument("--visibility-timeout", type=float, default=None,
                        metavar="SECS",
                        help="seconds of lease silence before another "
                             "worker may steal an in-flight job")
    parser.add_argument("--poison-threshold", type=int, default=None,
                        metavar="N",
                        help="lease steals before a job is quarantined "
                             "to queue/poisoned/ instead of redelivered "
                             "(default: 3)")


def _service_config(args):
    from ..service import ServiceConfig
    config = ServiceConfig.resolve(args.root)
    if args.visibility_timeout is not None:
        config.visibility_timeout = args.visibility_timeout
    if getattr(args, "poison_threshold", None) is not None:
        config.poison_threshold = args.poison_threshold
    return config


def _service_specs(args) -> List[RunSpec]:
    from ..runner import RunSpec
    from ..workloads import PAPER_ORDER
    names = args.workloads or list(PAPER_ORDER)
    variants = args.variant or ["ssp"]
    return [RunSpec.create(name, scale=args.scale, model=args.model,
                           variant=variant)
            for name in names for variant in variants]


def _print_batch_status(status: dict) -> None:
    extras = "".join(
        f", {status[key]} {label}"
        for key, label in (("poisoned", "POISONED"), ("lost", "lost"),
                           ("missing", "missing"))
        if status.get(key))
    print(f"batch {status['batch']}: {status['done']}/{status['total']} "
          f"done, {status['failed']} failed, {status['running']} "
          f"running, {status['queued']} queued" + extras)


def _print_poisoned(client, status: dict) -> None:
    """One diagnostic line per quarantined job in the batch."""
    for digest, state in sorted(status.get("states", {}).items()):
        if state != "poisoned":
            continue
        record = client.queue.read_poisoned(digest) or {}
        detail = (record.get("last_error")
                  or "every worker died or wedged mid-job")
        print(f"  POISONED {record.get('label') or digest}: "
              f"{record.get('steals', 0)} lease steal(s), last worker "
              f"{record.get('last_worker') or '?'} — {detail}",
              file=sys.stderr)


def _wait_exit(client, batch_id: str, deadline) -> int:
    """Shared wait path: EXIT_DEADLINE on timeout, EXIT_POISONED when
    quarantined jobs made the batch terminal, else OK/FAILURE."""
    try:
        status = client.wait(batch_id, timeout=deadline)
    except TimeoutError as exc:
        print(f"deadline exceeded: {exc}", file=sys.stderr)
        return EXIT_DEADLINE
    _print_batch_status(status)
    if status.get("poisoned"):
        _print_poisoned(client, status)
        return EXIT_POISONED
    return EXIT_OK if not status.get("failed") else EXIT_FAILURE


def _service_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ssp-postpass service",
        description="Multi-host batch service: submit simulation batches "
                    "to a shared queue, drain them with worker "
                    "processes, poll and fetch results from the shared "
                    "content-addressed backend.")
    sub = parser.add_subparsers(dest="action", required=True)

    p_submit = sub.add_parser(
        "submit", help="enqueue a batch; prints its batch id")
    p_submit.add_argument("workloads", nargs="*",
                          help="benchmarks to run (default: the seven "
                               "paper workloads)")
    p_submit.add_argument("--scale", default="small",
                          choices=("tiny", "small", "default"))
    p_submit.add_argument("--model", default="inorder",
                          choices=("inorder", "ooo"))
    p_submit.add_argument("--variant", action="append", default=None,
                          metavar="VARIANT",
                          help="variant to run per workload; repeat the "
                               "flag for several (default: ssp)")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the batch completes, running "
                               "an inline worker; exit 0/1/5/6 per the "
                               "batch outcome")
    p_submit.add_argument("--deadline", type=float, default=None,
                          metavar="SECS",
                          help="with --wait: give up after SECS and exit "
                               f"{EXIT_DEADLINE} (distinct from the "
                               f"poison exit {EXIT_POISONED})")
    _add_service_root_options(p_submit)

    p_wait = sub.add_parser(
        "wait", help="block until a batch completes; terminal exit codes "
                     "distinguish failures, poison quarantine, and a "
                     "blown deadline")
    p_wait.add_argument("batch_id")
    p_wait.add_argument("--deadline", type=float, default=None,
                        metavar="SECS",
                        help=f"give up after SECS with exit "
                             f"{EXIT_DEADLINE}")
    p_wait.add_argument("--no-worker", action="store_true",
                        help="poll only; do not run an inline worker "
                             "(rely on external 'service worker' "
                             "processes)")
    _add_service_root_options(p_wait)

    p_status = sub.add_parser("status", help="poll one batch")
    p_status.add_argument("batch_id")
    p_status.add_argument("--json", action="store_true",
                          help="print the full status document as JSON")
    _add_service_root_options(p_status)

    p_fetch = sub.add_parser(
        "fetch", help="collect a complete batch's results")
    p_fetch.add_argument("batch_id")
    p_fetch.add_argument("--json", metavar="FILE",
                         help="also write results as JSON to FILE")
    _add_service_root_options(p_fetch)

    p_worker = sub.add_parser(
        "worker", help="drain the queue (run one per core per host)")
    p_worker.add_argument("--max-jobs", type=int, default=None,
                          metavar="N", help="stop after N jobs")
    p_worker.add_argument("--idle-exit", type=float, default=None,
                          metavar="SECS",
                          help="linger SECS after the queue empties, "
                               "then exit (default: exit when starved)")
    p_worker.add_argument("--checkpoint-every", type=int, default=None,
                          metavar="CYCLES",
                          help="checkpoint each job every CYCLES "
                               "simulated cycles into the service root; "
                               "stolen leases resume from the victim's "
                               "last checkpoint")
    p_worker.add_argument("--deadline", type=float, default=None,
                          metavar="SECS",
                          help="per-job wall-clock budget; blowing it "
                               "descends the degradation ladder "
                               "(full > basic > top1 > unadapted) "
                               "instead of failing")
    p_worker.add_argument("--rss-budget", type=int, default=None,
                          metavar="MB",
                          help="per-job RSS budget; an OOM blowout also "
                               "walks the degradation ladder")
    p_worker.add_argument("--inject", action="append", default=None,
                          metavar="SITE[:PROB[:TIMES]]",
                          help="arm the fault-injection harness in this "
                               "worker (repeatable; service sites: "
                               "worker.crash, backend.put.partial, ...)")
    p_worker.add_argument("--inject-seed", type=int, default=0,
                          metavar="N",
                          help="seed for the deterministic fault "
                               "injector (default: 0)")
    _add_service_root_options(p_worker)

    p_top = sub.add_parser(
        "top", help="fleet-wide telemetry: per-worker throughput, queue "
                    "depth and lease ages, backend hit rates")
    p_top.add_argument("--watch", type=float, default=None, metavar="SECS",
                       help="refresh the screen every SECS seconds until "
                            "interrupted (default: render once)")
    p_top.add_argument("--json", action="store_true",
                       help="print the fleet document as JSON instead")
    _add_service_root_options(p_top)

    p_gc = sub.add_parser(
        "gc", help="prune aged queue records and evict cold entries")
    p_gc.add_argument("--max-age", type=float, default=None,
                      metavar="SECS",
                      help="evict cache entries and done records older "
                           "than SECS")
    p_gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                      help="evict oldest cache entries until the store "
                           "fits in N bytes")
    _add_service_root_options(p_gc)

    args = parser.parse_args(argv)
    from ..service import ServiceClient, ServiceWorker
    config = _service_config(args)

    if args.action == "submit":
        client = ServiceClient(config=config)
        specs = _service_specs(args)
        batch_id = client.submit(specs)
        manifest = client.load_batch(batch_id)
        print(f"batch {batch_id}: {len(manifest['hashes'])} unique "
              f"spec(s), {manifest['enqueued']} enqueued, "
              f"{manifest['cached_at_submit']} already cached")
        if args.wait:
            return _wait_exit(client, batch_id, args.deadline)
        print(f"poll with: ssp-postpass service status {batch_id} "
              f"--root {config.root}")
        return EXIT_OK

    if args.action == "wait":
        config.inline_worker = not args.no_worker
        client = ServiceClient(config=config)
        try:
            return _wait_exit(client, args.batch_id, args.deadline)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return EXIT_FAILURE

    if args.action == "status":
        client = ServiceClient(config=config)
        try:
            status = client.status(args.batch_id)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return EXIT_FAILURE
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            _print_batch_status(status)
        if not status["complete"]:
            return EXIT_FAILURE
        if status.get("poisoned"):
            _print_poisoned(client, status)
            return EXIT_POISONED
        return EXIT_OK

    if args.action == "fetch":
        client = ServiceClient(config=config)
        try:
            results = client.fetch(args.batch_id)
        except (KeyError, RuntimeError) as exc:
            print(exc.args[0], file=sys.stderr)
            return EXIT_FAILURE
        failures = 0
        for result in results:
            if result.ok:
                print(f"  {result.spec.label():<36} "
                      f"{result.stats.cycles:>12,} cycles")
            else:
                failures += 1
                print(f"  {result.spec.label():<36} FAILED: "
                      f"{result.error}")
        if args.json:
            doc = [{"spec": r.spec.key(), "label": r.spec.label(),
                    "ok": r.ok, "stats": r.stats_dict or None,
                    "error": r.error, "attempts": r.attempts}
                   for r in results]
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
            print(f"results written to {args.json}")
        return EXIT_OK if not failures else EXIT_FAILURE

    if args.action == "worker":
        injector = None
        if args.inject:
            if "list" in args.inject:
                for line in describe_sites():
                    print(line)
                return EXIT_OK
            try:
                specs = [FaultSpec.parse(text) for text in args.inject]
            except ValueError as exc:
                print(f"--inject: {exc}", file=sys.stderr)
                return EXIT_USAGE
            injector = faultinject.install(
                FaultInjector(specs, seed=args.inject_seed))
        resilience = None
        if (args.checkpoint_every is not None
                or args.deadline is not None
                or args.rss_budget is not None):
            from ..resilience import ResilienceConfig
            resilience = ResilienceConfig(
                deadline=args.deadline,
                checkpoint_every=args.checkpoint_every,
                rss_budget_mb=args.rss_budget)
        try:
            worker = ServiceWorker(config.make_queue(),
                                   config.make_backend(),
                                   resilience=resilience)
            processed = worker.drain(max_jobs=args.max_jobs,
                                     idle_exit=args.idle_exit)
            summary_path = worker.write_summary()
        finally:
            if injector is not None:
                faultinject.uninstall()
        from ..obs.record import render_counters
        print(f"worker {worker.worker_id}: {processed} job(s) — "
              + render_counters(worker.counters,
                                always=("executed", "deduped", "failures")))
        if injector is not None and injector.fired:
            fired = "  ".join(f"{site}={count}" for site, count
                              in sorted(injector.fired.items()))
            print(f"faults injected: {fired}")
        print(f"summary written to {summary_path}")
        return EXIT_OK

    if args.action == "top":
        from ..obs import collect_fleet, render_fleet

        def _render_once() -> None:
            doc = collect_fleet(config=config)
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                print(render_fleet(doc))

        if args.watch:
            try:
                while True:
                    # ANSI clear + home, like watch(1)/top(1).
                    print("\x1b[2J\x1b[H", end="")
                    _render_once()
                    time.sleep(args.watch)
            except KeyboardInterrupt:
                return EXIT_OK
        _render_once()
        return EXIT_OK

    # gc
    queue = config.make_queue()
    backend = config.make_backend()
    reaped = queue.gc(max_age=args.max_age)
    evicted = backend.evict(max_bytes=args.max_bytes,
                            max_age=args.max_age)
    print(f"queue: reaped {reaped} record(s); cache: evicted {evicted} "
          f"entr{'y' if evicted == 1 else 'ies'}")
    counts = queue.counts()
    line = (f"queue now: {counts['pending']} pending, {counts['leased']} "
            f"leased, {counts['done']} done, {counts['failed']} failed")
    if counts.get("poisoned"):
        line += f", {counts['poisoned']} POISONED"
    print(line)
    return EXIT_OK


def _runs_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ssp-postpass runs",
        description="List resumable run checkpoints (written by "
                    "--checkpoint-every, consumed by --resume).")
    parser.parse_args(argv)
    from ..resilience import CheckpointStore
    entries = CheckpointStore().list_runs()
    if not entries:
        print("no resumable checkpoints")
        return 0
    now = time.time()
    for entry in entries:
        if entry["valid"]:
            age = now - entry["created"]
            print(f"  {entry['key'][:16]}  {entry['label']:<32} "
                  f"cycle {entry['cycle']:>12,}  ({age:.0f}s ago)")
        else:
            print(f"  {entry['key'][:16]}  <unreadable: {entry['error']}>")
    print(f"{len(entries)} checkpoint(s); resume with "
          f"'ssp-postpass WORKLOAD --checkpoint-every N --resume'")
    return 0


def _report_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ssp-postpass report",
        description="Render the observability report for one workload: "
                    "pass spans, Table 2 slice rows, per-delinquent-load "
                    "prefetch coverage/accuracy/timeliness.")
    parser.add_argument("workload", nargs="?",
                        help="benchmark to profile, adapt and simulate")
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "default"))
    parser.add_argument("--model", default="inorder",
                        choices=("inorder", "ooo"))
    parser.add_argument("--from", dest="from_file", metavar="FILE",
                        help="render a saved run-record document "
                             "(--metrics-json, --telemetry-json or "
                             "'service top --json') instead of running "
                             "anything")
    parser.add_argument("--fleet", action="store_true",
                        help="also aggregate and render the service "
                             "root's fleet telemetry (workers, queue, "
                             "backend)")
    args = parser.parse_args(argv)

    from ..obs import Tracer, render_report
    if args.from_file:
        with open(args.from_file, "r", encoding="utf-8") as fh:
            metrics = json.load(fh)
        print(render_report(metrics))
        return 0
    if not args.workload:
        parser.print_usage()
        return 2

    from ..runner import Runner, RunSpec
    tracer = Tracer()
    spec = RunSpec.create(args.workload, scale=args.scale,
                          model=args.model, variant="ssp")
    artifacts = _observed_artifacts(spec, tracer)
    runner = Runner()
    run = None
    if artifacts.tool_result.adapted is not None:
        run = _simulate(artifacts, spec, runner, tracer, None,
                        observing=True)
    stats, base, _, resilience_meta = run or (None, None, None, None)
    fleet = None
    if args.fleet:
        from ..obs import collect_fleet
        fleet = collect_fleet()
    print(render_report(_run_record(artifacts, spec, tracer, runner, stats,
                                    base, resilience_meta, fleet=fleet)))
    return 0


def _check_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="ssp-postpass check",
        description="Correctness checks over the adaptation pipeline: "
                    "lint every workload's adapted binary (control-flow "
                    "integrity, register discipline, trigger legality), "
                    "run the cross-model differential oracle "
                    "(interpreter / in-order / OOO), and optionally fuzz "
                    "the whole pipeline with seeded random programs.")
    parser.add_argument("workloads", nargs="*",
                        help="workloads to check (default: the seven "
                             "paper benchmarks)")
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "default"))
    parser.add_argument("--budgets", action="store_true",
                        help="also run the oracle's timing models with "
                             "aggressive runaway-slice containment "
                             "budgets enabled")
    parser.add_argument("--fuzz", type=int, default=0, metavar="N",
                        help="additionally fuzz N seeded random programs "
                             "through the complete pipeline")
    parser.add_argument("--fuzz-seed", type=int, default=20020617,
                        metavar="SEED",
                        help="base seed for --fuzz (case i uses SEED+i)")
    args = parser.parse_args(argv)

    from ..check import lint_program, run_fuzz, run_oracle
    from ..runner.worker import WorkloadArtifacts
    from ..workloads import PAPER_ORDER

    names = args.workloads or list(PAPER_ORDER)
    failures = 0
    for name in names:
        artifacts = WorkloadArtifacts(name, args.scale)
        result = artifacts.tool_result
        if result.adapted is None:
            print(f"{name:<12} {args.scale:<8} DEGRADED  "
                  f"[guard] {result.guard.summary()}")
            failures += 1
            continue
        violations = lint_program(artifacts.program,
                                  result.adapted.program)
        oracle = run_oracle(name, args.scale, budgets=args.budgets,
                            artifacts=artifacts)
        status = "ok" if not violations and oracle.ok else "FAIL"
        print(f"{name:<12} {args.scale:<8} {status}  "
              f"lint: {len(violations)} violation(s), "
              f"oracle: {len(oracle.checks)} check(s), "
              f"{len(oracle.failures)} failure(s)")
        for violation in violations:
            print(f"  {violation}")
        for failure in oracle.failures:
            print(f"  {failure}")
        if violations or not oracle.ok:
            failures += 1
    if args.fuzz:
        report = run_fuzz(args.fuzz, base_seed=args.fuzz_seed)
        print(report.summary())
        if not report.ok:
            failures += 1
    print(f"check: {'ok' if not failures else 'FAILED'} "
          f"({len(names)} workload(s)"
          + (f", {args.fuzz} fuzz case(s)" if args.fuzz else "") + ")")
    return EXIT_OK if not failures else EXIT_FAILURE


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:  # pragma: no cover - console entry point
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        return _cache_command(argv[1:])
    if argv and argv[0] == "report":
        return _report_command(argv[1:])
    if argv and argv[0] == "check":
        return _check_command(argv[1:])
    if argv and argv[0] == "runs":
        return _runs_command(argv[1:])
    if argv and argv[0] == "service":
        return _service_command(argv[1:])

    parser = argparse.ArgumentParser(
        prog="ssp-postpass",
        description="Post-pass binary adaptation for software-based "
                    "speculative precomputation (PLDI 2002 reproduction).")
    parser.add_argument("workload", nargs="?",
                        help="benchmark to adapt (see --list), or the "
                             "'cache' subcommand (stats/clear)")
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "default"))
    parser.add_argument("--model", default="inorder",
                        choices=("inorder", "ooo"))
    parser.add_argument("--list", action="store_true",
                        help="list available workloads")
    parser.add_argument("--disassemble", action="store_true",
                        help="print the adapted binary")
    parser.add_argument("--experiments", nargs="+", metavar="EXP",
                        help="run named experiments (table1, figure2, "
                             "table2, figure8, figure9, figure10, "
                             "hand_vs_auto)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="simulate batches on N worker processes "
                             "(default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache (neither "
                             "read nor written)")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a JSONL event log to FILE and a "
                             "Chrome trace (Perfetto-loadable) next to it "
                             "as FILE-stem.chrome.json")
    parser.add_argument("--metrics-json", metavar="FILE",
                        help="write the structured metrics document "
                             "(pass spans, Table 2 rows, prefetch "
                             "coverage/accuracy/timeliness) to FILE")
    parser.add_argument("--gantt", metavar="FILE",
                        help="write the ASCII context-occupancy chart to "
                             "FILE (inorder model only)")
    parser.add_argument("--profile", metavar="FILE",
                        help="attach the cycle-attribution profiler to "
                             "the simulation (runs it in-process) and "
                             "write the phase/stall/tick document to "
                             "FILE; with --trace its counter tracks ride "
                             "along in the Perfetto trace")
    parser.add_argument("--profile-interval", type=int, default=None,
                        metavar="CYCLES",
                        help="profiler sampling interval in simulated "
                             "cycles (default: 4096)")
    parser.add_argument("--telemetry-json", metavar="FILE",
                        help="write the runner's machine-readable "
                             "cache/wall-time summary to FILE")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECS",
                        help="per-run wall-clock budget; blowing it "
                             "descends the degradation ladder instead of "
                             "failing (runs on watched, forked workers)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="CYCLES",
                        help="write a crash-safe simulator checkpoint "
                             "every CYCLES simulated cycles (runs on "
                             "watched, forked workers; see 'ssp-postpass "
                             "runs')")
    parser.add_argument("--resume", action="store_true",
                        help="resume killed runs from their last good "
                             "checkpoint instead of starting fresh")
    parser.add_argument("--inject", action="append", default=None,
                        metavar="SITE[:PROB[:TIMES]]",
                        help="arm the fault-injection harness at SITE "
                             "(repeatable; '--inject list' prints the "
                             "site registry)")
    parser.add_argument("--inject-seed", type=int, default=0, metavar="N",
                        help="seed for the deterministic fault injector "
                             "(default: 0)")
    args = parser.parse_args(argv)

    if args.list:
        from ..workloads import PAPER_ORDER, workload_names
        for name in workload_names():
            marker = "*" if name in PAPER_ORDER else " "
            print(f" {marker} {name}")
        return EXIT_OK
    injector = None
    if args.inject:
        if "list" in args.inject:
            for line in describe_sites():
                print(line)
            return EXIT_OK
        try:
            specs = [FaultSpec.parse(text) for text in args.inject]
        except ValueError as exc:
            print(f"--inject: {exc}", file=sys.stderr)
            return EXIT_USAGE
        injector = faultinject.install(
            FaultInjector(specs, seed=args.inject_seed))
    try:
        runner = _make_runner(args)
        if args.experiments:
            code = _run_experiments(args.experiments, args.scale, runner)
        elif not args.workload:
            parser.print_usage()
            return EXIT_USAGE
        else:
            code = _adapt_and_report(args.workload, args.scale, args.model,
                                     args.disassemble, runner,
                                     trace=args.trace,
                                     metrics_json=args.metrics_json,
                                     gantt=args.gantt,
                                     profile_out=args.profile,
                                     profile_interval=args.profile_interval)
        if args.telemetry_json:
            with open(args.telemetry_json, "w", encoding="utf-8") as fh:
                json.dump(runner.telemetry.to_dict(), fh, indent=2,
                          sort_keys=True)
            print(f"[runner] telemetry written to {args.telemetry_json}")
        return code
    finally:
        # An installed injector is process-global; never leak it past the
        # invocation that armed it (tests call main() in-process).
        if injector is not None:
            faultinject.uninstall()


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piping into `head` closes stdout early; exit quietly.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
