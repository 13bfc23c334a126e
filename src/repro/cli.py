"""Command-line driver: the tool chain as a usable tool.

Subcommands mirror the workflow steps::

    python -m repro identify  prog.vsn            # steps 1-2: list v-sensors
    python -m repro instrument prog.vsn           # steps 3-5: emit modified source
    python -m repro run prog.vsn --ranks 32 ...   # steps 6-8: simulate + report
    python -m repro workloads                     # list the bundled analogues
    python -m repro history append|show|scan ...  # cross-run regression hunting

``run`` accepts fault injections in a compact syntax::

    --fault slowmem:NODE[:FACTOR]
    --fault badnode:NODE[:FACTOR]
    --fault contention:NODE[,NODE...]:T0_MS:T1_MS[:FACTOR]
    --fault netdeg:T0_MS:T1_MS[:FACTOR]

and either a source file or ``--workload NAME`` for a bundled analogue.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.api import compile_and_instrument, run_vsensor
from repro.errors import ReproError
from repro.sensors.model import SensorType
from repro.sim import (
    ENGINES,
    BadNode,
    CpuContention,
    Fault,
    IoDegradation,
    MachineConfig,
    NetworkDegradation,
    SlowMemoryNode,
)
from repro.viz import ascii_heatmap, matrix_to_csv, write_pgm


def _load_source(args) -> str:
    if getattr(args, "workload", None):
        from repro.workloads import get_workload

        return get_workload(args.workload).source(scale=getattr(args, "scale", 1) or 1)
    if not args.program:
        raise ReproError("give a program file or --workload NAME")
    with open(args.program, encoding="utf-8") as fh:
        return fh.read()


def parse_fault(spec: str) -> Fault:
    """Parse one ``--fault`` specification (times in milliseconds)."""
    parts = spec.split(":")
    kind = parts[0].lower()
    try:
        if kind == "slowmem":
            node = int(parts[1])
            factor = float(parts[2]) if len(parts) > 2 else 0.55
            return SlowMemoryNode(node_id=node, mem_factor=factor)
        if kind == "badnode":
            node = int(parts[1])
            factor = float(parts[2]) if len(parts) > 2 else 0.6
            return BadNode(node_id=node, cpu_factor=factor, mem_factor=factor)
        if kind == "contention":
            nodes = tuple(int(n) for n in parts[1].split(","))
            t0, t1 = float(parts[2]) * 1000.0, float(parts[3]) * 1000.0
            factor = float(parts[4]) if len(parts) > 4 else 0.5
            return CpuContention(node_ids=nodes, t0=t0, t1=t1, cpu_factor=factor)
        if kind == "netdeg":
            t0, t1 = float(parts[1]) * 1000.0, float(parts[2]) * 1000.0
            factor = float(parts[3]) if len(parts) > 3 else 0.3
            return NetworkDegradation(t0=t0, t1=t1, factor=factor)
        if kind == "iodeg":
            t0, t1 = float(parts[1]) * 1000.0, float(parts[2]) * 1000.0
            factor = float(parts[3]) if len(parts) > 3 else 0.3
            return IoDegradation(t0=t0, t1=t1, factor=factor)
    except (IndexError, ValueError) as exc:
        raise ReproError(f"bad fault spec {spec!r}: {exc}") from exc
    raise ReproError(
        f"unknown fault kind {kind!r} (slowmem|badnode|contention|netdeg|iodeg)"
    )


def _compile_kwargs(args) -> dict:
    """Keyword arguments shared by every compiling subcommand."""
    kwargs = {"max_depth": args.max_depth}
    if getattr(args, "no_cache", False):
        kwargs["store"] = None
    return kwargs


def _print_pass_profile(static) -> None:
    print("\nper-pass profile:")
    print(static.profile.format_table())


def _print_fusability(module) -> None:
    """Lockstep-tier fusability tally of the compiled instrumented program."""
    from repro.sensors.extern import default_extern_registry
    from repro.sim.bytecode import compile_module, fusability_summary

    counts = fusability_summary(compile_module(module, default_extern_registry()))
    fusable = sum(counts.get(k, 0) for k in ("vector", "branch", "call"))
    convergence = sum(counts.get(k, 0) for k in ("rendezvous", "observe"))
    forced = counts.get("diverge", 0)
    detail = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print("\nlockstep fusability (bytecode instructions):")
    print(
        f"   fusable={fusable} convergence-points={convergence}"
        f" forced-divergence={forced}  ({detail})"
    )


def cmd_identify(args) -> int:
    source = _load_source(args)
    static = compile_and_instrument(
        source, filename=args.program or args.workload, **_compile_kwargs(args)
    )
    ident = static.identification
    print(f"snippet candidates : {ident.snippet_count}")
    print(f"identified sensors : {ident.sensor_count}")
    print(f"selected           : {static.plan.summary()}")
    for sensor in ident.sensors:
        marker = "*" if sensor.selected else " "
        print(f" {marker} {sensor.describe()}")
    print("(* = selected for instrumentation)")
    if args.explain:
        print("\nrejected snippets (identify):")
        for rejection in ident.rejections:
            snippet = rejection.snippet
            print(f"   {snippet.spelled} @ {rejection.diagnostic.format()}")
        later = static.plan.diagnostics + static.program.diagnostics
        if later:
            print("\ndropped sensors (select/instrument):")
            for diag in later:
                print(f"   {diag.format()}")
        _print_fusability(static.program.module)
    if args.profile_passes:
        _print_pass_profile(static)
    return 0


def cmd_instrument(args) -> int:
    source = _load_source(args)
    static = compile_and_instrument(source, **_compile_kwargs(args))
    out = args.output
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(static.source)
        print(f"instrumented {len(static.plan.selected)} sensor(s) -> {out}")
    else:
        sys.stdout.write(static.source)
    if args.profile_passes:
        _print_pass_profile(static)
    return 0


def cmd_run(args) -> int:
    import time

    source = _load_source(args)
    machine = MachineConfig(
        n_ranks=args.ranks,
        ranks_per_node=args.ranks_per_node,
        seed=args.seed,
    )
    faults = [parse_fault(spec) for spec in args.fault or []]
    obs = None
    if args.trace_out or args.metrics_out or args.obs_summary:
        from repro.obs import Obs

        obs = Obs.create()
    if args.shards:
        return _run_sharded(args, source, faults, obs)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    wall_t0 = time.perf_counter()
    run = run_vsensor(
        source,
        machine,
        faults=faults,
        window_us=args.window_ms * 1000.0,
        engine=args.engine,
        channel=args.channel,
        obs=obs,
        overhead_budget=args.overhead_budget,
        governor_policy=args.governor_policy,
        history_store=args.history_store,
        history_label=args.history_label or "",
        history_workload=args.workload or "",
        **_compile_kwargs(args),
    )
    wall_s = time.perf_counter() - wall_t0
    if profiler is not None:
        import io
        import pstats
        from pathlib import Path

        profiler.disable()
        out = Path("out")
        out.mkdir(exist_ok=True)
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(40)
        (out / "profile.txt").write_text(buf.getvalue())
        print("profile written to out/profile.txt")
    print(f"instrumented : {run.static.plan.summary()}")
    print(f"total time   : {run.sim.total_time / 1e3:.2f} ms")
    if run.history_entry is not None:
        entry = run.history_entry
        print(
            f"history      : appended run {entry.seq} to "
            f"{entry.fingerprint[:12]} in {args.history_store}"
        )
    if args.profile_passes:
        _print_pass_profile(run.static)
    if obs is not None:
        from repro.obs import flame_summary, write_chrome_trace, write_metrics

        if args.trace_out:
            write_chrome_trace(obs.tracer, args.trace_out)
            print(f"trace written to {args.trace_out} (chrome://tracing / Perfetto)")
        if args.metrics_out:
            write_metrics(obs.metrics, args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
        if args.obs_summary:
            report = obs.overhead_report(wall_s)
            print()
            print(flame_summary(obs.tracer))
            print(
                f"observability self-cost: {report['overhead_fraction']:.3%} of "
                f"{wall_s * 1e3:.1f} ms wall "
                f"({report['spans']} spans, {report['metric_ops']} metric ops)"
            )
    print(run.report.summary())
    governor = run.runtime.governor
    if governor is not None and (args.obs_summary or governor.decisions):
        print()
        print(governor.format_tally())
    for sensor_type in SensorType:
        matrix = run.report.matrices.get(sensor_type)
        if matrix is None:
            continue
        print(f"\n{sensor_type.value} performance matrix (light = slow):")
        print(ascii_heatmap(matrix, max_rows=args.matrix_rows, max_cols=args.matrix_cols))
        suspects = run.report.suspect_ranks(sensor_type, threshold=0.9)
        if suspects:
            print(f"persistently slow ranks: {suspects}")
        if args.export:
            base = f"{args.export}_{sensor_type.value.lower()}"
            write_pgm(matrix, base + ".pgm")
            matrix_to_csv(matrix, base + ".csv", window_us=args.window_ms * 1000.0)
            print(f"exported {base}.pgm / .csv")
    return 0


def _run_sharded(args, source: str, faults, obs) -> int:
    """``run --shards N [--jobs J]``: the multi-tenant sharded service.

    Each job replays the same program as its own tenant on a machine with
    a distinct noise seed — the fleet setting where one shared analysis
    service ingests every tenant's summaries concurrently.
    """
    from repro.api import JobSpec, run_multi_job

    kwargs = _compile_kwargs(args)
    jobs = [
        JobSpec(
            source=source,
            machine=MachineConfig(
                n_ranks=args.ranks,
                ranks_per_node=args.ranks_per_node,
                seed=args.seed + job,
            ),
            job_id=job,
            faults=faults,
            channel=args.channel,
            engine=args.engine,
            max_depth=kwargs["max_depth"],
        )
        for job in range(args.jobs)
    ]
    run = run_multi_job(
        jobs,
        n_shards=args.shards,
        window_us=args.window_ms * 1000.0,
        obs=obs,
        workers=args.workers,
        **({"store": kwargs["store"]} if "store" in kwargs else {}),
    )
    print(f"sharded service : {run.service.describe()}")
    for job_id, job_run in sorted(run.jobs.items()):
        report = job_run.report
        print(
            f"  job {job_id}: ranks={report.n_ranks} "
            f"intra={report.intra_events} inter={report.inter_events} "
            f"data={report.bytes_to_server / 1024:.1f}KiB "
            f"degraded={list(report.degraded_ranks)}"
        )
    if obs is not None:
        from repro.obs import write_chrome_trace, write_metrics

        if args.trace_out:
            write_chrome_trace(obs.tracer, args.trace_out)
            print(f"trace written to {args.trace_out}")
        if args.metrics_out:
            write_metrics(obs.metrics, args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
    first = min(run.jobs)
    print(f"\njob {first} report:")
    print(run.jobs[first].report.summary())
    return 0


def _history_hunter(args):
    from repro.history import EDivisive, RegressionHunter

    detector = EDivisive(
        seed=args.scan_seed,
        permutations=args.permutations,
        significance=args.significance,
        min_segment=args.min_segment,
    )
    return RegressionHunter(detector=detector)


def cmd_history_append(args) -> int:
    """Run one configuration and append its baselines to a store."""
    source = _load_source(args)
    machine = MachineConfig(
        n_ranks=args.ranks, ranks_per_node=args.ranks_per_node, seed=args.seed
    )
    faults = [parse_fault(spec) for spec in args.fault or []]
    run = run_vsensor(
        source,
        machine,
        faults=faults,
        window_us=args.window_ms * 1000.0,
        engine=args.engine,
        history_store=args.store,
        history_label=args.label or "",
        history_workload=args.workload or "",
        **_compile_kwargs(args),
    )
    entry = run.history_entry
    print(
        f"appended run {entry.seq} to {entry.fingerprint} "
        f"({len(entry.sensors)} sensors, "
        f"total {entry.total_time_us / 1e3:.2f} ms, "
        f"intra={entry.intra_events} inter={entry.inter_events})"
    )
    return 0


def cmd_history_show(args) -> int:
    """List a store's trajectories, or one trajectory's runs."""
    from repro.history import RunStore

    store = RunStore(args.store)
    if args.fingerprint:
        runs = store.runs(args.fingerprint)
        if not runs:
            print(f"no runs for fingerprint {args.fingerprint}")
            return 0
        print(f"{args.fingerprint}: {len(runs)} run(s)")
        for record in runs:
            label = f" [{record.label}]" if record.label else ""
            workload = f" {record.workload}" if record.workload else ""
            print(
                f"  {record.seq:4d}{workload}{label} "
                f"total={record.total_time_us / 1e3:.2f}ms "
                f"intra={record.intra_events} inter={record.inter_events} "
                f"sensors={len(record.sensors)}"
            )
        return 0
    keys = store.fingerprints()
    if not keys:
        print(f"empty history store: {args.store}")
        return 0
    print(f"history store {args.store}: {len(keys)} trajectory(ies)")
    for key in keys:
        runs = store.runs(key)
        last = runs[-1]
        tag = last.workload or last.label or "-"
        print(f"  {key[:16]}…  runs={len(runs)}  last={tag}")
    return 0


def cmd_history_scan(args) -> int:
    """Hunt a store (or bench-file trajectory) for change points.

    Exit status: 0 when no regression was found, 3 when at least one
    was — distinct from 2 (usage/config errors) so CI can gate on it.
    """
    hunter = _history_hunter(args)
    if args.bench_dogfood:
        from repro.history import scan_bench_trajectory

        scan = scan_bench_trajectory(args.bench_dogfood, hunter=hunter)
    else:
        from repro.history import RunStore

        if not args.store:
            raise ReproError("give --store DIR or --bench-dogfood FILE...")
        scan = hunter.scan_store(RunStore(args.store), fingerprint=args.fingerprint)
    print(scan.summary())
    if args.explain:
        for diag in scan.diagnostics():
            print("  " + diag.format())
    return 3 if scan.regressions else 0


def cmd_workloads(args) -> int:
    from repro.workloads import all_workloads

    for name, workload in sorted(all_workloads().items()):
        print(f"{name:8s} {workload.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vSensor reproduction: identify, instrument and run programs "
        "with online performance-variance detection on a simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_program_args(p):
        p.add_argument("program", nargs="?", help="mini-language source file")
        p.add_argument("--workload", help="bundled analogue (BT/CG/FT/LU/SP/AMG/LULESH/RAXML/FWQ)")
        p.add_argument("--scale", type=int, default=1, help="workload scale factor")
        p.add_argument("--max-depth", type=int, default=3, help="instrumentation depth cut")
        p.add_argument(
            "--profile-passes",
            action="store_true",
            help="print per-pass wall time and artifact-cache hit/miss table",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the compilation artifact cache for this invocation",
        )

    p_identify = sub.add_parser("identify", help="list identified v-sensors")
    add_program_args(p_identify)
    p_identify.add_argument(
        "--explain", action="store_true", help="also list rejected snippets with reasons"
    )
    p_identify.set_defaults(func=cmd_identify)

    p_instr = sub.add_parser("instrument", help="emit Tick/Tock-instrumented source")
    add_program_args(p_instr)
    p_instr.add_argument("-o", "--output", help="write instrumented source here (default stdout)")
    p_instr.set_defaults(func=cmd_instrument)

    p_run = sub.add_parser("run", help="simulate a run with online detection")
    add_program_args(p_run)
    p_run.add_argument("--ranks", type=int, default=32)
    p_run.add_argument("--ranks-per-node", type=int, default=8)
    p_run.add_argument("--seed", type=int, default=20180224)
    p_run.add_argument("--window-ms", type=float, default=20.0, help="matrix window (ms)")
    p_run.add_argument("--fault", action="append", help="inject a fault (see --help epilog)")
    p_run.add_argument("--export", help="path stem for PGM/CSV matrix export")
    p_run.add_argument("--matrix-rows", type=int, default=32)
    p_run.add_argument("--matrix-cols", type=int, default=70)
    p_run.add_argument(
        "--channel",
        help="simulate an unreliable rank->server channel: "
        "'lossy', 'perfect', or 'drop=0.1,dup=0.05,reorder=0.2,delay=200,seed=7' "
        "(batches then use sequenced retry delivery with idempotent ingest)",
    )
    p_run.add_argument(
        "--overhead-budget",
        type=float,
        default=None,
        help="enable the runtime overhead governor with this probe "
        "self-cost budget (fraction of elapsed time, e.g. 0.02)",
    )
    p_run.add_argument(
        "--governor-policy",
        choices=("adaptive", "paper-shutoff"),
        default=None,
        help="governor policy: 'adaptive' (budget loop with demote/promote "
        "hysteresis) or 'paper-shutoff' (only the paper's §5.3 one-way "
        "shutoff, behavior-identical to no governor)",
    )
    p_run.add_argument(
        "--engine",
        choices=ENGINES,
        default="bytecode",
        help="interpreter tier: compiled register VM (default), the "
        "SIMD-over-ranks lockstep VM, or 'auto' (bytecode below 16 ranks, "
        "lockstep at or above — the measured crossover)",
    )
    p_run.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run through the sharded multi-tenant analysis service with "
        "this many shard workers (0 = classic unsharded run)",
    )
    p_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="number of concurrent tenant jobs for --shards (each replays "
        "the program on a machine with a distinct noise seed)",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="for --shards/--jobs: fan the per-job compile+simulate phase "
        "out to this many OS processes (job i runs on worker i %% N; "
        "results are bit-identical to --workers 1)",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="profile the simulation with cProfile and write out/profile.txt",
    )
    p_run.add_argument(
        "--trace-out",
        help="write a Chrome trace_event JSON of the run's internal spans "
        "(load in chrome://tracing or Perfetto)",
    )
    p_run.add_argument(
        "--metrics-out",
        help="write the run's internal counters/gauges/histograms as JSON",
    )
    p_run.add_argument(
        "--obs-summary",
        action="store_true",
        help="print a flame summary of internal spans and the observability "
        "self-overhead as a fraction of wall time",
    )
    p_run.add_argument(
        "--history-store",
        default=None,
        help="append this run's sensor baselines to the cross-run regression "
        "history store at this directory (see 'repro history')",
    )
    p_run.add_argument(
        "--history-label",
        default=None,
        help="free-form label stored with the appended history record "
        "(e.g. a commit hash or CI run id)",
    )
    p_run.set_defaults(func=cmd_run)

    p_hist = sub.add_parser(
        "history",
        help="cross-run regression history: append runs, show trajectories, "
        "hunt for change points",
    )
    hist_sub = p_hist.add_subparsers(dest="history_command", required=True)

    p_happend = hist_sub.add_parser(
        "append", help="run one configuration and append its baselines"
    )
    add_program_args(p_happend)
    p_happend.add_argument("--store", required=True, help="history store directory")
    p_happend.add_argument("--label", default=None, help="label for this record")
    p_happend.add_argument("--ranks", type=int, default=32)
    p_happend.add_argument("--ranks-per-node", type=int, default=8)
    p_happend.add_argument("--seed", type=int, default=20180224)
    p_happend.add_argument("--window-ms", type=float, default=20.0)
    p_happend.add_argument("--fault", action="append", help="inject a fault")
    p_happend.add_argument("--engine", choices=ENGINES, default="bytecode")
    p_happend.set_defaults(func=cmd_history_append)

    p_hshow = hist_sub.add_parser(
        "show", help="list trajectories, or one trajectory's runs"
    )
    p_hshow.add_argument("--store", required=True, help="history store directory")
    p_hshow.add_argument(
        "--fingerprint", default=None, help="show this trajectory's runs"
    )
    p_hshow.set_defaults(func=cmd_history_show)

    p_hscan = hist_sub.add_parser(
        "scan",
        help="hunt trajectories for change points (exit 3 when a "
        "regression is found)",
    )
    p_hscan.add_argument("--store", default=None, help="history store directory")
    p_hscan.add_argument(
        "--fingerprint", default=None, help="scan only this trajectory"
    )
    p_hscan.add_argument(
        "--bench-dogfood",
        nargs="+",
        metavar="BENCH_JSON",
        help="instead of a store, hunt ordered snapshots of the repo's own "
        "BENCH_*.json payloads (grouped by basename)",
    )
    p_hscan.add_argument(
        "--scan-seed",
        type=int,
        default=20180224,
        help="seed for the e-divisive permutation tests (results are "
        "bit-identical for a fixed seed)",
    )
    p_hscan.add_argument(
        "--permutations",
        type=int,
        default=199,
        help="permutations per significance test",
    )
    p_hscan.add_argument(
        "--significance",
        type=float,
        default=0.05,
        help="p-value at or below which a change point is accepted",
    )
    p_hscan.add_argument(
        "--min-segment",
        type=int,
        default=5,
        help="minimum runs on each side of any change point",
    )
    p_hscan.add_argument(
        "--explain",
        action="store_true",
        help="also print findings as structured diagnostics",
    )
    p_hscan.set_defaults(func=cmd_history_scan)

    p_wl = sub.add_parser("workloads", help="list bundled workload analogues")
    p_wl.set_defaults(func=cmd_workloads)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
