"""Wall-clock benchmark of the whole vSensor tool chain.

Usage (from the repository root)::

    python3 wallbench/run.py --workload detect-128 --seed 1 --seconds 30 --trace 0

Each run sets up, then runs operations of one workload back to back for
``--seconds`` (a closed loop with one client), checks every operation's
output and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is a separate run that pairs every
operation with a traced copy of it, checks that the copy's output is bit
for bit the same, and reports the per-layer ledger.  The seed generates
the inputs; the program only ever sees the generated inputs.

Workloads
---------
detect-128
    One ``run_vsensor`` per operation at 128 ranks (16 nodes x 8),
    ``engine="auto"`` (lockstep), warm artifact cache, a ``LiveReporter``
    attached; operations cycle CG, FT and LULESH, each under two seeded
    ``CpuContention`` episodes sized from its uninstrumented makespan; the
    LULESH leg runs governed (probe cost 25, ``sample_period=4``,
    ``InstructionBands``).  Why: the paper's single-job study.  The
    interpreter, the per-record runtime and a server doing interleaved
    ingest and live queries do nearly all the work; cache hits leave the
    pipeline idle and ``parallel``/``service`` do nothing.
static-kloc
    One ``compile_and_instrument`` per operation on the default store, of a
    freshly generated 1.5 kLoC program (``progen.py``).  Why: the pipeline
    passes do all the work, the simulator and runtime none, and every
    cache lookup misses and inserts where detect-128 only hits.
fleet-32
    One ``run_multi_job`` per operation: 8 tenants at 32 ranks (CG, FT,
    LULESH, LU, BT, SP, RAXML, AMG), ``workers`` = CPUs, 4 shards, 2 ms
    batches, each tenant over its own seeded lossy channel
    (drop=0.1, dup=0.05) and half of them faulted; then each tenant's
    record is appended to a run store under a per-program key and that
    key's last 10 runs are hunted.  Why: the only workload where
    ``parallel``, ``transport``, ``service`` and ``history`` do real work;
    its server is ingest-heavy with one query per tenant at the end.

End-to-end metrics (``--trace 0``)
----------------------------------
Times here are wall times rescaled by the host v-sensor (``host.py``):
each operation's wall time is multiplied by ``REFERENCE_S`` over the mean
of the two quanta of fixed pure-Python work taken just before and after
it.  A shared 2-CPU cloud host switched between states about 1.8x apart
in speed within seconds, and raw medians of runs minutes apart differed
by up to a quarter; rescaled, they agreed far closer.  The quantum runs no repository code,
so a change to the tool moves the rescaled times as it moves the raw
ones.  The raw wall times are printed next to the result.

======================  ======  ======  ========================================
name                    unit    better  meaning
======================  ======  ======  ========================================
latency_p50_s           s       lower   median time of one operation
latency_tail_s          s       lower   time of the operation with exactly 10
                                        slower ones (the highest percentile with
                                        >= 10 samples beyond it); the median
                                        when fewer than 11 operations ran
kloc_throughput         kLoC/s  higher  non-blank source kLoC through the static
                                        module per operation second
setup_s                 s       lower   imports + median of 3 input preparations
                                        + baselines + one warm-up operation
peak_rss_bytes          bytes   lower   peak resident memory of the process
detect_f_score          score   higher  mean F-score against the ground truth:
                                        injected faults (COMPUTATION regions)
                                        on detect-128 and fleet-32, the
                                        generator's sensor set on static-kloc
======================  ======  ======  ========================================

The sample count, the tail's percentile, the raw wall times, the host
v-sensor summary and the provenance (CPUs, Python, NumPy, git sha) are
printed before the result.

Per-layer metrics (``--trace 1``), per traced operation
-------------------------------------------------------
Seconds are raw wall time, and self time: a layer's timed calls minus
the calls nested in them.  ``ledger.unattributed_seconds`` is the traced wall time no layer
covers, so the ``*_seconds`` layers of the ledger (marked L) plus it add
up to ``ledger.wall_seconds``.  Each line names the end-to-end metric and
workload the layer should move; a workload it does not name should not
move.

* pipeline: ``pipeline.compile_seconds`` (L, timed around the call),
  ``pipeline.{parse,lower,cfa,dataflow,identify,select,instrument}_seconds``
  (the program's own ``StaticResult.profile``; on fleet-32 summed over
  tenants, inside the workers), ``pipeline.cache_hit_ratio`` (1.0 on
  detect-128, 0 on static-kloc) -> latency_p50_s and kloc_throughput on
  static-kloc, nothing on detect-128.
* sim: ``sim.run_self_seconds`` (L, ``Simulator.run`` minus hook calls:
  dispatch, clocks, noise, MPI matching), ``sim.build_seconds`` (its
  build span, a part of the former), ``sim.records``, ``sim.mpi_matches``
  -> latency_p50_s and records_throughput on detect-128, little on
  static-kloc.
* runtime: ``runtime.record_self_seconds`` (L, ``on_sensor_record`` minus
  nested server calls), ``runtime.other_self_seconds`` (L, other hooks,
  construction, report assembly), ``runtime.record_us``,
  ``runtime.summaries``, ``runtime.batches`` -> latency_p50_s on
  detect-128 (FT leg most), nothing on static-kloc.
* governor: ``governor.kept_ratio`` (kept / executions),
  ``governor.decisions`` -> probe_overhead and detect_f_score on
  detect-128's LULESH leg.
* server: ``server.ingest_seconds`` (L), ``server.query_seconds`` (L,
  live snapshots plus the final report), ``server.summaries`` ->
  latency_p50_s on detect-128 (interleaved) and fleet-32 (ingest-heavy).
* transport: ``transport.retry_ratio``, ``transport.duplicate_ratio``,
  ``transport.delivered_ratio`` (of batches sent) -> latency_p50_s on
  fleet-32.
* service: ``service.ingest_seconds`` (L, the ``service.ingest`` span:
  front, transport pumps and shard apply), ``service.shard_apply_seconds``
  (part of it), ``service.merge_seconds`` (L), ``service.rejected`` ->
  latency_p50_s on fleet-32, more as batches get smaller.
* parallel: ``parallel.phase1_seconds`` (L, waits for the slowest
  worker), ``parallel.dispatch_seconds``, ``parallel.worker_restarts`` ->
  latency_p50_s and setup_s on fleet-32.
* history: ``history.append_seconds`` (L), ``history.scan_seconds`` (L),
  ``history.findings`` -> latency_p50_s on fleet-32 (a small share).
* obs: ``obs.tracing_overhead`` (median traced / median untraced
  operation wall time).
* host: ``host.quantum_seconds`` (median host v-sensor quantum),
  ``host.flagged_ops`` (operations next to a quantum below 0.7 of the
  fastest; kept in every statistic).
* figures of the whole operation that are not defined on every workload,
  or are 0 when all is well, so they cannot carry an end-to-end bound:
  ``records_throughput`` (records/s; detect-128, fleet-32),
  ``probe_overhead`` (virtual instrumented vs uninstrumented makespan
  under the same faults, the paper's Table 1 quantity; detect-128) and
  ``fail_ratio`` (operations that raised or failed their check /
  attempted).

Names carry the orientation tokens ``repro history scan --bench-dogfood``
recognises, so saved result lines can be hunted for regressions as they
are.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def latency_tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the sample with exactly 10 slower samples.

    With 10 samples or fewer no percentile has 10 beyond it; the median
    stands in, because the extreme of so few samples moves too much from
    run to run to compare two commits by.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def measure(wl, seconds: float, trace: bool, host) -> list[dict]:
    """Operations back to back until ``seconds`` have passed (finishing
    the current cycle); one host quantum before each and one after all."""
    from host import rescale
    from ledger import LAYERS, Ledger

    ops: list[dict] = []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        host.sample()
        op: dict = {"failures": []}
        try:
            inp = wl.inputs(i)
            t0 = perf_counter()
            out = wl.run(inp)
            op["seconds"] = perf_counter() - t0
            outcome = wl.check(inp, out)
            op["outcome"] = outcome
            op["failures"] += outcome.failures
            if trace:
                ledger = Ledger()
                t0 = perf_counter()
                traced = wl.traced(inp, ledger)
                wall = perf_counter() - t0
                copy = wl.check(inp, traced)
                op["failures"] += [f"traced: {f}" for f in copy.failures]
                if copy.digest != outcome.digest:
                    op["failures"].append("traced output differs from the untraced one")
                unattributed = wall - ledger.attributed()
                if unattributed < 0:
                    op["failures"].append(
                        f"layers exceed traced wall time by {-unattributed:.6f}s"
                    )
                layers = {f"{layer}_seconds": ledger.seconds[layer] for layer in LAYERS}
                layers.update(copy.layers)
                layers.update(ledger.layers)
                layers["ledger.wall_seconds"] = wall
                layers["ledger.unattributed_seconds"] = unattributed
                op["layers"] = layers
        except Exception:
            traceback.print_exc(file=sys.stderr)
            op["failures"].append("raised")
        ops.append(op)
        if "seconds" in op:
            line = f"op {i}: {op['seconds']:.4f}s"
            if "layers" in op:
                line += f" traced {op['layers']['ledger.wall_seconds']:.4f}s"
            print(line)
        for failure in op["failures"]:
            print(f"op {i}: FAILED {failure}")
        i += 1
        if perf_counter() >= deadline and i % wl.cycle == 0:
            break
    host.sample()
    for i, op in enumerate(ops):
        if "seconds" in op:
            op["rescaled"] = rescale(op["seconds"], host.seconds[i], host.seconds[i + 1])
    return ops


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(ops, setup_s: float, setup_raw: float) -> dict[str, float]:
    done = [op for op in ops if "outcome" in op]
    times = [op["rescaled"] for op in done]
    tail, pct = latency_tail(times)
    wall = sum(times)
    raw = [op["seconds"] for op in done]
    print(f"samples: {len(times)} operations; tail = p{pct:.0f} of {len(times)}")
    print(
        f"wall time before rescaling: p50 {statistics.median(raw):.4f}s, "
        f"tail {latency_tail(raw)[0]:.4f}s, set-up {setup_raw:.4f}s"
    )
    return {
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": tail,
        "kloc_throughput": sum(op["outcome"].kloc for op in done) / wall,
        "setup_s": setup_s,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "detect_f_score": mean(op["outcome"].f_score for op in done),
    }


def whole_op_figures(ops) -> dict[str, float]:
    done = [op for op in ops if "outcome" in op]
    overheads = [op["outcome"].probe_overhead for op in done]
    return {
        "records_throughput": sum(op["outcome"].records for op in done)
        / sum(op["seconds"] for op in done),
        "probe_overhead": mean(o for o in overheads if o is not None),
        "fail_ratio": sum(1 for op in ops if op["failures"]) / len(ops),
    }


def per_layer(ops, host, names) -> dict[str, float]:
    traced = [op for op in ops if "layers" in op]
    undeclared = {key for op in traced for key in op["layers"]} - set(names)
    if undeclared:
        raise SystemExit(f"layer figures {sorted(undeclared)} missing from BENCHMARK.json")
    # a figure averages over the operations that report it (a governor
    # figure over the governed leg only); 0 when none does
    out = {
        name: mean(op["layers"][name] for op in traced if name in op["layers"])
        for name in names
    }
    records = out.get("sim.records", 0.0)
    out["runtime.record_us"] = (
        out["runtime.record_self_seconds"] / records * 1e6 if records else 0.0
    )
    out["obs.tracing_overhead"] = statistics.median(
        op["layers"]["ledger.wall_seconds"] for op in traced
    ) / statistics.median(op["seconds"] for op in traced)
    out["host.quantum_seconds"] = statistics.median(host.seconds)
    out["host.flagged_ops"] = len(host.flagged(len(ops)))
    out.update(whole_op_figures(ops))
    return out


def print_ledger(values: dict[str, float]) -> None:
    from ledger import LAYERS

    wall = values["ledger.wall_seconds"]
    print(f"ledger (mean per traced operation, wall {wall:.4f}s):")
    for layer in LAYERS:
        seconds = values[f"{layer}_seconds"]
        if seconds:
            print(f"  {layer:<22s} {seconds:9.4f}s {100 * seconds / wall:6.1f}%")
    rest = values["ledger.unattributed_seconds"]
    print(f"  {'unattributed':<22s} {rest:9.4f}s {100 * rest / wall:6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_imports = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from host import HostSensor, provenance, rescale
    from workloads import WORKLOADS, make

    import_s = perf_counter() - t_imports
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    declared = declared_metrics()

    scratch_root = ROOT / ".wallbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        host = HostSensor()
        setup_quantum = host.quantum()
        wl = make(args.workload, args.seed, scratch)
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.prepare()
            prepare_s.append(perf_counter() - t0)
        t0 = perf_counter()
        wl.baselines()
        warm_input = wl.inputs(-1)
        warm = wl.run(warm_input)
        warm_failures = wl.check(warm_input, warm).failures
        wl.after_warm_up(warm)
        setup_raw = import_s + statistics.median(prepare_s) + perf_counter() - t0
        for failure in warm_failures:
            print(f"warm-up: FAILED {failure}")

        ops = measure(wl, args.seconds, bool(args.trace), host)
        setup_s = rescale(setup_raw, setup_quantum, host.seconds[0])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("provenance: " + json.dumps(provenance(ROOT), sort_keys=True))
    print("host v-sensor: " + json.dumps(host.summary(len(ops)), sort_keys=True))
    if args.trace:
        values = per_layer(ops, host, declared["per_layer"])
        print_ledger(values)
        units = declared["per_layer"]
    else:
        values = end_to_end(ops, setup_s, setup_raw)
        units = declared["end_to_end"]
    if set(values) != set(units):
        raise SystemExit(
            f"measured metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json"
        )
    for name in sorted(units):
        print(f"{name:<32s} {values[name]:>16.6g} {units[name]}")
    failed = sum(1 for op in ops if op["failures"])
    print(
        json.dumps(
            {
                "correct": failed == 0 and not warm_failures,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
