"""The three benchmark workloads: inputs, one operation, its check.

Each workload is a closed loop with one client: the next operation starts
when the previous one returned.  A workload object is built from the
benchmark seed and goes through these steps:

* :meth:`prepare` — generate the inputs and compile them into a fresh
  artifact store (repeated, for a steady set-up figure);
* :meth:`baselines` — the uninstrumented runs that size fault windows;
* :meth:`inputs` ``(i)`` — the input of operation ``i`` (untimed);
  operation ``-1`` is the untimed warm-up, whose result
  :meth:`after_warm_up` may use;
* :meth:`run` — the operation, through the public API (timed);
* :meth:`traced` — the same operation composed from timed layers;
* :meth:`check` — the correctness check, plus the operation's figures.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field

from repro.api import (
    JobSpec,
    compile_and_instrument,
    run_multi_job,
    run_uninstrumented,
    run_vsensor,
)
from repro.history import RegressionHunter, RunStore, record_from_run, run_fingerprint
from repro.obs import Obs
from repro.parallel.pool import default_workers
from repro.pipeline import ArtifactStore, default_store
from repro.runtime.channel import ChannelConfig
from repro.runtime.dynrules import InstructionBands
from repro.runtime.governor import GovernorConfig
from repro.runtime.live import LiveReporter
from repro.runtime.quality import score_detection
from repro.sensors.model import SensorType
from repro.sim import CpuContention, MachineConfig
from repro.workloads import get_workload

from ledger import Ledger, report_digest, span_self_seconds, span_total_seconds, traced_vsensor
from progen import generate

PASSES = ("parse", "lower", "cfa", "dataflow", "identify", "select", "instrument")


def kloc(source: str) -> float:
    return sum(1 for line in source.splitlines() if line.strip()) / 1000.0


def contention(span: float, nodes, rng: random.Random) -> tuple[CpuContention, ...]:
    """Two CpuContention episodes on two distinct existing nodes, at the
    windows bench_governor.py uses, scaled to the job's makespan."""
    a, b = rng.sample(range(nodes), 2)
    return (
        CpuContention(node_ids=(a,), t0=0.25 * span, t1=0.45 * span, cpu_factor=0.35),
        CpuContention(node_ids=(b,), t0=0.60 * span, t1=0.80 * span, cpu_factor=0.35),
    )


#: least F-score an operation may reach.  It admits one false region next
#: to a job's two faults (the governed LULESH leg shows one at some
#: seeds), or one miss or false region among a fleet's eight; a detector
#: that misses a fault of a single job, finds nothing or flags everything
#: fails
F_FLOOR = 0.8


def f_score(jobs) -> float:
    """F-score of COMPUTATION regions against the injected faults, pooled
    over ``(report, faults, machine)`` triples."""
    scores = [
        score_detection(report, faults, machine, sensor_types=(SensorType.COMPUTATION,))
        for report, faults, machine in jobs
    ]
    truths = sum(len(s.truths) for s in scores)
    regions = sum(len(s.detected) for s in scores)
    recall = sum(s.matched_truths for s in scores) / truths if truths else 1.0
    precision = sum(s.matched_regions for s in scores) / regions if regions else 1.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


@dataclass
class Outcome:
    """What :meth:`check` learned about one operation."""

    failures: list[str] = field(default_factory=list)
    #: bit-level identity of the output, for the traced-run comparison
    digest: str = ""
    #: end-to-end figures of the operation
    records: int = 0
    kloc: float = 0.0
    f_score: float = 1.0
    probe_overhead: float | None = None
    #: per-layer figures (counts and ratios; seconds come from the ledger)
    layers: dict[str, float] = field(default_factory=dict)


def _pipeline_layers(profiles) -> dict[str, float]:
    out = {f"pipeline.{name}_seconds": 0.0 for name in PASSES}
    hits = lookups = 0
    for profile in profiles:
        for timing in profile.timings:
            out[f"pipeline.{timing.name}_seconds"] += timing.seconds
        hits += profile.hits
        lookups += profile.hits + profile.misses
    out["pipeline.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return out


def _runtime_layers(runtime, sim, report) -> dict[str, float]:
    return {
        "sim.records": sum(d.records_processed for d in runtime.detectors.values()),
        "sim.mpi_matches": sim.mpi_matches,
        "runtime.summaries": sum(len(d.summaries) for d in runtime.detectors.values()),
        "runtime.batches": report.batches_to_server,
    }


class Workload:
    """Defaults for the steps a workload may leave out."""

    #: operations per balanced round of inputs; a run ends on a boundary
    cycle = 1

    def baselines(self) -> None:
        """Uninstrumented runs the inputs depend on (none by default)."""

    def after_warm_up(self, result) -> None:
        """Use the warm-up operation's result (unused by default)."""


# -- detect-128 ---------------------------------------------------------------


@dataclass(frozen=True)
class Leg:
    workload: str
    scale: int
    #: probe cost of the governed leg (bench_governor.py's LULESH row)
    probe_cost: float | None = None


#: scales chosen so each leg takes about the same wall time (2-CPU x86), which
#: keeps the latency distribution one-humped and its percentiles steady
LEGS = (Leg("CG", 1), Leg("FT", 3), Leg("LULESH", 2, probe_cost=25.0))


@dataclass
class _Scenario:
    leg: Leg
    source: str
    machine: MachineConfig
    faults: tuple
    span: float = 0.0
    faulted_span: float = 0.0
    #: report digest of the first run, for the repeat-identity check
    digest: str | None = None


class Detect128(Workload):
    """One ``run_vsensor`` at 128 ranks per operation, cycling CG, FT and
    a governed LULESH, each under two seeded CpuContention episodes."""

    name = "detect-128"
    cycle = len(LEGS)
    N_RANKS = 128
    PER_NODE = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.store = ArtifactStore()
        self.scenarios = []
        for leg in LEGS:
            extra = {} if leg.probe_cost is None else {"probe_cost": leg.probe_cost}
            machine = MachineConfig(
                n_ranks=self.N_RANKS,
                ranks_per_node=self.PER_NODE,
                seed=rng.randrange(1 << 31),
                **extra,
            )
            source = get_workload(leg.workload).source(scale=leg.scale)
            compile_and_instrument(source, store=self.store)
            self.scenarios.append(_Scenario(leg, source, machine, faults=()))
        self._fault_rng = rng

    def baselines(self) -> None:
        nodes = self.N_RANKS // self.PER_NODE
        for sc in self.scenarios:
            sc.span = run_uninstrumented(sc.source, sc.machine, engine="auto").total_time
            sc.faults = contention(sc.span, nodes, self._fault_rng)
            sc.faulted_span = run_uninstrumented(
                sc.source, sc.machine, faults=sc.faults, engine="auto"
            ).total_time

    def inputs(self, i: int) -> _Scenario:
        return self.scenarios[i % len(self.scenarios)]

    def _kwargs(self, sc: _Scenario) -> dict:
        governed = sc.leg.probe_cost is not None
        return dict(
            faults=sc.faults,
            rule=InstructionBands() if governed else None,
            governor=GovernorConfig(overhead_budget=0.02, sample_period=4)
            if governed
            else None,
            window_us=sc.span / 16,
            batch_period_us=sc.span / 16,
            live=LiveReporter(period_us=sc.span / 8),
            engine="auto",
            store=self.store,
        )

    def run(self, sc: _Scenario):
        return run_vsensor(sc.source, sc.machine, **self._kwargs(sc))

    def traced(self, sc: _Scenario, ledger: Ledger):
        obs = Obs.create()
        run = traced_vsensor(sc.source, sc.machine, ledger, sim_obs=obs, **self._kwargs(sc))
        records = obs.tracer.records()
        # bytecode compilation runs inside the build span
        ledger.layers = {"sim.build_seconds": span_total_seconds(records, "sim.build_interps")}
        return run

    def check(self, sc: _Scenario, run) -> Outcome:
        report = run.report
        out = Outcome(digest=report_digest(report))
        out.records = sum(d.records_processed for d in run.runtime.detectors.values())
        out.kloc = kloc(sc.source)
        out.f_score = f_score([(report, sc.faults, sc.machine)])
        out.probe_overhead = (report.total_time_us - sc.faulted_span) / sc.faulted_span
        if out.f_score < F_FLOOR:
            out.failures.append(f"F-score {out.f_score:.3f} < {F_FLOOR}")
        if report.degraded_ranks:
            out.failures.append(f"degraded ranks {report.degraded_ranks}")
        if not run.runtime.live.snapshots:
            out.failures.append("live reporter took no snapshot")
        if sc.digest is None:
            sc.digest = out.digest
        elif sc.digest != out.digest:
            out.failures.append("report differs from the first run of this input")
        server = run.runtime.server
        out.layers = {
            **_pipeline_layers([run.static.profile]),
            **_runtime_layers(run.runtime, run.sim, report),
            "server.summaries": server.stored_summaries,
        }
        gov = run.runtime.governor
        if gov is not None:
            totals = gov.totals()
            for kind in ("demote", "resample", "promote"):
                if totals[kind] <= 0:
                    out.failures.append(f"governor never made a {kind} decision")
            controls = [
                ctl for rank in gov.table.ranks() for ctl in gov.table.controls(rank).values()
            ]
            out.layers["governor.kept_ratio"] = sum(c.kept for c in controls) / sum(
                c.executions for c in controls
            )
            out.layers["governor.decisions"] = sum(totals.values())
        return out


# -- static-kloc --------------------------------------------------------------


class StaticKloc(Workload):
    """One ``compile_and_instrument`` per operation on the default store,
    each of a freshly generated program, so every cache lookup misses."""

    name = "static-kloc"
    #: one size for every program keeps the latency distribution
    #: one-humped; the generator itself takes any size
    KLOC = 1.5

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        # Warm the pass code on a small program no operation will reuse.
        warm = generate(0.2, seed=-1 - self.seed)
        compile_and_instrument(warm.source, store=ArtifactStore())

    def inputs(self, i: int):
        # Start each operation from an empty default store: it still
        # misses and inserts, but peak memory is one compile's and not a
        # function of how many operations fit in the run.
        default_store().clear()
        gc.collect()
        return generate(self.KLOC, seed=self.seed * 1_000_003 + i)

    def run(self, program):
        return compile_and_instrument(program.source)

    def traced(self, program, ledger: Ledger):
        # A fresh store: the untraced operation already inserted this
        # program into the default one, and the traced compile must miss.
        ledger.enter()
        static = compile_and_instrument(program.source, store=ArtifactStore())
        ledger.exit("pipeline.compile")
        return static

    def check(self, program, static) -> Outcome:
        out = Outcome(kloc=program.kloc)
        identified = static.identification.sensor_count
        selected = {
            sensor.snippet.spelled.removeprefix("call ")
            for sensor in static.plan.selected
            if sensor.function == "main"
        }
        instrumented = len(static.program.sensors)
        expected = set(program.expected_calls)
        if identified != program.expected_identified:
            out.failures.append(
                f"identified {identified} sensors, generator expects "
                f"{program.expected_identified}"
            )
        if instrumented != program.expected_selected:
            out.failures.append(
                f"instrumented {instrumented} sensors, generator expects "
                f"{program.expected_selected}"
            )
        if static.profile.hits:
            out.failures.append(f"{static.profile.hits} cache hits on a fresh program")
        found = selected & expected
        out.f_score = 2 * len(found) / (len(selected) + len(expected))
        out.digest = repr(
            (identified, sorted(selected), static.program.source)
        )
        out.layers = _pipeline_layers([static.profile])
        return out


# -- fleet-32 -----------------------------------------------------------------

TENANTS = ("CG", "FT", "LULESH", "LU", "BT", "SP", "RAXML", "AMG")
#: the faulted half; phase 1 deals tenants round-robin to the workers, and
#: this choice gives each of 2 workers about the same simulated load
FAULTED = ("FT", "LULESH", "LU", "AMG")
#: length of the per-program trajectory each operation hunts
TRAJECTORY = 10


class Fleet32(Workload):
    """One ``run_multi_job`` of 8 tenants at 32 ranks per operation, then
    each tenant's record appended to a run store and its trajectory hunted."""

    name = "fleet-32"
    N_RANKS = 32
    PER_NODE = 8

    def __init__(self, seed: int, history_dir) -> None:
        self.seed = seed
        self.history_dir = history_dir
        self.workers = default_workers()

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.machines = {
            name: MachineConfig(
                n_ranks=self.N_RANKS, ranks_per_node=self.PER_NODE, seed=rng.randrange(1 << 31)
            )
            for name in TENANTS
        }
        self.sources = {name: get_workload(name).source() for name in TENANTS}
        # Phase-1 workers are forked from this process and inherit the
        # default store, so warming it warms their compiles.
        default_store().clear()
        for source in self.sources.values():
            compile_and_instrument(source, store=default_store())
        self.keys = {
            name: run_fingerprint(self.sources[name], self.machines[name], engine="auto")
            for name in TENANTS
        }

    def baselines(self) -> None:
        self.spans = {
            name: run_uninstrumented(
                self.sources[name], self.machines[name], engine="auto"
            ).total_time
            for name in FAULTED
        }
        self.window_us = min(self.spans.values()) / 16
        self.store = RunStore(self.history_dir)
        self.hunter = RegressionHunter()

    def inputs(self, i: int) -> list[JobSpec]:
        rng = random.Random(f"{self.seed}/{i}")
        nodes = self.N_RANKS // self.PER_NODE
        return [
            JobSpec(
                source=self.sources[name],
                machine=self.machines[name],
                faults=contention(self.spans[name], nodes, rng) if name in self.spans else (),
                channel=ChannelConfig(drop_rate=0.1, dup_rate=0.05, seed=rng.randrange(1 << 31)),
                engine="auto",
            )
            for name in TENANTS
        ]

    def _multi_job(self, specs, obs=None):
        return run_multi_job(
            specs,
            n_shards=4,
            window_us=self.window_us,
            batch_period_us=2_000.0,
            workers=self.workers,
            obs=obs,
        )

    def _history(self, run, ledger: Ledger) -> int:
        """Append every tenant's record, hunt each trajectory's tail;
        returns the number of findings."""
        findings = 0
        for index, name in enumerate(TENANTS):
            key = self.keys[name]
            ledger.enter()
            self.store.append(record_from_run(run.jobs[index], key, workload=name))
            ledger.exit("history.append")
            ledger.enter()
            scan = self.hunter.scan_trajectory(self.store.runs(key)[-TRAJECTORY:], key)
            findings += len(scan.findings)
            ledger.exit("history.scan")
        return findings

    def after_warm_up(self, result) -> None:
        """Fill each trajectory to full length from the warm-up operation,
        so every timed operation hunts the same number of runs."""
        run, _ = result
        for _ in range(TRAJECTORY - 1):
            self._history(run, Ledger())

    def run(self, specs):
        run = self._multi_job(specs)
        return run, self._history(run, Ledger())

    def traced(self, specs, ledger: Ledger):
        obs = Obs.create()
        run = self._multi_job(specs, obs=obs)
        records = obs.tracer.records()
        # Layers reachable only inside run_multi_job: their span self
        # times; the rest of the call stays unattributed.
        for layer, seconds in span_self_seconds(records).items():
            ledger.book(layer, seconds)
        findings = self._history(run, ledger)
        restarts = obs.metrics.counter("parallel.worker_restart").value
        ledger.layers = {
            "parallel.phase1_seconds": span_total_seconds(records, "parallel.phase1"),
            "parallel.dispatch_seconds": span_total_seconds(records, "parallel.dispatch"),
            "parallel.worker_restarts": restarts,
            "service.shard_apply_seconds": span_total_seconds(records, "service.shard."),
        }
        return run, findings

    def check(self, specs, result) -> Outcome:
        run, findings = result
        out = Outcome()
        digests = []
        sent = retried = duplicated = delivered = rejected = received = 0
        profiles = []
        totals = dict.fromkeys(
            ("sim.records", "sim.mpi_matches", "runtime.summaries", "runtime.batches"), 0
        )
        for index, (name, spec) in enumerate(zip(TENANTS, specs)):
            job = run.jobs[index]
            port = run.service.ports[index]
            report = job.report
            digests.append(report_digest(report))
            if report.degraded_ranks:
                out.failures.append(f"{name}: degraded ranks {report.degraded_ranks}")
            produced = sum(len(d.summaries) for d in job.runtime.detectors.values())
            if port.summaries_received != produced:
                out.failures.append(
                    f"{name}: {port.summaries_received} of {produced} summaries delivered"
                )
            out.kloc += kloc(spec.source)
            stats = job.channel_stats
            sent += stats["sent"]
            retried += stats["retried"]
            duplicated += stats["duplicated"]
            delivered += stats["delivered"]
            rejected += port.rejected_batches
            received += port.summaries_received
            profiles.append(job.static.profile)
            for key, value in _runtime_layers(job.runtime, job.sim, report).items():
                totals[key] += value
        out.records = totals["sim.records"]
        out.f_score = f_score(
            (run.jobs[i].report, spec.faults, spec.machine) for i, spec in enumerate(specs)
        )
        if out.f_score < F_FLOOR:
            out.failures.append(f"fleet F-score {out.f_score:.3f} < {F_FLOOR}")
        out.digest = repr(digests)
        out.layers = {
            **_pipeline_layers(profiles),
            **totals,
            "server.summaries": received,
            "transport.retry_ratio": retried / sent,
            "transport.duplicate_ratio": duplicated / sent,
            "transport.delivered_ratio": delivered / sent,
            "service.rejected": rejected,
            "history.findings": findings,
        }
        return out


def make(name: str, seed: int, scratch) -> object:
    if name == Detect128.name:
        return Detect128(seed)
    if name == StaticKloc.name:
        return StaticKloc(seed)
    if name == Fleet32.name:
        return Fleet32(seed, scratch / "history")
    raise KeyError(name)


WORKLOADS = (Detect128.name, StaticKloc.name, Fleet32.name)
