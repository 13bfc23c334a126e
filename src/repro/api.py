"""High-level pipeline: the eight workflow steps in one call.

:func:`compile_and_instrument` covers the static module (steps 1–5), now
executed through the :mod:`repro.pipeline` pass manager: parse → lower →
cfa → dataflow → identify → select → instrument, with per-pass timing and
content-addressed artifact caching (repeat compiles of unchanged text and
config reuse every stage).  :func:`run_vsensor` adds the dynamic module
(steps 6–8) on the simulated cluster and returns everything a study needs:
identification results, instrumentation plan, simulation outcome, and the
variance report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.diagnostics import Diagnostic
from repro.errors import ReproError
from repro.frontend import Module, parse_source
from repro.instrument import InstrumentationPlan, InstrumentedProgram
from repro.obs import NULL_OBS, Obs
from repro.pipeline import (
    ArtifactStore,
    CompilerContext,
    PipelineProfile,
    default_store,
    static_pass_manager,
)
from repro.runtime.detector import DetectorConfig
from repro.runtime.dynrules import DynamicRule, NoGrouping
from repro.runtime.report import VarianceReport
from repro.runtime.vsensor_hooks import VSensorRuntime
from repro.sensors import IdentificationResult
from repro.sensors.extern import ExternRegistry
from repro.sim import Fault, MachineConfig, SimResult, Simulator

#: sentinel: "use the process-wide default artifact store"
_DEFAULT_STORE = object()


@dataclass(slots=True)
class StaticResult:
    """Outcome of the static module (compile-time steps 1-5)."""

    module: Module
    identification: IdentificationResult
    plan: InstrumentationPlan
    program: InstrumentedProgram
    #: structured rejection/skip notes from identify, select and instrument
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: per-pass wall time and cache hit/miss accounting for this compile
    profile: PipelineProfile = field(default_factory=PipelineProfile)

    @property
    def source(self) -> str:
        return self.program.source


@dataclass(slots=True)
class VSensorRun:
    """Outcome of a full vSensor-instrumented simulated run."""

    static: StaticResult
    sim: SimResult
    runtime: VSensorRuntime
    report: VarianceReport | None = None
    #: delivery counters when the run used a simulated lossy channel
    channel_stats: dict[str, int] | None = None
    #: the :class:`~repro.history.RunRecord` appended to the cross-run
    #: history store (seq assigned), when ``history_store`` was given
    history_entry: object | None = None


def compile_and_instrument(
    source: str,
    max_depth: int = 3,
    externs: ExternRegistry | None = None,
    static_rules: Sequence | Iterable = (),
    filename: str = "<program>",
    min_estimated_work: float = 0.0,
    annotations=None,
    store: ArtifactStore | None | object = _DEFAULT_STORE,
    obs: Obs | None = None,
) -> StaticResult:
    """Run the static module on program text.

    ``min_estimated_work`` enables the compile-time granularity estimate
    (skip sensors predicted smaller than this many work units);
    ``annotations`` is an optional
    :class:`~repro.instrument.annotations.Annotations` with manual
    include/exclude marks.

    ``store`` selects the artifact cache: by default the process-wide
    store (so recompiling unchanged text is nearly free), an explicit
    :class:`~repro.pipeline.ArtifactStore` for scoped/on-disk caching, or
    ``None`` to disable caching for this call.

    ``obs`` attaches an observability bundle (:mod:`repro.obs`): per-pass
    spans and cache counters are emitted into it.  The default is the
    no-op bundle; enabling it never changes outputs or cache keys.
    """
    if store is _DEFAULT_STORE:
        store = default_store()
    obs = obs or NULL_OBS
    ctx = CompilerContext(
        source=source,
        filename=filename,
        config={
            "max_depth": max_depth,
            "externs": externs,
            "static_rules": tuple(static_rules),
            "min_estimated_work": min_estimated_work,
            "annotations": annotations,
        },
        store=store,  # type: ignore[arg-type]
        obs=obs,
    )
    with obs.tracer.span("vsensor.compile"):
        static_pass_manager().run(ctx)
    selection = ctx.artifact("select")
    program: InstrumentedProgram = ctx.artifact("instrument")
    identification: IdentificationResult = selection.identification
    diagnostics = (
        identification.diagnostics()
        + selection.plan.diagnostics
        + program.diagnostics
    )
    return StaticResult(
        module=program.module,
        identification=identification,
        plan=selection.plan,
        program=program,
        diagnostics=diagnostics,
        profile=ctx.profile,
    )


def _resolve_governor(
    governor, overhead_budget, governor_policy, machine, static,
    detector_config, metrics, obs,
):
    """Build an :class:`~repro.runtime.governor.OverheadGovernor` from the
    user-facing knobs; ``None`` (all knobs unset) means no governor."""
    from repro.runtime.governor import GovernorConfig, OverheadGovernor

    if governor is None and overhead_budget is None and governor_policy is None:
        return None
    if isinstance(governor, OverheadGovernor):
        return governor
    if isinstance(governor, GovernorConfig):
        config = governor
    else:
        if isinstance(governor, str) and governor_policy is None:
            governor_policy = governor
        kwargs = {"eval_period_us": detector_config.slice_us}
        if overhead_budget is not None:
            kwargs["overhead_budget"] = overhead_budget
        if governor_policy is not None:
            kwargs["policy"] = governor_policy
        config = GovernorConfig(**kwargs)
    return OverheadGovernor(
        config,
        estimates=static.plan.estimates,
        probe_cost=machine.probe_cost,
        detector_config=detector_config,
        ranks_per_node=machine.ranks_per_node,
        metrics=metrics,
        obs=obs,
    )


def run_vsensor(
    source: str,
    machine: MachineConfig,
    faults: Sequence[Fault] = (),
    max_depth: int = 3,
    detector: DetectorConfig | None = None,
    rule: DynamicRule | None = None,
    externs: ExternRegistry | None = None,
    static_rules: Sequence | Iterable = (),
    window_us: float = 200_000.0,
    batch_period_us: float = 100_000.0,
    extra_hooks: Sequence = (),
    live=None,
    engine: str = "bytecode",
    channel=None,
    retry_policy=None,
    store: ArtifactStore | None | object = _DEFAULT_STORE,
    obs: Obs | None = None,
    governor=None,
    overhead_budget: float | None = None,
    governor_policy: str | None = None,
    history_store=None,
    history_label: str = "",
    history_workload: str = "",
) -> VSensorRun:
    """Compile, instrument, simulate and analyze one program.

    ``window_us`` is the performance-matrix time resolution (the paper's
    matrices use 200 ms); ``batch_period_us`` is how often each rank ships
    its buffered slice summaries to the analysis server.  ``extra_hooks``
    are additional observers teed alongside the vSensor runtime (e.g. a
    raw-record collector for figure data).

    ``channel`` routes rank→server batches over a simulated unreliable
    channel: pass a :class:`~repro.runtime.channel.ChannelConfig`, a
    prebuilt :class:`~repro.runtime.channel.LossyChannel`, or a CLI-style
    spec string (``"drop=0.1,dup=0.05"``, ``"lossy"``).  Delivery then
    uses sequence numbers + retries (``retry_policy``) with idempotent
    server ingest, and the run's :attr:`VSensorRun.channel_stats` /
    report fields expose the delivery counters.

    ``engine`` selects the simulator's interpreter tier: ``"bytecode"``
    (default; compiled register VM), ``"lockstep"`` (SIMD-over-ranks
    vectorized VM — one fetch per instruction applied to every rank's
    lane at once, with diverging ranks drained onto per-rank
    interpreters) or ``"auto"`` (bytecode below
    :data:`~repro.sim.AUTO_LOCKSTEP_MIN_RANKS` ranks, lockstep at or
    above — the crossover measured in ``BENCH_interp.json``, where
    lockstep is a slowdown at 8 ranks but wins from 32 up).  All tiers
    are bit-identical; ``"auto"`` is the recommended setting for runs
    whose rank counts vary.

    ``store`` is forwarded to :func:`compile_and_instrument`.

    ``obs`` attaches an observability bundle (:mod:`repro.obs`): compile /
    simulate / analyze phase spans, per-rank virtual-time spans, and
    record / retry / dedup counters across the runtime.  The default is
    the no-op bundle; an enabled bundle never changes the report, the
    matrices, or any cached artifact (the golden suite asserts this).

    ``governor`` installs the runtime overhead governor
    (:mod:`repro.runtime.governor`): pass a
    :class:`~repro.runtime.governor.GovernorConfig`, a policy name
    (``"adaptive"`` / ``"paper-shutoff"``), or leave ``None`` and set
    ``overhead_budget`` and/or ``governor_policy`` instead.  All three
    ``None`` (the default) installs no governor — every engine tier is
    bit-identical to the ungoverned historical behavior.

    ``history_store`` appends this run's sensor baselines to a cross-run
    regression history (:mod:`repro.history`): pass a
    :class:`~repro.history.RunStore` or a directory path.  The trajectory
    key is a content fingerprint of (source, machine, detector, engine,
    max_depth), so only bit-identical configurations share a history;
    ``history_label`` / ``history_workload`` annotate the record.  The
    appended record lands in :attr:`VSensorRun.history_entry`.
    """
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.server import AnalysisServer
    from repro.runtime.transport import ReliableTransport, RetryPolicy
    from repro.sim.hooks import TeeHooks

    obs = obs or NULL_OBS
    metrics = obs.metrics if obs.enabled else None
    static = compile_and_instrument(
        source,
        max_depth=max_depth,
        externs=externs,
        static_rules=static_rules,
        store=store,
        obs=obs,
    )
    server = AnalysisServer(
        n_ranks=machine.n_ranks,
        window_us=window_us,
        batch_period_us=batch_period_us,
        metrics=metrics,
        obs=obs if obs.enabled else None,
    )
    detector_config = detector or DetectorConfig()
    gov = _resolve_governor(
        governor, overhead_budget, governor_policy, machine, static,
        detector_config, metrics, obs,
    )
    runtime = VSensorRuntime(
        sensors=static.program.sensors,
        n_ranks=machine.n_ranks,
        config=detector_config,
        rule=rule or NoGrouping(),
        server=server,
        obs=obs,
        governor=gov,
    )
    transport = None
    if channel is not None:
        if isinstance(channel, str):
            channel = ChannelConfig.parse(channel)
        if isinstance(channel, ChannelConfig):
            channel = LossyChannel(config=channel)
        transport = ReliableTransport(
            server=server,
            channel=channel,
            policy=retry_policy or RetryPolicy(),
            metrics=metrics,
        )
        runtime.server = transport  # type: ignore[assignment]
    runtime.live = live
    hooks = TeeHooks(runtime, *extra_hooks) if extra_hooks else runtime
    with obs.tracer.span("vsensor.simulate", engine=engine):
        sim = Simulator(
            static.program.module,
            machine,
            faults=tuple(faults),
            sensors=static.program.sensors,
            externs=externs,
            engine=engine,
            obs=obs,
            probe_control=gov.control if gov is not None else None,
        ).run(hooks)
    run = VSensorRun(static=static, sim=sim, runtime=runtime)
    with obs.tracer.span("vsensor.analyze"):
        if transport is not None:
            transport.finish()
            runtime.server = server
            run.channel_stats = transport.channel.stats.as_dict()
        run.report = runtime.report(sim.total_time)
    if run.channel_stats is not None:
        run.report.channel_stats = dict(run.channel_stats)
    if history_store is not None:
        from repro.history import RunStore, record_from_run, run_fingerprint

        if not isinstance(history_store, RunStore):
            history_store = RunStore(history_store)
        key = run_fingerprint(
            source,
            machine,
            detector_config,
            engine=engine,
            max_depth=max_depth,
        )
        with obs.tracer.span("history.append", fingerprint=key[:12]):
            run.history_entry = history_store.append(
                record_from_run(
                    run, key, label=history_label, workload=history_workload
                )
            )
            if obs.enabled:
                obs.metrics.counter("history.appends").inc()
    return run


@dataclass(slots=True)
class JobSpec:
    """One tenant of a multi-job sharded-service run."""

    source: str
    machine: MachineConfig
    #: tenant id; defaults to the job's position in the list
    job_id: int | None = None
    faults: Sequence[Fault] = ()
    #: per-job rank->front channel (spec string / config / channel);
    #: ``None`` uses a perfect zero-delay channel — delivery still runs
    #: the sequenced transport so admission rejections stay retriable
    channel: object | None = None
    retry_policy: object | None = None
    detector: DetectorConfig | None = None
    rule: DynamicRule | None = None
    #: interpreter tier: "bytecode", "lockstep" or "auto" (see run_vsensor)
    engine: str = "bytecode"
    max_depth: int = 3


@dataclass(slots=True)
class JobRun:
    """One tenant's outcome of a multi-job run."""

    job_id: int
    static: StaticResult
    sim: SimResult
    runtime: VSensorRuntime
    report: VarianceReport | None = None
    channel_stats: dict[str, int] | None = None


@dataclass(slots=True)
class MultiJobRun:
    """Outcome of :func:`run_multi_job`: the service plus per-job results."""

    service: object
    jobs: dict[int, JobRun] = field(default_factory=dict)


class _BatchRecorder:
    """Duck-typed server capturing each rank's batch sends with times."""

    def __init__(self, batch_period_us: float) -> None:
        self.batch_period_us = batch_period_us
        self.events: list[tuple[float, int, list]] = []

    def send_batch(self, rank: int, summaries: list, now: float) -> None:
        self.events.append((now, rank, list(summaries)))


def simulate_job(
    spec: JobSpec,
    job_id: int,
    batch_period_us: float,
    store: ArtifactStore | None | object = _DEFAULT_STORE,
    obs: Obs | None = None,
) -> tuple[StaticResult, SimResult, VSensorRuntime]:
    """Phase 1 of :func:`run_multi_job` for one job: compile + simulate.

    The serial loop and the process workers
    (:func:`repro.parallel.simulate_jobs_parallel`) both run this.  The
    job's timed batch sends are captured by a recorder that rides in
    ``runtime.server``; phases 2-4 replay them.
    """
    obs = obs or NULL_OBS
    static = compile_and_instrument(
        spec.source, max_depth=spec.max_depth, store=store, obs=obs
    )
    runtime = VSensorRuntime(
        sensors=static.program.sensors,
        n_ranks=spec.machine.n_ranks,
        config=spec.detector or DetectorConfig(),
        rule=spec.rule or NoGrouping(),
        server=_BatchRecorder(batch_period_us),  # type: ignore[arg-type]
        obs=obs,
        job_id=job_id,
    )
    with obs.tracer.span("vsensor.simulate", engine=spec.engine, job=job_id):
        sim = Simulator(
            static.program.module,
            spec.machine,
            faults=tuple(spec.faults),
            sensors=static.program.sensors,
            engine=spec.engine,
            obs=obs,
        ).run(runtime)
    return static, sim, runtime


def run_multi_job(
    jobs: Sequence[JobSpec],
    n_shards: int = 4,
    window_us: float = 200_000.0,
    batch_period_us: float = 100_000.0,
    queue_limit: int = 64,
    cost=None,
    vnodes: int = 64,
    store: ArtifactStore | None | object = _DEFAULT_STORE,
    obs: Obs | None = None,
    workers: int = 1,
) -> MultiJobRun:
    """Run several jobs concurrently through one sharded analysis service.

    Each job is compiled and simulated exactly as :func:`run_vsensor`
    would, but its rank batches — captured with their virtual send times —
    are replayed interleaved across all jobs (globally time-ordered) into
    a shared :class:`~repro.service.AnalysisService`: per-job
    :class:`~repro.runtime.transport.ReliableTransport` instances carry
    the sequenced batches over each job's channel into the admission-
    controlled front, which routes them onto ``n_shards`` consistent-hash
    shard workers.  Every job's report/matrices are then answered by the
    service's per-job query merger — bit-identical to what an unsharded
    run of that job alone would produce.

    ``cost`` is an optional :class:`~repro.service.ShardCostModel` giving
    shards a virtual processing cost (that is what makes bounded queues
    fill and back-pressure engage); the default is zero cost.

    ``workers`` fans the compile+simulate phase out to that many OS
    processes (:func:`repro.parallel.simulate_jobs_parallel`; job *i*
    runs on worker ``i % workers``).  Only phase 1 is parallel — the
    time-ordered replay, back-pressure drive and merged reports are a
    deterministic function of its outputs, so ``workers=N`` is
    bit-identical to ``workers=1``.  When the run's artifact ``store``
    has an on-disk layer, workers share it as a warm compile cache;
    otherwise they compile through the default store inherited at fork.
    """
    from repro.runtime.channel import ChannelConfig, LossyChannel, perfect_channel
    from repro.runtime.transport import ReliableTransport, RetryPolicy
    from repro.service import AnalysisService

    obs = obs or NULL_OBS
    service = AnalysisService(
        n_shards,
        window_us=window_us,
        batch_period_us=batch_period_us,
        queue_limit=queue_limit,
        cost=cost,
        vnodes=vnodes,
        obs=obs if obs.enabled else None,
    )
    run = MultiJobRun(service=service)
    transports: dict[int, ReliableTransport] = {}
    specs: dict[int, JobSpec] = {}

    # Phase 1: compile + simulate every job, capturing timed batch sends.
    for index, spec in enumerate(jobs):
        job_id = index if spec.job_id is None else spec.job_id
        if job_id in specs:
            raise ReproError(f"duplicate job id {job_id}")
        specs[job_id] = spec
    if workers > 1:
        from repro.parallel.runner import simulate_jobs_parallel

        resolved_store = default_store() if store is _DEFAULT_STORE else store
        cache_dir = (
            str(resolved_store.disk_dir)
            if isinstance(resolved_store, ArtifactStore)
            and resolved_store.disk_dir is not None
            else None
        )
        outcomes = simulate_jobs_parallel(
            list(specs.items()), workers, batch_period_us, cache_dir=cache_dir, obs=obs
        )
    else:
        outcomes = [
            simulate_job(spec, job_id, batch_period_us, store, obs)
            for job_id, spec in specs.items()
        ]
    for job_id, (static, sim, runtime) in zip(specs, outcomes):
        run.jobs[job_id] = JobRun(job_id=job_id, static=static, sim=sim, runtime=runtime)

    # Phase 2: replay all jobs' batches, globally time-ordered, through
    # per-job sequenced transports into the shared sharded front.
    metrics = obs.metrics if obs.enabled else None
    for job_id, job_run in run.jobs.items():
        spec = specs[job_id]
        port = service.register_job(job_id, job_run.runtime.n_ranks)
        channel = spec.channel
        if channel is None:
            channel = perfect_channel()
        elif isinstance(channel, str):
            channel = ChannelConfig.parse(channel)
        if isinstance(channel, ChannelConfig):
            channel = LossyChannel(config=channel)
        transports[job_id] = ReliableTransport(
            server=port,  # type: ignore[arg-type]
            channel=channel,
            policy=spec.retry_policy or RetryPolicy(),
            metrics=metrics,
            job_id=job_id,
        )
    timeline = sorted(
        (
            (now, job_id, order, rank, rows)
            for job_id, job_run in run.jobs.items()
            for order, (now, rank, rows) in enumerate(job_run.runtime.server.events)
        ),
        key=lambda item: (item[0], item[1], item[2]),
    )
    with obs.tracer.span("service.ingest", jobs=len(run.jobs), shards=n_shards):
        for now, job_id, _, rank, rows in timeline:
            transports[job_id].send_batch(rank, rows, now)
            service.pump(now)

        # Phase 3: drive retries/back-pressure to quiescence, keeping the
        # shards pumping so deferred retries always find freed capacity.
        while True:
            wakeups = [
                t
                for transport in transports.values()
                if (t := transport.next_wakeup()) is not None
            ]
            if not wakeups:
                break
            t = min(wakeups)
            service.pump(t)
            for transport in transports.values():
                transport.pump(t)
        service.finish()

    # Phase 4: per-job reports answered by the merged per-job view.
    for job_id, job_run in run.jobs.items():
        port = service.ports[job_id]
        job_run.runtime.server = port  # type: ignore[assignment]
        with obs.tracer.span("vsensor.analyze", job=job_id):
            job_run.report = job_run.runtime.report(job_run.sim.total_time)
        job_run.channel_stats = transports[job_id].channel.stats.as_dict()
        job_run.report.channel_stats = dict(job_run.channel_stats)
    return run


def run_uninstrumented(
    source: str,
    machine: MachineConfig,
    faults: Sequence[Fault] = (),
    engine: str = "bytecode",
) -> SimResult:
    """Simulate the original (probe-free) program — the overhead baseline."""
    module = parse_source(source)
    return Simulator(module, machine, faults=tuple(faults), engine=engine).run()
