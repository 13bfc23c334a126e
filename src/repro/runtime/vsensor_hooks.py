"""The vSensor dynamic module packaged as simulator hooks.

One :class:`RankDetector` per rank performs smoothing, history comparison
and intra-process detection online; slice summaries are buffered per rank
and shipped to the :class:`AnalysisServer` in periodic batches (§5.4).
The report object (§5.5) is assembled at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.instrument.rewrite import SensorInfo
from repro.obs import NULL_OBS, Obs
from repro.runtime.detector import DetectorConfig, RankDetector, VarianceEvent
from repro.runtime.dynrules import DynamicRule, NoGrouping
from repro.runtime.records import SensorRecord
from repro.runtime.report import VarianceReport, build_report
from repro.runtime.server import AnalysisServer
from repro.sim.hooks import RuntimeHooks
from repro.sim.pmu import PmuSample


@dataclass(slots=True)
class VSensorRuntime(RuntimeHooks):
    """Install on a simulated run to perform online variance detection."""

    sensors: dict[int, SensorInfo]
    n_ranks: int
    config: DetectorConfig = field(default_factory=DetectorConfig)
    rule: DynamicRule = field(default_factory=NoGrouping)
    server: AnalysisServer = None  # type: ignore[assignment]
    detectors: dict[int, RankDetector] = field(default_factory=dict)
    #: per-rank outbound buffer and the virtual time of the last batch send
    _buffers: dict[int, list] = field(default_factory=dict)
    _last_batch: dict[int, float] = field(default_factory=dict)
    _summaries_seen: dict[int, int] = field(default_factory=dict)
    events: list[VarianceEvent] = field(default_factory=list)
    #: optional periodic reporter (workflow step 8's live updates)
    live: object | None = None
    #: optional :class:`~repro.runtime.governor.OverheadGovernor`; when set,
    #: detectors get governor-instrumented §5.3 lifecycles and every record /
    #: variance event feeds the budget loop
    governor: object | None = None
    #: observability bundle; the disabled default keeps the per-record
    #: path free of tracer work (detectors get ``metrics=None``)
    obs: Obs = field(default_factory=lambda: NULL_OBS)
    #: tenant stamped on every slice summary (multi-job runs)
    job_id: int = 0

    def __post_init__(self) -> None:
        if self.server is None:
            enabled = self.obs.enabled
            self.server = AnalysisServer(
                n_ranks=self.n_ranks,
                metrics=self.obs.metrics if enabled else None,
                obs=self.obs if enabled else None,
            )

    # -- hook interface ----------------------------------------------------

    def on_program_start(self, n_ranks: int) -> None:
        metrics = self.obs.metrics if self.obs.enabled else None
        gov = self.governor
        for rank in range(n_ranks):
            self.detectors[rank] = RankDetector(
                rank=rank,
                config=self.config,
                rule=self.rule,
                metrics=metrics,
                lifecycle=gov.lifecycle(rank) if gov is not None else None,
                job_id=self.job_id,
            )
            self._buffers[rank] = []
            self._last_batch[rank] = 0.0
            self._summaries_seen[rank] = 0

    def on_sensor_record(
        self, rank: int, sensor_id: int, t_start: float, t_end: float, pmu: PmuSample
    ) -> None:
        info = self.sensors.get(sensor_id)
        if info is None:
            return
        detector = self.detectors[rank]
        record = SensorRecord(
            rank=rank,
            sensor_id=sensor_id,
            sensor_type=info.sensor_type,
            t_start=t_start,
            t_end=t_end,
            instructions=pmu.instructions,
            cache_miss_rate=pmu.cache_miss_rate,
        )
        before = len(detector.summaries)
        new_events = detector.add(record)
        self.events.extend(new_events)
        gov = self.governor
        if gov is not None:
            gov.on_record(rank, t_end)
            if new_events:
                worst = min(new_events, key=lambda e: e.performance)
                gov.on_variance(rank, t_end, worst.performance, worst.sensor_type)
        self._enqueue_new_summaries(rank, detector, before, t_end)

    def on_program_end(self, rank: int, t: float) -> None:
        detector = self.detectors.get(rank)
        if detector is None:
            return
        before = len(detector.summaries)
        self.events.extend(detector.finish())
        self._enqueue_new_summaries(rank, detector, before, t, force=True)
        if self.obs.enabled:
            # One virtual-time leaf span per rank's detection lifetime.
            # Governor attrs appear only when a governor is installed so
            # governed runs never perturb ungoverned golden traces.
            attrs = dict(
                rank=rank,
                records=detector.records_processed,
                summaries=len(detector.summaries),
                events=len(detector.events),
                shutoff=len(detector.shutoff),
            )
            gov = self.governor
            if gov is not None:
                tally = gov.decisions.get(rank)
                if tally:
                    attrs.update(
                        demote=tally["demote"],
                        promote=tally["promote"],
                        suspend=tally["suspend"],
                    )
            self.obs.tracer.emit("runtime.rank_detector", 0.0, t, **attrs)

    # -- batching to the analysis server (§5.4) ------------------------------

    def _enqueue_new_summaries(
        self, rank: int, detector: RankDetector, before: int, now: float, force: bool = False
    ) -> None:
        new = detector.summaries[before:]
        if new:
            self._buffers[rank].extend(new)
        due = now - self._last_batch[rank] >= self.server.batch_period_us
        if (due or force) and self._buffers[rank]:
            # Time-aware transports (ReliableTransport) take the virtual
            # send time; the plain server keeps the two-argument form.
            send = getattr(self.server, "send_batch", None)
            if send is not None:
                send(rank, self._buffers[rank], now)
            else:
                self.server.receive_batch(rank, self._buffers[rank])
            if self.obs.enabled:
                self.obs.metrics.counter("runtime.batches_shipped").inc()
            self._buffers[rank] = []
            self._last_batch[rank] = now
            if self.live is not None:
                self.live.maybe_snapshot(self, now)

    # -- results -----------------------------------------------------------

    def report(self, total_time: float) -> VarianceReport:
        """Assemble the final variance report (workflow step 8 input)."""
        self.server.detect_inter_process()
        return build_report(self, total_time)
