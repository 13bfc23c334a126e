"""Per-rank online variance detection (§5.1–§5.3).

Each rank owns one detector.  Records from the rank's probes are grouped by
the active dynamic rule, smoothed into slice summaries, normalized against
per-sensor history, and checked against the variance threshold.  Sensors
whose executions are too short to time meaningfully are shut off at runtime
(their probes stop triggering analysis — the overhead guard of §5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.dynrules import DynamicRule, NoGrouping
from repro.runtime.governor import PaperShutoff
from repro.runtime.history import SensorHistory
from repro.runtime.records import SensorRecord, SliceSummary
from repro.runtime.smoothing import SliceAggregator
from repro.sensors.model import SensorType


@dataclass(frozen=True, slots=True)
class VarianceEvent:
    """One detected performance variance."""

    rank: int
    sensor_id: int
    sensor_type: SensorType
    group: str
    t_start: float
    #: normalized performance (1.0 = best; below threshold = variance)
    performance: float


@dataclass(slots=True)
class DetectorConfig:
    slice_us: float = 1000.0
    #: normalized performance below this is reported as variance
    threshold: float = 0.7
    #: sensors whose mean duration stays below this (µs) are shut off
    min_duration_us: float = 2.0
    #: how many records to observe before deciding on shutoff
    shutoff_after: int = 50


@dataclass(slots=True)
class RankDetector:
    rank: int
    config: DetectorConfig = field(default_factory=DetectorConfig)
    rule: DynamicRule = field(default_factory=NoGrouping)
    history: SensorHistory = field(default_factory=SensorHistory)
    events: list[VarianceEvent] = field(default_factory=list)
    summaries: list[SliceSummary] = field(default_factory=list)
    #: sensors disabled at runtime (too short, §5.3)
    shutoff: set[int] = field(default_factory=set)
    #: optional :class:`~repro.obs.metrics.MetricsRegistry`; ``None`` keeps
    #: the per-record hot path at a single branch
    metrics: object | None = None
    #: the §5.3 rule object; ``None`` builds a default sharing :attr:`shutoff`
    lifecycle: PaperShutoff | None = None
    #: tenant stamped on this rank's slice summaries
    job_id: int = 0
    _aggregator: SliceAggregator = None  # type: ignore[assignment]
    records_processed: int = 0

    def __post_init__(self) -> None:
        self._aggregator = SliceAggregator(
            rank=self.rank, slice_us=self.config.slice_us, job_id=self.job_id
        )
        if self.lifecycle is None:
            self.lifecycle = PaperShutoff(
                min_duration_us=self.config.min_duration_us,
                shutoff_after=self.config.shutoff_after,
                shutoff=self.shutoff,
            )
        else:
            self.shutoff = self.lifecycle.shutoff

    def add(self, record: SensorRecord) -> list[VarianceEvent]:
        """Feed one probe record; return any new variance events."""
        sid = record.sensor_id
        life = self.lifecycle
        if life.is_off(sid):
            return []
        self.records_processed += 1
        if self.metrics is not None:
            self.metrics.counter("detector.records").inc()
        if not life.observe(sid, record.duration):
            if self.metrics is not None:
                self.metrics.counter("detector.shutoff_sensors").inc()
            return []
        grouped = SensorRecord(
            rank=record.rank,
            sensor_id=record.sensor_id,
            sensor_type=record.sensor_type,
            t_start=record.t_start,
            t_end=record.t_end,
            instructions=record.instructions,
            cache_miss_rate=record.cache_miss_rate,
            group=self.rule.group(record),
        )
        new_events: list[VarianceEvent] = []
        for summary in self._aggregator.add(grouped):
            new_events.extend(self._analyze(summary))
        return new_events

    def finish(self) -> list[VarianceEvent]:
        """Flush open slices at the end of the run."""
        new_events: list[VarianceEvent] = []
        for summary in self._aggregator.flush():
            new_events.extend(self._analyze(summary))
        return new_events

    def _analyze(self, summary: SliceSummary) -> list[VarianceEvent]:
        self.summaries.append(summary)
        if self.metrics is not None:
            self.metrics.counter("detector.summaries").inc()
            self.metrics.histogram("detector.slice_duration_us").observe(
                summary.mean_duration
            )
        perf = self.history.observe(summary.sensor_id, summary.group, summary.mean_duration)
        if perf < self.config.threshold:
            event = VarianceEvent(
                rank=self.rank,
                sensor_id=summary.sensor_id,
                sensor_type=summary.sensor_type,
                group=summary.group,
                t_start=summary.t_slice_start,
                performance=perf,
            )
            self.events.append(event)
            if self.metrics is not None:
                self.metrics.counter("detector.variance_events").inc()
            return [event]
        return []
