"""Time-slice aggregation (§5.1).

High-frequency, short-duration OS noise makes very short sensors look
chaotic; averaging over a small time slice (1000 µs by default) filters it
so that only durable variance remains.  Aggregation also bounds analysis
cost: the detection algorithm runs once per slice, not once per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.records import SensorRecord, SliceSummary
from repro.sensors.model import SensorType


#: shared result for the no-rollover case — callers only iterate it, and it
#: saves a list allocation on every record between slice boundaries
_NO_SUMMARIES: tuple[SliceSummary, ...] = ()


@dataclass(slots=True)
class SliceAggregator:
    """Per-rank streaming aggregator.

    Records for each (sensor, group) are accumulated until a record falls
    into a later slice, at which point the finished slice is emitted.  The
    stream is time-ordered per rank by construction (the rank's own clock).

    The open slice per key is a mutable ``[slice_index, total_duration,
    total_miss, count]`` list updated in place: the common case (another
    record landing in the same slice) allocates nothing.
    """

    rank: int
    slice_us: float = 1000.0
    #: tenant stamped on every emitted summary
    job_id: int = 0
    _open: dict[tuple[int, str], list] = field(default_factory=dict)
    _types: dict[int, SensorType] = field(default_factory=dict)

    def add(self, record: SensorRecord) -> tuple[SliceSummary, ...]:
        """Feed one record; return any slice summaries completed by it."""
        key = (record.sensor_id, record.group)
        idx = int(record.t_end // self.slice_us)
        entry = self._open.get(key)
        if entry is not None and entry[0] == idx:
            entry[1] += record.duration
            entry[2] += record.cache_miss_rate
            entry[3] += 1
            return _NO_SUMMARIES
        self._types[record.sensor_id] = record.sensor_type
        self._open[key] = [idx, record.duration, record.cache_miss_rate, 1]
        if entry is None:
            return _NO_SUMMARIES
        return (self._emit(key, entry),)

    def flush(self) -> list[SliceSummary]:
        """Emit every open slice (end of run)."""
        emitted = [self._emit(key, entry) for key, entry in self._open.items()]
        self._open.clear()
        return emitted

    def _emit(self, key: tuple[int, str], entry: list) -> SliceSummary:
        sensor_id, group = key
        idx, total_duration, total_miss, count = entry
        return SliceSummary(
            rank=self.rank,
            sensor_id=sensor_id,
            sensor_type=self._types[sensor_id],
            group=group,
            slice_index=idx,
            t_slice_start=idx * self.slice_us,
            mean_duration=total_duration / count,
            count=count,
            mean_cache_miss=total_miss / count,
            job_id=self.job_id,
        )
