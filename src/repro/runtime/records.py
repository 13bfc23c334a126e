"""Record types flowing through the dynamic module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sensors.model import SensorType

#: wire codes for sensor types — shared by the spool codec and the columnar
#: analysis store so decoded batches never need enum objects per row
SENSOR_TYPE_CODE = {SensorType.COMPUTATION: 0, SensorType.NETWORK: 1, SensorType.IO: 2}
CODE_SENSOR_TYPE = {code: stype for stype, code in SENSOR_TYPE_CODE.items()}


@dataclass(frozen=True, slots=True)
class SensorRecord:
    """One Tick..Tock execution of a v-sensor on one rank."""

    rank: int
    sensor_id: int
    sensor_type: SensorType
    t_start: float
    t_end: float
    instructions: float
    cache_miss_rate: float
    #: dynamic-rule group key; "" until grouped
    group: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True, slots=True)
class SliceSummary:
    """Average behaviour of one sensor (group) during one time slice.

    This is the unit of storage and of communication with the analysis
    server: instead of a long record list, only slice summaries exist
    (§5.1) — and per sensor only a scalar standard time is kept as history
    (§5.3).
    """

    rank: int
    sensor_id: int
    sensor_type: SensorType
    group: str
    slice_index: int
    t_slice_start: float
    mean_duration: float
    count: int
    mean_cache_miss: float
    #: tenant dimension — which concurrently running job produced this
    #: summary.  0 is the single-job default; the sharded analysis service
    #: keys its routing, spool files and sequence streams by it.
    job_id: int = 0

    #: serialized size in bytes when sent to the analysis server: sensor id
    #: (4) + slice (4) + duration (4) + count (2) + miss rate (2)
    WIRE_BYTES = 16

    @property
    def identity(self) -> tuple[int, int, str, int]:
        """Dedup key for idempotent server ingest: a rank emits at most one
        summary per (sensor, group, slice), so redelivery is detectable
        without any transport metadata.  The job dimension is deliberately
        absent: one analysis store holds one tenant's records, and the
        service layer routes by ``job_id`` before ingest."""
        return (self.rank, self.sensor_id, self.group, self.slice_index)


@dataclass(slots=True)
class SummaryColumns:
    """One decoded batch as parallel column arrays (no per-row objects).

    This is what the zero-copy spool decode hands the analysis server:
    every field of :class:`SliceSummary` as one NumPy array, with group
    strings carried as per-row codes plus a ``code -> string`` table.  The
    server's columnar store ingests the arrays directly.
    """

    rank: int
    sensor_id: np.ndarray
    sensor_type_code: np.ndarray
    group_code: np.ndarray
    group_table: dict[int, str]
    slice_index: np.ndarray
    t_slice_start: np.ndarray
    mean_duration: np.ndarray
    count: np.ndarray
    mean_cache_miss: np.ndarray
    #: tenant dimension of the whole batch (spool files are per (job, rank))
    job: int = 0

    def __len__(self) -> int:
        return len(self.sensor_id)
