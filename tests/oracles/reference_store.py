"""Object-at-a-time summary store: the oracle for the columnar store.

:class:`ReferenceStore` keeps every accepted
:class:`~repro.runtime.records.SliceSummary` in a dict keyed by its
identity and answers queries by a pure-Python, from-scratch replay of the
whole store in canonical (slice, rank, sensor, group) order.  It is the
specification :class:`~repro.runtime.columnar.ColumnarStore` is checked
against, and it implements the same methods
:class:`~repro.runtime.server.AnalysisServer` calls on its store, so the
server's watermark, counter and event code runs unchanged on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.history import SensorHistory
from repro.runtime.records import CODE_SENSOR_TYPE, SENSOR_TYPE_CODE, SliceSummary, SummaryColumns


def summaries_of(columns: SummaryColumns) -> list[SliceSummary]:
    """Materialize a zero-copy decoded batch as per-row objects
    (bit-identical to the per-record ``struct`` decode)."""
    groups = columns.group_table
    return [
        SliceSummary(
            rank=columns.rank,
            sensor_id=sensor_id,
            sensor_type=CODE_SENSOR_TYPE[type_code],
            group=groups.get(group_code, ""),
            slice_index=slice_index,
            t_slice_start=t_start,
            mean_duration=duration,
            count=count,
            mean_cache_miss=miss,
            job_id=columns.job,
        )
        for sensor_id, type_code, group_code, slice_index, t_start, duration, count, miss in zip(
            columns.sensor_id.tolist(),
            columns.sensor_type_code.tolist(),
            columns.group_code.tolist(),
            columns.slice_index.tolist(),
            columns.t_slice_start.tolist(),
            columns.mean_duration.astype(np.float64).tolist(),
            columns.count.tolist(),
            columns.mean_cache_miss.tolist(),
        )
    ]


@dataclass(slots=True)
class _Analysis:
    """Derived state replayed from the store."""

    #: (type code, window) -> rank -> [normalized perf per slice]
    cells: dict[tuple[int, int], dict[int, list[float]]] = field(default_factory=dict)
    #: (sensor, window) -> rank -> mean duration of the rank's slices
    per_sensor: dict[tuple[int, int], dict[int, float]] = field(default_factory=dict)
    history: SensorHistory = field(default_factory=SensorHistory)


class ReferenceStore:
    """Identity-keyed dict store with full canonical replay."""

    def __init__(self, window_us: float) -> None:
        self.window_us = window_us
        self._rows: dict[tuple[int, int, str, int], SliceSummary] = {}
        #: largest window index stored
        self.max_window = 0
        self._analysis: _Analysis | None = None

    def __len__(self) -> int:
        return len(self._rows)

    # -- ingest ------------------------------------------------------------

    def _ingest(self, summary: SliceSummary, sensor_types: dict, last_seen: dict) -> bool:
        """Store one summary; False if its identity is already stored."""
        key = summary.identity
        if key in self._rows:
            return False
        self._rows[key] = summary
        self._analysis = None
        self.max_window = max(self.max_window, int(summary.t_slice_start // self.window_us))
        sensor_types[summary.sensor_id] = summary.sensor_type
        last = last_seen.get(summary.rank)
        if last is None or summary.t_slice_start > last:
            last_seen[summary.rank] = summary.t_slice_start
        return True

    def ingest_summaries(self, summaries, sensor_types: dict, last_seen: dict) -> int:
        """Store each summary in order; return the identity duplicates."""
        return sum(not self._ingest(s, sensor_types, last_seen) for s in summaries)

    def ingest_columns(self, columns: SummaryColumns, sensor_types: dict, last_seen: dict) -> int:
        return self.ingest_summaries(summaries_of(columns), sensor_types, last_seen)

    def ingest_store(
        self, src: "ReferenceStore", start: int, sensor_types: dict, last_seen: dict
    ) -> tuple[int, int]:
        rows = list(src._rows.values())
        return self.ingest_summaries(rows[start:], sensor_types, last_seen), len(rows)

    def export_summaries(self, start: int) -> list[SliceSummary]:
        return list(self._rows.values())[start:]

    # -- canonical replay --------------------------------------------------

    def pending(self) -> bool:
        return self._analysis is None and bool(self._rows)

    def replay(self) -> tuple[str, int] | None:
        """Recompute the derived state from scratch when the store changed."""
        if not self.pending():
            return None
        self._replayed()
        return "full", len(self._rows)

    def _replayed(self) -> _Analysis:
        """Replay the store in slice-major (virtual-time) order, then
        rank/sensor/group as the deterministic tiebreak."""
        if self._analysis is not None:
            return self._analysis
        analysis = _Analysis()
        history = analysis.history
        totals: dict[tuple[int, int], dict[int, list[float]]] = {}
        for key in sorted(self._rows, key=lambda k: (k[3], k[0], k[1], k[2])):
            summary = self._rows[key]
            window = int(summary.t_slice_start // self.window_us)
            perf = history.observe(summary.sensor_id, summary.group, summary.mean_duration)
            analysis.cells.setdefault(
                (SENSOR_TYPE_CODE[summary.sensor_type], window), {}
            ).setdefault(summary.rank, []).append(perf)
            totals.setdefault((summary.sensor_id, window), {}).setdefault(
                summary.rank, []
            ).append(summary.mean_duration)
        for sensor_window, per_rank in totals.items():
            analysis.per_sensor[sensor_window] = {
                rank: float(np.mean(values)) for rank, values in per_rank.items()
            }
        self._analysis = analysis
        return analysis

    def history_standards(self) -> dict[tuple[int, str], float]:
        return dict(self._replayed().history._standard)

    # -- queries -----------------------------------------------------------

    def matrix(self, stype_code: int, n_ranks: int, n_windows: int) -> np.ndarray:
        matrix = np.full((n_ranks, n_windows), np.nan)
        for (code, window), ranks in self._replayed().cells.items():
            if code != stype_code:
                continue
            for rank, values in ranks.items():
                matrix[rank, window] = float(np.mean(values))
        return matrix

    def inter_blocks(self):
        for (sensor_id, window), per_rank in sorted(self._replayed().per_sensor.items()):
            ranks = sorted(per_rank)
            yield (
                sensor_id,
                window,
                np.array(ranks),
                np.array([per_rank[rank] for rank in ranks]),
            )
