"""The analysis server: inter-process detection and matrices (§5.4–§5.5).

A dedicated process collects slice summaries from every rank.  To stay
network-friendly, each rank buffers summaries locally and ships them in
periodic batches; the server accounts the bytes it receives (the §6.4 data
volume comparison against tracing).  The server

* merges same-type sensors into per-component performance series (§5.2),
* compares the same sensor across ranks per time window (inter-process
  detection), and
* maintains the process x time performance matrix per component that the
  visualizer renders (§5.5).

Delivery hardening: batches may arrive over an unreliable transport
(:mod:`repro.runtime.channel`), so ingestion is **idempotent** and
**order-invariant**.  Sequence-numbered batches are deduplicated against a
per-rank watermark (at-least-once delivery upstream, exactly-once effect
here), and every accepted summary is keyed by its identity ``(rank,
sensor, group, slice)`` rather than folded into running aggregates.  The
matrices and inter-process verdicts are computed by replaying the keyed
store in canonical slice order, which makes them bit-identical under any
permutation or redelivery of the incoming batches.

The store is append-only NumPy columns (:mod:`repro.runtime.columnar`)
with incremental canonical replay and vectorized matrix / inter-process
kernels.  Its differential oracle, an object-at-a-time dict store with a
pure-Python full replay, lives in ``tests/oracles/reference_store.py``
and implements the same store interface; ``tests/runtime/
test_server_columnar.py`` pins the two bit-identical — same matrices,
events, counters and byte accounting — under any delivery schedule with
hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.columnar import ColumnarStore
from repro.runtime.history import SensorHistory
from repro.runtime.records import SENSOR_TYPE_CODE, SliceSummary, SummaryColumns
from repro.runtime.seqtrack import SequenceTracker
from repro.sensors.model import SensorType


@dataclass(frozen=True, slots=True)
class InterProcessEvent:
    """Some ranks run a sensor significantly slower than the best rank."""

    sensor_id: int
    sensor_type: SensorType
    window_index: int
    t_window_start: float
    slow_ranks: tuple[int, ...]
    #: normalized performance of the slowest flagged rank
    worst_performance: float
    #: fraction of ranks that contributed data to this (sensor, window)
    #: cell — below 1.0 the verdict rests on partial telemetry (dropped
    #: batches, degraded ranks), so treat it with less confidence
    coverage: float = 1.0


@dataclass(slots=True)
class AnalysisServer:
    n_ranks: int
    #: matrix time resolution (µs); the paper's Fig. 14 uses 200 ms
    window_us: float = 200_000.0
    #: batching period per rank (µs)
    batch_period_us: float = 100_000.0
    threshold: float = 0.7

    bytes_received: int = 0
    batches_received: int = 0
    summaries_received: int = 0
    #: redelivered batches rejected by the sequence watermark
    duplicate_batches: int = 0
    #: summaries whose identity key was already in the store
    duplicate_summaries: int = 0
    inter_events: list[InterProcessEvent] = field(default_factory=list)
    #: ranks whose transport gave up on them (quiet spool, exhausted
    #: retries); matrices still render, reports carry the marker
    degraded: set[int] = field(default_factory=set)
    #: optional :class:`~repro.obs.metrics.MetricsRegistry` for ingest
    #: counters; ``None`` keeps ingestion at one extra branch
    metrics: object | None = None
    #: optional :class:`~repro.obs.Obs` bundle for per-epoch replay spans
    obs: object | None = None

    #: identity-deduplicated summary rows plus their canonical replay
    _store: ColumnarStore = field(init=False)
    #: per-rank sequence trackers (cumulative watermark + gap set)
    _seqs: dict[int, SequenceTracker] = field(default_factory=dict)
    _sensor_types: dict[int, SensorType] = field(default_factory=dict)
    #: virtual time of the freshest slice each rank has reported
    _last_seen: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._store = ColumnarStore(self.window_us)

    # -- ingestion ----------------------------------------------------------

    def receive_batch(
        self,
        rank: int,
        summaries: list[SliceSummary],
        seq: int | None = None,
        encoded_bytes: int | None = None,
    ) -> bool:
        """One batched transfer from a rank's local buffer.

        ``seq`` is the rank's batch sequence number when the batch came over
        a sequenced transport; redelivered sequence numbers are counted and
        dropped (idempotent ingest).  ``encoded_bytes`` is the actual wire
        size when the batch arrived through the codec (frame headers and
        group-definition frames included); direct in-process handoffs leave
        it ``None`` and are accounted at the nominal header + payload size.
        Returns True iff the batch was new.
        """
        if not self._admit(rank, len(summaries), seq, encoded_bytes):
            return False
        self._note_duplicates(
            self._store.ingest_summaries(summaries, self._sensor_types, self._last_seen)
        )
        return True

    def receive_batch_columns(
        self,
        rank: int,
        columns: SummaryColumns,
        seq: int | None = None,
        encoded_bytes: int | None = None,
    ) -> bool:
        """Like :meth:`receive_batch`, for a zero-copy decoded batch:
        the store ingests the arrays directly."""
        if not self._admit(rank, len(columns), seq, encoded_bytes):
            return False
        self._note_duplicates(
            self._store.ingest_columns(columns, self._sensor_types, self._last_seen)
        )
        return True

    def _admit(self, rank: int, n: int, seq: int | None, encoded_bytes: int | None) -> bool:
        """Account one received batch of ``n`` rows; False if its sequence
        number was already seen (the batch is then dropped)."""
        self.batches_received += 1
        if encoded_bytes is None:
            encoded_bytes = 8 + SliceSummary.WIRE_BYTES * n
        self.bytes_received += encoded_bytes
        if seq is not None and not self._advance_watermark(rank, seq):
            self.duplicate_batches += 1
            if self.metrics is not None:
                self.metrics.counter("server.duplicate_batches").inc()
            return False
        self.summaries_received += n
        if self.metrics is not None:
            self.metrics.counter("server.batches").inc()
            self.metrics.counter("server.summaries").inc(n)
        return True

    def _note_duplicates(self, duplicates: int) -> None:
        """Fold one ingest's identity duplicates into the counters."""
        if duplicates:
            self.duplicate_summaries += duplicates
            if self.metrics is not None:
                self.metrics.counter("server.duplicate_summaries").inc(duplicates)

    def _advance_watermark(self, rank: int, seq: int) -> bool:
        """Record one received sequence number; False if already seen."""
        tracker = self._seqs.get(rank)
        if tracker is None:
            tracker = self._seqs[rank] = SequenceTracker()
        return tracker.accept(seq)

    def ack_watermark(self, rank: int) -> int:
        """Highest sequence number below which everything arrived."""
        tracker = self._seqs.get(rank)
        return -1 if tracker is None else tracker.watermark

    def is_acked(self, rank: int, seq: int) -> bool:
        tracker = self._seqs.get(rank)
        return tracker is not None and tracker.is_acked(seq)

    @property
    def stored_summaries(self) -> int:
        """Deduplicated summaries currently in the store."""
        return len(self._store)

    def export_rows(self, start: int = 0) -> tuple[list[SliceSummary], int]:
        """Stored summaries from insertion position ``start`` onward.

        The store is append-only (deduplicated rows are never reordered or
        removed), so ``(rows, total)`` lets a caller keep a cursor and pull
        only the delta on each call."""
        return self._store.export_summaries(start), len(self._store)

    def pull_rows(self, source: "AnalysisServer", start: int = 0) -> int:
        """Ingest ``source``'s stored rows from insertion position ``start``.

        Rows enter in ``source``'s insertion order with the usual identity
        dedup and tracker updates; transport counters do not move.  Returns
        the cursor for the next pull (``source``'s stored row count).  The
        delta is copied as column blocks (:meth:`ColumnarStore.ingest_store`).
        This is the shard → query-merger gather path of the sharded
        analysis service.
        """
        duplicates, total = self._store.ingest_store(
            source._store, start, self._sensor_types, self._last_seen
        )
        self._note_duplicates(duplicates)
        return total

    # -- degradation / coverage --------------------------------------------

    def mark_degraded(self, rank: int) -> None:
        self.degraded.add(rank)

    def silent_ranks(self, now: float, staleness_us: float | None = None) -> list[int]:
        """Ranks whose freshest data is older than ``staleness_us`` —
        candidates for degraded marking when their spool goes quiet."""
        if staleness_us is None:
            staleness_us = 4.0 * self.batch_period_us
        out = []
        for rank in range(self.n_ranks):
            last = self._last_seen.get(rank)
            if last is None or now - last > staleness_us:
                out.append(rank)
        return out

    # -- canonical replay ---------------------------------------------------

    def _replay(self) -> ColumnarStore:
        """Bring the store's canonical order up to date.

        Emits a ``server.replay`` span (kind + rows attrs) and bumps the
        ``server.replay.{full,incremental}`` counter — only when the store
        actually had pending rows, so pure queries stay silent.
        """
        store = self._store
        if not store.pending():
            return store
        if self.obs is not None:
            with self.obs.tracer.span("server.replay") as span:
                kind, rows = store.replay()
                span.set("kind", kind)
                span.set("rows", rows)
        else:
            kind, _ = store.replay()
        if self.metrics is not None:
            self.metrics.counter(f"server.replay.{kind}").inc()
        return store

    @property
    def history(self) -> SensorHistory:
        """Cross-rank standard times, as replayed from the current store."""
        return SensorHistory.from_standards(self._replay().history_standards())

    # -- inter-process analysis (§5.4) --------------------------------------

    def detect_inter_process(self, min_ranks: int = 2) -> list[InterProcessEvent]:
        """Compare the same v-sensor across ranks within each window."""
        self.inter_events = []
        for sensor_id, window, ranks, durations in self._replay().inter_blocks():
            if len(ranks) < min_ranks:
                continue
            best = durations.min()
            if best <= 0:
                continue
            perf = best / durations
            slow_mask = perf < self.threshold
            if not slow_mask.any():
                continue
            self.inter_events.append(
                InterProcessEvent(
                    sensor_id=sensor_id,
                    sensor_type=self._sensor_type_of(sensor_id),
                    window_index=window,
                    t_window_start=window * self.window_us,
                    slow_ranks=tuple(int(r) for r in ranks[slow_mask]),
                    worst_performance=float(perf.min()),
                    coverage=len(ranks) / self.n_ranks if self.n_ranks else 1.0,
                )
            )
        return self.inter_events

    def _sensor_type_of(self, sensor_id: int) -> SensorType:
        return self._sensor_types.get(sensor_id, SensorType.COMPUTATION)

    # -- matrices (§5.5) -------------------------------------------------------

    def performance_matrix(self, sensor_type: SensorType) -> np.ndarray:
        """(n_ranks, n_windows) matrix of normalized performance.

        Cells without data are NaN; the visualizer paints them neutrally.
        Degraded ranks simply keep their NaN cells — partial telemetry
        must never crash matrix rendering.
        """
        store = self._replay()
        return store.matrix(SENSOR_TYPE_CODE[sensor_type], self.n_ranks, store.max_window + 1)

    def mean_rank_performance(self, sensor_type: SensorType) -> np.ndarray:
        """Per-rank mean normalized performance (persistent-fault signal).

        ``np.nanmean``'s own operations (NaN-zeroed row sum over the
        non-NaN count), spelled out so a rank with no covered window —
        fully degraded under heavy loss — is NaN without a warning.
        """
        matrix = self.performance_matrix(sensor_type)
        covered = ~np.isnan(matrix)
        count = np.sum(covered, axis=1, dtype=np.intp)
        total = np.sum(np.where(covered, matrix, 0.0), axis=1)
        with np.errstate(invalid="ignore"):
            return total / count
