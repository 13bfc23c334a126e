"""The multi-tenant ingest front of the sharded analysis service.

:class:`AnalysisService` assembles the pieces: a consistent-hash
:class:`~repro.service.router.ShardRouter`, N bounded-queue
:class:`~repro.service.shard.ShardWorker` partitions, and one
:class:`TenantPort` per registered job.  A port duck-types the
:class:`~repro.runtime.server.AnalysisServer` surface on both sides:

* **ingest** — each job's :class:`~repro.runtime.transport.
  ReliableTransport` (or the runtime directly) calls ``receive_batch``;
  the front dedups against the job's per-rank sequence watermark,
  restamps any row carrying another tenant's ``job_id`` (rows made by
  :func:`~repro.api.run_multi_job` are stamped at birth), splits the
  batch into per-shard sub-batches, and applies admission control: if
  any target shard's queue is full the whole batch is rejected *without
  consuming its sequence number*, and a retry-after hint (the
  head-of-queue projected completion) is parked for the transport's
  ``pop_retry_hint`` probe, so its exponential backoff is re-timed
  instead of burning the wire.
  When the service is built with ``rate_limit_rows_per_ms`` each tenant
  also gets a token bucket (rows per virtual millisecond, burst capacity
  ``rate_burst_rows``); a batch that would overdraw the bucket is
  rejected through the same retry-after machinery, with the hint timed
  to when the bucket will have refilled enough.  Accepted batches get
  dense per-(shard, rank) sub-sequence numbers — the PR 2
  sequenced/idempotent contract reused as the front -> shard protocol.

* **query** — matrix / summary / inter-process queries delegate to the
  job's :class:`~repro.service.merge.QueryMerger`, whose refreshed
  merged server is bit-identical to an unsharded server fed only this
  job's records.

Rejections never lose data: the sequence number stays unconsumed, the
transport redelivers, and watermark dedup upholds exactly-once effect —
``tests/service/test_backpressure.py`` pins all three.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ReproError
from repro.runtime.records import SliceSummary
from repro.runtime.seqtrack import SequenceTracker
from repro.runtime.server import AnalysisServer
from repro.service.merge import QueryMerger
from repro.service.router import ShardRouter
from repro.service.shard import ShardCostModel, ShardWorker


class AnalysisService:
    """N shard workers behind a consistent-hash ingest front."""

    def __init__(
        self,
        n_shards: int,
        *,
        window_us: float = 200_000.0,
        batch_period_us: float = 100_000.0,
        threshold: float = 0.7,
        queue_limit: int = 64,
        cost: ShardCostModel | None = None,
        vnodes: int = 64,
        rate_limit_rows_per_ms: float | None = None,
        rate_burst_rows: float | None = None,
        obs: object | None = None,
    ) -> None:
        if rate_limit_rows_per_ms is not None and rate_limit_rows_per_ms <= 0:
            raise ReproError("rate_limit_rows_per_ms must be positive")
        self.window_us = window_us
        self.batch_period_us = batch_period_us
        self.threshold = threshold
        self.rate_limit_rows_per_ms = rate_limit_rows_per_ms
        #: default burst: 4x the per-ms rate, never below one batch row
        self.rate_burst_rows = (
            rate_burst_rows
            if rate_burst_rows is not None
            else (4.0 * rate_limit_rows_per_ms if rate_limit_rows_per_ms else None)
        )
        self.obs = obs
        self.metrics = obs.metrics if obs is not None else None
        self.router = ShardRouter(n_shards, vnodes=vnodes)
        self.cost = cost if cost is not None else ShardCostModel()
        self.shards = [
            ShardWorker(
                shard_id=i,
                server_factory=self._shard_server,
                queue_limit=queue_limit,
                cost=self.cost,
                obs=obs,
                metrics=self.metrics,
            )
            for i in range(n_shards)
        ]
        self.ports: dict[int, TenantPort] = {}
        #: virtual clock — the max time any port or pump has observed
        self.clock = 0.0
        self._job_ranks: dict[int, int] = {}

    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    def _shard_server(self, job: int) -> AnalysisServer:
        # Quiet servers: the service layer owns observability, the
        # shard-local stores just hold rows.
        return AnalysisServer(
            n_ranks=self._job_ranks.get(job, 0),
            window_us=self.window_us,
            batch_period_us=self.batch_period_us,
            threshold=self.threshold,
        )

    def register_job(self, job_id: int, n_ranks: int) -> "TenantPort":
        """Admit one tenant; returns its ingest/query port."""
        if job_id in self.ports:
            raise ReproError(f"job {job_id} already registered")
        self._job_ranks[job_id] = n_ranks
        port = TenantPort(self, job_id, n_ranks)
        self.ports[job_id] = port
        if self.metrics is not None:
            self.metrics.counter("service.jobs_registered").inc()
        return port

    def pump(self, now: float) -> None:
        """Advance virtual time: let every shard apply due work."""
        self.clock = max(self.clock, now)
        for shard in self.shards:
            shard.process_due(self.clock)

    def finish(self) -> None:
        """Drain every shard queue (end of run)."""
        for shard in self.shards:
            shard.drain()
            self.clock = max(self.clock, shard.busy_until)

    def describe(self) -> str:
        queued = sum(s.queued() for s in self.shards)
        return (
            f"shards={self.n_shards} jobs={len(self.ports)} "
            f"applied={sum(s.applied_batches for s in self.shards)} queued={queued}"
        )


class TenantPort:
    """One job's window onto the service (AnalysisServer duck-type)."""

    def __init__(self, service: AnalysisService, job_id: int, n_ranks: int) -> None:
        self.service = service
        self.job_id = job_id
        self.n_ranks = n_ranks
        self.window_us = service.window_us
        self.batch_period_us = service.batch_period_us
        self.bytes_received = 0
        self.batches_received = 0
        self.summaries_received = 0
        self.duplicate_batches = 0
        #: admission rejections issued to this tenant
        self.rejected_batches = 0
        #: of which: rejections from the per-tenant token bucket
        self.ratelimited_batches = 0
        self.degraded: set[int] = set()
        #: token bucket (rows per virtual ms); starts full at burst
        self._rate = service.rate_limit_rows_per_ms
        self._burst = service.rate_burst_rows if self._rate is not None else None
        self._tokens = self._burst if self._burst is not None else 0.0
        self._refilled_at = 0.0
        self._seqs: dict[int, SequenceTracker] = {}
        #: dense sub-sequence counters per (shard, rank) stream
        self._sub_seqs: dict[tuple[int, int], int] = {}
        #: retry-after hints parked for the transport, keyed (rank, seq)
        self._retry_hints: dict[tuple[int, int], float] = {}
        self._merger = QueryMerger(self)

    # -- ingest ------------------------------------------------------------

    def receive_batch(
        self,
        rank: int,
        summaries: list[SliceSummary],
        seq: int | None = None,
        encoded_bytes: int | None = None,
    ) -> bool:
        """Admit one rank batch; False on duplicate, rate, or back-pressure.

        A rate-limit or back-pressure rejection leaves the sequence
        number unconsumed (the transport's redelivery will be brand-new
        to the watermark) and parks a retry-after hint for
        :meth:`pop_retry_hint`.  The token bucket is checked before
        shard capacity and debited only once both admit the batch, so a
        rejection never burns tokens.
        """
        service = self.service
        metrics = service.metrics
        self.batches_received += 1
        if encoded_bytes is None:
            encoded_bytes = 8 + SliceSummary.WIRE_BYTES * len(summaries)
        self.bytes_received += encoded_bytes
        tracker = None
        if seq is not None:
            tracker = self._seqs.setdefault(rank, SequenceTracker())
            if tracker.is_acked(seq):
                self.duplicate_batches += 1
                if metrics is not None:
                    metrics.counter("service.front.duplicates").inc()
                return False
        now = max(
            service.clock, max((s.t_slice_start for s in summaries), default=0.0)
        )
        service.clock = now
        job = self.job_id
        rows = summaries
        if any(s.job_id != job for s in summaries):
            rows = [s if s.job_id == job else replace(s, job_id=job) for s in summaries]
        if tracker is not None and self._rate is not None:
            rate_per_us = self._rate / 1000.0
            self._tokens = min(
                self._burst,
                self._tokens + (now - self._refilled_at) * rate_per_us,
            )
            self._refilled_at = now
            # Tolerance so a retry at exactly the hinted refill time is
            # admitted despite float rounding in rate conversions.
            if len(rows) > self._tokens + 1e-9:
                retry_at = now + (len(rows) - self._tokens) / rate_per_us
                self._retry_hints[(rank, seq)] = retry_at
                self.rejected_batches += 1
                self.ratelimited_batches += 1
                if metrics is not None:
                    metrics.counter("service.ratelimit.rejected").inc()
                return False
        split = service.router.split(job, rank, rows)
        targets = [service.shards[i] for i in split]
        for shard in targets:
            shard.process_due(now)
        if tracker is not None:
            full = [shard for shard in targets if not shard.has_capacity()]
            if full:
                retry_at = max(shard.retry_after(now) for shard in full)
                self._retry_hints[(rank, seq)] = retry_at
                self.rejected_batches += 1
                if metrics is not None:
                    metrics.counter("service.backpressure.rejected").inc()
                return False
            tracker.accept(seq)
            if self._rate is not None:
                self._tokens -= len(rows)
        self.summaries_received += len(rows)
        for shard_id, sub_rows in split.items():
            key = (shard_id, rank)
            sub_seq = self._sub_seqs.get(key, 0)
            self._sub_seqs[key] = sub_seq + 1
            service.shards[shard_id].enqueue(job, rank, sub_seq, sub_rows, now)
        if metrics is not None:
            metrics.counter("service.front.batches").inc()
            metrics.counter("service.front.rows").inc(len(rows))
        return True

    # -- transport contract ------------------------------------------------

    def pop_retry_hint(self, rank: int, seq: int) -> float | None:
        """Retry-after of the most recent rejection of (rank, seq), once."""
        return self._retry_hints.pop((rank, seq), None)

    def is_acked(self, rank: int, seq: int) -> bool:
        tracker = self._seqs.get(rank)
        return tracker is not None and tracker.is_acked(seq)

    def ack_watermark(self, rank: int) -> int:
        tracker = self._seqs.get(rank)
        return -1 if tracker is None else tracker.watermark

    def mark_degraded(self, rank: int) -> None:
        self.degraded.add(rank)

    # -- queries (merged, bit-identical to unsharded) ----------------------

    @property
    def server(self) -> AnalysisServer:
        """This job's merged analysis server, refreshed to now."""
        return self._merger.refresh()

    @property
    def inter_events(self):
        return self._merger.merged.inter_events

    @property
    def duplicate_summaries(self) -> int:
        return self._merger.merged.duplicate_summaries

    @property
    def stored_summaries(self) -> int:
        return self.server.stored_summaries

    @property
    def history(self):
        return self.server.history

    def detect_inter_process(self, min_ranks: int = 2):
        return self.server.detect_inter_process(min_ranks)

    def performance_matrix(self, sensor_type):
        return self.server.performance_matrix(sensor_type)

    def mean_rank_performance(self, sensor_type):
        return self.server.mean_rank_performance(sensor_type)

    def silent_ranks(self, now: float, staleness_us: float | None = None) -> list[int]:
        return self.server.silent_ranks(now, staleness_us)
