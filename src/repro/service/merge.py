"""Per-job query merging across shard-local stores.

Shard-local *results* are not mergeable: the per-(sensor, group) history
normalization is a cumulative minimum over all ranks' durations in
canonical slice order — ranks of one sensor live on one shard, but a
job's sensors spread across shards and the per-cell matrix means then
mix sensors again.  Any distributive merge of shard matrices would
diverge from the unsharded server in the last bits.

So the merger merges *rows*: every shard store is append-only, so
insertion positions are stable cursors, and each refresh pulls only the
rows appended since the last one into a per-job merged
:class:`~repro.runtime.server.AnalysisServer` — one
:meth:`~repro.runtime.server.AnalysisServer.pull_rows` call per shard,
which copies the delta as column blocks straight from the shard store's
columns.  Ingest there is order-invariant and identity-deduplicated, and
shard routing keys ``(job, rank, sensor)`` are a function of the
identity — so the merged store holds exactly the job's deduplicated rows
and every query is bit-identical to an unsharded server by construction.
The differential suite in ``tests/service/test_shard_equiv.py`` pins that
equivalence under random shard counts, interleavings and redelivery.
"""

from __future__ import annotations

from repro.runtime.server import AnalysisServer


class QueryMerger:
    """Incremental row gatherer + merged server for one tenant."""

    def __init__(self, port) -> None:
        self.port = port
        service = port.service
        #: insertion-position cursor per shard id
        self._cursors: dict[int, int] = {}
        self.merged = AnalysisServer(
            n_ranks=port.n_ranks,
            window_us=service.window_us,
            batch_period_us=service.batch_period_us,
            threshold=service.threshold,
        )

    def refresh(self) -> AnalysisServer:
        """Pull row deltas from every shard; return the merged server.

        A refresh that pulls rows records one ``service.merge.refresh``
        span covering the pulls.  After the gather, the merged server's
        transport-facing counters are overwritten with the front's
        authoritative per-job accounting (the merge hop is internal
        plumbing, not received traffic) and its degraded set mirrors the
        port's.
        """
        port = self.port
        service = port.service
        job = port.job_id
        merged = self.merged
        tracer = service.obs.tracer if service.obs is not None else None
        t_enter = tracer.clock() if tracer is not None else 0.0
        pulled = 0
        duplicate_summaries = 0
        for shard in service.shards:
            server = shard.servers.get(job)
            if server is None:
                continue
            cursor = self._cursors.get(shard.shard_id, 0)
            total = merged.pull_rows(server, cursor)
            pulled += total - cursor
            duplicate_summaries += server.duplicate_summaries
            self._cursors[shard.shard_id] = total
        merged.degraded = set(port.degraded)
        merged.bytes_received = port.bytes_received
        merged.batches_received = port.batches_received
        merged.summaries_received = port.summaries_received
        merged.duplicate_batches = port.duplicate_batches
        merged.duplicate_summaries = duplicate_summaries
        if pulled:
            if tracer is not None:
                # Timed from before the pulls; a refresh that pulled no
                # rows leaves no span.
                tracer.emit(
                    "service.merge.refresh",
                    t_enter,
                    tracer.clock(),
                    track="real",
                    job=job,
                    rows=pulled,
                )
            if service.metrics is not None:
                service.metrics.counter("service.merge.rows").inc(pulled)
        return merged
