"""Transports between ranks and the analysis server (§5.4).

The paper: data reaches the analysis server "by processes sending messages
to analysis-server or by updating shared files."  The default path in this
package is direct in-memory delivery (the message analogue).  This module
adds the two hardened alternatives:

* :class:`FileSpool` — the shared-file path.  Each rank appends binary
  frames to its own spool file; the server drains the spools, either
  periodically during the run or once at the end.  The spool persists the
  dynamic-rule group string table inline (a fresh reader process decodes
  groups without the writer's memory) and a drain only ever consumes
  complete frames, so a truncated tail — a writer caught mid-append —
  is left for the next drain instead of corrupting the stream.
* :class:`ReliableTransport` — the message path over an unreliable
  channel (:mod:`repro.runtime.channel`).  Batches carry per-rank
  sequence numbers; unacknowledged batches are retransmitted on timeout
  with exponential backoff, and the server's watermark-based ingest
  deduplicates the redeliveries.  Delivery guarantee: at-least-once on
  the wire, exactly-once effect in the matrices.  Ranks whose batches
  exhaust their retry budget are marked *degraded* on the server instead
  of crashing the run.

The record wire format matches ``SliceSummary``'s accounted size, so the
§6.4 volume numbers are transport-independent.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.runtime.channel import LossyChannel
from repro.runtime.records import CODE_SENSOR_TYPE, SENSOR_TYPE_CODE, SliceSummary, SummaryColumns
from repro.runtime.server import AnalysisServer

#: one record: sensor id (u32), slice index (u32), mean duration (f32),
#: count (u16), mean cache miss scaled to u16 — 16 bytes with padding,
#: matching SliceSummary.WIRE_BYTES.
_RECORD = struct.Struct("<IIfHHxx")
_FRAME_HEADER = struct.Struct("<IHH")  # rank (u32), kind (u16), tag (u16)
_GROUP_LEN = struct.Struct("<H")

#: ``kind`` value marking a group-definition frame; record frames carry
#: their (historical) record count of 1 there.
_GROUP_FRAME = 0xFFFF

#: one complete record frame (header + packed record) as a structured
#: dtype — lets a drain decode a run of record frames with a single
#: ``np.frombuffer`` view instead of per-record ``struct.unpack_from``
_FRAME_DTYPE = np.dtype(
    [
        ("rank", "<u4"),
        ("kind", "<u2"),
        ("tag", "<u2"),
        ("sensor", "<u4"),
        ("slice", "<u4"),
        ("dur", "<f4"),
        ("count", "<u2"),
        ("miss", "<u2"),
        ("pad", "V2"),
    ]
)
assert _FRAME_DTYPE.itemsize == _FRAME_HEADER.size + _RECORD.size

_TYPE_CODE = SENSOR_TYPE_CODE
_CODE_TYPE = CODE_SENSOR_TYPE


@dataclass(slots=True)
class FileSpool:
    """Rank-side writer plus server-side drainer over a spool directory.

    Writer and reader may be different :class:`FileSpool` instances in
    different processes: the group string table travels inside the spool
    files as definition frames, emitted into each rank's file before the
    first record that uses the group.
    """

    directory: str
    #: optional :class:`~repro.obs.metrics.MetricsRegistry` for spool I/O
    #: counters
    metrics: object | None = None
    #: writer-side intern table (dynamic-rule group strings); code 0 is ""
    _groups: list[str] = field(default_factory=lambda: [""])
    #: writer-side: group codes already defined in each (job, rank) file
    _written_codes: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    #: reader-side: group tables decoded per (job, rank) file
    _reader_groups: dict[tuple[int, int], dict[int, str]] = field(default_factory=dict)
    _offsets: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, rank: int, job: int = 0) -> str:
        # Job 0 keeps the legacy single-tenant file name so existing spool
        # directories (and their byte accounting) decode unchanged; other
        # tenants get their own per-(job, rank) stream.
        if job == 0:
            return os.path.join(self.directory, f"rank{rank:05d}.spool")
        return os.path.join(self.directory, f"job{job:05d}_rank{rank:05d}.spool")

    @staticmethod
    def _parse_name(name: str) -> tuple[int, int] | None:
        """(job, rank) from a spool file name, or None if not a spool."""
        if not name.endswith(".spool"):
            return None
        stem = name[: -len(".spool")]
        if stem.startswith("job"):
            job_part, _, rank_part = stem.partition("_")
            return int(job_part[3:]), int(rank_part[4:])
        return 0, int(stem[4:])

    def _group_code(self, group: str) -> int:
        try:
            return self._groups.index(group)
        except ValueError:
            self._groups.append(group)
            code = len(self._groups) - 1
            if code > 0x0FFF:
                raise ReproError("spool group table overflow (max 4096 groups)")
            return code

    # -- rank side ---------------------------------------------------------

    def append_batch(self, rank: int, summaries: list[SliceSummary]) -> None:
        """Append one batch to the rank's per-job spool file(s).

        The batch is split by ``job_id`` (single-job batches stay one
        write); each (job, rank) stream carries its own group-definition
        frames, so a reader can drain any one tenant independently.
        """
        by_job: dict[int, list[bytes]] = {}
        for s in summaries:
            job = s.job_id
            written = self._written_codes.setdefault((job, rank), {0})
            chunks = by_job.setdefault(job, [])
            code = self._group_code(s.group)
            if code not in written:
                written.add(code)
                encoded = s.group.encode("utf-8")
                chunks.append(_FRAME_HEADER.pack(rank, _GROUP_FRAME, code))
                chunks.append(_GROUP_LEN.pack(len(encoded)))
                chunks.append(encoded)
            tag = (_TYPE_CODE[s.sensor_type] << 12) | (code & 0x0FFF)
            chunks.append(_FRAME_HEADER.pack(rank, 1, tag))
            chunks.append(
                _RECORD.pack(
                    s.sensor_id & 0xFFFFFFFF,
                    s.slice_index & 0xFFFFFFFF,
                    float(s.mean_duration),
                    min(s.count, 0xFFFF),
                    int(min(max(s.mean_cache_miss, 0.0), 1.0) * 0xFFFF),
                )
            )
        for job, chunks in by_job.items():
            with open(self._path(rank, job), "ab") as fh:
                fh.write(b"".join(chunks))
        if self.metrics is not None:
            self.metrics.counter("spool.records_written").inc(len(summaries))

    # -- server side ----------------------------------------------------------

    def drain_into(
        self,
        server: AnalysisServer,
        slice_us: float = 1000.0,
        expected_ranks: int | None = None,
        job: int = 0,
    ) -> int:
        """Read all new spool data for one job into the server.

        Only ``job``'s per-(job, rank) files are touched, so concurrent
        tenants sharing a spool directory drain independently.  With
        ``expected_ranks`` set, ranks that never produced a spool file
        are marked degraded on the server — a quiet spool must not crash
        (or silently skew) matrix rendering.  Returns summaries read.
        """
        total = 0
        present: set[int] = set()
        for name in sorted(os.listdir(self.directory)):
            parsed = self._parse_name(name)
            if parsed is None or parsed[0] != job:
                continue
            rank = parsed[1]
            path = os.path.join(self.directory, name)
            present.add(rank)
            offset = self._offsets.get((job, rank), 0)
            with open(path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
            count, consumed = self._decode_into(server, rank, data, slice_us, job)
            # Only complete frames advance the offset: a truncated tail is
            # re-read (and by then completed) on the next drain.
            self._offsets[(job, rank)] = offset + consumed
            total += count
        if expected_ranks is not None:
            for rank in range(expected_ranks):
                if rank not in present:
                    server.mark_degraded(rank)
        if self.metrics is not None:
            self.metrics.counter("spool.records_drained").inc(total)
        return total

    def _decode_into(
        self, server: AnalysisServer, rank: int, data: bytes, slice_us: float, job: int = 0
    ) -> tuple[int, int]:
        """Decode complete frames; return (records decoded, bytes consumed).

        Record frames are decoded zero-copy: a maximal run of complete
        record frames becomes one ``np.frombuffer`` structured view over
        ``data`` and goes to the server as column arrays
        (:meth:`AnalysisServer.receive_batch_columns`).  Group-definition
        frames (variable length, rare) stay on the scalar path.  Frame
        boundaries and error behaviour are unchanged: a truncated tail is
        left for the next drain, an unknown frame kind raises.
        """
        groups = self._reader_groups.setdefault((job, rank), {0: ""})
        n = len(data)
        pos = 0
        count = 0
        runs: list[np.ndarray] = []
        while pos + _FRAME_HEADER.size <= n:
            _rank, kind, tag = _FRAME_HEADER.unpack_from(data, pos)
            body = pos + _FRAME_HEADER.size
            if kind == _GROUP_FRAME:
                if body + _GROUP_LEN.size > n:
                    break
                (length,) = _GROUP_LEN.unpack_from(data, body)
                if body + _GROUP_LEN.size + length > n:
                    break
                start = body + _GROUP_LEN.size
                groups[tag] = data[start : start + length].decode("utf-8")
                pos = start + length
                continue
            if kind != 1:
                raise ReproError(
                    f"corrupt spool for rank {rank}: unknown frame kind {kind:#x} "
                    f"at offset {self._offsets.get((job, rank), 0) + pos}"
                )
            whole_frames = (n - pos) // _FRAME_DTYPE.itemsize
            if whole_frames == 0:
                break  # truncated record frame: re-read next drain
            frames = np.frombuffer(data, dtype=_FRAME_DTYPE, count=whole_frames, offset=pos)
            # The run ends at the first non-record frame (group definition
            # or corruption — the outer loop re-examines it byte-wise).
            breaks = np.flatnonzero(frames["kind"] != 1)
            run = int(breaks[0]) if len(breaks) else whole_frames
            runs.append(frames[:run])
            count += run
            pos += run * _FRAME_DTYPE.itemsize
        if count:
            frames = runs[0] if len(runs) == 1 else np.concatenate(runs)
            tags = frames["tag"]
            columns = SummaryColumns(
                rank=rank,
                sensor_id=frames["sensor"].astype(np.int64),
                sensor_type_code=(tags >> 12).astype(np.int64),
                group_code=(tags & 0x0FFF).astype(np.int64),
                group_table=groups,
                slice_index=frames["slice"].astype(np.int64),
                t_slice_start=frames["slice"].astype(np.float64) * slice_us,
                mean_duration=frames["dur"],
                count=frames["count"].astype(np.int64),
                mean_cache_miss=frames["miss"].astype(np.float64) / 0xFFFF,
                job=job,
            )
            server.receive_batch_columns(rank, columns, encoded_bytes=pos)
        return count, pos


@dataclass(slots=True)
class SpoolingRuntimeMixin:
    """Helper wiring a VSensorRuntime to a FileSpool: replace the direct
    ``server.receive_batch`` delivery with spool writes, then drain."""

    spool: FileSpool
    _direct_server: AnalysisServer | None = None

    def attach(self, runtime) -> None:
        direct_server = runtime.server
        spool = self.spool

        class _SpoolWriter:
            """Duck-typed stand-in for the server on the rank side."""

            batch_period_us = direct_server.batch_period_us

            def receive_batch(self, rank: int, summaries: list[SliceSummary]) -> None:
                spool.append_batch(rank, summaries)

        runtime.server = _SpoolWriter()  # type: ignore[assignment]
        self._direct_server = direct_server

    def finish(self, runtime, slice_us: float = 1000.0) -> AnalysisServer:
        """Drain everything and restore the real server on the runtime."""
        server = self._direct_server
        self.spool.drain_into(server, slice_us=slice_us, expected_ranks=runtime.n_ranks)
        runtime.server = server
        return server


# ---------------------------------------------------------------------------
# Reliable message transport over a lossy channel
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RetryPolicy:
    """Rank-side retransmission parameters."""

    #: first retransmit after this much virtual time without an ack
    timeout_us: float = 50_000.0
    #: exponential backoff factor per attempt
    backoff: float = 2.0
    #: backoff ceiling
    max_timeout_us: float = 1_600_000.0
    #: total send attempts per batch before the rank is marked degraded
    max_attempts: int = 16

    def retry_delay(self, attempts: int) -> float:
        return min(self.timeout_us * self.backoff ** (attempts - 1), self.max_timeout_us)


@dataclass(slots=True)
class _Pending:
    rank: int
    seq: int
    payload: tuple
    attempts: int
    next_retry_at: float
    job: int = 0


@dataclass(slots=True)
class ReliableTransport:
    """Sequenced, acked, retrying delivery of rank batches to the server.

    Duck-types the server surface :class:`VSensorRuntime` uses (install
    with ``runtime.server = transport``): rank-side sends go through the
    lossy channel, due envelopes are pumped into the real server, and a
    delivery the server accepts retires its in-flight batch.  Acks model
    the server's durable watermark being visible to ranks (the
    shared-file analogue); the simulated faults apply to the data path.
    """

    server: AnalysisServer
    channel: LossyChannel = field(default_factory=LossyChannel)
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: virtual clock: max timestamp observed from sends/pumps
    clock: float = 0.0
    #: batches abandoned after max_attempts, per rank
    gave_up: dict[int, int] = field(default_factory=dict)
    #: optional :class:`~repro.obs.metrics.MetricsRegistry` for delivery
    #: counters; ``None`` keeps the send/pump paths at one branch each
    metrics: object | None = None
    #: tenant this transport carries; stamped on every envelope so several
    #: jobs' transports can share a channel into one ingest front
    job_id: int = 0
    _next_seq: dict[tuple[int, int], int] = field(default_factory=dict)
    _pending: dict[tuple[int, int, int], _Pending] = field(default_factory=dict)
    #: group strings already encoded once per (job, rank) stream (codec
    #: state: a group definition frame goes on the wire only before its
    #: first use)
    _sent_groups: dict[tuple[int, int], set[str]] = field(default_factory=dict)
    #: encoded wire size per (job, rank, seq) — retransmissions reuse it,
    #: so a redelivered batch is accounted at exactly its original size
    _encoded: dict[tuple[int, int, int], int] = field(default_factory=dict)

    @property
    def batch_period_us(self) -> float:
        return self.server.batch_period_us

    def _encoded_size(self, rank: int, summaries: tuple | list) -> int:
        """Wire size of the batch under the spool codec (headers + group
        definition frames included) — what ``bytes_received`` accounts."""
        sent = self._sent_groups.setdefault((self.job_id, rank), {""})
        size = 0
        for s in summaries:
            if s.group not in sent:
                sent.add(s.group)
                size += _FRAME_HEADER.size + _GROUP_LEN.size + len(s.group.encode("utf-8"))
            size += _FRAME_HEADER.size + _RECORD.size
        return size

    # -- rank side ---------------------------------------------------------

    def send_batch(self, rank: int, summaries: list[SliceSummary], now: float) -> int:
        """Assign the next sequence number and launch the batch."""
        self.clock = max(self.clock, now)
        job = self.job_id
        seq = self._next_seq.get((job, rank), 0)
        self._next_seq[(job, rank)] = seq + 1
        payload = tuple(summaries)
        self._encoded[(job, rank, seq)] = self._encoded_size(rank, payload)
        self.channel.send(rank, seq, payload, self.clock, job=job)
        self._pending[(job, rank, seq)] = _Pending(
            rank=rank, seq=seq, payload=payload, attempts=1,
            next_retry_at=self.clock + self.policy.retry_delay(1), job=job,
        )
        if self.metrics is not None:
            self.metrics.counter("transport.batches_sent").inc()
        self.pump(self.clock)
        return seq

    def receive_batch(self, rank: int, summaries: list[SliceSummary]) -> None:
        """Server-duck-type entry; infers 'now' from the batch content."""
        now = max((s.t_slice_start for s in summaries), default=self.clock)
        self.send_batch(rank, summaries, max(now, self.clock))

    # -- pump --------------------------------------------------------------

    def pump(self, now: float) -> None:
        """Deliver due envelopes, retire accepted batches, retransmit stale ones.

        A batch retires the moment one of its deliveries comes back
        accepted.  The server acks exactly the sequence numbers it
        accepts, and only this transport delivers into it, so this is the
        same set of batches a scan of the server's acks after the
        deliveries would retire — and the retransmissions below, with the
        channel's RNG draws, happen in the same order.
        """
        self.clock = max(self.clock, now)
        for envelope in self.channel.deliver_due(self.clock):
            key = (envelope.job, envelope.rank, envelope.seq)
            accepted = self.server.receive_batch(
                envelope.rank,
                list(envelope.payload),
                seq=envelope.seq,
                encoded_bytes=self._encoded.get(key),
            )
            if accepted:
                retired = self._pending.pop(key, None)
                if retired is not None and self.metrics is not None:
                    self.metrics.counter("transport.batches_acked").inc()
            else:
                # An admission-controlled server (the sharded front) can
                # attach a retry-after hint to a rejection; honoring it
                # re-times the pending retransmit instead of counting the
                # copy as late (the batch was on time — the queue was full).
                retry_at = None
                hint = getattr(self.server, "pop_retry_hint", None)
                if hint is not None:
                    retry_at = hint(envelope.rank, envelope.seq)
                if retry_at is not None:
                    pending = self._pending.get(key)
                    if pending is not None:
                        pending.next_retry_at = max(pending.next_retry_at, retry_at)
                    if self.metrics is not None:
                        self.metrics.counter("transport.backpressure_deferred").inc()
                else:
                    self.channel.stats.late += 1
        for key, pending in list(self._pending.items()):
            if pending.next_retry_at <= self.clock:
                if pending.attempts >= self.policy.max_attempts:
                    del self._pending[key]
                    self.gave_up[pending.rank] = self.gave_up.get(pending.rank, 0) + 1
                    self.server.mark_degraded(pending.rank)
                    if self.metrics is not None:
                        self.metrics.counter("transport.batches_abandoned").inc()
                    continue
                self.channel.stats.retried += 1
                if self.metrics is not None:
                    self.metrics.counter("transport.retries").inc()
                pending.attempts += 1
                self.channel.send(
                    pending.rank, pending.seq, pending.payload, self.clock, job=pending.job
                )
                pending.next_retry_at = self.clock + self.policy.retry_delay(pending.attempts)

    def unacked(self) -> int:
        return len(self._pending)

    def next_wakeup(self) -> float | None:
        """Earliest virtual time at which :meth:`pump` has work: the next
        envelope arrival or the next retransmission, ``None`` when idle."""
        due = self.channel.next_due()
        if not self._pending:
            return due
        retry = min(pending.next_retry_at for pending in self._pending.values())
        return retry if due is None or retry < due else due

    def finish(self) -> AnalysisServer:
        """Drive virtual time forward until every batch is acked or abandoned."""
        while (wakeup := self.next_wakeup()) is not None:
            self.pump(max(self.clock, wakeup))
        return self.server

    # -- server duck-typing for live reporting -----------------------------

    def performance_matrix(self, sensor_type):
        return self.server.performance_matrix(sensor_type)

    def mean_rank_performance(self, sensor_type):
        return self.server.mean_rank_performance(sensor_type)

    def detect_inter_process(self, min_ranks: int = 2):
        return self.server.detect_inter_process(min_ranks)
