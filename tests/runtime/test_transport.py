"""Shared-file transport tests (§5.4's alternative delivery path)."""

import pytest

from repro.runtime.records import SliceSummary
from repro.runtime.server import AnalysisServer
from repro.runtime.transport import FileSpool
from repro.sensors.model import SensorType
from tests.oracles.reference_store import summaries_of


def summary(rank, slice_index, duration, sensor_id=1, stype=SensorType.COMPUTATION, group="", miss=0.25):
    return SliceSummary(
        rank=rank,
        sensor_id=sensor_id,
        sensor_type=stype,
        group=group,
        slice_index=slice_index,
        t_slice_start=slice_index * 1000.0,
        mean_duration=duration,
        count=4,
        mean_cache_miss=miss,
    )


def test_round_trip_preserves_fields(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [summary(0, 3, 12.5, sensor_id=42, stype=SensorType.NETWORK, group="miss1")])
    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    read = spool.drain_into(server, slice_us=1000.0)
    assert read == 1
    assert server.summaries_received == 1
    matrix = server.performance_matrix(SensorType.NETWORK)
    assert matrix.shape == (2, 4)


def test_equivalent_to_direct_delivery(tmp_path):
    batches = {
        0: [summary(0, 0, 10.0), summary(0, 1, 20.0)],
        1: [summary(1, 0, 10.0), summary(1, 1, 10.0)],
    }
    direct = AnalysisServer(n_ranks=2, window_us=1000.0)
    for rank, batch in batches.items():
        direct.receive_batch(rank, batch)

    spool = FileSpool(directory=str(tmp_path))
    for rank, batch in batches.items():
        spool.append_batch(rank, batch)
    spooled = AnalysisServer(n_ranks=2, window_us=1000.0)
    spool.drain_into(spooled, slice_us=1000.0)

    import numpy as np

    d = direct.performance_matrix(SensorType.COMPUTATION)
    s = spooled.performance_matrix(SensorType.COMPUTATION)
    assert np.allclose(np.nan_to_num(d, nan=-1), np.nan_to_num(s, nan=-1), rtol=1e-6)


def test_incremental_drain_reads_only_new_data(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    server = AnalysisServer(n_ranks=1, window_us=1000.0)
    spool.append_batch(0, [summary(0, 0, 10.0)])
    assert spool.drain_into(server) == 1
    assert spool.drain_into(server) == 0
    spool.append_batch(0, [summary(0, 1, 10.0)])
    assert spool.drain_into(server) == 1


def test_multiple_ranks_separate_spools(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    for rank in range(4):
        spool.append_batch(rank, [summary(rank, 0, 10.0)])
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [f"rank{r:05d}.spool" for r in range(4)]
    server = AnalysisServer(n_ranks=4, window_us=1000.0)
    assert spool.drain_into(server) == 4


class _CapturingServer(AnalysisServer):
    """Records every summary of each accepted wire-path batch, decoded to
    objects (AnalysisServer uses slots, so the capture must be a subclass
    override, not a monkeypatch)."""

    captured: list = []

    def receive_batch_columns(self, rank, columns, seq=None, encoded_bytes=None):
        accepted = super().receive_batch_columns(rank, columns, seq, encoded_bytes)
        if accepted:
            type(self).captured.extend(summaries_of(columns))
        return accepted


def test_cache_miss_quantization_error_small(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [summary(0, 0, 10.0, miss=0.333)])
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0)
    spool.drain_into(server)
    assert _CapturingServer.captured[0].mean_cache_miss == pytest.approx(0.333, abs=1e-4)


def test_group_interning_round_trip(tmp_path):
    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [summary(0, 0, 10.0, group="H"), summary(0, 1, 12.0, group="L")])
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0)
    spool.drain_into(server)
    assert [s.group for s in _CapturingServer.captured] == ["H", "L"]


def test_group_interning_survives_fresh_reader(tmp_path):
    """The group string table is persisted in the spool files: a reader
    built in a different process (fresh instance, no shared memory with
    the writer) must decode every group, not ""."""
    writer = FileSpool(directory=str(tmp_path))
    writer.append_batch(0, [summary(0, 0, 10.0, group="H"), summary(0, 1, 12.0, group="L")])
    writer.append_batch(1, [summary(1, 0, 11.0, group="L")])
    # Second batch re-uses an already-defined group: no redefinition frame.
    writer.append_batch(0, [summary(0, 2, 10.5, group="H")])

    reader = FileSpool(directory=str(tmp_path))
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=2, window_us=1000.0)
    assert reader.drain_into(server) == 4
    by_rank = sorted((s.rank, s.slice_index, s.group) for s in _CapturingServer.captured)
    assert by_rank == [(0, 0, "H"), (0, 1, "L"), (0, 2, "H"), (1, 0, "L")]


def test_fresh_reader_between_incremental_drains(tmp_path):
    """Group codes defined before a reader's first drain still resolve in
    later drains (the reader's table persists across drains)."""
    writer = FileSpool(directory=str(tmp_path))
    writer.append_batch(0, [summary(0, 0, 10.0, group="band9")])
    reader = FileSpool(directory=str(tmp_path))
    server = _CapturingServer(n_ranks=1, window_us=1000.0)
    _CapturingServer.captured = []
    assert reader.drain_into(server) == 1
    writer.append_batch(0, [summary(0, 1, 10.0, group="band9")])
    assert reader.drain_into(server) == 1
    assert [s.group for s in _CapturingServer.captured] == ["band9", "band9"]


# -- wire-format round-trips -------------------------------------------------


def test_count_saturates_at_u16(tmp_path):
    import dataclasses

    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [dataclasses.replace(summary(0, 0, 10.0), count=100_000)])
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0)
    spool.drain_into(server)
    assert _CapturingServer.captured[0].count == 0xFFFF


def test_cache_miss_u16_quantization_bound(tmp_path):
    """Decoded miss rate is within one u16 quantum of the original."""
    import dataclasses

    rates = [0.0, 1e-6, 0.123456, 0.5, 0.999999, 1.0, 1.7, -0.3]
    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(
        0,
        [
            dataclasses.replace(summary(0, i, 10.0), mean_cache_miss=rate)
            for i, rate in enumerate(rates)
        ],
    )
    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0)
    spool.drain_into(server)
    for original, decoded in zip(rates, _CapturingServer.captured):
        clamped = min(max(original, 0.0), 1.0)
        assert 0.0 <= decoded.mean_cache_miss <= 1.0
        assert abs(decoded.mean_cache_miss - clamped) <= 1.0 / 0xFFFF


def test_truncated_tail_does_not_corrupt_next_drain(tmp_path):
    """A partial record at EOF (writer caught mid-append) is skipped and
    decoded intact once the rest of the bytes land."""
    import os

    writer = FileSpool(directory=str(tmp_path))
    writer.append_batch(0, [summary(0, 0, 10.0), summary(0, 1, 11.0, group="tail")])
    path = os.path.join(str(tmp_path), "rank00000.spool")
    with open(path, "rb") as fh:
        full = fh.read()

    for cut in range(1, len(full)):
        reader = FileSpool(directory=str(tmp_path))
        _CapturingServer.captured = []
        server = _CapturingServer(n_ranks=1, window_us=1000.0)
        with open(path, "wb") as fh:
            fh.write(full[:cut])
        reader.drain_into(server)
        with open(path, "wb") as fh:
            fh.write(full)
        reader.drain_into(server)
        got = sorted((s.slice_index, s.group, round(s.mean_duration, 3))
                     for s in _CapturingServer.captured)
        assert got == [(0, "", 10.0), (1, "tail", 11.0)], f"cut at byte {cut}"


def test_end_to_end_spooled_run(tmp_path):
    """Full pipeline with spool delivery: same matrices as direct."""
    from repro.api import run_vsensor
    from repro.runtime.transport import SpoolingRuntimeMixin
    from repro.sim import MachineConfig
    from tests.conftest import SIMPLE_MPI_PROGRAM
    import numpy as np

    machine = MachineConfig(n_ranks=4, ranks_per_node=2)
    direct = run_vsensor(SIMPLE_MPI_PROGRAM, machine, window_us=2000.0)

    # Spooled: intercept the runtime before the simulation starts.
    from repro.api import compile_and_instrument
    from repro.runtime.vsensor_hooks import VSensorRuntime
    from repro.runtime.server import AnalysisServer
    from repro.sim import Simulator

    static = compile_and_instrument(SIMPLE_MPI_PROGRAM)
    runtime = VSensorRuntime(
        sensors=static.program.sensors,
        n_ranks=4,
        server=AnalysisServer(n_ranks=4, window_us=2000.0, batch_period_us=100_000.0),
    )
    mixin = SpoolingRuntimeMixin(spool=FileSpool(directory=str(tmp_path)))
    mixin.attach(runtime)
    Simulator(static.program.module, machine, sensors=static.program.sensors).run(runtime)
    server = mixin.finish(runtime)

    d = direct.report.matrices[SensorType.COMPUTATION]
    s = server.performance_matrix(SensorType.COMPUTATION)
    assert s.shape == d.shape
    # Same cells populated; values agree to quantization.
    assert np.array_equal(np.isfinite(d), np.isfinite(s))
    assert np.allclose(d[np.isfinite(d)], s[np.isfinite(s)], rtol=1e-4)


# -- reliable message transport over a lossy channel -------------------------


def _batches(n_ranks=2, slices=6):
    return {
        rank: [[summary(rank, s, 10.0 + rank)] for s in range(slices)]
        for rank in range(n_ranks)
    }


def _send_all(transport, batches):
    from itertools import chain

    for rank, per_rank in batches.items():
        for i, batch in enumerate(per_rank):
            transport.send_batch(rank, batch, now=float(i) * 1000.0)
    return transport


def test_reliable_transport_recovers_from_drops():
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport

    import numpy as np

    batches = _batches()
    direct = AnalysisServer(n_ranks=2, window_us=1000.0)
    for rank, per_rank in batches.items():
        for batch in per_rank:
            direct.receive_batch(rank, batch)

    lossy = AnalysisServer(n_ranks=2, window_us=1000.0)
    channel = LossyChannel(config=ChannelConfig(drop_rate=0.4, reorder_rate=0.3, seed=11))
    transport = ReliableTransport(server=lossy, channel=channel)
    _send_all(transport, batches)
    transport.finish()

    assert transport.unacked() == 0
    assert channel.stats.dropped > 0, "the scenario must actually exercise loss"
    assert channel.stats.retried >= channel.stats.dropped
    d = direct.performance_matrix(SensorType.COMPUTATION)
    s = lossy.performance_matrix(SensorType.COMPUTATION)
    assert np.array_equal(d, s, equal_nan=True), "recovered matrices are bit-identical"
    assert lossy.degraded == set()


def test_reliable_transport_dedupes_channel_duplicates():
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport

    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    channel = LossyChannel(config=ChannelConfig(dup_rate=0.9, seed=3))
    transport = ReliableTransport(server=server, channel=channel)
    _send_all(transport, _batches())
    transport.finish()

    assert channel.stats.duplicated > 0
    assert server.duplicate_batches > 0
    assert server.duplicate_summaries == 0, "duplicates die at the seq watermark"
    # Every unique summary arrived exactly once in effect.
    assert server.stored_summaries == 12


def test_reliable_transport_gives_up_and_marks_degraded():
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport, RetryPolicy

    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    channel = LossyChannel(config=ChannelConfig(drop_rate=0.97, seed=5))
    policy = RetryPolicy(timeout_us=1000.0, max_attempts=3)
    transport = ReliableTransport(server=server, channel=channel, policy=policy)
    _send_all(transport, _batches())
    transport.finish()

    assert transport.unacked() == 0, "finish() always terminates"
    assert sum(transport.gave_up.values()) > 0
    assert server.degraded, "abandoned ranks are marked degraded"
    # Degraded ranks must not crash matrix rendering.
    matrix = server.performance_matrix(SensorType.COMPUTATION)
    assert matrix.shape[0] == 2


def test_reliable_transport_infers_time_from_batches():
    """The duck-typed receive_batch path (no explicit now) still delivers."""
    from repro.runtime.channel import perfect_channel
    from repro.runtime.transport import ReliableTransport

    server = AnalysisServer(n_ranks=1, window_us=1000.0)
    transport = ReliableTransport(server=server, channel=perfect_channel())
    transport.receive_batch(0, [summary(0, 0, 10.0)])
    transport.receive_batch(0, [summary(0, 5, 10.0)])
    transport.finish()
    assert server.summaries_received == 2
    assert transport.clock >= 5000.0


# -- multi-tenant (job-keyed) wire formats -----------------------------------


def test_spool_splits_mixed_job_batch_into_per_job_files(tmp_path):
    """A batch carrying several tenants lands in per-(job, rank) files,
    with job 0 keeping the legacy single-tenant file name."""
    import os
    from dataclasses import replace

    spool = FileSpool(directory=str(tmp_path))
    rows = [
        summary(0, 0, 10.0),
        replace(summary(0, 1, 11.0), job_id=3),
        summary(0, 2, 12.0),
    ]
    spool.append_batch(0, rows)
    assert sorted(os.listdir(tmp_path)) == [
        "job00003_rank00000.spool",
        "rank00000.spool",
    ]


def test_spool_drains_one_tenant_independently(tmp_path):
    """drain_into(job=...) reads only that tenant's streams and keeps an
    independent incremental offset per (job, rank)."""
    from dataclasses import replace

    spool = FileSpool(directory=str(tmp_path))
    spool.append_batch(0, [summary(0, s, 10.0) for s in range(2)])
    spool.append_batch(
        0, [replace(summary(0, s, 20.0), job_id=3) for s in range(3)]
    )
    spool.append_batch(1, [replace(summary(1, 0, 21.0), job_id=3)])

    server3 = AnalysisServer(n_ranks=2, window_us=1000.0)
    assert spool.drain_into(server3, job=3) == 4
    assert server3.stored_summaries == 4

    server0 = AnalysisServer(n_ranks=2, window_us=1000.0)
    assert spool.drain_into(server0, job=0) == 2
    assert server0.stored_summaries == 2

    # Incremental per-tenant offsets: new job-3 data only.
    spool.append_batch(0, [replace(summary(0, 9, 22.0), job_id=3)])
    assert spool.drain_into(server3, job=3) == 1
    assert spool.drain_into(server0, job=0) == 0


def test_spool_job_round_trip_preserves_job_id_and_groups(tmp_path):
    """Decoded rows carry the tenant id and the per-(job, rank) interned
    group strings."""
    from dataclasses import replace

    spool = FileSpool(directory=str(tmp_path))
    row = replace(summary(0, 4, 17.5, group="phase-a"), job_id=6)
    spool.append_batch(0, [row, summary(0, 5, 9.0, group="phase-b")])

    _CapturingServer.captured = []
    server = _CapturingServer(n_ranks=1, window_us=1000.0)
    assert spool.drain_into(server, job=6) == 1
    (decoded,) = _CapturingServer.captured
    assert decoded.job_id == 6
    assert decoded.group == "phase-a"
    assert decoded.slice_index == 4
    assert decoded.mean_duration == pytest.approx(17.5)

    _CapturingServer.captured = []
    server0 = _CapturingServer(n_ranks=1, window_us=1000.0)
    assert spool.drain_into(server0, job=0) == 1
    (legacy,) = _CapturingServer.captured
    assert legacy.job_id == 0
    assert legacy.group == "phase-b"


def test_reliable_transport_recovers_with_nonzero_job_id():
    """Sequencing, retransmit lookup, and acks are keyed by (job, rank):
    a tenant with a non-zero job_id survives a lossy channel exactly like
    the single-tenant path."""
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport, RetryPolicy

    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    channel = LossyChannel(config=ChannelConfig(drop_rate=0.4, dup_rate=0.2, seed=13))
    transport = ReliableTransport(
        server=server,
        channel=channel,
        policy=RetryPolicy(timeout_us=1000.0, max_attempts=12),
        job_id=7,
    )
    _send_all(transport, _batches())
    assert all(key[0] == 7 for key in transport._next_seq)
    transport.finish()
    assert transport.unacked() == 0
    assert transport.gave_up == {}
    assert server.stored_summaries == 12
    assert channel.stats.dropped > 0, "the channel really was lossy"


# -- retire-on-accept vs the scanning pump -----------------------------------


def _scanning_transport_cls():
    """A ReliableTransport whose pump retires batches the old way: after
    the deliveries, scan every pending batch and ask the server whether it
    acked it."""
    from repro.runtime.transport import ReliableTransport

    class ScanningTransport(ReliableTransport):
        def pump(self, now: float) -> None:
            self.clock = max(self.clock, now)
            for envelope in self.channel.deliver_due(self.clock):
                accepted = self.server.receive_batch(
                    envelope.rank,
                    list(envelope.payload),
                    seq=envelope.seq,
                    encoded_bytes=self._encoded.get(
                        (envelope.job, envelope.rank, envelope.seq)
                    ),
                )
                if not accepted:
                    retry_at = None
                    hint = getattr(self.server, "pop_retry_hint", None)
                    if hint is not None:
                        retry_at = hint(envelope.rank, envelope.seq)
                    if retry_at is not None:
                        pending = self._pending.get(
                            (envelope.job, envelope.rank, envelope.seq)
                        )
                        if pending is not None:
                            pending.next_retry_at = max(pending.next_retry_at, retry_at)
                    else:
                        self.channel.stats.late += 1
            for key, pending in list(self._pending.items()):
                if self.server.is_acked(pending.rank, pending.seq):
                    del self._pending[key]
                elif pending.next_retry_at <= self.clock:
                    if pending.attempts >= self.policy.max_attempts:
                        del self._pending[key]
                        self.gave_up[pending.rank] = self.gave_up.get(pending.rank, 0) + 1
                        self.server.mark_degraded(pending.rank)
                        continue
                    self.channel.stats.retried += 1
                    pending.attempts += 1
                    self.channel.send(
                        pending.rank, pending.seq, pending.payload, self.clock, job=pending.job
                    )
                    pending.next_retry_at = self.clock + self.policy.retry_delay(
                        pending.attempts
                    )

    return ScanningTransport


def _recording_channel(config):
    """A LossyChannel that logs every send (first copies and retries)."""
    from repro.runtime.channel import LossyChannel

    class RecordingChannel(LossyChannel):
        def send(self, rank, seq, payload, now, job=0):
            self.log.append((rank, seq, now, job))
            super().send(rank, seq, payload, now, job=job)

    channel = RecordingChannel(config=config)
    channel.log = []
    return channel


def _drive_transport(transport_cls, config, policy, sharded, n_ranks=3, n_batches=8):
    """Send every rank's batches, then drive to quiescence the way
    run_multi_job does; return everything delivery can influence."""
    from repro.service import AnalysisService, ShardCostModel

    if sharded:
        service = AnalysisService(
            2, window_us=1000.0, queue_limit=1, cost=ShardCostModel(base_us=1_500.0)
        )
        server = service.register_job(5, n_ranks)
    else:
        service = None
        server = AnalysisServer(n_ranks=n_ranks, window_us=1000.0)
    channel = _recording_channel(config)
    transport = transport_cls(server=server, channel=channel, policy=policy, job_id=5)
    for i in range(n_batches):
        for rank in range(n_ranks):
            batch = [summary(rank, i, 10.0 + rank, sensor_id=s) for s in (1, 2, 3)]
            now = i * 1000.0 + rank
            transport.send_batch(rank, batch, now)
            if service is not None:
                service.pump(now)
    while (t := transport.next_wakeup()) is not None:
        if service is not None:
            service.pump(t)
        transport.pump(t)
    if service is not None:
        service.finish()
    return {
        "sends": channel.log,
        "stats": channel.stats.as_dict(),
        "gave_up": transport.gave_up,
        "degraded": set(server.degraded),
        "stored": server.stored_summaries,
        "received": (server.batches_received, server.duplicate_batches),
        "rejected": getattr(server, "rejected_batches", None),
    }


@pytest.mark.parametrize("sharded", [False, True], ids=["server", "backpressure"])
@pytest.mark.parametrize(
    "drop, dup, reorder, max_attempts, seed",
    [
        (0.0, 0.0, 0.0, 16, 1),
        (0.3, 0.0, 0.0, 16, 2),
        (0.0, 0.5, 0.0, 16, 3),
        (0.0, 0.0, 0.5, 16, 4),
        (0.3, 0.3, 0.3, 16, 5),
        (0.6, 0.2, 0.2, 3, 6),
        (0.9, 0.1, 0.1, 2, 7),
    ],
)
def test_retire_on_accept_matches_scanning_pump(drop, dup, reorder, max_attempts, seed, sharded):
    """Retiring a batch when its delivery is accepted gives the same
    retransmissions (and so the same channel RNG draws), statistics,
    give-ups and degraded ranks as scanning the server's acks."""
    from repro.runtime.channel import ChannelConfig
    from repro.runtime.transport import ReliableTransport, RetryPolicy

    config = ChannelConfig(
        drop_rate=drop, dup_rate=dup, reorder_rate=reorder,
        delay_us=300.0, jitter_us=500.0, reorder_delay_us=4_000.0, seed=seed,
    )
    policy = RetryPolicy(timeout_us=1_000.0, max_timeout_us=8_000.0, max_attempts=max_attempts)
    new = _drive_transport(ReliableTransport, config, policy, sharded)
    old = _drive_transport(_scanning_transport_cls(), config, policy, sharded)
    assert new == old
    assert new["stats"]["retried"] > 0 or not (drop or sharded)
    if sharded:
        assert new["rejected"] > 0, "the scenario must exercise back-pressure"


def test_next_wakeup_is_earliest_arrival_or_retry():
    """``next_wakeup`` is the earliest in-flight arrival or retransmission
    time, and ``None`` once every batch is acked."""
    from repro.runtime.channel import ChannelConfig, LossyChannel
    from repro.runtime.transport import ReliableTransport, RetryPolicy

    server = AnalysisServer(n_ranks=2, window_us=1000.0)
    channel = LossyChannel(config=ChannelConfig(delay_us=500.0))
    transport = ReliableTransport(
        server=server, channel=channel, policy=RetryPolicy(timeout_us=200.0)
    )
    assert transport.next_wakeup() is None
    transport.send_batch(0, [summary(0, 0, 10.0)], now=0.0)
    # The retransmit (t=200) is due before the first copy arrives (t=500).
    assert transport.next_wakeup() == 200.0
    transport.pump(200.0)
    assert transport.next_wakeup() == 500.0 == channel.next_due()
    transport.finish()
    assert transport.next_wakeup() is None
    assert server.stored_summaries == 1
