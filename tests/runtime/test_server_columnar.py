"""Differential suite: the columnar store vs the reference store oracle.

The columnar data path (:mod:`repro.runtime.columnar`) must be
**bit-identical** to the object-at-a-time replay of
``tests/oracles/reference_store.py`` — matrices,
inter-process events, history standards, and every counter — under any
ingest order, redelivery, degraded ranks, and interleaved live queries
(the interleaving is what forces the incremental-replay epochs).  These
properties are the contract; approximate agreement is a failure.
"""

from __future__ import annotations

import random
import tempfile
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Obs
from repro.runtime.history import SensorHistory, observe_block
from repro.runtime.records import SENSOR_TYPE_CODE, SliceSummary, SummaryColumns
from repro.runtime.server import AnalysisServer
from repro.sensors.model import SensorType
from tests.oracles import make_server, reference_store

N_RANKS = 4


def _summary(rank, sensor_id, stype, group, slice_index, duration, miss=0.1):
    return SliceSummary(
        rank=rank,
        sensor_id=sensor_id,
        sensor_type=stype,
        group=group,
        slice_index=slice_index,
        t_slice_start=slice_index * 1000.0,
        mean_duration=duration,
        count=3,
        mean_cache_miss=miss,
    )


@st.composite
def batch_pools(draw):
    """A pool of per-rank batches with unique summary identities."""
    keys = draw(
        st.sets(
            st.tuples(
                st.integers(0, N_RANKS - 1),        # rank
                st.sampled_from([1, 2]),            # sensor
                st.sampled_from(["", "H", "L"]),    # group
                st.integers(0, 5),                  # slice
            ),
            min_size=1,
            max_size=40,
        )
    )
    summaries = []
    for rank, sensor_id, group, slice_index in sorted(keys):
        duration = draw(st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
        stype = SensorType.COMPUTATION if sensor_id == 1 else SensorType.NETWORK
        summaries.append(_summary(rank, sensor_id, stype, group, slice_index, duration))
    batches = []
    for rank in range(N_RANKS):
        mine = [s for s in summaries if s.rank == rank]
        size = draw(st.integers(1, 4))
        for seq, start in enumerate(range(0, len(mine), size)):
            batches.append((rank, mine[start : start + size], seq))
    return batches


def _servers() -> tuple[AnalysisServer, AnalysisServer]:
    return (
        make_server("reference", n_ranks=N_RANKS, window_us=2000.0),
        make_server("columnar", n_ranks=N_RANKS, window_us=2000.0),
    )


_COUNTERS = (
    "bytes_received",
    "batches_received",
    "summaries_received",
    "duplicate_batches",
    "duplicate_summaries",
)


def _assert_equivalent(ref: AnalysisServer, col: AnalysisServer) -> None:
    for stype in SensorType:
        assert np.array_equal(
            ref.performance_matrix(stype), col.performance_matrix(stype), equal_nan=True
        ), f"{stype} matrix differs"
        assert np.array_equal(
            ref.mean_rank_performance(stype),
            col.mean_rank_performance(stype),
            equal_nan=True,
        )
    assert ref.detect_inter_process() == col.detect_inter_process()
    assert ref.history._standard == col.history._standard
    assert ref.stored_summaries == col.stored_summaries
    assert ref.degraded == col.degraded
    for name in _COUNTERS:
        assert getattr(ref, name) == getattr(col, name), f"{name} differs"


# -- hypothesis differential properties --------------------------------------


@given(
    pool=batch_pools(),
    order_seed=st.integers(0, 2**32 - 1),
    dup_seed=st.integers(0, 2**32 - 1),
    degraded=st.sets(st.integers(0, N_RANKS - 1), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_engines_bit_identical_under_redelivery(pool, order_seed, dup_seed, degraded):
    rng = random.Random(dup_seed)
    stream = list(pool) + [b for b in pool if rng.random() < 0.4]
    random.Random(order_seed).shuffle(stream)
    ref, col = _servers()
    for rank, batch, seq in stream:
        accepted_ref = ref.receive_batch(rank, list(batch), seq=seq)
        accepted_col = col.receive_batch(rank, list(batch), seq=seq)
        assert accepted_ref == accepted_col
    for rank in degraded:
        ref.mark_degraded(rank)
        col.mark_degraded(rank)
    _assert_equivalent(ref, col)


@given(
    pool=batch_pools(),
    order_seed=st.integers(0, 2**32 - 1),
    query_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_engines_bit_identical_under_interleaved_queries(pool, order_seed, query_seed):
    """Queries between ingests force the columnar store's incremental
    epochs (roll-forward from carried-in standards) — the replayed state
    must still match the reference's from-scratch recompute exactly."""
    stream = list(pool)
    random.Random(order_seed).shuffle(stream)
    rng = random.Random(query_seed)
    ref, col = _servers()
    for rank, batch, seq in stream:
        ref.receive_batch(rank, list(batch), seq=seq)
        col.receive_batch(rank, list(batch), seq=seq)
        if rng.random() < 0.6:
            stype = rng.choice(list(SensorType))
            assert np.array_equal(
                ref.performance_matrix(stype), col.performance_matrix(stype), equal_nan=True
            )
        if rng.random() < 0.3:
            assert ref.detect_inter_process() == col.detect_inter_process()
    _assert_equivalent(ref, col)


@given(
    pool=batch_pools(),
    order_seed=st.integers(0, 2**32 - 1),
    drain_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_spool_drain_differential(pool, order_seed, drain_seed):
    """The zero-copy batch decode feeds both engines identically: write
    the pool through a FileSpool, drain into each engine with interleaved
    partial drains, and require bit-identical state (including the
    actual-encoded-size byte accounting, which both engines share)."""
    from repro.runtime.transport import FileSpool

    stream = list(pool)
    random.Random(order_seed).shuffle(stream)
    rng = random.Random(drain_seed)
    with tempfile.TemporaryDirectory() as directory:
        writer = FileSpool(directory=directory)
        ref, col = _servers()
        ref_reader = FileSpool(directory=directory)
        col_reader = FileSpool(directory=directory)
        for rank, batch, _seq in stream:
            writer.append_batch(rank, list(batch))
            if rng.random() < 0.4:
                assert ref_reader.drain_into(ref) == col_reader.drain_into(col)
            if rng.random() < 0.3:
                stype = rng.choice(list(SensorType))
                assert np.array_equal(
                    ref.performance_matrix(stype),
                    col.performance_matrix(stype),
                    equal_nan=True,
                )
        assert ref_reader.drain_into(ref) == col_reader.drain_into(col)
        _assert_equivalent(ref, col)


def _columns_of(rank: int, batch: list[SliceSummary]) -> SummaryColumns:
    """The wire-path (zero-copy decoded) form of one rank batch."""
    table = dict(enumerate(sorted({s.group for s in batch})))
    code_of = {group: code for code, group in table.items()}
    return SummaryColumns(
        rank=rank,
        sensor_id=np.array([s.sensor_id for s in batch], np.int64),
        sensor_type_code=np.array([SENSOR_TYPE_CODE[s.sensor_type] for s in batch], np.int64),
        group_code=np.array([code_of[s.group] for s in batch], np.int64),
        group_table=table,
        slice_index=np.array([s.slice_index for s in batch], np.int64),
        t_slice_start=np.array([s.t_slice_start for s in batch], np.float64),
        mean_duration=np.array([s.mean_duration for s in batch], np.float64),
        count=np.array([s.count for s in batch], np.int64),
        mean_cache_miss=np.array([s.mean_cache_miss for s in batch], np.float64),
    )


@given(
    pool=batch_pools(),
    order_seed=st.integers(0, 2**32 - 1),
    op_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_staged_ingest_matches_reference_and_eager_store(pool, order_seed, op_seed):
    """Object-form batches are staged and copied into the columns only
    when something reads them.  Interleave staged ingest, wire-path
    ingest, cursor exports and queries (with redelivery): rows, exports,
    matrices, history standards and counters equal the reference engine
    and a columnar store that materializes after every batch."""
    rng = random.Random(op_seed)
    stream = list(pool) + [b for b in pool if rng.random() < 0.3]
    random.Random(order_seed).shuffle(stream)
    ref, lazy = _servers()
    eager = AnalysisServer(n_ranks=N_RANKS, window_us=2000.0)
    servers = (ref, lazy, eager)
    cursors = [0, 0, 0]
    for rank, batch, seq in stream:
        wire = rng.random() < 0.3
        with_seq = rng.random() < 0.7
        accepted = set()
        for server in servers:
            if wire:
                accepted.add(
                    server.receive_batch_columns(
                        rank, _columns_of(rank, batch), seq=seq if with_seq else None
                    )
                )
            else:
                accepted.add(
                    server.receive_batch(rank, list(batch), seq=seq if with_seq else None)
                )
        assert len(accepted) == 1
        eager._store._materialize()
        assert not eager._store._staged
        assert len({server.stored_summaries for server in servers}) == 1
        if rng.random() < 0.3:
            exports = []
            for i, server in enumerate(servers):
                rows, total = server.export_rows(cursors[i])
                cursors[i] = total
                exports.append((rows, total))
            assert exports[0] == exports[1] == exports[2]
        if rng.random() < 0.3:
            stype = rng.choice(list(SensorType))
            ref_matrix = ref.performance_matrix(stype)
            for server in (lazy, eager):
                assert np.array_equal(
                    ref_matrix, server.performance_matrix(stype), equal_nan=True
                )
        if rng.random() < 0.2:
            assert ref.detect_inter_process() == lazy.detect_inter_process()
            assert ref.detect_inter_process() == eager.detect_inter_process()
    full = [server.export_rows(0) for server in servers]
    assert full[0] == full[1] == full[2]
    for col in (lazy, eager):
        _assert_equivalent(ref, col)
        assert ref._sensor_types == col._sensor_types
        assert ref._last_seen == col._last_seen


@given(
    durations=st.lists(
        st.floats(min_value=-5.0, max_value=100.0, allow_nan=False), max_size=30
    ),
    chunk=st.integers(1, 5),
)
@settings(max_examples=200, deadline=None)
def test_observe_block_matches_scalar_history(durations, chunk):
    """The vectorized cumulative-min kernel reproduces SensorHistory.observe
    bit-for-bit, including across chunk boundaries (epoch carry-over)."""
    history = SensorHistory()
    expected = [history.observe(1, "", d) for d in durations]
    got: list[float] = []
    standard = None
    for start in range(0, len(durations), chunk):
        perf, standard = observe_block(
            np.asarray(durations[start : start + chunk], np.float64), standard
        )
        got.extend(perf.tolist())
    assert got == expected
    if durations:
        assert standard == history.standard_time(1)


# -- replay epochs and observability -----------------------------------------


def _obs_server(n_ranks=2, window_us=1000.0) -> tuple[AnalysisServer, Obs]:
    obs = Obs.create()
    server = AnalysisServer(
        n_ranks=n_ranks, window_us=window_us, metrics=obs.metrics, obs=obs
    )
    return server, obs


def _replay_counters(obs: Obs) -> dict[str, int]:
    counters = obs.metrics.as_dict()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("server.replay.")}


def test_append_only_epochs_replay_incrementally():
    server, obs = _obs_server()
    server.receive_batch(0, [_summary(0, 1, SensorType.COMPUTATION, "", s, 10.0) for s in range(3)])
    server.performance_matrix(SensorType.COMPUTATION)
    assert _replay_counters(obs) == {"server.replay.full": 1}
    # New rows all sort after everything replayed: roll forward.
    server.receive_batch(0, [_summary(0, 1, SensorType.COMPUTATION, "", s, 9.0) for s in range(3, 6)])
    server.performance_matrix(SensorType.COMPUTATION)
    assert _replay_counters(obs) == {"server.replay.full": 1, "server.replay.incremental": 1}
    # A row for an earlier slice lands after the fact: full re-sort.
    server.receive_batch(1, [_summary(1, 1, SensorType.COMPUTATION, "", 0, 11.0)])
    server.performance_matrix(SensorType.COMPUTATION)
    assert _replay_counters(obs) == {"server.replay.full": 2, "server.replay.incremental": 1}
    spans = [r for r in obs.tracer.records() if r.name == "server.replay"]
    assert [s.attrs["kind"] for s in spans] == ["full", "incremental", "full"]
    assert [s.attrs["rows"] for s in spans] == [3, 3, 7]


def test_pure_queries_emit_no_replay_spans():
    server, obs = _obs_server()
    server.receive_batch(0, [_summary(0, 1, SensorType.COMPUTATION, "", 0, 10.0)])
    server.performance_matrix(SensorType.COMPUTATION)
    before = len(obs.tracer.records())
    for _ in range(3):
        server.performance_matrix(SensorType.COMPUTATION)
        server.detect_inter_process()
    assert len(obs.tracer.records()) == before


def test_stored_summaries_counts_deduplicated_rows():
    ref, col = _servers()
    batch = [_summary(0, 1, SensorType.COMPUTATION, "", 0, 10.0)]
    for server in (ref, col):
        server.receive_batch(0, batch)
        server.receive_batch(0, batch)  # identity duplicate, no seq
        assert server.stored_summaries == 1
        assert server.duplicate_summaries == 1


@pytest.mark.parametrize("engine", ["reference", "columnar"])
def test_pull_rows_is_idempotent(engine):
    """Pulling rows another server already gave is identity-deduplicated
    like any ingest: re-pulling from cursor 0 stores nothing new."""
    source = make_server(engine, n_ranks=N_RANKS, window_us=2000.0)
    for rank in range(N_RANKS):
        source.receive_batch(
            rank,
            [_summary(rank, 1, SensorType.COMPUTATION, "H", s, 10.0 + rank) for s in range(3)],
        )
    merged = make_server(engine, n_ranks=N_RANKS, window_us=2000.0)
    assert merged.pull_rows(source) == 3 * N_RANKS
    assert merged.pull_rows(source, 0) == 3 * N_RANKS
    assert merged.stored_summaries == 3 * N_RANKS
    assert merged.duplicate_summaries == 3 * N_RANKS
    assert np.array_equal(
        merged.performance_matrix(SensorType.COMPUTATION),
        source.performance_matrix(SensorType.COMPUTATION),
        equal_nan=True,
    )


# -- byte accounting ----------------------------------------------------------


def test_direct_delivery_keeps_nominal_byte_accounting():
    ref, col = _servers()
    batch = [_summary(0, 1, SensorType.COMPUTATION, "", s, 10.0) for s in range(2)]
    for server in (ref, col):
        server.receive_batch(0, batch)
        assert server.bytes_received == 8 + 2 * SliceSummary.WIRE_BYTES


def test_transport_accounts_actual_encoded_size():
    """Over the message transport, bytes_received counts real frame sizes:
    26 bytes per record frame plus a group-definition frame (8 + 2 + len)
    the first time a rank ships each group — and a redelivered batch is
    accounted at exactly its original size."""
    from repro.runtime.channel import perfect_channel
    from repro.runtime.transport import ReliableTransport

    server = AnalysisServer(n_ranks=1, window_us=1000.0)
    transport = ReliableTransport(server=server, channel=perfect_channel())
    transport.send_batch(
        0,
        [
            _summary(0, 1, SensorType.COMPUTATION, "H", 0, 10.0),
            _summary(0, 1, SensorType.COMPUTATION, "", 1, 10.0),
        ],
        now=0.0,
    )
    transport.finish()
    assert server.bytes_received == (8 + 2 + 1) + 2 * 26
    transport.send_batch(
        0, [_summary(0, 1, SensorType.COMPUTATION, "H", 2, 10.0)], now=2000.0
    )
    transport.finish()
    # "H" was already defined for rank 0: no second definition frame.
    assert server.bytes_received == (8 + 2 + 1) + 3 * 26


def test_spool_drain_accounts_consumed_bytes():
    from repro.runtime.transport import FileSpool

    with tempfile.TemporaryDirectory() as directory:
        spool = FileSpool(directory=directory)
        spool.append_batch(0, [_summary(0, 1, SensorType.COMPUTATION, "H", 0, 10.0)])
        server = AnalysisServer(n_ranks=1, window_us=1000.0)
        spool.drain_into(server)
        assert server.bytes_received == (8 + 2 + 1) + 26


# -- end-to-end ---------------------------------------------------------------


def test_run_vsensor_engines_identical_end_to_end():
    """Full pipeline on both stores, with interleaved live snapshots:
    every matrix (final and per-snapshot) is bit-identical."""
    from repro.api import run_vsensor
    from repro.runtime.live import LiveReporter
    from repro.sim import MachineConfig
    from tests.conftest import SIMPLE_MPI_PROGRAM

    machine = MachineConfig(n_ranks=4, ranks_per_node=2)
    runs = {}
    reporters = {}
    for engine in ("reference", "columnar"):
        reporters[engine] = LiveReporter(period_us=500.0)
        with reference_store() if engine == "reference" else nullcontext():
            runs[engine] = run_vsensor(
                SIMPLE_MPI_PROGRAM,
                machine,
                window_us=2000.0,
                batch_period_us=1000.0,
                live=reporters[engine],
            )
    ref, col = runs["reference"], runs["columnar"]
    assert set(ref.report.matrices) == set(col.report.matrices)
    for stype, matrix in ref.report.matrices.items():
        assert np.array_equal(matrix, col.report.matrices[stype], equal_nan=True)
    assert ref.runtime.server.inter_events == col.runtime.server.inter_events
    assert ref.runtime.server.bytes_received == col.runtime.server.bytes_received
    ref_snaps, col_snaps = reporters["reference"].snapshots, reporters["columnar"].snapshots
    assert len(ref_snaps) == len(col_snaps) > 0
    for a, b in zip(ref_snaps, col_snaps):
        assert set(a.matrices) == set(b.matrices)
        for stype, matrix in a.matrices.items():
            assert np.array_equal(matrix, b.matrices[stype], equal_nan=True)
        assert a.low_cells == b.low_cells
