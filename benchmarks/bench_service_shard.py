"""Sharded-service ingest scaling: 1 shard vs 4 shards, 16 tenants.

Feeds an identical 16-job batch stream through the multi-tenant
:class:`~repro.service.AnalysisService` at 1 and at 4 shards and compares
ingest makespan on the service's virtual clock (every row enters at t=0,
so the makespan is purely queue/apply cost, not simulated program time).
Two cost models:

* ``deterministic`` — the CI gate.  Each sub-batch costs
  ``base_us + per_row_us * rows`` of virtual time, so the speedup is a
  pure function of how evenly consistent hashing spreads the 256
  (job, rank, sensor) streams over the shards — no wall-clock jitter.
  Gate: ≥3× throughput going 1 → 4 shards.
* ``measured`` — informational + sanity-gated at ≥1.5×.  Each apply is
  billed its real wall-clock microseconds (EWMA-smoothed estimates for
  queueing).  Ingest is staged: an apply only deduplicates rows and
  appends them to the shard store's staging list, and the column copy
  happens later, when a query merger pulls the rows.  So this mode times
  shard-side staging and queueing, not the whole columnar ingest.

After ingest, every tenant's merged view is refreshed once and the wall
time of those row pulls — the column copy the shards deferred — is
reported per shard count as ``merge_pull_seconds`` (reported, not gated).

As with every bench here, a result over diverging answers measures
nothing: the 4-shard merged per-job matrices must be bit-identical to
the 1-shard ones before the times are trusted.  Results land in
``BENCH_service.json`` at the repo root.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, write_payload

from repro.runtime.records import SliceSummary
from repro.sensors.model import SensorType
from repro.service import AnalysisService, ShardCostModel

N_JOBS = 16
N_RANKS = 8
N_SLICES = 24
SLICE_BLOCK = 8          # slices per batch
SHARD_COUNTS = [1, 4]
WINDOW_US = 4000.0
JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_service.json")

_SENSORS = ((1, SensorType.COMPUTATION), (2, SensorType.NETWORK))


def _job_stream(job: int) -> list[tuple[int, list[SliceSummary], int]]:
    """One tenant's deterministic batches; t_slice_start pinned to 0 so
    the ingest makespan measures apply cost, not program duration."""
    rng = random.Random(BENCH_SEED + job)
    stream = []
    for rank in range(N_RANKS):
        for seq, block_start in enumerate(range(0, N_SLICES, SLICE_BLOCK)):
            skew = 1.4 if rank == N_RANKS - 1 else 1.0
            batch = [
                SliceSummary(
                    rank=rank,
                    sensor_id=sensor_id,
                    sensor_type=stype,
                    group="",
                    slice_index=s,
                    t_slice_start=0.0,
                    mean_duration=(10.0 + rng.random()) * skew,
                    count=4,
                    mean_cache_miss=0.1,
                    job_id=job,
                )
                for s in range(block_start, block_start + SLICE_BLOCK)
                for sensor_id, stype in _SENSORS
            ]
            stream.append((rank, batch, seq))
    return stream


def _interleaved_stream():
    """All 16 tenants' batches, round-robin interleaved like a shared
    ingest front would see them."""
    per_job = {job: _job_stream(job) for job in range(N_JOBS)}
    events = []
    depth = max(len(s) for s in per_job.values())
    for i in range(depth):
        for job in range(N_JOBS):
            if i < len(per_job[job]):
                rank, batch, seq = per_job[job][i]
                events.append((job, rank, batch, seq))
    return events


def _warmup_events():
    """One row per (job, rank, sensor) stream, far outside the measured
    slice range: touches every shard-side per-job server once so the
    measured phase bills steady-state ingest, not server construction.
    Both shard configs get the identical warm-up, so the bit-identity
    check still compares like with like."""
    events = []
    for job in range(N_JOBS):
        for rank in range(N_RANKS):
            batch = [
                SliceSummary(
                    rank=rank,
                    sensor_id=sensor_id,
                    sensor_type=stype,
                    group="",
                    slice_index=100_000,
                    t_slice_start=0.0,
                    mean_duration=10.0,
                    count=4,
                    mean_cache_miss=0.1,
                    job_id=job,
                )
                for sensor_id, stype in _SENSORS
            ]
            events.append((job, rank, batch, None))
    return events


def _run(n_shards: int, cost: ShardCostModel, events):
    service = AnalysisService(
        n_shards,
        window_us=WINDOW_US,
        queue_limit=1_000_000,
        cost=cost,
    )
    ports = {job: service.register_job(job, N_RANKS) for job in range(N_JOBS)}
    for job, rank, batch, seq in _warmup_events():
        ports[job].receive_batch(rank, list(batch), seq=seq)
    service.finish()
    warm_rows = sum(shard.applied_rows for shard in service.shards)
    for shard in service.shards:
        shard.busy_until = 0.0
    service.clock = 0.0
    t0 = time.perf_counter()
    for job, rank, batch, seq in events:
        ports[job].receive_batch(rank, list(batch), seq=seq)
    service.finish()
    wall_s = time.perf_counter() - t0
    makespan_us = max(shard.busy_until for shard in service.shards)
    rows = sum(shard.applied_rows for shard in service.shards) - warm_rows
    t0 = time.perf_counter()
    merged_rows = sum(port.stored_summaries for port in ports.values())
    merge_s = time.perf_counter() - t0
    assert merged_rows == warm_rows + rows, "merged views lost or duplicated rows"
    return service, ports, makespan_us, rows, wall_s, merge_s


@pytest.mark.slow
def test_service_shard_scaling():
    events = _interleaved_stream()
    total_rows = sum(len(batch) for _, _, batch, _ in events)
    results = []
    ports_by_config = {}
    for mode, cost in (
        ("deterministic", ShardCostModel(base_us=20.0, per_row_us=5.0)),
        ("measured", ShardCostModel(measured=True)),
    ):
        for n_shards in SHARD_COUNTS:
            service, ports, makespan_us, rows, wall_s, merge_s = _run(
                n_shards, cost, events
            )
            assert rows == total_rows, "shards lost or duplicated rows"
            ports_by_config[(mode, n_shards)] = ports
            results.append(
                {
                    "mode": mode,
                    "shards": n_shards,
                    "jobs": N_JOBS,
                    "rows": rows,
                    "makespan_us": round(makespan_us, 1),
                    "throughput_rows_per_ms": round(rows / (makespan_us / 1000.0), 2),
                    "wall_seconds": round(wall_s, 4),
                    "merge_pull_seconds": round(merge_s, 4),
                }
            )

    # Sharded answers must match the unsharded ones bit-for-bit before
    # any throughput number means anything.
    for mode in ("deterministic", "measured"):
        solo = ports_by_config[(mode, 1)]
        wide = ports_by_config[(mode, 4)]
        for job in range(0, N_JOBS, 5):
            for stype in SensorType:
                assert np.array_equal(
                    solo[job].performance_matrix(stype),
                    wide[job].performance_matrix(stype),
                    equal_nan=True,
                ), f"job {job} {stype} diverged between 1 and 4 shards"
            assert solo[job].detect_inter_process() == wide[job].detect_inter_process()

    def throughput(mode, shards):
        for row in results:
            if (row["mode"], row["shards"]) == (mode, shards):
                return row["throughput_rows_per_ms"]
        raise KeyError((mode, shards))

    speedups = {
        mode: round(throughput(mode, 4) / throughput(mode, 1), 2)
        for mode in ("deterministic", "measured")
    }
    payload = {
        "benchmark": "sharded multi-tenant service: ingest throughput 1 vs 4 shards",
        "unit": "rows per virtual millisecond (service clock makespan)",
        "jobs": N_JOBS,
        "results": results,
        "speedups": speedups,
        #: machine-readable gate so dashboards show the pass criterion
        #: next to the number it judges (the measured ≥1.5x check is a
        #: jitter sanity bound, not the gate)
        "gate": {"mode": "deterministic", "min": 3.0},
    }
    write_payload(JSON_PATH, payload)

    print(
        f"\n{'mode':<14s} {'shards':>6s} {'makespan_us':>12s} {'rows/ms':>9s}"
        f" {'merge_pull_s':>12s}"
    )
    for row in results:
        print(
            f"{row['mode']:<14s} {row['shards']:>6d} "
            f"{row['makespan_us']:>12.1f} {row['throughput_rows_per_ms']:>9.2f}"
            f" {row['merge_pull_seconds']:>12.4f}"
        )
    print(f"speedups: {speedups}")

    # The CI gate: virtual-time ingest throughput scales ≥3× from 1 to 4
    # shards under the deterministic cost model (pure placement balance),
    # and the measured mode keeps a clear (≥1.5×) win despite wall jitter.
    assert speedups["deterministic"] >= 3.0, speedups
    assert speedups["measured"] >= 1.5, speedups
