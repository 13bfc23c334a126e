"""Analysis-server data-path trajectory: reference vs columnar store.

Feeds an identical synthetic batch stream — per-rank slice summaries at
32 / 128 ranks — through the server on both stores (the reference store
is the oracle in ``tests/oracles``), in two modes: pure ingest
(one final matrix/detect pass) and the §5.5 online pattern of ingest
**interleaved** with matrix + inter-process queries (what
:class:`~repro.runtime.live.LiveReporter` does every period).  The
reference engine re-sorts and replays the whole keyed store on every
post-ingest query, so the interleaved mode is its quadratic worst case;
the columnar engine's incremental canonical replay keeps queries
amortized.  Results land in ``BENCH_server.json`` at the repo root.

The shape this pins: the engines agree bit-for-bit on every matrix (a
bench that measures a wrong answer measures nothing), the columnar tier
is at least as fast as the reference in every configuration, wins every
interleaved one, and by ≥5× on the 128-rank interleaved workload — the
CI gate.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, write_payload

from repro.runtime.records import SliceSummary
from repro.runtime.server import AnalysisServer
from repro.sensors.model import SensorType
from tests.oracles import make_server

RANK_COUNTS = [32, 128]
ENGINES = ["reference", "columnar"]
N_SLICES = 48
SLICE_BLOCK = 8          # slices per batch
QUERY_EVERY = 16         # interleaved mode: query cadence in batches
WINDOW_US = 4000.0
JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_server.json")

_SENSORS = ((1, SensorType.COMPUTATION), (2, SensorType.NETWORK))


def _batch_stream(n_ranks: int) -> list[tuple[int, list[SliceSummary], int]]:
    """Deterministic per-rank batches in virtual-time order: every rank
    ships SLICE_BLOCK slices per batch, the last rank runs ~40 % slow so
    inter-process detection has real events to find."""
    rng = random.Random(BENCH_SEED + n_ranks)
    stream = []
    seqs = {rank: 0 for rank in range(n_ranks)}
    for block_start in range(0, N_SLICES, SLICE_BLOCK):
        for rank in range(n_ranks):
            skew = 1.4 if rank == n_ranks - 1 else 1.0
            batch = [
                SliceSummary(
                    rank=rank,
                    sensor_id=sensor_id,
                    sensor_type=stype,
                    group="",
                    slice_index=s,
                    t_slice_start=s * 1000.0,
                    mean_duration=(10.0 + rng.random()) * skew,
                    count=4,
                    mean_cache_miss=0.1,
                )
                for s in range(block_start, block_start + SLICE_BLOCK)
                for sensor_id, stype in _SENSORS
            ]
            stream.append((rank, batch, seqs[rank]))
            seqs[rank] += 1
    return stream


def _run(engine: str, n_ranks: int, stream, interleaved: bool) -> AnalysisServer:
    server = make_server(engine, n_ranks=n_ranks, window_us=WINDOW_US)
    for i, (rank, batch, seq) in enumerate(stream):
        server.receive_batch(rank, batch, seq=seq)
        if interleaved and (i + 1) % QUERY_EVERY == 0:
            server.performance_matrix(SensorType.COMPUTATION)
            server.performance_matrix(SensorType.NETWORK)
            server.detect_inter_process()
    server.detect_inter_process()
    for stype in SensorType:
        server.performance_matrix(stype)
    return server


@pytest.mark.slow
def test_server_ingest_trajectory():
    rows = []
    finals: dict[tuple[int, str, str], AnalysisServer] = {}
    for n_ranks in RANK_COUNTS:
        stream = _batch_stream(n_ranks)
        for mode, interleaved in (("ingest", False), ("interleaved", True)):
            for engine in ENGINES:
                t0 = time.perf_counter()
                server = _run(engine, n_ranks, stream, interleaved)
                seconds = time.perf_counter() - t0
                finals[(n_ranks, mode, engine)] = server
                rows.append(
                    {"ranks": n_ranks, "mode": mode, "engine": engine,
                     "batches": len(stream), "summaries": server.summaries_received,
                     "seconds": round(seconds, 4)}
                )
            # A bench over diverging engines measures nothing: require
            # bit-identical matrices and events before trusting the times.
            ref = finals[(n_ranks, mode, "reference")]
            col = finals[(n_ranks, mode, "columnar")]
            for stype in SensorType:
                assert np.array_equal(
                    ref.performance_matrix(stype),
                    col.performance_matrix(stype),
                    equal_nan=True,
                ), f"engines diverged: {stype} @ {n_ranks} ranks ({mode})"
            assert ref.inter_events == col.inter_events
            assert ref.inter_events, "scenario must produce real events"

    def seconds_of(ranks, mode, engine):
        for row in rows:
            if (row["ranks"], row["mode"], row["engine"]) == (ranks, mode, engine):
                return row["seconds"]
        raise KeyError((ranks, mode, engine))

    speedups = {}
    for n_ranks in RANK_COUNTS:
        for mode in ("ingest", "interleaved"):
            ref_s = seconds_of(n_ranks, mode, "reference")
            col_s = seconds_of(n_ranks, mode, "columnar")
            speedups[f"{n_ranks}/{mode}"] = round(ref_s / col_s, 2)

    payload = {
        "benchmark": "analysis server: reference vs columnar data path",
        "unit": "wall-clock seconds per batch stream (ingest + queries)",
        "results": rows,
        "speedups": speedups,
    }
    write_payload(JSON_PATH, payload)

    print(f"\n{'config':<20s} {'reference':>10s} {'columnar':>9s} {'speedup':>8s}")
    for key, speedup in speedups.items():
        ranks, mode = key.split("/")
        ref_s = seconds_of(int(ranks), mode, "reference")
        col_s = seconds_of(int(ranks), mode, "columnar")
        print(f"{key:<20s} {ref_s:>10.3f} {col_s:>9.3f} {speedup:>7.2f}x")

    # The acceptance gate: ≥5× on the 128-rank interleaved workload.
    assert speedups["128/interleaved"] >= 5.0
    # And the columnar tier must win interleaved mode at every scale.
    assert all(
        speedups[f"{n}/interleaved"] > 1.0 for n in RANK_COUNTS
    )
    # No perf hole: columnar is at least as fast as reference everywhere.
    assert all(speedup >= 1.0 for speedup in speedups.values()), speedups


if __name__ == "__main__":
    test_server_ingest_trajectory()
