"""Parallel multi-job runner: 16 jobs at 1 vs 4 workers, bit-identical.

Two numbers, one discipline:

* ``modeled`` — the CI gate (≥3× at 4 workers).  Phase 1 of
  :func:`~repro.api.run_multi_job` is embarrassingly parallel: each
  job's compile+simulate (:func:`~repro.api.simulate_job`) is measured
  *serially* (that is exactly the ``workers=1`` cost), then the runner's
  deterministic round-robin placement (job *i* → worker ``i % N``)
  gives the parallel makespan as
  ``max over workers of the sum of that worker's task times``.  Like the
  virtual-clock gate of ``BENCH_service.json``, this is a placement/
  balance property, valid on any host — including single-CPU CI runners
  where real processes cannot physically overlap.
* ``wall`` — informational.  Actual wall-clock of ``run_multi_job`` at
  both worker counts, process start and pickle overhead included.  On a
  multi-core host this approaches the modeled number; on a one-core
  runner it hovers near (or below) 1× and is deliberately not gated.

A speedup over diverging answers measures nothing: before any number is
reported, every job's merged matrices and detection F-score at 4 workers
must be bit-identical to the ``workers=1`` run.  Results land in
``BENCH_parallel.json`` at the repo root (picked up by the
``--bench-dogfood`` history scan).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import write_payload

from repro.api import JobSpec, run_multi_job, run_vsensor, simulate_job
from repro.runtime.quality import score_detection
from repro.sim import MachineConfig
from repro.sim.faults import CpuContention
from tests.conftest import SIMPLE_MPI_PROGRAM

N_JOBS = 16
N_RANKS = 4
WORKER_COUNTS = [1, 4]
JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_parallel.json")


def _machine(seed: int) -> MachineConfig:
    return MachineConfig(n_ranks=N_RANKS, ranks_per_node=2, seed=seed)


def _specs(span: float) -> list[JobSpec]:
    """16 tenants; every fourth one carries a CPU-contention fault so the
    bit-identity check covers detection, not just clean matrices."""
    specs = []
    for job in range(N_JOBS):
        faults = (
            [CpuContention(node_ids=(1,), t0=0.2 * span, t1=0.7 * span, cpu_factor=0.3)]
            if job % 4 == 0
            else []
        )
        specs.append(JobSpec(SIMPLE_MPI_PROGRAM, _machine(100 + job), faults=faults))
    return specs


def _kwargs(span: float) -> dict:
    return dict(n_shards=4, window_us=span / 10, batch_period_us=span / 10, store=None)


def _modeled_makespan(task_seconds: list[float], workers: int) -> float:
    """Round-robin placement makespan: worker w runs tasks w, w+N, ..."""
    return max(
        sum(task_seconds[i] for i in range(w, len(task_seconds), workers))
        for w in range(workers)
    )


@pytest.mark.slow
def test_parallel_runner_scaling():
    span = run_vsensor(SIMPLE_MPI_PROGRAM, _machine(100), store=None).sim.total_time
    specs = _specs(span)
    kw = _kwargs(span)

    # Serial per-job phase-1 cost — the workers=1 baseline, job by job,
    # through the same phase-1 function the workers run.
    batch_period_us = kw["batch_period_us"]
    simulate_job(specs[0], 0, batch_period_us)  # warm imports/compile
    # machinery untimed, so one-time costs don't masquerade as job-0
    # imbalance in the model
    task_seconds = []
    for job_id, spec in enumerate(specs):
        t0 = time.perf_counter()
        simulate_job(spec, job_id, batch_period_us)
        task_seconds.append(time.perf_counter() - t0)

    runs = {}
    wall = {}
    for workers in WORKER_COUNTS:
        t0 = time.perf_counter()
        runs[workers] = run_multi_job(specs, workers=workers, **kw)
        wall[workers] = time.perf_counter() - t0

    # Bit-identity first: matrices and F-scores at 4 workers must equal
    # the serial run's, job by job, before any speedup is believed.
    for job_id, spec in enumerate(specs):
        serial_job = runs[1].jobs[job_id]
        fanned_job = runs[4].jobs[job_id]
        assert set(serial_job.report.matrices) == set(fanned_job.report.matrices)
        for stype in serial_job.report.matrices:
            assert np.array_equal(
                serial_job.report.matrices[stype],
                fanned_job.report.matrices[stype],
                equal_nan=True,
            ), f"job {job_id} {stype} matrix differs at 4 workers"
        assert serial_job.report.regions == fanned_job.report.regions
        assert serial_job.report.inter_events == fanned_job.report.inter_events
        score_serial = score_detection(serial_job.report, list(spec.faults), spec.machine)
        score_fanned = score_detection(fanned_job.report, list(spec.faults), spec.machine)
        assert score_serial.f_score == score_fanned.f_score

    modeled = {w: _modeled_makespan(task_seconds, w) for w in WORKER_COUNTS}
    modeled_speedup = round(modeled[1] / modeled[4], 2)
    wall_speedup = round(wall[1] / wall[4], 2)

    payload = {
        "benchmark": "parallel multi-job runner: phase-1 fan-out 1 vs 4 workers",
        "unit": "seconds (phase-1 makespan; modeled = round-robin placement)",
        "jobs": N_JOBS,
        "bit_identical": True,
        "results": [
            {
                "workers": w,
                "modeled_makespan_s": round(modeled[w], 4),
                "wall_seconds": round(wall[w], 4),
            }
            for w in WORKER_COUNTS
        ],
        "speedups": {"modeled": modeled_speedup, "wall": wall_speedup},
        #: the gate judges the placement-balance (modeled) number — wall
        #: clock on a single-CPU CI runner cannot overlap real processes
        "gate": {"mode": "modeled", "min": 3.0},
    }
    write_payload(JSON_PATH, payload)

    print(f"\n{'workers':>7s} {'modeled_s':>10s} {'wall_s':>8s}")
    for w in WORKER_COUNTS:
        print(f"{w:>7d} {modeled[w]:>10.4f} {wall[w]:>8.4f}")
    print(f"speedups: modeled {modeled_speedup}x, wall {wall_speedup}x")

    # The CI gate: 16 near-equal jobs over 4 round-robin workers give a
    # ≥3× phase-1 makespan reduction (exactly 4× under perfect balance).
    assert modeled_speedup >= 3.0, payload["speedups"]
