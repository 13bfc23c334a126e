"""Parallel multi-job runner: ``workers=N`` is bit-identical to serial.

Only phase 1 (compile + simulate, independent per job) fans out to the
process pool; the time-ordered replay, back-pressure drive and merged
per-job reports are a deterministic function of its outputs.  So the
whole :func:`~repro.api.run_multi_job` result — matrices, regions,
inter-process events, coverage confidence, channel counters — must be
identical for any worker count, and after a worker crash too: a crashed
job is simply run again.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.api import JobSpec, run_multi_job, run_vsensor, simulate_job
from repro.errors import ParseError, ReproError
from repro.obs import Obs
from repro.parallel import default_workers, runner, simulate_jobs_parallel
from repro.runtime.channel import ChannelConfig
from repro.runtime.transport import RetryPolicy
from repro.sim import MachineConfig
from repro.sim.faults import CpuContention
from tests.conftest import SIMPLE_MPI_PROGRAM


def _machine(seed: int) -> MachineConfig:
    return MachineConfig(n_ranks=4, ranks_per_node=2, seed=seed)


def _specs(span: float) -> list[JobSpec]:
    faults = [
        CpuContention(node_ids=(1,), t0=0.2 * span, t1=0.7 * span, cpu_factor=0.3)
    ]
    return [
        JobSpec(SIMPLE_MPI_PROGRAM, _machine(11), faults=faults),
        JobSpec(
            SIMPLE_MPI_PROGRAM,
            _machine(23),
            channel=ChannelConfig(drop_rate=0.1, dup_rate=0.1, seed=5),
            retry_policy=RetryPolicy(timeout_us=span / 50, max_attempts=30),
        ),
        JobSpec(SIMPLE_MPI_PROGRAM, _machine(47)),
    ]


def _kwargs(span: float) -> dict:
    return dict(n_shards=3, window_us=span / 10, batch_period_us=span / 10, store=None)


def _assert_runs_identical(a, b) -> None:
    assert set(a.jobs) == set(b.jobs)
    for job_id in a.jobs:
        ra, rb = a.jobs[job_id].report, b.jobs[job_id].report
        assert set(ra.matrices) == set(rb.matrices)
        for stype in ra.matrices:
            assert np.array_equal(
                ra.matrices[stype], rb.matrices[stype], equal_nan=True
            ), f"job {job_id} {stype} matrix differs from the serial run"
        for stype in ra.rank_means:
            assert np.array_equal(
                ra.rank_means[stype], rb.rank_means[stype], equal_nan=True
            )
        assert ra.regions == rb.regions
        assert ra.inter_events == rb.inter_events
        assert ra.coverage_confidence == rb.coverage_confidence
        assert ra.degraded_ranks == rb.degraded_ranks
        assert ra.duplicate_batches == rb.duplicate_batches
        assert a.jobs[job_id].channel_stats == b.jobs[job_id].channel_stats
        assert a.jobs[job_id].sim.total_time == b.jobs[job_id].sim.total_time


def _span() -> float:
    return run_vsensor(SIMPLE_MPI_PROGRAM, _machine(11), store=None).sim.total_time


def test_worker_pool_run_is_bit_identical_to_serial():
    span = _span()
    specs = _specs(span)
    kw = _kwargs(span)
    serial = run_multi_job(specs, **kw)
    fanned = run_multi_job(specs, workers=2, **kw)
    _assert_runs_identical(serial, fanned)
    # More workers than jobs is fine (idle workers never dispatch).
    wide = run_multi_job(specs, workers=5, **kw)
    _assert_runs_identical(serial, wide)


def test_process_shards_end_to_end_match_default():
    """Job shares on worker processes, traced: same answers, and one
    dispatch per job on the parent's obs bundle."""
    span = _span()
    specs = _specs(span)
    kw = _kwargs(span)
    serial = run_multi_job(specs, **kw)
    obs = Obs.create()
    fanned = run_multi_job(specs, workers=2, obs=obs, **kw)
    _assert_runs_identical(serial, fanned)
    assert obs.metrics.counter("parallel.dispatch").value == len(specs)
    assert obs.metrics.counter("parallel.worker_restart").value == 0


def test_simulate_jobs_parallel_matches_direct_calls():
    span = _span()
    jobs = [
        (job_id, JobSpec(SIMPLE_MPI_PROGRAM, _machine(seed)))
        for job_id, seed in ((0, 11), (1, 23))
    ]
    direct = [simulate_job(spec, job_id, span / 10) for job_id, spec in jobs]
    pooled = simulate_jobs_parallel(jobs, 2, span / 10)
    assert len(pooled) == len(direct)
    for (_, sim_d, run_d), (_, sim_p, run_p) in zip(direct, pooled):
        assert sim_d.total_time == sim_p.total_time
        assert run_d.server.events == run_p.server.events
    assert simulate_jobs_parallel([], 2, span / 10) == []


def test_default_workers_positive():
    assert default_workers() >= 1


def test_job_error_propagates_from_worker():
    specs = [JobSpec(SIMPLE_MPI_PROGRAM, _machine(11)), JobSpec("int main( {", _machine(23))]
    with pytest.raises(ParseError):
        run_multi_job(specs, workers=2, store=None)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the crash hook reaches workers only through fork",
)


def _crashing_phase1(victim: int, marker: str | None):
    """Wrap the workers' phase-1 function so job ``victim`` kills its
    worker process: once (when ``marker`` names a file to leave behind),
    or on every attempt (``marker=None``)."""
    real = runner.simulate_job

    def phase1(spec, job_id, *args):
        if job_id == victim and (marker is None or not os.path.exists(marker)):
            if marker is not None:
                open(marker, "w").close()
            os._exit(1)
        return real(spec, job_id, *args)

    return phase1


@needs_fork
def test_crashed_job_reruns_bit_identical(tmp_path, monkeypatch):
    span = _span()
    specs = _specs(span)
    kw = _kwargs(span)
    serial = run_multi_job(specs, **kw)
    marker = tmp_path / "crashed"
    monkeypatch.setattr(runner, "simulate_job", _crashing_phase1(1, str(marker)))
    obs = Obs.create()
    rerun = run_multi_job(specs, workers=2, obs=obs, **kw)
    assert marker.exists()  # the first attempt really died
    _assert_runs_identical(serial, rerun)
    assert obs.metrics.counter("parallel.worker_restart").value == 1


@needs_fork
def test_job_that_always_crashes_raises(monkeypatch):
    span = _span()
    monkeypatch.setattr(runner, "simulate_job", _crashing_phase1(1, None))
    obs = Obs.create()
    with pytest.raises(ReproError, match=r"jobs \[(\d+, )*1(, \d+)*\] did not finish"):
        run_multi_job(_specs(span), workers=2, obs=obs, **_kwargs(span))
    assert obs.metrics.counter("parallel.worker_restart").value == 1
