"""Parallel phase 1 of the multi-job runner: simulate jobs in processes.

:func:`~repro.api.run_multi_job` has four phases; only phase 1 (compile
+ simulate every job, recording timed batch sends) is CPU-bound per job
and embarrassingly parallel — phases 2–4 (globally time-ordered replay
through the sharded service, quiescence drive, merged reports) are a
deterministic function of phase 1's outputs.  So exactly phase 1 fans
out: job *i* joins share ``i % n``, each share is one task on its own
worker of a :class:`~concurrent.futures.ProcessPoolExecutor`, and every
worker calls the same :func:`~repro.api.simulate_job` the serial loop
does, with a null obs bundle (observability is behaviour-neutral, so the
results are bit-identical to an instrumented in-process run).  Placement
is a pure function of the job list, never of scheduling jitter.

Workers are forked where the platform allows it, so they inherit the
parent's warm default compile cache; a store with an on-disk layer is
shared through its directory instead (safe under concurrent writers).

Crash recovery is "re-run the job": jobs are pure functions of their
spec, so when a worker dies (``BrokenProcessPool``) the unfinished shares
run once more on a fresh pool, counted by ``parallel.worker_restart``.
A second death fails the run with a :class:`~repro.errors.ReproError`
naming the jobs that never finished.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.api import JobSpec, simulate_job
from repro.errors import ReproError
from repro.obs import NULL_OBS, Obs
from repro.pipeline import ArtifactStore, default_store

_MP_CONTEXT = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


def _run_share(share: list, batch_period_us: float, cache_dir: str | None) -> list:
    """Worker entry point: :func:`~repro.api.simulate_job` with null obs
    for each job of one share, in share order."""
    store = ArtifactStore(disk_dir=cache_dir) if cache_dir is not None else default_store()
    return [
        simulate_job(spec, job_id, batch_period_us, store, NULL_OBS)
        for job_id, spec in share
    ]


def _run_shares(
    shares: dict[int, list], batch_period_us: float, cache_dir: str | None, obs: Obs
) -> dict[int, list]:
    """Run each share as one task on its own worker of a fresh pool.

    Returns the results of the shares that finished; a dead worker
    breaks the whole pool, so other shares may be missing too.
    """
    finished = {}
    with ProcessPoolExecutor(len(shares), mp_context=_MP_CONTEXT) as executor:
        with obs.tracer.span("parallel.dispatch", shares=len(shares)):
            futures = {
                w: executor.submit(_run_share, share, batch_period_us, cache_dir)
                for w, share in shares.items()
            }
        for w, future in futures.items():
            try:
                finished[w] = future.result()
            except BrokenProcessPool:
                pass
    return finished


def simulate_jobs_parallel(
    jobs: Sequence[tuple[int, JobSpec]],
    workers: int,
    batch_period_us: float,
    *,
    cache_dir: str | None = None,
    obs: Obs | None = None,
) -> list:
    """Phase 1 of ``(job_id, spec)`` pairs on up to ``workers`` processes.

    Each result is the ``(static, sim, runtime)`` triple of the job at
    the same index, so the caller's downstream phases see the exact
    sequence an in-process loop would have produced.
    """
    obs = obs or NULL_OBS
    metrics = obs.metrics if obs.enabled else None
    n = min(workers, len(jobs))
    if n == 0:
        return []
    shares = {w: list(jobs[w::n]) for w in range(n)}
    with obs.tracer.span("parallel.phase1", jobs=len(jobs), workers=workers):
        if metrics is not None:
            metrics.counter("parallel.dispatch").inc(len(jobs))
        done = _run_shares(shares, batch_period_us, cache_dir, obs)
        if len(done) < n:
            if metrics is not None:
                metrics.counter("parallel.worker_restart").inc()
            retry = {w: share for w, share in shares.items() if w not in done}
            done.update(_run_shares(retry, batch_period_us, cache_dir, obs))
        if len(done) < n:
            lost = sorted(job_id for w in shares if w not in done for job_id, _ in shares[w])
            raise ReproError(f"phase-1 workers died twice; jobs {lost} did not finish")
    results: list = [None] * len(jobs)
    for w, share_results in done.items():
        results[w::n] = share_results
    return results
