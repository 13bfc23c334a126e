"""Process-parallel phase 1 of the multi-job runner.

:func:`~repro.api.run_multi_job` ``workers=N`` fans the per-job
compile+simulate phase out to OS processes on a
:class:`concurrent.futures.ProcessPoolExecutor`, one round-robin share
of jobs per worker; results merge through the unchanged order-invariant
query-merger path, bit-identical to the in-process run.

Observability: ``parallel.dispatch`` / ``parallel.worker_restart``
counters plus ``parallel.phase1`` / ``parallel.dispatch`` spans, all on
the parent's bundle (workers run null-obs; enabling obs never changes
results).
"""

from repro.parallel.pool import default_workers
from repro.parallel.runner import simulate_jobs_parallel

__all__ = ["default_workers", "simulate_jobs_parallel"]
