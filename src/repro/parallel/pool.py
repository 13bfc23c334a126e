"""Worker-count policy for the parallel multi-job runner."""

from __future__ import annotations

import os


def default_workers() -> int:
    """A sensible worker count for this host (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)
