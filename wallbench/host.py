"""Host v-sensor and provenance.

vSensor's premise applied to the benchmark host: a fixed amount of work
should take a fixed time, so when it does not, the platform moved.  A
shared cloud host moves a lot: a 2-CPU one switched between a fast and a
slow state, about 1.8x apart, within seconds, and the operations slowed
with it (one detect-128 run had a median of 1.5 s, another a few minutes
later 2.4 s).

A quantum of fixed pure-Python work runs before every operation and once
after the last.  It runs no code of the repository, so no change to the
tool can make it faster or slower: it measures the host alone.  It has
two uses:

* flagging: each quantum is normalised to the fastest of the run, as the
  runtime normalises a sensor's records to its fastest, and an operation
  next to a quantum below :data:`SLOW_PERF` of the fastest is flagged.
  Flagged operations stay in every statistic; they are counted and
  listed, never dropped;
* rescaling: :func:`rescale` turns an operation's wall time into seconds
  on a reference host whose quantum takes :data:`REFERENCE_S`, using the
  quanta just before and just after it.  Runs minutes apart then compare
  the tool rather than the host's state at the time.
"""

from __future__ import annotations

import gc
import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

#: normalised quantum performance below which the host counts as slowed
#: (the detector's own variance threshold)
SLOW_PERF = 0.7
#: steps of fixed work in one quantum, about 30 ms in the fast state
QUANTUM_STEPS = 40_000
#: quantum time of the reference host that rescaled seconds refer to
REFERENCE_S = 0.030


def _quantum_work(steps: int) -> int:
    """Dictionary and list traffic over a few megabytes plus integer
    arithmetic and a sort: the kind of work the tool's Python does."""
    table: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    acc = 0
    for i in range(steps):
        key = (i * 7919) & 65535
        acc = (acc + table.get(key, i) * 3) % 1_000_003
        table[key] = acc
        items.append((key, acc))
    items.sort()
    return acc


def rescale(seconds: float, before: float, after: float) -> float:
    """Wall ``seconds`` measured between quanta of ``before`` and
    ``after`` seconds, as seconds on the reference host."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


class HostSensor:
    """Times one quantum per call to :meth:`sample`."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.quantum()  # the first one warms the interpreter's caches

    def quantum(self) -> float:
        # The collector's pauses grow with the heap the operations leave
        # behind; with it off the quantum sees the host, not the heap.
        gc.disable()
        try:
            t0 = perf_counter()
            _quantum_work(QUANTUM_STEPS)
            return perf_counter() - t0
        finally:
            gc.enable()

    def sample(self) -> float:
        elapsed = self.quantum()
        self.seconds.append(elapsed)
        return elapsed

    def perf(self) -> list[float]:
        fastest = min(self.seconds)
        return [fastest / s for s in self.seconds]

    def flagged(self, n_ops: int) -> list[int]:
        """Operations with a slowed quantum just before or after them.

        Quantum ``i`` runs before operation ``i``; one last quantum
        follows the final operation.
        """
        perf = self.perf()
        return [
            op
            for op in range(n_ops)
            if min(perf[op], perf[min(op + 1, len(perf) - 1)]) < SLOW_PERF
        ]

    def summary(self, n_ops: int) -> dict:
        perf = self.perf()
        return {
            "quanta": len(self.seconds),
            "quantum_median_s": float(np.median(self.seconds)),
            "quantum_min_s": min(self.seconds),
            "quantum_max_s": max(self.seconds),
            "min_perf": min(perf),
            "flagged_ops": self.flagged(n_ops),
            "quanta_s": self.seconds,
        }


def _git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``unknown`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "machine": platform.machine(),
    }
