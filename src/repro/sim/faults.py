"""Fault injection: the performance-variance sources the tool must detect.

Each fault modifies either a node's effective compute/memory speed over a
time window or the network's effective performance.  The case studies map
directly:

* :class:`SlowMemoryNode` — §6.5 / Fig. 21: one node whose memory subsystem
  runs at 55% for the whole run (the "bad node").
* :class:`CpuContention` — §6.4 / Figs. 19–20: an external *noiser* program
  steals CPU from a node set during ``[t0, t1)``.
* :class:`NetworkDegradation` — §6.5 / Fig. 22: the interconnect drops to a
  fraction of its bandwidth during a window (congestion).
* :class:`BadNode` — a uniformly slow node (CPU and memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True, slots=True)
class Fault:
    """Base class (marker) for injected faults."""


@dataclass(frozen=True, slots=True)
class BadNode(Fault):
    node_id: int
    cpu_factor: float = 0.6
    mem_factor: float = 0.6
    t0: float = 0.0
    t1: float = float("inf")


@dataclass(frozen=True, slots=True)
class SlowMemoryNode(Fault):
    node_id: int
    mem_factor: float = 0.55
    t0: float = 0.0
    t1: float = float("inf")


@dataclass(frozen=True, slots=True)
class CpuContention(Fault):
    """An injected noiser competing for CPU (and some memory bandwidth)."""

    node_ids: tuple[int, ...]
    t0: float
    t1: float
    cpu_factor: float = 0.5
    mem_factor: float = 0.8


@dataclass(frozen=True, slots=True)
class NetworkDegradation(Fault):
    t0: float
    t1: float
    #: multiplier on effective network speed (0.3 = 3.3x slower transfers)
    factor: float = 0.3


@dataclass(frozen=True, slots=True)
class IoDegradation(Fault):
    """The shared filesystem slows down (e.g. a concurrent checkpoint storm).

    ``node_ids`` of None hits every node (a parallel-FS-wide problem);
    otherwise only the listed nodes' IO stretches.
    """

    t0: float
    t1: float
    factor: float = 0.3
    node_ids: tuple[int, ...] | None = None


def check_fault_nodes(faults: tuple[Fault, ...], machine) -> None:
    """Reject a malformed fault: a node ``machine`` does not have, a
    non-finite or non-positive speed factor, a NaN window edge or a window
    that ends before it starts."""
    for fault in faults:
        if isinstance(fault, (BadNode, SlowMemoryNode)):
            node_ids: tuple[int, ...] = (fault.node_id,)
        else:
            node_ids = getattr(fault, "node_ids", None) or ()
        missing = [n for n in node_ids if not 0 <= n < machine.n_nodes]
        if missing:
            raise SimulationError(
                f"{fault!r} names node(s) {missing}, but the machine has "
                f"n_nodes={machine.n_nodes}"
            )
        for name in ("cpu_factor", "mem_factor", "factor"):
            value = getattr(fault, name, None)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise SimulationError(
                    f"{fault!r} has {name}={value!r}; a speed factor must be "
                    f"finite and > 0"
                )
        t0 = getattr(fault, "t0", 0.0)
        t1 = getattr(fault, "t1", float("inf"))
        if math.isnan(t0) or math.isnan(t1):
            raise SimulationError(f"{fault!r} has a NaN window edge")
        if t1 < t0:
            raise SimulationError(
                f"{fault!r} ends before it starts (t1={t1!r} < t0={t0!r})"
            )


def cpu_factor_at(faults: tuple[Fault, ...], node_id: int, t: float) -> float:
    """Combined CPU speed multiplier for ``node_id`` at time ``t``."""
    f = 1.0
    for fault in faults:
        if isinstance(fault, BadNode) and fault.node_id == node_id and fault.t0 <= t < fault.t1:
            f *= fault.cpu_factor
        elif isinstance(fault, CpuContention) and node_id in fault.node_ids and fault.t0 <= t < fault.t1:
            f *= fault.cpu_factor
    return f


def mem_factor_at(faults: tuple[Fault, ...], node_id: int, t: float) -> float:
    """Combined memory performance multiplier for ``node_id`` at ``t``."""
    f = 1.0
    for fault in faults:
        if isinstance(fault, (BadNode, SlowMemoryNode)) and getattr(fault, "node_id", -1) == node_id:
            if fault.t0 <= t < fault.t1:
                f *= fault.mem_factor
        elif isinstance(fault, CpuContention) and node_id in fault.node_ids and fault.t0 <= t < fault.t1:
            f *= fault.mem_factor
    return f


def net_factor_at(faults: tuple[Fault, ...], t: float) -> float:
    """Network performance multiplier at ``t``."""
    f = 1.0
    for fault in faults:
        if isinstance(fault, NetworkDegradation) and fault.t0 <= t < fault.t1:
            f *= fault.factor
    return f


def io_factor_at(faults: tuple[Fault, ...], node_id: int, t: float) -> float:
    """IO performance multiplier for ``node_id`` at ``t``."""
    f = 1.0
    for fault in faults:
        if isinstance(fault, IoDegradation) and fault.t0 <= t < fault.t1:
            if fault.node_ids is None or node_id in fault.node_ids:
                f *= fault.factor
    return f


def fault_boundaries(faults: tuple[Fault, ...]) -> list[float]:
    """All fault window edges (used to segment time integration)."""
    edges: set[float] = set()
    for fault in faults:
        t0 = getattr(fault, "t0", None)
        t1 = getattr(fault, "t1", None)
        if t0 is not None and t0 > 0:
            edges.add(float(t0))
        if t1 is not None and t1 != float("inf"):
            edges.add(float(t1))
    return sorted(edges)


def node_factor_segments(faults: tuple[Fault, ...], node_id: int) -> list[tuple[float, float]]:
    """``(cpu, mem)`` factors of ``node_id`` per fault-edge segment.

    Entry ``i`` holds the factors for every virtual time ``t >= 0`` with
    ``bisect_right(fault_boundaries(faults), t) == i``.  Each window's
    predicate ``t0 <= t < t1`` is constant on such a segment (a positive
    ``t0`` and a finite ``t1`` are edges, and time never runs below 0), so
    evaluating :func:`cpu_factor_at`/:func:`mem_factor_at` at the segment's
    left edge, clamped to 0, gives exactly the floats -- the same products
    in fault-tuple order -- that they give anywhere inside it.
    """
    starts = [0.0] + [max(edge, 0.0) for edge in fault_boundaries(faults)]
    return [
        (cpu_factor_at(faults, node_id, t), mem_factor_at(faults, node_id, t))
        for t in starts
    ]
