"""Per-rank virtual clock: converting work units to elapsed time.

Work accumulated by the interpreter is converted lazily (at probe / MPI
boundaries) by integrating the node's effective speed over time.  The
effective speed at instant ``t`` is::

    cpu_speed * noise_jitter(t) * fault_cpu(t)
      blended with mem_perf * fault_mem(t) over the memory-bound fraction

Integration proceeds slice by slice (noise jitter slices, fault window
edges) so episodic faults show up exactly where they are injected, and
periodic-interrupt loss is added per window.  The fault factors are
constant between fault window edges, so they are looked up per segment
(:func:`repro.sim.faults.node_factor_segments`) rather than re-derived
every step.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.faults import Fault, fault_boundaries, node_factor_segments
from repro.sim.machine import MachineConfig, NodeConfig
from repro.sim.noise import NodeNoise

#: integration steps one advance may take before it is declared stuck
MAX_INTEGRATION_STEPS = 10_000_000


@dataclass(slots=True)
class RankClock:
    """Virtual clock of one rank."""

    rank: int
    node: NodeConfig
    noise: NodeNoise
    machine: MachineConfig
    faults: tuple[Fault, ...]
    now: float = 0.0
    #: fault window edges and this node's per-segment (cpu, mem) fault
    #: factors, computed once (the fault set is fixed per run)
    _edges: tuple[float, ...] | None = field(default=None, repr=False)
    _factors: list[tuple[float, float]] = field(default_factory=list, repr=False)

    def advance_compute(self, work_units: float) -> tuple[float, float]:
        """Advance by ``work_units`` of computation; return (start, end)."""
        start = self.now
        if work_units <= 0:
            return start, start
        t = self.now
        remaining = work_units
        slice_us = max(1.0, self.machine.noise.jitter_slice_us)
        node_id = self.node.node_id
        edges = self._edges
        if edges is None:
            edges = self._edges = tuple(fault_boundaries(self.faults))
            self._factors = node_factor_segments(self.faults, node_id)
        factors = self._factors
        n_edges = len(edges)
        edge_i = bisect_right(edges, t) if n_edges else 0
        # Hot loop: one step per jitter slice.  Lookups are hoisted and the
        # speed blend inlined; the fault factors are read from the
        # per-segment table, and with no faults they are skipped (they
        # would be exactly 1.0).
        faults = self.faults
        cpu_speed = self.node.cpu_speed
        mem_perf = self.node.mem_perf
        frac = self.machine.mem_fraction
        speed_multiplier = self.noise.speed_multiplier
        # Hard cap on integration steps: a pathological (zero-speed)
        # configuration fails loudly instead of looping forever.
        for _ in range(MAX_INTEGRATION_STEPS):
            while edge_i < n_edges and edges[edge_i] <= t:
                edge_i += 1
            if faults:
                cpu_f, mem_f = factors[edge_i]
                cpu = cpu_speed * cpu_f
                cpu *= speed_multiplier(t)
                mem = mem_perf * mem_f
            else:
                cpu = cpu_speed * speed_multiplier(t)
                mem = mem_perf
            denom = (1.0 - frac) / max(cpu, 1e-9) + frac / max(cpu * mem, 1e-9)
            speed = 1.0 / denom
            # Next boundary where speed may change.
            boundary = (int(t / slice_us) + 1) * slice_us
            if edge_i < n_edges and edges[edge_i] < boundary:
                boundary = edges[edge_i]
            dt_max = boundary - t
            dt_needed = remaining / max(speed, 1e-9)
            if dt_needed <= dt_max:
                t += dt_needed
                remaining = 0.0
                break
            remaining -= speed * dt_max
            t = boundary
        else:
            raise SimulationError(
                f"rank {self.rank}: {work_units!r} work units did not finish "
                f"within {MAX_INTEGRATION_STEPS} integration steps from "
                f"t={start!r} (stuck at t={t!r})"
            )
        # Periodic interrupt loss stretches the window.
        t += self.noise.interrupt_loss(start, t)
        self.now = t
        return start, t

    def advance_wall(self, duration_us: float) -> tuple[float, float]:
        """Advance by a fixed wall duration (IO waits, comm completions)."""
        start = self.now
        self.now = start + max(0.0, duration_us)
        return start, self.now

    def wait_until(self, t: float) -> None:
        if t > self.now:
            self.now = t
