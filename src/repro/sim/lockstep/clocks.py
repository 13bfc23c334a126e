"""Rank-axis vectorized virtual clocks for the lockstep tier.

:class:`VectorClocks` holds every fused lane's ``now`` in one float64 array
and advances all lanes through the same slice-stepping integration loop as
:meth:`repro.sim.clock.RankClock.advance_compute` — per lane, the sequence
of float operations is *identical* to the scalar loop (same multiplies in
the same order, same ``max(..., 1e-9)`` clamps, same slice/fault-edge
boundaries), so the resulting timestamps are bit-identical.  Fault factors
come from the same per-segment table as the scalar path
(:func:`repro.sim.faults.node_factor_segments`), gathered as
``tab[seg, node]`` with ``seg`` the lane's fault-edge index: each fault
window's predicate is constant on a segment, and the table holds the
per-fault products in fault-tuple order, so a lookup equals re-deriving
the factor at ``t``.  Noise draws come from the same cached chunk arrays
as the scalar path (:meth:`NodeNoise.speed_multipliers`), grouped per
node.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim import clock
from repro.sim.faults import fault_boundaries, node_factor_segments


class VectorClocks:
    """Virtual clocks of all fused lanes, advanced in lockstep."""

    def __init__(self, interps) -> None:
        # ``interps`` are the per-rank BytecodeInterp backing stores, in
        # batch (rank) order.  Their RankClock objects stay authoritative
        # while a lane is drained; absorb() / export() move a lane's time
        # across the fused/drained boundary.
        self.interps = interps
        first = interps[0]
        self.machine = first.machine
        self.faults = first.faults
        self.n = len(interps)
        self.now = np.array([i.clock.now for i in interps], dtype=np.float64)
        self.node_ids = np.array(
            [i.clock.node.node_id for i in interps], dtype=np.int64
        )
        self.cpu_speed = np.array(
            [i.clock.node.cpu_speed for i in interps], dtype=np.float64
        )
        self.mem_perf = np.array(
            [i.clock.node.mem_perf for i in interps], dtype=np.float64
        )
        self.frac = self.machine.mem_fraction
        self.slice_us = max(1.0, self.machine.noise.jitter_slice_us)
        self.edges = np.array(fault_boundaries(self.faults), dtype=np.float64)
        # (segment, node) fault-factor tables: a lane's factors are
        # cpu_tab[seg, node], seg being the searchsorted edge index.
        tab = np.array(
            [
                node_factor_segments(self.faults, nid)
                for nid in range(int(self.node_ids.max()) + 1)
            ],
            dtype=np.float64,
        )
        self.cpu_tab = np.ascontiguousarray(tab[:, :, 0].T)
        self.mem_tab = np.ascontiguousarray(tab[:, :, 1].T)
        # Group lanes by node so one NodeNoise serves each node's draws.
        groups: list = []
        group_of = np.empty(self.n, dtype=np.int64)
        seen: dict[int, int] = {}
        for pos, interp in enumerate(interps):
            nid = interp.clock.node.node_id
            g = seen.get(nid)
            if g is None:
                g = seen[nid] = len(groups)
                groups.append(interp.clock.noise)
            group_of[pos] = g
        self._noise_groups = groups
        self._group_of = group_of
        self._noise_cfg = self.machine.noise
        # Stacked per-node chunk caches: chunk id -> (n_groups, chunk_len)
        # arrays, so one 2D fancy index serves every lane of a round.
        self._jitter_stacks: dict[int, np.ndarray] = {}
        self._spike_stacks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- noise gathers -------------------------------------------------------

    def _speed_multipliers(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        groups = self._noise_groups
        if len(groups) == 1:
            return groups[0].speed_multipliers(t)
        cfg = self._noise_cfg
        gi = self._group_of[idx]
        # Fast path: lockstep keeps lanes nearly synchronized, so one noise
        # chunk usually covers every lane across all nodes.  Gather from a
        # stacked (node-group, slice) table in one indexing op; element per
        # element this reads the same cached draws as the per-group path.
        if cfg.jitter_sigma > 0:
            k = (t / cfg.jitter_slice_us).astype(np.int64)
            c = int(k[0]) >> 9
            if (int(k.max()) >> 9) != c or (int(k.min()) >> 9) != c:
                return self._per_group_multipliers(gi, t)
            stack = self._jitter_stacks.get(c)
            if stack is None:
                stack = np.stack([g._jitter_chunk(c) for g in groups])
                self._jitter_stacks[c] = stack
            mult = stack[gi, k & 511]
        else:
            mult = np.ones(len(t))
        if cfg.spike_rate_per_ms > 0:
            ms = (t / 1000.0).astype(np.int64)
            c = int(ms[0]) // 256
            if int(ms.max()) // 256 != c or int(ms.min()) // 256 != c:
                return self._per_group_multipliers(gi, t)
            pf = self._spike_stacks.get(c)
            if pf is None:
                pf = (
                    np.stack([g._spike_chunk(c)[0] for g in groups]),
                    np.stack([g._spike_chunk(c)[1] for g in groups]),
                )
                self._spike_stacks[c] = pf
            lanes = ms - c * 256
            p = pf[0][gi, lanes]
            frac = pf[1][gi, lanes]
            start = ms * 1000.0 + frac * 1000.0
            active = (
                (p < cfg.spike_rate_per_ms)
                & (start <= t)
                & (t < start + cfg.spike_duration_us)
            )
            if active.any():
                mult[active] *= 0.25
        return mult

    def _per_group_multipliers(self, gi: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Chunk-boundary rounds: delegate to the per-node vectorized path."""
        out = np.empty(len(t))
        for g, noise in enumerate(self._noise_groups):
            m = gi == g
            if m.any():
                out[m] = noise.speed_multipliers(t[m])
        return out

    def _interrupt_losses(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        # interrupt_loss depends only on the (machine-wide) NoiseConfig, so
        # any group's NodeNoise serves every lane.
        return self._noise_groups[0].interrupt_losses(start, end)

    # -- the vectorized integration loop ------------------------------------

    def advance_compute(self, work: np.ndarray) -> None:
        """Advance each lane by ``work[lane]`` compute units (0 = no-op)."""
        idx = np.nonzero(work > 0)[0]
        if idx.size == 0:
            return
        start = self.now[idx].copy()
        t = self.now[idx].copy()
        remaining = work[idx].astype(np.float64, copy=True)
        nids = self.node_ids[idx]
        cpu_speed = self.cpu_speed[idx]
        mem_perf = self.mem_perf[idx]
        frac = self.frac
        slice_us = self.slice_us
        edges = self.edges
        n_edges = len(edges)
        have_faults = bool(self.faults)
        cpu_tab = self.cpu_tab
        mem_tab = self.mem_tab
        seg = 0
        # Per round: every still-active lane takes exactly the step the
        # scalar loop would take, with identical float operations.
        live = np.arange(idx.size)
        for _ in range(clock.MAX_INTEGRATION_STEPS):
            ta = t[live]
            if n_edges:
                seg = np.searchsorted(edges, ta, side="right")
            if have_faults:
                lanes = nids[live]
                cpu = cpu_speed[live] * cpu_tab[seg, lanes]
                cpu = cpu * self._speed_multipliers(idx[live], ta)
                mem = mem_perf[live] * mem_tab[seg, lanes]
            else:
                cpu = cpu_speed[live] * self._speed_multipliers(idx[live], ta)
                mem = mem_perf[live]
            denom = (1.0 - frac) / np.maximum(cpu, 1e-9) + frac / np.maximum(
                cpu * mem, 1e-9
            )
            speed = 1.0 / denom
            boundary = ((ta / slice_us).astype(np.int64) + 1) * slice_us
            if n_edges:
                has_edge = seg < n_edges
                if has_edge.any():
                    nxt = edges[np.minimum(seg, n_edges - 1)]
                    closer = has_edge & (nxt < boundary)
                    boundary[closer] = nxt[closer]
            dt_max = boundary - ta
            dt_needed = remaining[live] / np.maximum(speed, 1e-9)
            done = dt_needed <= dt_max
            if done.any():
                fin = live[done]
                t[fin] = ta[done] + dt_needed[done]
                remaining[fin] = 0.0
                live = live[~done]
                if live.size == 0:
                    break
                cont = ~done
                remaining[live] -= speed[cont] * dt_max[cont]
                t[live] = boundary[cont]
            else:
                remaining[live] -= speed * dt_max
                t[live] = boundary
        else:
            ranks = [self.interps[pos].clock.rank for pos in idx[live]]
            raise SimulationError(
                f"ranks {ranks}: compute did not finish within "
                f"{clock.MAX_INTEGRATION_STEPS} integration steps"
            )
        t += self._interrupt_losses(start, t)
        self.now[idx] = t

    # -- wall-time helpers ---------------------------------------------------

    def advance_wall(self, duration: np.ndarray | float) -> np.ndarray:
        """Advance all lanes by per-lane wall durations; returns start copy."""
        start = self.now.copy()
        self.now = start + np.maximum(0.0, duration)
        return start

    def wait_until_pos(self, pos: int, t: float) -> None:
        if t > self.now[pos]:
            self.now[pos] = t

    # -- fused/drained boundary ----------------------------------------------

    def export(self, pos: int) -> None:
        """Hand lane ``pos``'s time to its scalar RankClock (drain)."""
        self.interps[pos].clock.now = float(self.now[pos])

    def absorb(self, pos: int) -> None:
        """Take lane ``pos``'s time back from its scalar RankClock (refuse)."""
        self.now[pos] = self.interps[pos].clock.now
