"""Virtual-clock tests: work-to-time integration."""

import pytest

from repro.errors import SimulationError
from repro.sim import clock as clock_module
from repro.sim.clock import RankClock
from repro.sim.faults import (
    BadNode,
    CpuContention,
    NetworkDegradation,
    SlowMemoryNode,
    cpu_factor_at,
    fault_boundaries,
    mem_factor_at,
)
from repro.sim.machine import MachineConfig, NodeConfig
from repro.sim.noise import NodeNoise, NoiseConfig


def make_clock(faults=(), cpu_speed=1.0, mem_perf=1.0, mem_fraction=0.4, noise=None):
    noise_cfg = noise or NoiseConfig(
        jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0
    )
    machine = MachineConfig(
        n_ranks=1, ranks_per_node=1, mem_fraction=mem_fraction, noise=noise_cfg
    )
    node = NodeConfig(node_id=0, cpu_speed=cpu_speed, mem_perf=mem_perf)
    return RankClock(
        rank=0,
        node=node,
        noise=NodeNoise(noise_cfg, seed=1, node_id=0),
        machine=machine,
        faults=tuple(faults),
    )


def test_noise_free_unit_speed():
    clock = make_clock()
    start, end = clock.advance_compute(100.0)
    assert start == 0.0
    assert end == pytest.approx(100.0)


def test_zero_work_no_advance():
    clock = make_clock()
    start, end = clock.advance_compute(0.0)
    assert start == end == 0.0


def test_faster_cpu_shorter_time():
    slow = make_clock(cpu_speed=1.0)
    fast = make_clock(cpu_speed=2.0)
    _, t_slow = slow.advance_compute(100.0)
    _, t_fast = fast.advance_compute(100.0)
    assert t_fast == pytest.approx(t_slow / 2.0)


def test_slow_memory_stretches_mem_fraction():
    healthy = make_clock(mem_perf=1.0, mem_fraction=0.5)
    degraded = make_clock(mem_perf=0.5, mem_fraction=0.5)
    _, t_h = healthy.advance_compute(100.0)
    _, t_d = degraded.advance_compute(100.0)
    # time = work * (0.5/1 + 0.5/(1*mem)); mem=0.5 doubles the memory part.
    assert t_d == pytest.approx(t_h * 1.5)


def test_mem_fraction_zero_ignores_memory():
    degraded = make_clock(mem_perf=0.25, mem_fraction=0.0)
    _, t = degraded.advance_compute(100.0)
    assert t == pytest.approx(100.0)


def test_bad_node_fault_slows():
    clock = make_clock(faults=[BadNode(node_id=0, cpu_factor=0.5, mem_factor=1.0)], mem_fraction=0.0)
    _, t = clock.advance_compute(100.0)
    assert t == pytest.approx(200.0)


def test_contention_window_integration():
    """Work spanning a fault boundary integrates piecewise."""
    clock = make_clock(
        faults=[CpuContention(node_ids=(0,), t0=50.0, t1=1e9, cpu_factor=0.5, mem_factor=1.0)],
        mem_fraction=0.0,
    )
    _, t = clock.advance_compute(100.0)
    # 50 units in the first 50us, remaining 50 units at half speed = 100us.
    assert t == pytest.approx(150.0)


def test_wall_advance():
    clock = make_clock()
    clock.advance_compute(10.0)
    start, end = clock.advance_wall(25.0)
    assert end - start == 25.0


def test_wait_until_moves_forward_only():
    clock = make_clock()
    clock.wait_until(100.0)
    assert clock.now == 100.0
    clock.wait_until(50.0)
    assert clock.now == 100.0


def test_interrupt_loss_added():
    noise = NoiseConfig(
        jitter_sigma=0.0,
        spike_rate_per_ms=0.0,
        interrupt_period_us=50.0,
        interrupt_duration_us=5.0,
    )
    clock = make_clock(noise=noise)
    _, t = clock.advance_compute(100.0)
    # 100us of work crosses interrupts at 50us and 100us -> +10us.
    assert t == pytest.approx(110.0)


def test_determinism_across_instances():
    a = make_clock(noise=NoiseConfig())
    b = make_clock(noise=NoiseConfig())
    assert a.advance_compute(500.0) == b.advance_compute(500.0)


# -- reference integrator -----------------------------------------------------


def reference_advance(clock, work_units):
    """The per-step integrator: re-derives the fault factors with
    ``cpu_factor_at``/``mem_factor_at`` at every step.  ``RankClock``
    looks them up in a per-segment table instead and must match this bit
    for bit."""
    start = clock.now
    if work_units <= 0:
        return start, start
    t = start
    remaining = work_units
    slice_us = max(1.0, clock.machine.noise.jitter_slice_us)
    edges = fault_boundaries(clock.faults)
    node_id = clock.node.node_id
    frac = clock.machine.mem_fraction
    while True:
        cpu = clock.node.cpu_speed * cpu_factor_at(clock.faults, node_id, t)
        cpu *= clock.noise.speed_multiplier(t)
        mem = clock.node.mem_perf * mem_factor_at(clock.faults, node_id, t)
        denom = (1.0 - frac) / max(cpu, 1e-9) + frac / max(cpu * mem, 1e-9)
        speed = 1.0 / denom
        boundary = (int(t / slice_us) + 1) * slice_us
        nxt = [e for e in edges if e > t]
        if nxt and nxt[0] < boundary:
            boundary = nxt[0]
        dt_max = boundary - t
        dt_needed = remaining / max(speed, 1e-9)
        if dt_needed <= dt_max:
            t += dt_needed
            break
        remaining -= speed * dt_max
        t = boundary
    t += clock.noise.interrupt_loss(start, t)
    clock.now = t
    return start, t


#: timed, overlapping windows on node 0 (slice = 50 us): one starts at 0,
#: t1=150 and t0=400 fall exactly on slice boundaries, 430.5 does not;
#: the node-1 and network faults add edges that change nothing on node 0
_TIMED_FAULTS = (
    CpuContention(node_ids=(0, 1), t0=0.0, t1=150.0, cpu_factor=0.5, mem_factor=0.8),
    BadNode(node_id=0, cpu_factor=0.7, mem_factor=0.9, t0=120.0, t1=430.5),
    SlowMemoryNode(node_id=0, mem_factor=0.55, t0=400.0),
    CpuContention(node_ids=(1,), t0=275.0, t1=610.0, cpu_factor=0.3),
    NetworkDegradation(t0=90.0, t1=333.3),
)


@pytest.mark.parametrize("noise", [None, NoiseConfig()], ids=["quiet", "noisy"])
def test_segment_table_matches_reference_integrator(noise):
    clock = make_clock(faults=_TIMED_FAULTS, noise=noise)
    ref = make_clock(faults=_TIMED_FAULTS, noise=noise)
    for work in (7.0, 33.3, 61.0, 0.0, 140.25, 12.5, 250.0, 3.0):
        assert clock.advance_compute(work) == reference_advance(ref, work)
    assert clock.now > 610.0


@pytest.mark.parametrize("edge", [120.0, 150.0, 400.0, 430.5])
def test_advance_starting_exactly_on_an_edge(edge):
    clock = make_clock(faults=_TIMED_FAULTS, noise=NoiseConfig())
    ref = make_clock(faults=_TIMED_FAULTS, noise=NoiseConfig())
    clock.wait_until(edge)
    ref.wait_until(edge)
    assert clock.advance_compute(75.0) == reference_advance(ref, 75.0)
    assert clock.advance_compute(75.0) == reference_advance(ref, 75.0)


def test_exhausted_integration_cap_raises(monkeypatch):
    monkeypatch.setattr(clock_module, "MAX_INTEGRATION_STEPS", 4)
    clock = make_clock(noise=NoiseConfig())
    clock.advance_compute(10.0)  # fits in a few slices
    with pytest.raises(SimulationError, match="rank 0"):
        clock.advance_compute(10_000.0)
