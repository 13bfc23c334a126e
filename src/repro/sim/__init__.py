"""Deterministic discrete-event cluster simulator — the Tianhe-2 stand-in.

The paper evaluates on real hardware; this package provides the synthetic
equivalent the detection algorithms need: a cluster of nodes with
configurable CPU/memory performance, OS background noise, a shared network
with congestion episodes, fault injection (bad node, slow memory, CPU
contention, network degradation), MPI rendezvous semantics, and a
bytecode VM (plus its SIMD-over-ranks lockstep twin) that executes each
simulated rank against a virtual clock with a simulated PMU.

Entry point: :class:`~repro.sim.engine.Simulator` —
``Simulator(program, machine).run(hooks)``.
"""

from repro.sim.engine import (
    AUTO_LOCKSTEP_MIN_RANKS,
    ENGINES,
    RankResult,
    SimResult,
    Simulator,
    resolve_engine,
)
from repro.sim.faults import (
    BadNode,
    CpuContention,
    Fault,
    IoDegradation,
    NetworkDegradation,
    SlowMemoryNode,
)
from repro.sim.hooks import NullHooks, RuntimeHooks
from repro.sim.machine import MachineConfig, NodeConfig
from repro.sim.noise import NoiseConfig

__all__ = [
    "BadNode",
    "CpuContention",
    "Fault",
    "IoDegradation",
    "MachineConfig",
    "NetworkDegradation",
    "NodeConfig",
    "NoiseConfig",
    "NullHooks",
    "AUTO_LOCKSTEP_MIN_RANKS",
    "ENGINES",
    "RankResult",
    "RuntimeHooks",
    "SimResult",
    "Simulator",
    "SlowMemoryNode",
    "resolve_engine",
]
