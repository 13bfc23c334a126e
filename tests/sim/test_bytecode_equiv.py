"""Differential tests: the bytecode VM must be bit-identical to the AST oracle.

The AST interpreter (``tests/oracles/ast_interp.py``) is the executable
specification; the compiled register VM is the fast path.  Every workload
analogue is run under both —
uninstrumented on a quiet baseline and instrumented under a fault scenario
— and everything observable must match exactly: virtual finish times,
total work, match counts, PMU samples and the full sensor-record stream.
"""

from __future__ import annotations

import pytest

from repro.api import compile_and_instrument
from repro.frontend import parse_source
from repro.sim.engine import Simulator
from repro.sim.faults import BadNode, IoDegradation, NetworkDegradation
from repro.sim.hooks import RuntimeHooks
from repro.workloads import all_workloads
from tests.oracles import tier

N_RANKS = 4

#: one fault scenario per workload — IO-heavy and network-heavy analogues
#: get the matching degradation, everything else a bad node
_FAULTS = {
    "FT": (NetworkDegradation(t0=0.0, t1=float("inf"), factor=0.4),),
    "CHKPT": (IoDegradation(t0=0.0, t1=float("inf"), factor=0.4),),
}
_DEFAULT_FAULT = (BadNode(node_id=0, cpu_factor=0.6, mem_factor=0.7),)


class _Recorder(RuntimeHooks):
    """Captures every observable event as a comparable tuple stream."""

    def __init__(self, functions: bool = False) -> None:
        self.events: list[tuple] = []
        self.wants_function_events = functions

    def on_sensor_record(self, rank, sensor_id, t_start, t_end, pmu) -> None:
        self.events.append(
            ("sensor", rank, sensor_id, t_start, t_end,
             pmu.instructions, pmu.cache_miss_rate)
        )

    def on_mpi_end(self, rank, op, t_begin, t_end, size) -> None:
        self.events.append(("mpi", rank, op, t_begin, t_end, size))

    def on_io(self, rank, op, t_begin, t_end, size) -> None:
        self.events.append(("io", rank, op, t_begin, t_end, size))

    def on_func_enter(self, rank, name, t) -> None:
        self.events.append(("enter", rank, name, t))

    def on_func_exit(self, rank, name, t) -> None:
        self.events.append(("exit", rank, name, t))

    def on_program_end(self, rank, t) -> None:
        self.events.append(("end", rank, t))


def _names() -> list[str]:
    return sorted(all_workloads())


@pytest.mark.parametrize("name", _names())
def test_uninstrumented_identical(name):
    wl = all_workloads()[name]
    module = parse_source(wl.source())
    machine = wl.machine(n_ranks=N_RANKS, ranks_per_node=2)
    with tier("ast") as engine:
        r_ast = Simulator(module, machine, engine=engine).run()
    r_bc = Simulator(module, machine, engine="bytecode").run()
    assert r_ast == r_bc


@pytest.mark.parametrize("name", _names())
def test_instrumented_with_fault_identical(name):
    wl = all_workloads()[name]
    static = compile_and_instrument(wl.source())
    machine = wl.machine(n_ranks=N_RANKS, ranks_per_node=2)
    faults = _FAULTS.get(name, _DEFAULT_FAULT)
    streams = {}
    results = {}
    for name in ("ast", "bytecode"):
        rec = _Recorder()
        with tier(name) as engine:
            results[name] = Simulator(
                static.program.module,
                machine,
                faults=faults,
                sensors=static.program.sensors,
                engine=engine,
            ).run(rec)
        streams[name] = rec.events
    assert results["ast"] == results["bytecode"]
    assert streams["ast"] == streams["bytecode"]
    # The fault run must actually observe something on instrumented programs.
    assert streams["bytecode"]


def test_function_event_stream_identical():
    """Tracer-grade enter/exit events match too (FWQ is small enough)."""
    wl = all_workloads()["FWQ"]
    module = parse_source(wl.source())
    machine = wl.machine(n_ranks=2, ranks_per_node=2)
    streams = {}
    for name in ("ast", "bytecode"):
        rec = _Recorder(functions=True)
        with tier(name) as engine:
            Simulator(module, machine, engine=engine).run(rec)
        streams[name] = rec.events
    assert streams["ast"] == streams["bytecode"]
    assert any(e[0] == "enter" for e in streams["ast"])


def test_engine_validates_name():
    wl = all_workloads()["FWQ"]
    module = parse_source(wl.source())
    machine = wl.machine(n_ranks=2)
    with pytest.raises(ValueError, match="unknown engine"):
        Simulator(module, machine, engine="jit")


def test_program_code_shared_across_runs():
    """Compilation happens once per Simulator, not once per run or rank."""
    wl = all_workloads()["FWQ"]
    module = parse_source(wl.source())
    machine = wl.machine(n_ranks=2)
    sim = Simulator(module, machine)
    sim.run()
    first = sim._program_code
    assert first is not None
    sim.run()
    assert sim._program_code is first
