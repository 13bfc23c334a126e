"""Fault-injection model tests."""

import time
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ReproError, SimulationError
from repro.frontend.parser import parse_source
from repro.sim import MachineConfig, Simulator
from repro.sim.faults import (
    BadNode,
    CpuContention,
    IoDegradation,
    NetworkDegradation,
    SlowMemoryNode,
    cpu_factor_at,
    fault_boundaries,
    mem_factor_at,
    net_factor_at,
    node_factor_segments,
)
from repro.sim import clock as clock_module


def test_bad_node_affects_only_its_node():
    faults = (BadNode(node_id=1, cpu_factor=0.5, mem_factor=0.5),)
    assert cpu_factor_at(faults, 1, 100.0) == 0.5
    assert cpu_factor_at(faults, 0, 100.0) == 1.0


def test_slow_memory_node_leaves_cpu():
    faults = (SlowMemoryNode(node_id=2, mem_factor=0.55),)
    assert cpu_factor_at(faults, 2, 0.0) == 1.0
    assert mem_factor_at(faults, 2, 0.0) == 0.55


def test_contention_window():
    faults = (CpuContention(node_ids=(0, 1), t0=100.0, t1=200.0, cpu_factor=0.4),)
    assert cpu_factor_at(faults, 0, 50.0) == 1.0
    assert cpu_factor_at(faults, 0, 150.0) == 0.4
    assert cpu_factor_at(faults, 0, 200.0) == 1.0
    assert cpu_factor_at(faults, 2, 150.0) == 1.0


def test_contention_touches_memory_too():
    faults = (CpuContention(node_ids=(0,), t0=0.0, t1=10.0, mem_factor=0.8),)
    assert mem_factor_at(faults, 0, 5.0) == 0.8


def test_network_degradation_window():
    faults = (NetworkDegradation(t0=100.0, t1=300.0, factor=0.25),)
    assert net_factor_at(faults, 50.0) == 1.0
    assert net_factor_at(faults, 200.0) == 0.25
    assert net_factor_at(faults, 300.0) == 1.0


def test_factors_compose_multiplicatively():
    faults = (
        BadNode(node_id=0, cpu_factor=0.5),
        CpuContention(node_ids=(0,), t0=0.0, t1=1e9, cpu_factor=0.5),
    )
    assert cpu_factor_at(faults, 0, 10.0) == 0.25


def test_fault_boundaries_sorted_unique():
    faults = (
        NetworkDegradation(t0=100.0, t1=300.0, factor=0.5),
        CpuContention(node_ids=(0,), t0=50.0, t1=300.0),
        BadNode(node_id=0),  # t0=0, t1=inf: no boundaries
    )
    assert fault_boundaries(faults) == [50.0, 100.0, 300.0]


def test_no_faults_no_boundaries():
    assert fault_boundaries(()) == []


@pytest.mark.parametrize(
    "fault",
    [
        CpuContention(node_ids=(5,), t0=0.0, t1=1.0),
        CpuContention(node_ids=(0, 2), t0=0.0, t1=1.0),
        BadNode(node_id=-1),
        SlowMemoryNode(node_id=2),
        IoDegradation(t0=0.0, t1=1.0, node_ids=(7,)),
    ],
)
def test_fault_on_missing_node_rejected_at_construction(fault):
    machine = MachineConfig(n_ranks=16, ranks_per_node=8)
    module = parse_source("int main() { return 0; }")
    with pytest.raises(ReproError, match=r"n_nodes=2") as info:
        Simulator(module, machine, faults=(fault,))
    assert repr(fault) in str(info.value)


def test_faults_on_existing_nodes_accepted():
    machine = MachineConfig(n_ranks=16, ranks_per_node=8)
    module = parse_source("int main() { return 0; }")
    faults = (
        CpuContention(node_ids=(0, 1), t0=0.0, t1=1.0),
        BadNode(node_id=1),
        IoDegradation(t0=0.0, t1=1.0),  # every node
        NetworkDegradation(t0=0.0, t1=1.0),
    )
    Simulator(module, machine, faults=faults).run()


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize("engine", ["ast", "bytecode", "lockstep"])
@pytest.mark.parametrize(
    "fault",
    [
        CpuContention(node_ids=(0,), t0=0.0, t1=1.0, cpu_factor=_NAN),
        CpuContention(node_ids=(0,), t0=0.0, t1=1.0, mem_factor=0.0),
        BadNode(node_id=1, cpu_factor=-0.5),
        BadNode(node_id=1, mem_factor=_INF),
        SlowMemoryNode(node_id=0, mem_factor=_NAN),
        NetworkDegradation(t0=0.0, t1=1.0, factor=0.0),
        IoDegradation(t0=0.0, t1=1.0, factor=_NAN),
        CpuContention(node_ids=(0,), t0=_NAN, t1=1.0),
        BadNode(node_id=0, t1=_NAN),
        NetworkDegradation(t0=200.0, t1=100.0),
        CpuContention(node_ids=(1,), t0=5.0, t1=4.0),
    ],
    ids=repr,
)
def test_malformed_fault_rejected_at_construction(fault, engine):
    machine = MachineConfig(n_ranks=16, ranks_per_node=8)
    module = parse_source("int main() { compute_units(100); return 0; }")
    began = time.perf_counter()
    with pytest.raises(SimulationError) as info:
        Simulator(module, machine, faults=(fault,), engine=engine)
    assert time.perf_counter() - began < 1.0
    assert repr(fault) in str(info.value)


def test_empty_window_accepted():
    machine = MachineConfig(n_ranks=4, ranks_per_node=2)
    module = parse_source("int main() { compute_units(100); return 0; }")
    quiet = Simulator(module, machine).run()
    faults = (CpuContention(node_ids=(0,), t0=50.0, t1=50.0, cpu_factor=0.1),)
    assert Simulator(module, machine, faults=faults).run() == quiet


@pytest.mark.parametrize("engine", ["ast", "bytecode", "lockstep"])
def test_exhausted_integration_cap_raises_on_every_engine(engine, monkeypatch):
    monkeypatch.setattr(clock_module, "MAX_INTEGRATION_STEPS", 8)
    machine = MachineConfig(n_ranks=16, ranks_per_node=8)
    module = parse_source("int main() { compute_units(100000); return 0; }")
    # the lockstep tier advances all 16 fused lanes at once and names them
    named = r"ranks \[0, 1, 2, " if engine == "lockstep" else "rank 0: "
    with pytest.raises(SimulationError, match=named + ".*within 8 integration steps"):
        Simulator(module, machine, engine=engine).run()


_window = st.tuples(
    st.sampled_from([-50.0, 0.0, 40.0, 100.0, 250.0]),
    st.sampled_from([-10.0, 0.0, 100.0, 180.0, 250.0, _INF]),
).map(sorted)

_faults = st.lists(
    st.one_of(
        st.builds(
            lambda w, n, c, m: BadNode(node_id=n, cpu_factor=c, mem_factor=m, t0=w[0], t1=w[1]),
            _window, st.integers(0, 1), st.sampled_from([0.3, 0.7]), st.sampled_from([0.6, 0.9]),
        ),
        st.builds(
            lambda w, n, m: SlowMemoryNode(node_id=n, mem_factor=m, t0=w[0], t1=w[1]),
            _window, st.integers(0, 1), st.sampled_from([0.55, 0.8]),
        ),
        st.builds(
            lambda w, ns, c: CpuContention(node_ids=ns, t0=w[0], t1=w[1], cpu_factor=c),
            _window, st.sampled_from([(0,), (1,), (0, 1)]), st.sampled_from([0.35, 0.5]),
        ),
        st.builds(
            lambda w: NetworkDegradation(t0=w[0], t1=w[1]), _window,
        ),
    ),
    max_size=5,
).map(tuple)


@given(
    faults=_faults,
    node=st.integers(0, 1),
    t=st.one_of(
        st.sampled_from([0.0, 40.0, 100.0, 180.0, 250.0]),
        st.floats(min_value=0.0, max_value=400.0),
    ),
)
@example(
    # an edge before time 0: the first reachable segment starts at 0, where
    # the second window is already open
    faults=(
        BadNode(node_id=0, t0=-50.0, t1=-10.0),
        CpuContention(node_ids=(0,), t0=0.0, t1=100.0),
    ),
    node=0,
    t=0.0,
)
@settings(max_examples=300, deadline=None)
def test_segment_table_equals_factors_at_any_time(faults, node, t):
    table = node_factor_segments(faults, node)
    assert len(table) == len(fault_boundaries(faults)) + 1
    assert table[bisect_right(fault_boundaries(faults), t)] == (
        cpu_factor_at(faults, node, t),
        mem_factor_at(faults, node, t),
    )
