"""Fault-injection model tests."""

import pytest

from repro.errors import ReproError
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
)


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
