"""Detection-quality harness tests."""

import pytest

from repro.api import run_vsensor
from repro.errors import SimulationError
from repro.runtime.quality import GroundTruth, ground_truth_of, score_detection
from repro.runtime.report import VarianceRegion, VarianceReport
from repro.sensors.model import SensorType
from repro.sim import (
    BadNode,
    CpuContention,
    IoDegradation,
    MachineConfig,
    NetworkDegradation,
    SlowMemoryNode,
)
from tests.conftest import SIMPLE_MPI_PROGRAM


def region(stype=SensorType.COMPUTATION, rlo=0, rhi=3, t0=0.0, t1=1000.0, cells=5):
    return VarianceRegion(
        sensor_type=stype,
        rank_lo=rlo,
        rank_hi=rhi,
        t_start_us=t0,
        t_end_us=t1,
        mean_performance=0.5,
        cells=cells,
    )


class TestGroundTruth:
    def test_slow_memory_maps_to_node_ranks(self):
        machine = MachineConfig(n_ranks=8, ranks_per_node=4)
        truths = ground_truth_of([SlowMemoryNode(node_id=1)], machine, 1e6)
        assert len(truths) == 1
        assert (truths[0].rank_lo, truths[0].rank_hi) == (4, 7)
        assert truths[0].sensor_type is SensorType.COMPUTATION

    def test_contention_expands_per_node(self):
        machine = MachineConfig(n_ranks=12, ranks_per_node=4)
        truths = ground_truth_of(
            [CpuContention(node_ids=(0, 2), t0=10.0, t1=20.0)], machine, 1e6
        )
        assert len(truths) == 2
        assert {(t.rank_lo, t.rank_hi) for t in truths} == {(0, 3), (8, 11)}

    def test_network_covers_all_ranks(self):
        machine = MachineConfig(n_ranks=8, ranks_per_node=4)
        truths = ground_truth_of([NetworkDegradation(t0=1.0, t1=2.0)], machine, 1e6)
        assert (truths[0].rank_lo, truths[0].rank_hi) == (0, 7)
        assert truths[0].sensor_type is SensorType.NETWORK

    def test_io_node_local(self):
        machine = MachineConfig(n_ranks=8, ranks_per_node=4)
        truths = ground_truth_of(
            [IoDegradation(t0=0.0, t1=1.0, node_ids=(1,))], machine, 1e6
        )
        assert (truths[0].rank_lo, truths[0].rank_hi) == (4, 7)
        assert truths[0].sensor_type is SensorType.IO

    def test_infinite_fault_clamped_to_runtime(self):
        machine = MachineConfig(n_ranks=4, ranks_per_node=4)
        truths = ground_truth_of([SlowMemoryNode(node_id=0)], machine, 5000.0)
        assert truths[0].t1 == 5000.0

    @pytest.mark.parametrize(
        "fault",
        [CpuContention(node_ids=(5,), t0=0.0, t1=1000.0), BadNode(node_id=3)],
        ids=repr,
    )
    def test_fault_on_missing_node_rejected(self, fault):
        # 16 ranks at 8 per node: nodes 0 and 1 only.
        machine = MachineConfig(n_ranks=16, ranks_per_node=8)
        report = VarianceReport(n_ranks=16, total_time_us=1e6, window_us=100.0)
        with pytest.raises(SimulationError, match="n_nodes=2") as excinfo:
            ground_truth_of([fault], machine, 1e6)
        assert repr(fault) in str(excinfo.value)
        with pytest.raises(SimulationError, match="n_nodes=2"):
            score_detection(report, [fault], machine)


class TestOverlap:
    def test_overlap_requires_same_component(self):
        truth = GroundTruth(SensorType.COMPUTATION, 0, 3, 0.0, 100.0)
        assert truth.overlaps(region(stype=SensorType.COMPUTATION))
        assert not truth.overlaps(region(stype=SensorType.NETWORK))

    def test_overlap_requires_rank_intersection(self):
        truth = GroundTruth(SensorType.COMPUTATION, 8, 11, 0.0, 1000.0)
        assert not truth.overlaps(region(rlo=0, rhi=3))
        assert truth.overlaps(region(rlo=10, rhi=12))

    def test_overlap_requires_time_intersection(self):
        truth = GroundTruth(SensorType.COMPUTATION, 0, 3, 5000.0, 6000.0)
        assert not truth.overlaps(region(t0=0.0, t1=1000.0))
        assert truth.overlaps(region(t0=5500.0, t1=7000.0))

    def test_slack_widens_time_matching(self):
        truth = GroundTruth(SensorType.COMPUTATION, 0, 3, 5000.0, 6000.0)
        r = region(t0=0.0, t1=4500.0)
        assert not truth.overlaps(r)
        assert truth.overlaps(r, slack_us=600.0)


class TestScoring:
    def test_perfect_detection(self):
        report = VarianceReport(n_ranks=8, total_time_us=1e6, window_us=100.0)
        report.regions = [region(rlo=4, rhi=7, t0=0.0, t1=1e6)]
        machine = MachineConfig(n_ranks=8, ranks_per_node=4)
        score = score_detection(report, [SlowMemoryNode(node_id=1)], machine)
        assert score.recall == 1.0
        assert score.precision == 1.0

    def test_missed_fault_lowers_recall(self):
        report = VarianceReport(n_ranks=8, total_time_us=1e6, window_us=100.0)
        machine = MachineConfig(n_ranks=8, ranks_per_node=4)
        score = score_detection(report, [SlowMemoryNode(node_id=1)], machine)
        assert score.recall == 0.0
        assert score.precision == 1.0  # vacuous: nothing detected

    def test_spurious_region_lowers_precision(self):
        report = VarianceReport(n_ranks=8, total_time_us=1e6, window_us=100.0)
        report.regions = [region(rlo=0, rhi=1, t0=0.0, t1=100.0)]
        machine = MachineConfig(n_ranks=8, ranks_per_node=4)
        score = score_detection(report, [], machine)
        assert score.precision == 0.0
        assert score.recall == 1.0  # vacuous: nothing to find

    def test_min_cells_filters_noise_regions(self):
        report = VarianceReport(n_ranks=8, total_time_us=1e6, window_us=100.0)
        report.regions = [region(cells=1)]
        machine = MachineConfig(n_ranks=8, ranks_per_node=4)
        score = score_detection(report, [], machine, min_cells=2)
        assert score.detected == []


class TestEndToEnd:
    def test_injected_contention_scores_perfectly(self):
        machine = MachineConfig(n_ranks=8, ranks_per_node=4)
        probe = run_vsensor(SIMPLE_MPI_PROGRAM, machine)
        span = probe.sim.total_time
        faults = [CpuContention(node_ids=(1,), t0=0.2 * span, t1=0.6 * span, cpu_factor=0.25)]
        run = run_vsensor(
            SIMPLE_MPI_PROGRAM, machine, faults=faults, window_us=span / 10,
            batch_period_us=span / 10,
        )
        # Score computation regions only (network wait-skew regions are a
        # separate, known artifact of collective sensors).
        comp_report = run.report
        comp_report.regions = [
            r for r in comp_report.regions if r.sensor_type is SensorType.COMPUTATION
        ]
        score = score_detection(comp_report, faults, machine)
        assert score.recall == 1.0
        assert score.precision == 1.0
