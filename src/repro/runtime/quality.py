"""Detection-quality scoring against injected ground truth.

The simulator knows exactly which faults were injected; this module scores
a variance report against that ground truth:

* **recall** — every injected fault should be covered by at least one
  detected region of the right component that overlaps it in both the
  rank and the time dimension;
* **precision** — detected regions (above a cell-count floor) should
  overlap *some* injected fault.

Used by tests and by the detectability benchmark (how much slowdown a
fault needs before vSensor sees it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.report import VarianceRegion, VarianceReport
from repro.sensors.model import SensorType
from repro.sim.faults import (
    BadNode,
    CpuContention,
    Fault,
    IoDegradation,
    NetworkDegradation,
    SlowMemoryNode,
    check_fault_nodes,
)
from repro.sim.machine import MachineConfig


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """One injected fault, normalized to report coordinates."""

    sensor_type: SensorType
    rank_lo: int
    rank_hi: int
    t0: float
    t1: float

    def overlaps(self, region: VarianceRegion, slack_us: float = 0.0) -> bool:
        if region.sensor_type is not self.sensor_type:
            return False
        ranks_overlap = region.rank_hi >= self.rank_lo and region.rank_lo <= self.rank_hi
        time_overlap = (
            region.t_end_us + slack_us >= self.t0 and region.t_start_us - slack_us <= self.t1
        )
        return ranks_overlap and time_overlap


def ground_truth_of(
    faults: tuple[Fault, ...] | list[Fault],
    machine: MachineConfig,
    total_time_us: float,
) -> list[GroundTruth]:
    """Translate fault objects into expected report coordinates.

    Raises :class:`~repro.errors.SimulationError` naming the fault for a
    fault the :class:`~repro.sim.Simulator` would reject, e.g. one on a
    node ``machine`` does not have."""
    check_fault_nodes(tuple(faults), machine)
    out: list[GroundTruth] = []
    for fault in faults:
        if isinstance(fault, (SlowMemoryNode, BadNode)):
            ranks = machine.ranks_on_node(fault.node_id)
            out.append(
                GroundTruth(
                    sensor_type=SensorType.COMPUTATION,
                    rank_lo=min(ranks),
                    rank_hi=max(ranks),
                    t0=max(0.0, fault.t0),
                    t1=min(total_time_us, fault.t1),
                )
            )
        elif isinstance(fault, CpuContention):
            for node_id in fault.node_ids:
                ranks = machine.ranks_on_node(node_id)
                out.append(
                    GroundTruth(
                        sensor_type=SensorType.COMPUTATION,
                        rank_lo=min(ranks),
                        rank_hi=max(ranks),
                        t0=fault.t0,
                        t1=min(total_time_us, fault.t1),
                    )
                )
        elif isinstance(fault, NetworkDegradation):
            out.append(
                GroundTruth(
                    sensor_type=SensorType.NETWORK,
                    rank_lo=0,
                    rank_hi=machine.n_ranks - 1,
                    t0=fault.t0,
                    t1=min(total_time_us, fault.t1),
                )
            )
        elif isinstance(fault, IoDegradation):
            if fault.node_ids is None:
                lo, hi = 0, machine.n_ranks - 1
            else:
                ranks = [r for n in fault.node_ids for r in machine.ranks_on_node(n)]
                lo, hi = min(ranks), max(ranks)
            out.append(
                GroundTruth(
                    sensor_type=SensorType.IO,
                    rank_lo=lo,
                    rank_hi=hi,
                    t0=fault.t0,
                    t1=min(total_time_us, fault.t1),
                )
            )
    return out


@dataclass(slots=True)
class QualityScore:
    truths: list[GroundTruth]
    detected: list[VarianceRegion]
    matched_truths: int = 0
    matched_regions: int = 0
    #: the report's sampling coverage under governor throttling — an
    #: F-score over 80%-covered telemetry is not the same claim as one
    #: over full telemetry, so the score carries the fraction along
    coverage: float = 1.0

    @property
    def recall(self) -> float:
        return self.matched_truths / len(self.truths) if self.truths else 1.0

    @property
    def precision(self) -> float:
        return self.matched_regions / len(self.detected) if self.detected else 1.0

    @property
    def f_score(self) -> float:
        """Harmonic mean of precision and recall — the single number the
        transport-loss sweep tracks against drop rate."""
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    def describe(self) -> str:
        out = (
            f"recall {self.matched_truths}/{len(self.truths)}, "
            f"precision {self.matched_regions}/{len(self.detected)}, "
            f"F={self.f_score:.2f}"
        )
        if self.coverage < 1.0:
            out += f" (at {self.coverage:.0%} sampling coverage)"
        return out


def score_detection(
    report: VarianceReport,
    faults,
    machine: MachineConfig,
    min_cells: int = 2,
    slack_windows: float = 1.0,
    sensor_types: tuple[SensorType, ...] | None = None,
) -> QualityScore:
    """Score a report against the injected faults.

    ``slack_windows`` widens time matching by that many matrix windows —
    slice/window quantization legitimately shifts region edges.

    ``sensor_types`` restricts scoring to those components.  A CPU fault
    also produces secondary network-wait regions on the ranks stalled
    behind the slowed ones; when the question is "was the fault itself
    localized", score only the component the fault perturbs directly.
    """
    truths = ground_truth_of(faults, machine, report.total_time_us)
    regions = [r for r in report.regions if r.cells >= min_cells]
    if sensor_types is not None:
        truths = [t for t in truths if t.sensor_type in sensor_types]
        regions = [r for r in regions if r.sensor_type in sensor_types]
    slack = slack_windows * report.window_us

    score = QualityScore(
        truths=truths,
        detected=regions,
        coverage=getattr(report, "sampling_coverage", 1.0),
    )
    for truth in truths:
        if any(truth.overlaps(region, slack) for region in regions):
            score.matched_truths += 1
    for region in regions:
        if any(truth.overlaps(region, slack) for truth in truths):
            score.matched_regions += 1
    return score
