"""Per-layer wall-time ledger, measured from outside the program.

The traced run adds no tracing to the tool.  It times calls into public
objects:

* :class:`TimedRuntime` is a ``RuntimeHooks`` proxy around the
  ``VSensorRuntime`` the simulator drives;
* :class:`TimedServer` is a proxy around the ``AnalysisServer`` the
  runtime ships batches to and the live reporter and report query;
* :func:`traced_vsensor` rebuilds the ``compile_and_instrument`` →
  ``AnalysisServer`` → ``VSensorRuntime`` → ``Simulator(...).run`` →
  ``report`` composition that ``run_vsensor`` itself uses, with a timed
  region around each step.

Inside ``run_multi_job`` some layers are reachable only within that one
call; :func:`span_self_seconds` reads the spans its existing ``obs=``
bundle records there.

Time is booked as *self* time: a region's duration minus the regions
nested in it, so a server query made from inside a runtime hook counts
once, for the server.  Whatever no region covers is the unattributed
remainder, stated next to the layers.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from time import perf_counter

from repro.api import StaticResult, VSensorRun, compile_and_instrument
from repro.runtime.detector import DetectorConfig
from repro.runtime.dynrules import NoGrouping
from repro.runtime.governor import OverheadGovernor
from repro.runtime.server import AnalysisServer
from repro.runtime.vsensor_hooks import VSensorRuntime
from repro.sensors.model import SensorType
from repro.sim import Simulator
from repro.sim.hooks import RuntimeHooks

#: the ledger's layers; self times over these plus the unattributed
#: remainder add up to the traced wall time
LAYERS = (
    "pipeline.compile",
    "sim.run_self",
    "runtime.record_self",
    "runtime.other_self",
    "server.ingest",
    "server.query",
    "parallel.phase1",
    "service.ingest",
    "service.merge",
    "history.append",
    "history.scan",
)


class Ledger:
    """Self-time accounting over nested timed regions."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        #: other per-layer figures measured during the traced operation
        self.layers: dict[str, float] = {}
        #: open regions: [start, seconds spent in nested regions]
        self._open: list[list[float]] = []

    def enter(self) -> None:
        self._open.append([perf_counter(), 0.0])

    def exit(self, layer: str) -> None:
        start, nested = self._open.pop()
        elapsed = perf_counter() - start
        self.seconds[layer] += elapsed - nested
        if self._open:
            self._open[-1][1] += elapsed

    def book(self, layer: str, seconds: float) -> None:
        """Add time measured elsewhere (span durations) to a layer."""
        self.seconds[layer] += seconds

    def attributed(self) -> float:
        return sum(self.seconds[layer] for layer in LAYERS)


def timed(ledger: Ledger, layer: str, fn):
    def call(*args, **kwargs):
        ledger.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.exit(layer)

    return call


class TimedRuntime(RuntimeHooks):
    """``RuntimeHooks`` proxy booking every hook call to the runtime."""

    def __init__(self, runtime: VSensorRuntime, ledger: Ledger) -> None:
        self.wants_function_events = runtime.wants_function_events
        self.on_sensor_record = timed(ledger, "runtime.record_self", runtime.on_sensor_record)
        for name in (
            "on_program_start",
            "on_program_end",
            "on_mpi_begin",
            "on_mpi_end",
            "on_io",
            "on_func_enter",
            "on_func_exit",
        ):
            setattr(self, name, timed(ledger, "runtime.other_self", getattr(runtime, name)))


class TimedServer:
    """Proxy booking batch receipt as server ingest, every other method
    call (live snapshots, inter-process detection, report queries) as
    server query.  Attribute reads pass straight through, and a missing
    attribute stays missing, so duck-typed callers behave as before."""

    _INGEST = frozenset({"receive_batch", "receive_batch_columns"})

    def __init__(self, server: AnalysisServer, ledger: Ledger) -> None:
        self._server = server
        self._ledger = ledger

    def __getattr__(self, name: str):
        value = getattr(self._server, name)
        if not callable(value):
            return value
        layer = "server.ingest" if name in self._INGEST else "server.query"
        return timed(self._ledger, layer, value)


def traced_vsensor(
    source: str,
    machine,
    ledger: Ledger,
    *,
    faults=(),
    rule=None,
    governor=None,
    window_us: float,
    batch_period_us: float,
    live=None,
    engine: str = "auto",
    store=None,
    sim_obs=None,
) -> VSensorRun:
    """``run_vsensor``'s composition with each layer timed from outside.

    Covers the arguments the benchmark uses (no channel, no history);
    ``governor`` is a ``GovernorConfig`` as ``run_vsensor`` accepts it.
    ``sim_obs`` is handed to the simulator only, for its build spans.
    """
    ledger.enter()
    static: StaticResult = compile_and_instrument(source, store=store)
    ledger.exit("pipeline.compile")

    ledger.enter()
    detector_config = DetectorConfig()
    server = AnalysisServer(
        n_ranks=machine.n_ranks,
        window_us=window_us,
        batch_period_us=batch_period_us,
    )
    gov = None
    if governor is not None:
        gov = OverheadGovernor(
            governor,
            estimates=static.plan.estimates,
            probe_cost=machine.probe_cost,
            detector_config=detector_config,
            ranks_per_node=machine.ranks_per_node,
        )
    runtime = VSensorRuntime(
        sensors=static.program.sensors,
        n_ranks=machine.n_ranks,
        config=detector_config,
        rule=rule or NoGrouping(),
        server=TimedServer(server, ledger),  # type: ignore[arg-type]
        governor=gov,
    )
    runtime.live = live
    ledger.exit("runtime.other_self")

    ledger.enter()
    sim = Simulator(
        static.program.module,
        machine,
        faults=tuple(faults),
        sensors=static.program.sensors,
        engine=engine,
        obs=sim_obs,
        probe_control=gov.control if gov is not None else None,
    ).run(TimedRuntime(runtime, ledger))
    ledger.exit("sim.run_self")

    run = VSensorRun(static=static, sim=sim, runtime=runtime)
    ledger.enter()
    run.report = runtime.report(sim.total_time)
    ledger.exit("runtime.other_self")
    runtime.server = server
    return run


#: span name prefix -> ledger layer, for the spans ``run_multi_job``
#: records; a span matching none of these inherits its parent's layer
_SPAN_LAYERS = (
    ("parallel.", "parallel.phase1"),
    ("service.merge.", "service.merge"),
    ("service.", "service.ingest"),
    ("vsensor.analyze", "server.query"),
)


def span_self_seconds(records) -> dict[str, float]:
    """Self seconds per ledger layer from real-track obs span records."""
    real = [r for r in records if r.track == "real"]
    by_seq = {r.seq: r for r in real}
    nested: dict[int, float] = defaultdict(float)
    for r in real:
        if r.parent in by_seq:
            nested[r.parent] += r.duration_us

    def layer_of(r):
        while r is not None:
            for prefix, layer in _SPAN_LAYERS:
                if r.name.startswith(prefix):
                    return layer
            r = by_seq.get(r.parent)
        return None

    out: dict[str, float] = defaultdict(float)
    for r in real:
        layer = layer_of(r)
        if layer is not None:
            out[layer] += (r.duration_us - nested[r.seq]) / 1e6
    return out


def span_total_seconds(records, prefix: str) -> float:
    """Summed duration of real-track spans whose name starts with
    ``prefix`` (nested matches are not double-counted)."""
    total = 0.0
    matching = {
        r.seq for r in records if r.track == "real" and r.name.startswith(prefix)
    }
    for r in records:
        if r.seq in matching and r.parent not in matching:
            total += r.duration_us / 1e6
    return total


def report_digest(report) -> str:
    """Hash of everything a report says: matrices, per-rank means,
    regions and event/delivery counts, bit for bit."""
    h = hashlib.sha256()
    for sensor_type in SensorType:
        for table in (report.matrices, report.rank_means):
            array = table.get(sensor_type)
            h.update(sensor_type.name.encode())
            if array is not None:
                h.update(repr(array.shape).encode())
                h.update(array.tobytes())
    h.update(repr(report.regions).encode())
    h.update(
        repr(
            (
                report.n_ranks,
                report.total_time_us,
                report.window_us,
                report.intra_events,
                report.inter_events,
                report.bytes_to_server,
                report.batches_to_server,
                report.shutoff_sensors,
                report.duplicate_batches,
                report.degraded_ranks,
                report.coverage_confidence,
                report.sampling_coverage,
                report.governor_decisions,
                report.governor_suspended,
                report.channel_stats,
            )
        ).encode()
    )
    return h.hexdigest()
