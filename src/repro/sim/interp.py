"""Per-rank interpreter state shared by every execution tier.

Each rank runs the (possibly instrumented) program against its own virtual
clock.  Computation charges abstract work units which are converted to time
lazily at observation boundaries (probes, MPI, IO); MPI operations suspend
the rank by yielding an :class:`MpiRequest` to the engine, which resumes it
with the operation's completion time.

:class:`RankInterp` holds everything observable — clock, PMU, RNG, work
accounting, the Tick/Tock probe runtime and IO — plus the cost constants
and intrinsic tables the bytecode compiler
(:mod:`repro.sim.bytecode`) folds into its code.  It does not execute
statements itself: :class:`~repro.sim.bytecode.BytecodeInterp` supplies
``run()``, and the lockstep tier drives those per-rank VMs.  The
tree-walking reference interpreter that the differential suites compare
against lives in ``tests/oracles/ast_interp.py``.

Work accounting is split into an integer count of half work units plus a
float residual for charges that are not multiples of 0.5 (``MPI_Comm_rank``'s
0.1, data-dependent extern costs).  Integer accumulation is exact and
associative, so the bytecode tier may fold the constant charges of a whole
basic block into one addition and still produce bit-identical virtual
times; the residual stream is charged in program order by every tier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InterpError
from repro.frontend import ast_nodes as A
from repro.instrument.rewrite import TICK, TOCK, SensorInfo
from repro.sim.clock import RankClock
from repro.sim.faults import Fault
from repro.sim.hooks import RuntimeHooks
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkModel
from repro.sim.noise import NodeNoise
from repro.sim.pmu import Pmu

# Work-unit costs of interpreted operations.
COST_BINOP = 1.0
COST_UNARY = 0.5
COST_LOAD = 0.5
COST_STORE = 0.5
COST_INDEX = 0.5
COST_CALL = 2.0
COST_BRANCH = 0.5

_MPI_COLLECTIVES = {
    "MPI_Barrier": "barrier",
    "MPI_Allreduce": "allreduce",
    "MPI_Alltoall": "alltoall",
    "MPI_Allgather": "allgather",
    "MPI_Bcast": "bcast",
    "MPI_Reduce": "reduce",
}

_MATH_FUNCS = {
    "sqrt": lambda a: math.sqrt(abs(a)),
    "fabs": abs,
    "abs": abs,
    "exp": lambda a: math.exp(min(a, 60.0)),
    "log": lambda a: math.log(abs(a) + 1e-12),
    "sin": math.sin,
    "cos": math.cos,
    "floor": math.floor,
    "ceil": math.ceil,
    "pow": lambda a, b: math.pow(abs(a) + 1e-12, b),
    "fmod": lambda a, b: math.fmod(a, b if b != 0 else 1.0),
    "min": min,
    "max": max,
}


@dataclass(slots=True)
class MpiRequest:
    """A blocked MPI operation, yielded to the engine."""

    rank: int
    op: str            # "barrier"|"allreduce"|...|"send"|"recv"|"sendrecv"
    size: float
    peer: int          # dest/src/root; -1 when not applicable
    arrive: float      # local time the rank entered the operation


class RankInterp:
    """Interpreter state for one rank; subclasses provide ``run()``."""

    def __init__(
        self,
        module: A.Module,
        rank: int,
        n_ranks: int,
        machine: MachineConfig,
        faults: tuple[Fault, ...],
        hooks: RuntimeHooks,
        sensors: dict[int, SensorInfo] | None = None,
        entry: str = "main",
        externs=None,
        probe_control=None,
    ) -> None:
        self.module = module
        #: optional governor control table; ``None`` keeps probes unconditional
        self.probe_control = probe_control
        self.rank = rank
        self.n_ranks = n_ranks
        self.machine = machine
        self.faults = faults
        self.hooks = hooks
        self.sensors = sensors or {}
        self.entry = entry
        node = machine.node_of_rank(rank)
        self.clock = RankClock(
            rank=rank,
            node=node,
            noise=NodeNoise(machine.noise, machine.seed, node.node_id),
            machine=machine,
            faults=faults,
        )
        self.network = NetworkModel(machine=machine, faults=faults)
        self.pmu = Pmu(machine.seed, rank, faults, node.node_id)
        self._rng = np.random.default_rng(
            np.random.SeedSequence([machine.seed & 0x7FFFFFFF, 31_000 + rank])
        )
        self.globals: dict[str, object] = {}
        self._frames: list[dict[str, object]] = []
        # Work accounting: integer half-units (exact, grouping-invariant)
        # plus a float residual charged in program order.
        self._pending_half = 0
        self._pending_frac = 0.0
        self._total_half = 0
        self._total_frac = 0.0
        #: open Tick records: sensor id -> (t_start, half units, residual)
        self._open_ticks: dict[int, tuple[float, int, float]] = {}
        self.sensor_record_count = 0
        if externs is None:
            from repro.sensors.extern import default_extern_registry

            externs = default_extern_registry()
        self._externs = externs

    # ------------------------------------------------------------------
    # Time bookkeeping
    # ------------------------------------------------------------------

    @property
    def pending_work(self) -> float:
        return self._pending_half * 0.5 + self._pending_frac

    @property
    def total_work(self) -> float:
        return self._total_half * 0.5 + self._total_frac

    def _flush(self) -> None:
        """Convert pending work units into elapsed virtual time."""
        if self._pending_half or self._pending_frac:
            amount = self._pending_half * 0.5 + self._pending_frac
            if amount > 0.0:
                self.clock.advance_compute(amount)
            self._pending_half = 0
            self._pending_frac = 0.0

    def _charge(self, units: float) -> None:
        doubled = units + units
        if doubled < 1e15 and doubled == int(doubled):
            n = int(doubled)
            self._pending_half += n
            self._total_half += n
        else:
            self._pending_frac += units
            self._total_frac += units

    # ------------------------------------------------------------------
    # Global initialisers (call-free expressions)
    # ------------------------------------------------------------------

    def _read_var(self, name: str):
        frame = self._frames[-1]
        if name in frame:
            return frame[name]
        if name in self.globals:
            return self.globals[name]
        raise InterpError(f"rank {self.rank}: read of undefined variable {name!r}")

    def _read_elem(self, name: str, index):
        arr = self._read_var(name)
        if not isinstance(arr, list):
            raise InterpError(f"{name!r} is not an array")
        return arr[int(index) % len(arr)]

    def _eval_fast(self, expr: A.Expr):
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.FloatLit):
            return expr.value
        if isinstance(expr, A.StringLit):
            return expr.value
        if isinstance(expr, A.VarRef):
            self._charge(COST_LOAD)
            return self._read_var(expr.name)
        if isinstance(expr, A.ArrayRef):
            index = self._eval_fast(expr.index)
            self._charge(COST_LOAD + COST_INDEX)
            return self._read_elem(expr.name, index)
        if isinstance(expr, A.BinOp):
            left = self._eval_fast(expr.left)
            right = self._eval_fast(expr.right)
            self._charge(COST_BINOP)
            return _binop(expr.op, left, right)
        if isinstance(expr, A.UnaryOp):
            value = self._eval_fast(expr.operand)
            self._charge(COST_UNARY)
            return -value if expr.op == "-" else (0 if value else 1)
        if isinstance(expr, A.AddrOf):
            return expr.func_name
        raise InterpError(f"fast path cannot evaluate {type(expr).__name__}")

    # ------------------------------------------------------------------
    # Probes (the instrumented Tick/Tock runtime entry, §4/§5)
    # ------------------------------------------------------------------

    def _probe_tick(self, sensor_id: int) -> None:
        ctl = self.probe_control
        if ctl is not None and not ctl.decide(self.rank, sensor_id):
            # Governor says skip: charge only the table check, open nothing.
            # The decision is latched here; the matching tock pops it.
            self._charge(ctl.check_cost)
            return
        self._charge(self.machine.probe_cost)
        self._flush()
        self._open_ticks[sensor_id] = (self.clock.now, self._total_half, self._total_frac)

    def _probe_tock(self, sensor_id: int) -> None:
        ctl = self.probe_control
        if ctl is not None and ctl.pop_skip(self.rank, sensor_id):
            self._charge(ctl.check_cost)
            return
        self._flush()
        open_entry = self._open_ticks.pop(sensor_id, None)
        self._charge(self.machine.probe_cost)
        if open_entry is None:
            raise InterpError(f"vs_tock({sensor_id}) without matching vs_tick")
        t_start, half_at_tick, frac_at_tick = open_entry
        true_work = (self._total_half - half_at_tick) * 0.5 + (
            self._total_frac - frac_at_tick
        )
        sample = self.pmu.read(true_work, self.clock.now)
        self.sensor_record_count += 1
        self.hooks.on_sensor_record(self.rank, sensor_id, t_start, self.clock.now, sample)

    # ------------------------------------------------------------------
    # MPI + IO
    # ------------------------------------------------------------------

    def _io_op(self, op: str, size: float) -> None:
        from repro.sim.faults import io_factor_at

        self._flush()
        t0 = self.clock.now
        cost = self.machine.io_alpha + self.machine.io_beta * size
        cost /= max(io_factor_at(self.faults, self.clock.node.node_id, t0), 1e-6)
        self.clock.advance_wall(cost)
        self.hooks.on_io(self.rank, op, t0, self.clock.now, size)


_INTRINSIC_NAMES = frozenset(
    list(_MPI_COLLECTIVES)
    + list(_MATH_FUNCS)
    + [
        "MPI_Comm_rank",
        "MPI_Comm_size",
        "MPI_Wtime",
        "MPI_Send",
        "MPI_Recv",
        "MPI_Sendrecv",
        "compute_units",
        TICK,
        TOCK,
        "printf",
        "fread",
        "fwrite",
        "fopen",
        "fclose",
        "rand",
        "srand",
        "clock",
        "gethostname",
    ]
)


def _truthy(value) -> bool:
    return bool(value)


def _binop(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return 0
        if isinstance(left, int) and isinstance(right, int):
            return left // right if (left >= 0) == (right >= 0) else -((-left) // right)
        return left / right
    if op == "%":
        return left % right if right != 0 else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == ">=":
        return 1 if left >= right else 0
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "&&":
        return 1 if (left and right) else 0
    if op == "||":
        return 1 if (left or right) else 0
    raise InterpError(f"unknown operator {op!r}")
