"""Tree-walking AST interpreter: the executable specification of the VMs.

:class:`AstInterp` executes the parsed module directly, one node at a time.
It is the differential oracle for the production tiers: the bytecode and
lockstep VMs (:mod:`repro.sim.bytecode`, :mod:`repro.sim.lockstep`) must
reproduce its virtual times, work counts, PMU samples and hook streams bit
for bit.  Clock, PMU, RNG, probes and IO are inherited unchanged from
:class:`~repro.sim.interp.RankInterp`, so only statement and expression
execution differs between the oracle and the tiers under test.

Statements whose subtree contains no call run through a plain recursive
fast path; call sites are classified once per program and memoized by
node id (``has_call_memo``, shared across the ranks of one run); only MPI
rendezvous and user-function calls go through ``yield``.
"""

from __future__ import annotations

from repro.errors import InterpError
from repro.frontend import ast_nodes as A
from repro.instrument.rewrite import TICK, TOCK
from repro.sim.interp import (
    COST_BINOP,
    COST_BRANCH,
    COST_CALL,
    COST_INDEX,
    COST_LOAD,
    COST_STORE,
    COST_UNARY,
    _INTRINSIC_NAMES,
    _MATH_FUNCS,
    _MPI_COLLECTIVES,
    MpiRequest,
    RankInterp,
    _binop,
    _truthy,
)


class _Return(Exception):
    """Unwinds a user function call."""

    def __init__(self, value) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class AstInterp(RankInterp):
    """Reference interpreter for one rank."""

    def __init__(self, *args, has_call_memo: dict[int, bool] | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._has_call_memo = has_call_memo if has_call_memo is not None else {}
        self._functions = {fn.name: fn for fn in self.module.functions}

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def run(self):
        """Generator: yields MpiRequest; receives completion times."""
        self._init_globals()
        main = self._functions.get(self.entry)
        if main is None:
            raise InterpError(f"no entry function {self.entry!r}")
        try:
            yield from self._call_function(main, [])
        except _Return:
            pass
        self._flush()
        self.hooks.on_program_end(self.rank, self.clock.now)

    def _init_globals(self) -> None:
        for gv in self.module.globals:
            if gv.array_size is not None:
                self.globals[gv.name] = [0.0 if gv.var_type == "float" else 0] * gv.array_size
            elif gv.init is not None:
                self.globals[gv.name] = self._eval_fast(gv.init)
            else:
                self.globals[gv.name] = 0.0 if gv.var_type == "float" else 0

    # ------------------------------------------------------------------
    # Variable access
    # ------------------------------------------------------------------

    @property
    def _frame(self) -> dict[str, object]:
        return self._frames[-1]

    def _write_var(self, name: str, value) -> None:
        frame = self._frames[-1]
        if name in frame:
            frame[name] = value
        elif name in self.globals:
            self.globals[name] = value
        else:
            frame[name] = value

    def _write_elem(self, name: str, index, value) -> None:
        arr = self._read_var(name)
        if not isinstance(arr, list):
            raise InterpError(f"{name!r} is not an array")
        arr[int(index) % len(arr)] = value

    # ------------------------------------------------------------------
    # Call classification
    # ------------------------------------------------------------------

    def _has_call(self, node: A.Node) -> bool:
        memo = self._has_call_memo
        cached = memo.get(node.node_id)
        if cached is not None:
            return cached
        result = False
        if isinstance(node, A.CallExpr):
            result = True
        elif isinstance(node, A.Stmt):
            for expr in A.walk_all_exprs(node):
                if isinstance(expr, A.CallExpr):
                    result = True
                    break
        else:
            for expr in A.walk_exprs(node):
                if isinstance(expr, A.CallExpr):
                    result = True
                    break
        memo[node.node_id] = result
        return result

    # ------------------------------------------------------------------
    # Fast (call-free) execution
    # ------------------------------------------------------------------

    def _exec_fast(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            for child in stmt.stmts:
                self._exec_fast(child)
            return
        if isinstance(stmt, A.VarDecl):
            if stmt.array_size is not None:
                self._frame[stmt.name] = [0.0 if stmt.var_type == "float" else 0] * stmt.array_size
            else:
                self._frame[stmt.name] = (
                    self._eval_fast(stmt.init) if stmt.init is not None else 0
                )
            self._charge(COST_STORE)
            return
        if isinstance(stmt, A.Assign):
            value = self._eval_fast(stmt.value)
            target = stmt.target
            self._charge(COST_STORE)
            if isinstance(target, A.VarRef):
                self._write_var(target.name, value)
            else:
                index = self._eval_fast(target.index)
                self._write_elem(target.name, index, value)
            return
        if isinstance(stmt, A.IfStmt):
            self._charge(COST_BRANCH)
            if _truthy(self._eval_fast(stmt.cond)):
                self._exec_fast(stmt.then_body)
            elif stmt.else_body is not None:
                self._exec_fast(stmt.else_body)
            return
        if isinstance(stmt, A.ForStmt):
            if stmt.init is not None:
                self._exec_fast(stmt.init)
            while True:
                self._charge(COST_BRANCH)
                if stmt.cond is not None and not _truthy(self._eval_fast(stmt.cond)):
                    break
                try:
                    self._exec_fast(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    self._exec_fast(stmt.step)
            return
        if isinstance(stmt, A.WhileStmt):
            while True:
                self._charge(COST_BRANCH)
                if not _truthy(self._eval_fast(stmt.cond)):
                    break
                try:
                    self._exec_fast(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
            return
        if isinstance(stmt, A.ReturnStmt):
            value = self._eval_fast(stmt.value) if stmt.value is not None else None
            raise _Return(value)
        if isinstance(stmt, A.BreakStmt):
            raise _Break()
        if isinstance(stmt, A.ContinueStmt):
            raise _Continue()
        if isinstance(stmt, A.ExprStmt):
            self._eval_fast(stmt.expr)
            return
        raise InterpError(f"fast path cannot execute {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # General (call-capable) execution — generators
    # ------------------------------------------------------------------

    def _exec(self, stmt: A.Stmt):
        if not self._has_call(stmt):
            self._exec_fast(stmt)
            return
        if isinstance(stmt, A.Block):
            for child in stmt.stmts:
                if self._has_call(child):
                    yield from self._exec(child)
                else:
                    self._exec_fast(child)
            return
        if isinstance(stmt, A.VarDecl):
            if stmt.array_size is not None:
                self._frame[stmt.name] = [0.0 if stmt.var_type == "float" else 0] * stmt.array_size
            else:
                value = 0
                if stmt.init is not None:
                    value = yield from self._eval(stmt.init)
                self._frame[stmt.name] = value
            self._charge(COST_STORE)
            return
        if isinstance(stmt, A.Assign):
            value = yield from self._eval(stmt.value)
            target = stmt.target
            self._charge(COST_STORE)
            if isinstance(target, A.VarRef):
                self._write_var(target.name, value)
            else:
                index = yield from self._eval(target.index)
                self._write_elem(target.name, index, value)
            return
        if isinstance(stmt, A.IfStmt):
            self._charge(COST_BRANCH)
            cond = yield from self._eval(stmt.cond)
            if _truthy(cond):
                yield from self._exec(stmt.then_body)
            elif stmt.else_body is not None:
                yield from self._exec(stmt.else_body)
            return
        if isinstance(stmt, A.ForStmt):
            if stmt.init is not None:
                yield from self._exec(stmt.init)
            body_has_call = self._has_call(stmt.body) if stmt.body is not None else False
            while True:
                self._charge(COST_BRANCH)
                if stmt.cond is not None:
                    cond = yield from self._eval(stmt.cond)
                    if not _truthy(cond):
                        break
                try:
                    if body_has_call:
                        yield from self._exec(stmt.body)
                    else:
                        self._exec_fast(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    yield from self._exec(stmt.step)
            return
        if isinstance(stmt, A.WhileStmt):
            body_has_call = self._has_call(stmt.body) if stmt.body is not None else False
            while True:
                self._charge(COST_BRANCH)
                cond = yield from self._eval(stmt.cond)
                if not _truthy(cond):
                    break
                try:
                    if body_has_call:
                        yield from self._exec(stmt.body)
                    else:
                        self._exec_fast(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
            return
        if isinstance(stmt, A.ReturnStmt):
            value = None
            if stmt.value is not None:
                value = yield from self._eval(stmt.value)
            raise _Return(value)
        if isinstance(stmt, A.ExprStmt):
            yield from self._eval(stmt.expr)
            return
        raise InterpError(f"cannot execute {type(stmt).__name__}")

    def _eval(self, expr: A.Expr):
        if not self._has_call(expr):
            return self._eval_fast(expr)
        if isinstance(expr, A.BinOp):
            left = yield from self._eval(expr.left)
            right = yield from self._eval(expr.right)
            self._charge(COST_BINOP)
            return _binop(expr.op, left, right)
        if isinstance(expr, A.UnaryOp):
            value = yield from self._eval(expr.operand)
            self._charge(COST_UNARY)
            return -value if expr.op == "-" else (0 if value else 1)
        if isinstance(expr, A.ArrayRef):
            index = yield from self._eval(expr.index)
            self._charge(COST_LOAD + COST_INDEX)
            return self._read_elem(expr.name, index)
        if isinstance(expr, A.CallExpr):
            result = yield from self._eval_call(expr)
            return result
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _eval_call(self, expr: A.CallExpr):
        name = expr.callee
        # Indirect call through a funcptr variable holding a function name.
        if name not in self._functions and name not in _INTRINSIC_NAMES:
            frame = self._frames[-1] if self._frames else {}
            if name in frame or name in self.globals:
                target = self._read_var(name)
                if isinstance(target, str) and target in self._functions:
                    name = target
        args = []
        for arg in expr.args:
            value = yield from self._eval(arg)
            args.append(value)
        self._charge(COST_CALL)

        fn = self._functions.get(name)
        if fn is not None:
            result = yield from self._call_function(fn, args)
            return result
        result = yield from self._intrinsic(name, args, expr)
        return result

    def _call_function(self, fn: A.FunctionDef, args: list):
        frame: dict[str, object] = {}
        for i, param in enumerate(fn.params):
            frame[param.name] = args[i] if i < len(args) else 0
        self._frames.append(frame)
        trace = self.hooks.wants_function_events
        if trace:
            self.hooks.on_func_enter(self.rank, fn.name, self.clock.now)
        try:
            if fn.body is not None:
                if self._has_call(fn.body):
                    yield from self._exec(fn.body)
                else:
                    self._exec_fast(fn.body)
            return 0
        except _Return as ret:
            return ret.value if ret.value is not None else 0
        finally:
            self._frames.pop()
            if trace:
                self.hooks.on_func_exit(self.rank, fn.name, self.clock.now)

    # ------------------------------------------------------------------
    # Intrinsics
    # ------------------------------------------------------------------

    def _intrinsic(self, name: str, args: list, expr: A.CallExpr):
        if name == "compute_units":
            self._charge(max(0.0, float(args[0])) if args else 0.0)
            return 0
        if name == TICK:
            self._probe_tick(int(args[0]))
            return 0
        if name == TOCK:
            self._probe_tock(int(args[0]))
            return 0
        if name == "MPI_Comm_rank":
            self._charge(0.1)
            return self.rank
        if name == "MPI_Comm_size":
            self._charge(0.1)
            return self.n_ranks
        if name == "MPI_Wtime":
            self._flush()
            return self.clock.now
        if name in _MPI_COLLECTIVES:
            result = yield from self._mpi_collective(name, args)
            return result
        if name in ("MPI_Send", "MPI_Recv", "MPI_Sendrecv"):
            result = yield from self._mpi_p2p(name, args)
            return result
        if name in _MATH_FUNCS:
            self._charge(2.0)
            try:
                return _MATH_FUNCS[name](*args[: 2 if name in ("pow", "fmod", "min", "max") else 1])
            except (ValueError, OverflowError):
                return 0.0
        if name == "printf":
            self._io_op("printf", 1.0)
            return 0
        if name in ("fread", "fwrite"):
            size = float(args[0]) if args else 1.0
            self._io_op(name, size)
            return 0
        if name in ("fopen", "fclose"):
            self._io_op(name, 1.0)
            return 0
        if name == "rand":
            self._charge(0.5)
            return int(self._rng.integers(0, 2**31 - 1))
        if name == "srand":
            return 0
        if name == "clock":
            self._flush()
            return int(self.clock.now)
        if name == "gethostname":
            self._charge(0.5)
            return self.clock.node.node_id
        model = self._externs.lookup(name)
        if model is not None:
            # A user-described external function: costed from its model.
            units = 1.0
            for idx in model.workload_args:
                if idx < len(args):
                    units *= max(0.0, float(args[idx]))
            cost = model.base_cost + model.unit_cost * (units if model.workload_args else 0.0)
            if model.category == "net":
                self._flush()
                t0 = self.clock.now
                self.clock.advance_wall(cost * self.network.stretch_at(t0))
                self.hooks.on_mpi_end(self.rank, name, t0, self.clock.now, units)
            elif model.category == "io":
                self._io_op(name, units)
            else:
                self._charge(cost)
            return 0
        raise InterpError(f"rank {self.rank}: call to unknown function {name!r}")
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # MPI
    # ------------------------------------------------------------------

    def _mpi_collective(self, name: str, args: list):
        op = _MPI_COLLECTIVES[name]
        if op in ("barrier",):
            size = 0.0
        elif op in ("bcast", "reduce"):
            size = float(args[1]) if len(args) > 1 else 0.0
        else:
            size = float(args[0]) if args else 0.0
        self._flush()
        t0 = self.clock.now
        self.hooks.on_mpi_begin(self.rank, name, t0)
        completion = yield MpiRequest(rank=self.rank, op=op, size=size, peer=-1, arrive=t0)
        self.clock.wait_until(completion)
        self.hooks.on_mpi_end(self.rank, name, t0, self.clock.now, size)
        return 0

    def _mpi_p2p(self, name: str, args: list):
        peer = int(args[0]) if args else 0
        size = float(args[1]) if len(args) > 1 else 0.0
        op = {"MPI_Send": "send", "MPI_Recv": "recv", "MPI_Sendrecv": "sendrecv"}[name]
        self._flush()
        t0 = self.clock.now
        self.hooks.on_mpi_begin(self.rank, name, t0)
        completion = yield MpiRequest(
            rank=self.rank, op=op, size=size, peer=peer % max(1, self.n_ranks), arrive=t0
        )
        self.clock.wait_until(completion)
        self.hooks.on_mpi_end(self.rank, name, t0, self.clock.now, size)
        return 0
