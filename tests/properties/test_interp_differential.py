"""Differential testing: every interpreter tier vs a Python ground truth.

Hypothesis generates random integer programs and Python evaluates them
directly.  The AST oracle's final globals must equal the Python values
exactly.  The bytecode and lockstep tiers keep their globals inside the
VM, so each program also checks itself: it ends with one
``fwrite(var == expected)`` per checked variable, and every tier — run
through :class:`~repro.sim.Simulator`, the oracle included — must report
an IO of size 1 for each, on every rank.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.frontend.parser import parse_source
from repro.sim import Simulator
from repro.sim.hooks import NullHooks, RuntimeHooks
from repro.sim.machine import MachineConfig
from repro.sim.noise import NoiseConfig
from tests.oracles import AstInterp, tier

TIERS = ("ast", "bytecode", "lockstep")
N_RANKS = 2

VARS = ["a", "b", "c", "d"]


@st.composite
def straight_line_program(draw):
    """Random sequence of integer assignments with ground truth."""
    n_stmts = draw(st.integers(min_value=1, max_value=12))
    env = {v: 0 for v in VARS}
    lines = []

    def expr_and_value(depth=0):
        kind = draw(
            st.sampled_from(
                ["lit", "var", "bin"] if depth < 3 else ["lit", "var"]
            )
        )
        if kind == "lit":
            value = draw(st.integers(min_value=-50, max_value=50))
            return (f"({value})" if value < 0 else str(value)), value
        if kind == "var":
            name = draw(st.sampled_from(VARS))
            return name, env[name]
        op = draw(st.sampled_from(["+", "-", "*"]))
        left_text, left_val = expr_and_value(depth + 1)
        right_text, right_val = expr_and_value(depth + 1)
        value = {"+": left_val + right_val, "-": left_val - right_val, "*": left_val * right_val}[op]
        return f"({left_text} {op} {right_text})", value

    for _ in range(n_stmts):
        target = draw(st.sampled_from(VARS))
        text, value = expr_and_value()
        lines.append(f"{target} = {text};")
        env[target] = value

    decls = " ".join(f"global int {v};" for v in VARS)
    body = "\n    ".join(lines)
    src = f"{decls}\nint main() {{\n    {body}\n    return 0;\n}}"
    return src, env


def _machine(n_ranks: int = 1) -> MachineConfig:
    return MachineConfig(
        n_ranks=n_ranks,
        ranks_per_node=n_ranks,
        noise=NoiseConfig(jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0),
    )


def run_program(src):
    """Run one rank on the AST oracle; return its final globals."""
    interp = AstInterp(
        module=parse_source(src),
        rank=0,
        n_ranks=1,
        machine=_machine(),
        faults=(),
        hooks=NullHooks(),
    )
    for _ in interp.run():
        raise AssertionError("straight-line program blocked on MPI")
    return interp.globals


class _Verdicts(RuntimeHooks):
    """Collects each rank's ``fwrite`` sizes in program order."""

    def __init__(self) -> None:
        self.sizes: dict[int, list[float]] = {}

    def on_io(self, rank, op, t_begin, t_end, size) -> None:
        self.sizes.setdefault(rank, []).append(size)


def _literal(value: int) -> str:
    return f"({value})" if value < 0 else str(value)


def assert_tiers_compute(src: str, expected: dict[str, int]) -> None:
    """Append a self-check of ``expected`` to ``main`` and run ``src`` on
    every tier: each check must come back true on every rank."""
    checks = " ".join(f"fwrite({var} == {_literal(value)});" for var, value in expected.items())
    head, tail = src.rsplit("return 0;", 1)
    checked = f"{head}{checks}\n    return 0;{tail}"
    module = parse_source(checked)
    for name in TIERS:
        verdicts = _Verdicts()
        with tier(name) as engine:
            Simulator(module, _machine(N_RANKS), engine=engine).run(verdicts)
        want = {rank: [1.0] * len(expected) for rank in range(N_RANKS)}
        assert verdicts.sizes == want, f"{name}: {verdicts.sizes} != {want}\n{checked}"


@given(program=straight_line_program())
@settings(max_examples=150, deadline=None)
def test_interpreter_matches_python_ground_truth(program):
    src, expected = program
    final = run_program(src)
    for var, value in expected.items():
        assert final[var] == value, f"{var}: interpreter={final[var]} python={value}\n{src}"
    assert_tiers_compute(src, expected)


@given(
    values=st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_loop_accumulation_matches(values):
    """Summing a list via an unrolled global-array loop matches Python."""
    n = len(values)
    stores = " ".join(f"xs[{i}] = {v};" if v >= 0 else f"xs[{i}] = 0 - {-v};" for i, v in enumerate(values))
    src = f"""
    global int xs[{n}];
    global int total;
    int main() {{
        int i;
        {stores}
        for (i = 0; i < {n}; i = i + 1) total = total + xs[i];
        return 0;
    }}
    """
    final = run_program(src)
    assert final["total"] == sum(values)
    assert_tiers_compute(src, {"total": sum(values)})


@given(n=st.integers(min_value=0, max_value=30), m=st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_nested_loop_trip_product(n, m):
    src = f"""
    global int count;
    int main() {{
        int i; int j;
        for (i = 0; i < {n}; i = i + 1) {{
            for (j = 0; j < {m}; j = j + 1) count = count + 1;
        }}
        return 0;
    }}
    """
    assert run_program(src)["count"] == n * m
    assert_tiers_compute(src, {"count": n * m})
