"""Interpreter semantics tests: the mini language must compute correctly.

Programs communicate results through IO hooks (printf is not value-bearing)
— instead we run single-rank simulations and inspect global state through a
small harness that exposes the interpreter after the run.
"""

import pytest

from repro.errors import InterpError, SimulationError
from repro.frontend.parser import parse_source
from repro.sim import MachineConfig, Simulator
from repro.sim.hooks import NullHooks
from repro.sim.noise import NoiseConfig
from tests.oracles import AstInterp


def quiet_machine(n_ranks=1, ranks_per_node=1):
    return MachineConfig(
        n_ranks=n_ranks,
        ranks_per_node=ranks_per_node,
        noise=NoiseConfig(jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0),
    )


def run_single(src):
    """Run one rank to completion; return the interpreter for inspection."""
    module = parse_source(src)
    interp = AstInterp(
        module=module,
        rank=0,
        n_ranks=1,
        machine=quiet_machine(),
        faults=(),
        hooks=NullHooks(),
    )
    for _ in interp.run():
        raise AssertionError("single-rank program must not block on MPI")
    return interp


def global_after(src, name):
    return run_single(src).globals[name]


class TestArithmetic:
    def test_integer_arithmetic(self):
        assert global_after("global int g; int main() { g = 2 + 3 * 4; return 0; }", "g") == 14

    def test_integer_division_truncates_toward_zero(self):
        assert global_after("global int g; int main() { g = 7 / 2; return 0; }", "g") == 3
        assert global_after("global int g; int main() { g = -7 / 2; return 0; }", "g") == -3

    def test_division_by_zero_yields_zero(self):
        assert global_after("global int g; int main() { g = 5 / 0; return 0; }", "g") == 0

    def test_modulo(self):
        assert global_after("global int g; int main() { g = 17 % 5; return 0; }", "g") == 2

    def test_float_arithmetic(self):
        g = global_after("global float g; int main() { g = 1.5 * 4.0; return 0; }", "g")
        assert g == pytest.approx(6.0)

    def test_comparisons_yield_zero_one(self):
        assert global_after("global int g; int main() { g = 3 < 5; return 0; }", "g") == 1
        assert global_after("global int g; int main() { g = 5 < 3; return 0; }", "g") == 0

    def test_logical_ops(self):
        assert global_after("global int g; int main() { g = 1 && 0; return 0; }", "g") == 0
        assert global_after("global int g; int main() { g = 1 || 0; return 0; }", "g") == 1

    def test_unary_minus_and_not(self):
        assert global_after("global int g; int main() { g = -(3); return 0; }", "g") == -3
        assert global_after("global int g; int main() { g = !0; return 0; }", "g") == 1


class TestControlFlow:
    def test_if_else(self):
        src = "global int g; int main() { if (2 > 1) g = 10; else g = 20; return 0; }"
        assert global_after(src, "g") == 10

    def test_for_loop_sum(self):
        src = """
        global int g;
        int main() {
            int i;
            for (i = 0; i < 10; i = i + 1) g = g + i;
            return 0;
        }
        """
        assert global_after(src, "g") == 45

    def test_while_loop(self):
        src = "global int g; int main() { int x = 5; while (x > 0) { g = g + 2; x = x - 1; } return 0; }"
        assert global_after(src, "g") == 10

    def test_break(self):
        src = """
        global int g;
        int main() {
            int i;
            for (i = 0; i < 100; i = i + 1) { if (i == 3) break; g = g + 1; }
            return 0;
        }
        """
        assert global_after(src, "g") == 3

    def test_continue(self):
        src = """
        global int g;
        int main() {
            int i;
            for (i = 0; i < 10; i = i + 1) { if (i % 2) continue; g = g + 1; }
            return 0;
        }
        """
        assert global_after(src, "g") == 5

    def test_nested_break_only_inner(self):
        src = """
        global int g;
        int main() {
            int i; int j;
            for (i = 0; i < 3; i = i + 1) {
                for (j = 0; j < 100; j = j + 1) { if (j == 2) break; }
                g = g + 1;
            }
            return 0;
        }
        """
        assert global_after(src, "g") == 3


class TestFunctions:
    def test_call_and_return(self):
        src = """
        global int g;
        int add(int a, int b) { return a + b; }
        int main() { g = add(3, 4); return 0; }
        """
        assert global_after(src, "g") == 7

    def test_recursion(self):
        src = """
        global int g;
        int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        int main() { g = fib(10); return 0; }
        """
        assert global_after(src, "g") == 55

    def test_void_function_returns_zero(self):
        src = """
        global int g;
        void noop() { }
        int main() { g = noop() + 5; return 0; }
        """
        assert global_after(src, "g") == 5

    def test_locals_are_per_frame(self):
        src = """
        global int g;
        int f(int x) { int t = x * 2; return t; }
        int main() { int t = 100; g = f(3) + t; return 0; }
        """
        assert global_after(src, "g") == 106

    def test_funcptr_dispatch(self):
        src = """
        global int g;
        int ten() { return 10; }
        int main() { funcptr p; p = &ten; g = p(); return 0; }
        """
        assert global_after(src, "g") == 10

    def test_unknown_function_raises(self):
        with pytest.raises(InterpError, match="unknown function"):
            run_single("int main() { nosuch(); return 0; }")


class TestArraysAndGlobals:
    def test_array_read_write(self):
        src = """
        global int a[4];
        global int g;
        int main() { a[2] = 7; g = a[2]; return 0; }
        """
        assert global_after(src, "g") == 7

    def test_array_index_wraps(self):
        src = """
        global int a[4];
        global int g;
        int main() { a[1] = 9; g = a[5]; return 0; }
        """
        assert global_after(src, "g") == 9

    def test_local_array(self):
        src = """
        global int g;
        int main() { int buf[3]; buf[0] = 4; g = buf[0]; return 0; }
        """
        assert global_after(src, "g") == 4

    def test_global_initializer(self):
        assert global_after("global int g = 13; int main() { return 0; }", "g") == 13

    def test_globals_shared_with_callee(self):
        src = """
        global int g;
        void bump() { g = g + 1; }
        int main() { bump(); bump(); return 0; }
        """
        assert global_after(src, "g") == 2


class TestIntrinsics:
    def test_math_functions(self):
        assert global_after("global float g; int main() { g = sqrt(16.0); return 0; }", "g") == pytest.approx(4.0)
        assert global_after("global float g; int main() { g = fabs(-2.5); return 0; }", "g") == pytest.approx(2.5)
        assert global_after("global float g; int main() { g = max(2.0, 5.0); return 0; }", "g") == pytest.approx(5.0)

    def test_rank_and_size_single(self):
        src = "global int r; global int s; int main() { r = MPI_Comm_rank(); s = MPI_Comm_size(); return 0; }"
        interp = run_single(src)
        assert interp.globals["r"] == 0
        assert interp.globals["s"] == 1

    def test_compute_units_charges_work(self):
        interp = run_single("int main() { compute_units(500); return 0; }")
        assert interp.total_work >= 500

    def test_rand_is_deterministic_per_rank(self):
        a = run_single("global int g; int main() { g = rand(); return 0; }").globals["g"]
        b = run_single("global int g; int main() { g = rand(); return 0; }").globals["g"]
        assert a == b

    def test_clock_advances_with_work(self):
        src = "global int g; int main() { compute_units(1000); g = clock(); return 0; }"
        assert global_after(src, "g") >= 1000


class TestTimeAccounting:
    def test_more_work_more_time(self):
        t1 = run_single("int main() { compute_units(100); return 0; }").clock.now
        t2 = run_single("int main() { compute_units(10000); return 0; }").clock.now
        assert t2 > t1

    def test_interpreted_statements_cost_work(self):
        interp = run_single(
            "global int g; int main() { int i; for (i = 0; i < 100; i = i + 1) g = g + 1; return 0; }"
        )
        assert interp.total_work > 100  # loop bookkeeping costs too

    def test_io_advances_wall_time(self):
        fast = run_single("int main() { return 0; }").clock.now
        io = run_single("int main() { fwrite(1000); return 0; }").clock.now
        assert io > fast


class TestRankDivergence:
    def test_ranks_see_own_rank(self):
        src = """
        global int g;
        int main() {
            g = MPI_Comm_rank() * 10;
            MPI_Barrier();
            return 0;
        }
        """
        module = parse_source(src)
        result = Simulator(module, quiet_machine(n_ranks=4, ranks_per_node=2)).run()
        assert result.n_ranks == 4
