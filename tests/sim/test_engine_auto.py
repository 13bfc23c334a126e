"""``engine="auto"``: rank-count-based interpreter tier selection.

BENCH_interp.json measured lockstep as a net *slowdown* at 8 ranks
(CG 0.95x, LULESH 0.56x vs bytecode) and a win from 32 ranks up, so the
crossover is pinned between those points at 16.  These tests pin the
constant, the mapping, and — since all tiers are bit-identical — that
auto-selection never changes results, only which VM produced them.
"""

from __future__ import annotations

import pytest

from repro.frontend.parser import parse_source
from repro.sim import (
    AUTO_LOCKSTEP_MIN_RANKS,
    MachineConfig,
    Simulator,
    resolve_engine,
)

SRC = """
int main() {
    int i;
    for (i = 0; i < 4; i = i + 1) { compute_units(50 + i); MPI_Allreduce(8); }
    return 0;
}
"""


def test_crossover_is_pinned_at_16_ranks():
    # The measured points bracket 16: 8 ranks is a slowdown, 32 a win.
    assert AUTO_LOCKSTEP_MIN_RANKS == 16
    assert resolve_engine("auto", 8) == "bytecode"
    assert resolve_engine("auto", 15) == "bytecode"
    assert resolve_engine("auto", 16) == "lockstep"
    assert resolve_engine("auto", 32) == "lockstep"


def test_concrete_tiers_pass_through_unchanged():
    for engine in ("bytecode", "lockstep"):
        for n_ranks in (1, 8, 64):
            assert resolve_engine(engine, n_ranks) == engine


def test_simulator_resolves_auto_by_rank_count():
    module = parse_source(SRC)
    below = Simulator(module, MachineConfig(n_ranks=4), engine="auto")
    at = Simulator(
        module, MachineConfig(n_ranks=AUTO_LOCKSTEP_MIN_RANKS), engine="auto"
    )
    assert below.engine == "bytecode"
    assert at.engine == "lockstep"


@pytest.mark.parametrize("n_ranks", [4, AUTO_LOCKSTEP_MIN_RANKS])
def test_auto_results_match_explicit_tiers(n_ranks):
    module = parse_source(SRC)
    machine = MachineConfig(n_ranks=n_ranks, seed=5)
    auto = Simulator(module, machine, engine="auto").run()
    explicit = Simulator(
        module, machine, engine=resolve_engine("auto", n_ranks)
    ).run()
    assert auto.total_time == explicit.total_time
    assert auto.finish_times() == explicit.finish_times()
    assert auto.mpi_matches == explicit.mpi_matches


def test_unknown_engine_rejected():
    module = parse_source(SRC)
    with pytest.raises(ValueError, match="unknown engine"):
        Simulator(module, MachineConfig(n_ranks=4), engine="vectorized")


def test_ast_engine_rejected_naming_valid_tiers(capsys):
    """The AST interpreter is a test oracle, not a tier: both the library
    and the CLI refuse ``ast`` and say which tiers exist."""
    from repro.cli import main

    module = parse_source(SRC)
    with pytest.raises(ValueError, match=r"unknown engine 'ast' \(bytecode\|lockstep\|auto\)"):
        Simulator(module, MachineConfig(n_ranks=4), engine="ast")
    for argv in (
        ["run", "--workload", "FWQ", "--engine", "ast"],
        ["history", "append", "--workload", "FWQ", "--store", "unused", "--engine", "ast"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'ast'" in err
        assert "'bytecode', 'lockstep', 'auto'" in err
