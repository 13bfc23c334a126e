"""Interpreter-tier performance trajectory: AST vs bytecode vs lockstep.

Times uninstrumented and instrumented runs of CG / FT / LULESH at
8 / 32 / 128 ranks on the AST oracle (``tests/oracles``, installed into the
simulator for its cells) and the two production tiers, and writes the
measurements to ``BENCH_interp.json`` at the repo root — the start of a
recorded benchmark trajectory, so hot-loop regressions show up as data
rather than anecdotes.

The shape this pins: the bytecode tier beats the AST reference everywhere,
and by ≥3× on the 128-rank CG configuration (the Fig. 21 bad-node scale);
the lockstep SIMD-over-ranks tier beats bytecode by ≥5× on that same
configuration, where one fetch serves 128 lanes.  Noise-draw caches are
cleared before every timed run so no tier benefits from another's warm-up.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import write_payload

from repro.api import run_uninstrumented, run_vsensor
from repro.sim import noise
from repro.workloads import all_workloads
from tests.oracles import tier

PROGRAMS = ["CG", "FT", "LULESH"]
RANK_COUNTS = [8, 32, 128]
ENGINES = ["ast", "bytecode", "lockstep"]
JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_interp.json")


def _timed(fn) -> float:
    # Fresh noise caches per measurement: the draws are deterministic, so a
    # warm cache from a previous run would understate the second tier's cost.
    noise._JITTER_CACHE.clear()
    noise._SPIKE_CACHE.clear()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@pytest.mark.slow
def test_interp_tier_trajectory():
    rows = []
    for name in PROGRAMS:
        workload = all_workloads()[name]
        source = workload.source()
        for n_ranks in RANK_COUNTS:
            machine = workload.machine(n_ranks=n_ranks)
            for engine in ENGINES:
                with tier(engine) as concrete:
                    seconds = _timed(
                        lambda: run_uninstrumented(source, machine, engine=concrete)
                    )
                rows.append(
                    {"workload": name, "ranks": n_ranks, "mode": "uninstrumented",
                     "engine": engine, "seconds": round(seconds, 4)}
                )
                with tier(engine) as concrete:
                    seconds = _timed(
                        lambda: run_vsensor(source, machine, engine=concrete)
                    )
                rows.append(
                    {"workload": name, "ranks": n_ranks, "mode": "instrumented",
                     "engine": engine, "seconds": round(seconds, 4)}
                )

    def seconds_of(name, ranks, mode, engine):
        for row in rows:
            if (row["workload"], row["ranks"], row["mode"], row["engine"]) == (
                name, ranks, mode, engine
            ):
                return row["seconds"]
        raise KeyError((name, ranks, mode, engine))

    speedups = {}
    lockstep_speedups = {}
    for name in PROGRAMS:
        for n_ranks in RANK_COUNTS:
            for mode in ("uninstrumented", "instrumented"):
                ast_s = seconds_of(name, n_ranks, mode, "ast")
                bc_s = seconds_of(name, n_ranks, mode, "bytecode")
                ls_s = seconds_of(name, n_ranks, mode, "lockstep")
                speedups[f"{name}@{n_ranks}/{mode}"] = round(ast_s / bc_s, 2)
                lockstep_speedups[f"{name}@{n_ranks}/{mode}"] = round(bc_s / ls_s, 2)

    payload = {
        "benchmark": "interpreter tier: AST reference vs bytecode VM vs lockstep",
        "unit": "wall-clock seconds per full simulation",
        "results": rows,
        "speedups": speedups,
        "lockstep_speedups": lockstep_speedups,
    }
    write_payload(JSON_PATH, payload)

    print(
        f"\n{'config':<28s} {'ast':>8s} {'bytecode':>9s} {'lockstep':>9s}"
        f" {'bc/ast':>7s} {'ls/bc':>7s}"
    )
    for key in speedups:
        name, rest = key.split("@")
        ranks, mode = rest.split("/")
        ast_s = seconds_of(name, int(ranks), mode, "ast")
        bc_s = seconds_of(name, int(ranks), mode, "bytecode")
        ls_s = seconds_of(name, int(ranks), mode, "lockstep")
        print(
            f"{key:<28s} {ast_s:>8.2f} {bc_s:>9.2f} {ls_s:>9.2f}"
            f" {speedups[key]:>6.2f}x {lockstep_speedups[key]:>6.2f}x"
        )

    # The acceptance gates on the 128-rank CG configuration: bytecode ≥3×
    # over the AST reference, lockstep ≥5× over bytecode.
    assert speedups["CG@128/uninstrumented"] >= 3.0
    assert lockstep_speedups["CG@128/uninstrumented"] >= 5.0
    # And the bytecode tier should beat the AST reference everywhere; the
    # lockstep tier must win wherever the rank axis is wide enough to pay
    # for vectorization (the 128-rank configurations).
    assert all(s > 1.0 for s in speedups.values())
    assert all(
        s > 1.0 for k, s in lockstep_speedups.items() if "@128/" in k
    )


if __name__ == "__main__":
    test_interp_tier_trajectory()
