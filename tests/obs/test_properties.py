"""Property tests: span trees stay well-formed; observability is neutral.

Two families:

* hypothesis-driven random span scripts — whatever the nesting, the
  recorded tree has no orphan exits, ``exit >= enter``, and every child
  interval lies inside its parent's;
* behaviour neutrality — running the full pipeline with an enabled
  ``Obs`` bundle produces bit-identical reports, matrices and cached
  artifacts to running with the disabled default, across both
  interpreter engines and with/without a lossy channel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_vsensor
from repro.obs import Obs, TraceError, Tracer
from repro.pipeline import ArtifactStore
from repro.sim import MachineConfig
from repro.sim.noise import NoiseConfig
from tests.oracles import tier

SOURCE = """
global int NITER = 6;
void kernel() {
    int i;
    for (i = 0; i < 10; i = i + 1) compute_units(20);
}
int main() {
    int n;
    for (n = 0; n < NITER; n = n + 1) {
        kernel();
        MPI_Allreduce(16);
    }
    return 0;
}
"""


def quiet_machine() -> MachineConfig:
    return MachineConfig(
        n_ranks=4,
        ranks_per_node=2,
        noise=NoiseConfig(jitter_sigma=0.0, interrupt_period_us=0.0, spike_rate_per_ms=0.0),
    )


# ---------------------------------------------------------------------------
# Well-formed nesting under arbitrary scripts
# ---------------------------------------------------------------------------

# A script is a list of actions replayed against one tracer:
#   "enter"    — open a child span
#   "exit"     — close the innermost open span (skipped when none is open)
#   ("emit", a, b) — record a pre-timed virtual leaf
_action = st.one_of(
    st.just("enter"),
    st.just("exit"),
    st.tuples(
        st.just("emit"),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
)


def _replay(script, capacity=1024) -> Tracer:
    clock = iter(range(1, 10_000))
    tracer = Tracer(capacity=capacity, clock=lambda: float(next(clock)))
    open_count = 0
    for i, action in enumerate(script):
        if action == "enter":
            tracer.enter(f"s{i}", step=i)
            open_count += 1
        elif action == "exit":
            if open_count:
                tracer.exit()
                open_count -= 1
        else:
            _, a, b = action
            tracer.emit(f"e{i}", a, b)
    while open_count:
        tracer.exit()
        open_count -= 1
    return tracer


@given(st.lists(_action, max_size=60))
@settings(max_examples=80, deadline=None)
def test_spans_nest_well_formed(script):
    tracer = _replay(script)
    records = tracer.records()
    by_seq = {r.seq: r for r in records}
    assert tracer.open_depth == 0
    for r in records:
        assert r.t_exit >= r.t_enter
        parent = by_seq.get(r.parent)
        if parent is None:
            continue
        assert parent.depth + 1 == r.depth or r.track == "sim"
        if r.track == "real":
            # real children lie strictly inside their parent's interval
            assert parent.t_enter <= r.t_enter
            assert r.t_exit <= parent.t_exit


@given(st.lists(_action, max_size=60), st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_wraparound_never_corrupts_records(script, capacity):
    tracer = _replay(script, capacity=capacity)
    records = tracer.records()
    assert len(records) <= capacity
    emits = sum(1 for a in script if isinstance(a, tuple))
    enters = sum(1 for a in script if a == "enter")
    assert len(records) + tracer.buffer.dropped == enters + emits
    # completion order is preserved after any number of wraps: real-track
    # exit stamps never decrease, and no two records share a seq
    real_exits = [r.t_exit for r in records if r.track == "real"]
    assert real_exits == sorted(real_exits)
    seqs = [r.seq for r in records]
    assert len(seqs) == len(set(seqs))


@given(st.lists(_action, max_size=40))
@settings(max_examples=40, deadline=None)
def test_orphan_exit_always_raises(script):
    tracer = _replay(script)
    with pytest.raises(TraceError):
        tracer.exit()


# ---------------------------------------------------------------------------
# Behaviour neutrality: obs on == obs off, bit for bit
# ---------------------------------------------------------------------------


def _run(obs, engine, channel, store):
    """One run on interpreter tier ``engine`` ("ast" is the oracle)."""
    with tier(engine) as concrete:
        return run_vsensor(
            SOURCE,
            quiet_machine(),
            engine=concrete,
            channel=channel,
            store=store,
            obs=obs,
        )


def _assert_identical(run_a, run_b):
    report_a, report_b = run_a.report, run_b.report
    assert report_a.summary() == report_b.summary()
    assert set(report_a.matrices) == set(report_b.matrices)
    for sensor_type, matrix in report_a.matrices.items():
        assert np.array_equal(matrix, report_b.matrices[sensor_type], equal_nan=True)
    for sensor_type, means in report_a.rank_means.items():
        assert np.array_equal(means, report_b.rank_means[sensor_type], equal_nan=True)
    assert [r.describe() for r in report_a.regions] == [
        r.describe() for r in report_b.regions
    ]
    assert run_a.sim.total_time == run_b.sim.total_time
    assert run_a.sim.mpi_matches == run_b.sim.mpi_matches
    assert run_a.channel_stats == run_b.channel_stats
    assert run_a.static.program.source == run_b.static.program.source


@pytest.mark.parametrize("engine", ["bytecode", "ast"])
@pytest.mark.parametrize("channel", [None, "drop=0.2,dup=0.1,seed=7"])
def test_observability_is_behavior_neutral(engine, channel):
    baseline = _run(None, engine, channel, store=None)
    observed = _run(Obs.create(), engine, channel, store=None)
    _assert_identical(baseline, observed)


def test_cached_artifacts_identical_with_and_without_obs():
    store_off, store_on = ArtifactStore(), ArtifactStore()
    _run(None, "bytecode", None, store=store_off)
    obs = Obs.create()
    _run(obs, "bytecode", None, store=store_on)
    keys_off = sorted(store_off._entries)
    keys_on = sorted(store_on._entries)
    assert keys_off == keys_on  # obs is never part of a cache fingerprint
    # a second observed run over the obs-off store hits every pass
    before = store_off.stats.hits
    run = _run(Obs.create(), "bytecode", None, store=store_off)
    assert store_off.stats.hits > before
    assert run.static.profile.misses == 0
