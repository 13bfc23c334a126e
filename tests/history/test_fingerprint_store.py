"""Property tests for the store key and the store's round-trip.

The history store's whole premise is "runs are only compared against
bit-identical configurations", which rests on two facts this file pins:

* :func:`repro.pipeline.artifacts.fingerprint` is insensitive to dict
  key *insertion order* at every nesting level (hypothesis-generated
  nested dict/list/dataclass configs, permuted recursively);
* :class:`~repro.history.RunStore` round-trips bit-identically — append
  → reopen → scan reproduces equal records, and two stores fed the same
  records are byte-identical files.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history import RunRecord, RunStore, SensorBaseline, run_fingerprint
from repro.pipeline.artifacts import fingerprint
from repro.runtime.detector import DetectorConfig
from repro.sim import MachineConfig

# -- fingerprint stability -------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=16)
)

_configs = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)


@dataclass(frozen=True)
class _FakeConfig:
    """Stands in for pass configs: a dataclass carrying nested containers."""

    name: str
    depth: int
    options: dict


def _reorder(value, rnd: random.Random):
    """Rebuild ``value`` with every dict's key insertion order shuffled."""
    if isinstance(value, dict):
        keys = list(value)
        rnd.shuffle(keys)
        return {key: _reorder(value[key], rnd) for key in keys}
    if isinstance(value, list):
        return [_reorder(item, rnd) for item in value]
    return value


@settings(max_examples=80, deadline=None)
@given(config=_configs, shuffle_seed=st.integers(min_value=0, max_value=2**31))
def test_fingerprint_ignores_dict_insertion_order(config, shuffle_seed):
    permuted = _reorder(config, random.Random(shuffle_seed))
    assert fingerprint(config) == fingerprint(permuted)


@settings(max_examples=40, deadline=None)
@given(
    name=st.text(max_size=12),
    depth=st.integers(min_value=0, max_value=9),
    options=st.dictionaries(st.text(max_size=8), _configs, max_size=4),
    shuffle_seed=st.integers(min_value=0, max_value=2**31),
)
def test_dataclass_fingerprint_ignores_dict_insertion_order(
    name, depth, options, shuffle_seed
):
    original = _FakeConfig(name=name, depth=depth, options=options)
    permuted = _FakeConfig(
        name=name, depth=depth, options=_reorder(options, random.Random(shuffle_seed))
    )
    assert fingerprint(original) == fingerprint(permuted)


def test_run_fingerprint_separates_configurations():
    machine = MachineConfig(n_ranks=4, ranks_per_node=2)
    base = run_fingerprint("src", machine, DetectorConfig(), engine="bytecode")
    assert base == run_fingerprint("src", machine, DetectorConfig(), engine="bytecode")
    assert base != run_fingerprint("src2", machine, DetectorConfig(), engine="bytecode")
    assert base != run_fingerprint("src", machine, DetectorConfig(), engine="lockstep")
    assert base != run_fingerprint(
        "src", MachineConfig(n_ranks=8, ranks_per_node=2), DetectorConfig(),
        engine="bytecode",
    )
    assert base != run_fingerprint(
        "src", machine, DetectorConfig(threshold=0.8), engine="bytecode"
    )
    # extra keyword dimensions are order-insensitive (dict fingerprint)
    assert run_fingerprint("s", machine, None, a=1, b=2) == run_fingerprint(
        "s", machine, None, b=2, a=1
    )


# -- store round-trip ------------------------------------------------------

_fingerprints = st.text(alphabet="0123456789abcdef", min_size=8, max_size=16)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

_baselines = st.builds(
    SensorBaseline,
    sensor_id=st.integers(min_value=0, max_value=2**31),
    sensor_type=st.sampled_from(["COMPUTATION", "NETWORK", "IO"]),
    median_perf=_finite,
    p95_perf=_finite,
    count=st.integers(min_value=0, max_value=2**31),
    standard_us=_finite,
)

_records = st.builds(
    RunRecord,
    fingerprint=_fingerprints,
    label=st.text(max_size=24),
    workload=st.text(max_size=12),
    total_time_us=_finite,
    intra_events=st.integers(min_value=0, max_value=2**31),
    inter_events=st.integers(min_value=0, max_value=2**31),
    coverage_confidence=_finite,
    sampling_coverage=_finite,
    f_score=st.none() | _finite,
    sensors=st.tuples() | st.tuples(_baselines) | st.tuples(_baselines, _baselines),
)


@settings(max_examples=25, deadline=None)
@given(records=st.lists(_records, min_size=1, max_size=8))
def test_store_roundtrip_is_bit_identical(records):
    with tempfile.TemporaryDirectory() as first_dir, tempfile.TemporaryDirectory() as second_dir:
        first = RunStore(first_dir)
        stamped = [first.append(record) for record in records]

        # Reopen from disk: scan returns records equal to what append stamped.
        reopened = RunStore(first_dir)
        by_key: dict[str, list[RunRecord]] = {}
        for record in stamped:
            by_key.setdefault(record.fingerprint, []).append(record)
        for key, expected in by_key.items():
            assert reopened.runs(key) == expected
        assert reopened.fingerprints() == sorted(by_key)
        assert reopened.total_runs() == len(records)

        # A second store fed the same inputs produces byte-identical files.
        second = RunStore(second_dir)
        for record in records:
            second.append(record)
        for key in by_key:
            first_bytes = (Path(first_dir) / f"{key}.jsonl").read_bytes()
            second_bytes = (Path(second_dir) / f"{key}.jsonl").read_bytes()
            assert first_bytes == second_bytes
