"""Query-merger span accounting: ``service.merge.refresh`` times the
row pulls, and a refresh with nothing to pull leaves no span."""

from __future__ import annotations

from itertools import count

from repro.obs import Obs
from repro.runtime.server import AnalysisServer
from repro.sensors.model import SensorType
from repro.service import AnalysisService
from tests.service.util import make_summary


def _batch(rank, slices):
    return [make_summary(rank, 1, SensorType.COMPUTATION, "", s, 10.0 + s) for s in slices]


def _refresh_spans(obs):
    return [r for r in obs.tracer.records() if r.name == "service.merge.refresh"]


def test_merge_span_covers_the_row_pulls(monkeypatch):
    ticks = count()
    obs = Obs.create(clock=lambda: float(next(ticks)))
    service = AnalysisService(2, window_us=2000.0, obs=obs)
    port = service.register_job(0, 2)
    for rank in range(2):
        assert port.receive_batch(rank, _batch(rank, range(4)), seq=0)
    service.finish()

    pulled_at = []
    real_pull = AnalysisServer.pull_rows

    def timed_pull(self, source, start=0):
        pulled_at.append(obs.tracer.clock())
        return real_pull(self, source, start)

    monkeypatch.setattr(AnalysisServer, "pull_rows", timed_pull)
    port.performance_matrix(SensorType.COMPUTATION)

    (span,) = _refresh_spans(obs)
    assert span.track == "real"
    assert span.attrs == {"job": 0, "rows": 8}
    assert pulled_at
    assert all(span.t_enter < t < span.t_exit for t in pulled_at)


def test_refresh_without_new_rows_emits_no_span():
    obs = Obs.create()
    service = AnalysisService(2, window_us=2000.0, obs=obs)
    port = service.register_job(0, 2)
    port.performance_matrix(SensorType.COMPUTATION)
    assert _refresh_spans(obs) == []
    assert port.receive_batch(0, _batch(0, range(3)), seq=0)
    service.finish()
    port.performance_matrix(SensorType.COMPUTATION)
    port.performance_matrix(SensorType.COMPUTATION)
    assert [s.attrs["rows"] for s in _refresh_spans(obs)] == [3]
