"""Consistent-hash routing of summary streams onto shard workers.

The sharded analysis service partitions work at ``(job, rank, sensor)``
granularity: every summary of one sensor on one rank of one job lands on
the same shard, so shard-local identity dedup is equivalent to global
dedup and per-(sensor, group) history state never splits across shards.

Placement uses a classic consistent-hash ring with virtual nodes.  Hashes
come from :func:`hashlib.blake2b`, never Python's builtin ``hash`` —
that one is salted per process, and routing must be a pure function of
the key so tests, goldens and multi-process deployments agree on where
every stream lives.
"""

from __future__ import annotations

import bisect
from hashlib import blake2b

from repro.errors import ReproError
from repro.runtime.records import SliceSummary


def _point(data: bytes) -> int:
    """64-bit ring position of a byte string (stable across processes)."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


class ShardRouter:
    """Immutable consistent-hash ring over ``n_shards`` workers (with a
    memo of the streams it has placed)."""

    def __init__(self, n_shards: int, vnodes: int = 64) -> None:
        if n_shards < 1:
            raise ReproError(f"need at least one shard (got {n_shards})")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for v in range(vnodes):
                points.append((_point(b"shard:%d:%d" % (shard, v)), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]
        #: (job, rank, sensor) -> shard; placement is a pure function
        self._memo: dict[tuple[int, int, int], int] = {}

    def shard_of(self, job: int, rank: int, sensor_id: int) -> int:
        """Owning shard of one (job, rank, sensor) stream."""
        stream = (job, rank, sensor_id)
        shard = self._memo.get(stream)
        if shard is None:
            key = _point(b"%d:%d:%d" % stream)
            idx = bisect.bisect_right(self._points, key)
            if idx == len(self._points):
                idx = 0
            shard = self._memo[stream] = self._owners[idx]
        return shard

    def split(
        self, job: int, rank: int, summaries: list[SliceSummary]
    ) -> dict[int, list[SliceSummary]]:
        """Partition one rank batch into per-shard sub-batches.

        Sub-batches preserve the original row order, so the sequenced
        front -> shard hop replays each stream in send order.
        """
        out: dict[int, list[SliceSummary]] = {}
        memo = self._memo
        for s in summaries:
            shard = memo.get((job, rank, s.sensor_id))
            if shard is None:
                shard = self.shard_of(job, rank, s.sensor_id)
            out.setdefault(shard, []).append(s)
        return out

    def placement(self, job: int, n_ranks: int, sensor_ids: list[int]) -> dict[int, int]:
        """shard -> stream count for one job (balance introspection)."""
        counts: dict[int, int] = {}
        for rank in range(n_ranks):
            for sensor_id in sensor_ids:
                shard = self.shard_of(job, rank, sensor_id)
                counts[shard] = counts.get(shard, 0) + 1
        return counts
