"""Columnar summary store with incremental canonical replay (§5.4–§5.5).

The analysis server's derived state — normalized performance per slice,
per-cell matrix means, inter-process rank comparisons — is a function of
the *canonically ordered* summary store, not of batch arrival order.  The
reference store (the differential oracle in
``tests/oracles/reference_store.py``) realizes that as a Python dict keyed
by summary identity plus a full re-sort-and-replay after every ingest;
interleaved ingest/query (the :class:`~repro.runtime.live.LiveReporter`
pattern) then degrades quadratically in run length.

This module is the vectorized twin: summaries live in append-only NumPy
columns (amortized-doubling growth, interned group strings), the
canonical order is maintained as a sorted base plus an unsorted tail, and
the replay rolls forward instead of restarting whenever an epoch's new
rows all sort after everything already replayed — the common case for an
in-order run.  Every kernel reproduces the reference semantics
bit-for-bit: the cumulative-min history normalization uses
:func:`repro.runtime.history.observe_block`, cell means are taken with
``np.mean`` over the same values in the same canonical order, and the
inter-process math is the identical NumPy expression the reference
evaluates per (sensor, window).  The differential hypothesis suite in
``tests/runtime/test_server_columnar.py`` pins the bit-identity under
arbitrary permutation, redelivery and interleaved queries.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.runtime.history import observe_block
from repro.runtime.records import CODE_SENSOR_TYPE, SENSOR_TYPE_CODE, SliceSummary, SummaryColumns

#: store column names and dtypes; ``window`` is precomputed at ingest so
#: matrix group-bys never touch floating-point division
_COLUMNS = (
    ("rank", np.int64),
    ("sensor", np.int64),
    ("group", np.int64),
    ("slice", np.int64),
    ("t_start", np.float64),
    ("duration", np.float64),
    ("count", np.int64),
    ("miss", np.float64),
    ("stype", np.int8),
    ("window", np.int64),
)

_INITIAL_CAPACITY = 1024


def _segment_means(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-segment ``np.mean`` over contiguous runs of ``values``.

    ``bounds`` delimits the segments (``bounds[i]:bounds[i+1]``).  Means
    are taken row-wise over 2-D gathers of equal-length segments, which
    applies NumPy's pairwise summation to each contiguous row — the same
    reduction ``np.mean`` performs on each segment individually, so the
    result is bit-identical to the per-segment loop without a Python-level
    call per segment.  (``np.add.reduceat`` would sum sequentially and
    drift in the last bits.)
    """
    starts = bounds[:-1]
    lengths = bounds[1:] - starts
    means = np.empty(len(starts), np.float64)
    # The distinct lengths, ascending.  (np.unique would do, but its first
    # call in a process imports numpy.ma, ~30 ms.)
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        mask = lengths == length
        idx = starts[mask][:, None] + np.arange(length, dtype=np.int64)
        means[mask] = values[idx].mean(axis=1)
    return means


class ColumnarStore:
    """Append-only columnar store of slice summaries plus replay state.

    The owner (:class:`~repro.runtime.server.AnalysisServer`) drives the
    lifecycle: ``ingest_*`` appends deduplicated rows, :meth:`replay`
    brings the canonical order and per-row normalized performance up to
    date (returning what kind of epoch it was, for observability), and
    the query kernels (:meth:`matrix`, :meth:`inter_blocks`) assume
    :meth:`replay` ran first.

    Object-form batches are small and frequent, so
    :meth:`ingest_summaries` only dedups, interns and stages each kept
    row as a tuple; the staged rows reach the columns in one bulk copy
    the next time anything reads the columns.  Wire-path batches
    (:meth:`ingest_columns`) and column pulls (:meth:`ingest_store`)
    materialize the staged rows before appending their own, so insertion
    order is arrival order on every path.
    """

    def __init__(self, window_us: float) -> None:
        self.window_us = window_us
        #: materialized rows; staged rows come after them
        self.n = 0
        self._cap = 0
        #: kept rows not yet copied into the columns, one tuple each in
        #: column order (every column but ``window``)
        self._staged: list[tuple] = []
        #: largest ``window`` of any materialized row (0 when none is higher)
        self.max_window = 0
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(0, dtype) for name, dtype in _COLUMNS
        }
        #: normalized performance per row, filled by replay
        self._perf = np.empty(0, np.float64)
        #: identity dedup: (rank, sensor, group code, slice)
        self._keys: set[tuple[int, int, int, int]] = set()
        #: interned dynamic-rule group strings; code 0 is ""
        self._group_codes: dict[str, int] = {"": 0}
        self._group_strs: list[str] = [""]
        self._group_rank: np.ndarray | None = None
        #: canonical order (row indices) of replayed rows
        self._order = np.empty(0, np.int64)
        self._replayed = 0
        #: running standard times keyed by (sensor id, group code)
        self._standards: dict[tuple[int, int], float] = {}
        #: canonical sort key of the last replayed row
        self._last_key: tuple[int, int, int, str] | None = None

    def __len__(self) -> int:
        return self.n + len(self._staged)

    # -- interning ---------------------------------------------------------

    def _intern(self, group: str) -> int:
        code = self._group_codes.get(group)
        if code is None:
            code = len(self._group_strs)
            self._group_codes[group] = code
            self._group_strs.append(group)
            self._group_rank = None
        return code

    def _group_sort_ranks(self) -> np.ndarray:
        """code -> rank of the group string in lexicographic string order.

        Canonical order tiebreaks on the group *string*; interned codes
        are assigned in first-seen order, so sorting by code would diverge
        from the reference.  Interning a new string keeps the relative
        order of existing strings, so previously replayed prefixes stay
        canonically sorted.
        """
        if self._group_rank is None:
            order = sorted(range(len(self._group_strs)), key=self._group_strs.__getitem__)
            ranks = np.empty(len(order), np.int64)
            ranks[np.asarray(order)] = np.arange(len(order))
            self._group_rank = ranks
        return self._group_rank

    # -- ingest ------------------------------------------------------------

    def _grow(self, need: int) -> None:
        if need <= self._cap:
            return
        cap = max(_INITIAL_CAPACITY, self._cap)
        while cap < need:
            cap *= 2
        for name, dtype in _COLUMNS:
            grown = np.empty(cap, dtype)
            grown[: self.n] = self._cols[name][: self.n]
            self._cols[name] = grown
        perf = np.empty(cap, np.float64)
        perf[: self.n] = self._perf[: self.n]
        self._perf = perf
        self._cap = cap

    def _append(self, columns: dict[str, object], k: int) -> None:
        """Append ``k`` rows given as every column but ``window``.

        ``window`` is derived from the stored ``t_start`` values with one
        ``np.floor_divide``, and :attr:`max_window` follows it.
        """
        start, stop = self.n, self.n + k
        self._grow(stop)
        cols = self._cols
        for name, values in columns.items():
            cols[name][start:stop] = values
        window = np.floor_divide(cols["t_start"][start:stop], self.window_us).astype(np.int64)
        cols["window"][start:stop] = window
        self.max_window = max(self.max_window, int(window.max()))
        self.n = stop

    def _materialize(self) -> None:
        """Copy the staged rows into the columns, in staging order.

        Runs before anything reads the columns (replay, export, column
        pulls) and before wire-path rows are appended, so insertion order
        is staging order and every staged row lands in one bulk copy.
        """
        staged = self._staged
        if not staged:
            return
        # zip stops at the staged tuple's width: every column but window.
        self._append(
            {name: values for (name, _), values in zip(_COLUMNS, zip(*staged))},
            len(staged),
        )
        staged.clear()

    def ingest_summaries(
        self,
        summaries: list[SliceSummary],
        sensor_types: dict,
        last_seen: dict[int, float],
    ) -> int:
        """Stage deduplicated object-form summaries; return the duplicates.

        ``sensor_types`` / ``last_seen`` are the server's trackers, updated
        exactly as the reference store's ingest does (kept rows only).  Kept
        rows wait in a staging list until :meth:`_materialize`.
        """
        keys = self._keys
        codes = self._group_codes
        stage = self._staged.append
        duplicates = 0
        for s in summaries:
            group = s.group
            code = codes.get(group)
            if code is None:
                code = self._intern(group)
            rank = s.rank
            sensor_id = s.sensor_id
            slice_index = s.slice_index
            key = (rank, sensor_id, code, slice_index)
            if key in keys:
                duplicates += 1
                continue
            keys.add(key)
            t_start = s.t_slice_start
            stype = s.sensor_type
            stage(
                (
                    rank,
                    sensor_id,
                    code,
                    slice_index,
                    t_start,
                    s.mean_duration,
                    s.count,
                    s.mean_cache_miss,
                    SENSOR_TYPE_CODE[stype],
                )
            )
            sensor_types[sensor_id] = stype
            last = last_seen.get(rank)
            if last is None or t_start > last:
                last_seen[rank] = t_start
        return duplicates

    def ingest_columns(
        self,
        cols: SummaryColumns,
        sensor_types: dict,
        last_seen: dict[int, float],
    ) -> int:
        """Append a zero-copy decoded batch (column arrays, one rank);
        return the duplicates."""
        n = len(cols)
        if n == 0:
            return 0
        self._materialize()
        local_codes, inverse = np.unique(cols.group_code, return_inverse=True)
        remap = np.empty(len(local_codes), np.int64)
        for i, local in enumerate(local_codes.tolist()):
            remap[i] = self._intern(cols.group_table.get(local, ""))
        store_codes = remap[inverse]
        sensors = cols.sensor_id.astype(np.int64)
        slices = cols.slice_index.astype(np.int64)
        rank = cols.rank
        keys = self._keys
        keep = np.ones(n, bool)
        duplicates = 0
        for i, (sid, code, sl) in enumerate(
            zip(sensors.tolist(), store_codes.tolist(), slices.tolist())
        ):
            key = (rank, sid, code, sl)
            if key in keys:
                keep[i] = False
                duplicates += 1
            else:
                keys.add(key)
        if not keep.any():
            return duplicates
        if duplicates:
            sensors = sensors[keep]
            slices = slices[keep]
            store_codes = store_codes[keep]
        t_arr = cols.t_slice_start[keep] if duplicates else cols.t_slice_start
        stype_codes = cols.sensor_type_code[keep] if duplicates else cols.sensor_type_code
        k = len(sensors)
        self._append(
            {
                "rank": rank,
                "sensor": sensors,
                "group": store_codes,
                "slice": slices,
                "t_start": np.asarray(t_arr, np.float64),
                "duration": (cols.mean_duration[keep] if duplicates else cols.mean_duration).astype(np.float64),
                "count": (cols.count[keep] if duplicates else cols.count).astype(np.int64),
                "miss": (cols.mean_cache_miss[keep] if duplicates else cols.mean_cache_miss).astype(np.float64),
                "stype": np.asarray(stype_codes, np.int8),
            },
            k,
        )
        # Last occurrence wins per sensor, as in sequential ingest.
        flipped_sensors = sensors[::-1]
        uniq, first_in_flipped = np.unique(flipped_sensors, return_index=True)
        last_idx = (k - 1) - first_in_flipped
        for sid, tcode in zip(uniq.tolist(), np.asarray(stype_codes)[last_idx].tolist()):
            sensor_types[sid] = CODE_SENSOR_TYPE[tcode]
        t_max = float(np.max(t_arr))
        last = last_seen.get(rank)
        if last is None or t_max > last:
            last_seen[rank] = t_max
        return duplicates

    def ingest_store(
        self,
        src: "ColumnarStore",
        start: int,
        sensor_types: dict,
        last_seen: dict[int, float],
    ) -> tuple[int, int]:
        """Append ``src``'s rows from insertion position ``start`` on.

        The rows are copied column by column; group codes are remapped
        through their strings, interned in first-seen order.  Dedup and
        the trackers run row by row in ``src``'s insertion order, as if
        the rows had arrived as summaries.  Returns ``(duplicates,
        cursor)``, the cursor being ``src``'s row count.
        """
        src._materialize()
        self._materialize()
        stop = src.n
        if start >= stop:
            return 0, stop
        sel = slice(start, stop)
        cols = src._cols
        src_codes = cols["group"][sel]
        uniq, first = np.unique(src_codes, return_index=True)
        remap = np.zeros(len(src._group_strs), np.int64)
        for code in uniq[np.argsort(first)].tolist():
            remap[code] = self._intern(src._group_strs[code])
        store_codes = remap[src_codes]
        ranks = cols["rank"][sel]
        sensors = cols["sensor"][sel]
        slices = cols["slice"][sel]
        t_starts = cols["t_start"][sel]
        stypes = cols["stype"][sel]
        keys = self._keys
        keep = np.ones(stop - start, bool)
        duplicates = 0
        for i, (rank, sensor_id, code, slice_index, t_start, stype) in enumerate(
            zip(
                ranks.tolist(),
                sensors.tolist(),
                store_codes.tolist(),
                slices.tolist(),
                t_starts.tolist(),
                stypes.tolist(),
            )
        ):
            key = (rank, sensor_id, code, slice_index)
            if key in keys:
                keep[i] = False
                duplicates += 1
                continue
            keys.add(key)
            sensor_types[sensor_id] = CODE_SENSOR_TYPE[stype]
            last = last_seen.get(rank)
            if last is None or t_start > last:
                last_seen[rank] = t_start
        block = {
            "rank": ranks,
            "sensor": sensors,
            "group": store_codes,
            "slice": slices,
            "t_start": t_starts,
            "duration": cols["duration"][sel],
            "count": cols["count"][sel],
            "miss": cols["miss"][sel],
            "stype": stypes,
        }
        k = stop - start - duplicates
        if duplicates:
            block = {name: values[keep] for name, values in block.items()}
        if k:
            self._append(block, k)
        return duplicates, stop

    # -- export ------------------------------------------------------------

    def export_summaries(self, start: int) -> list[SliceSummary]:
        """Materialize stored rows from ``start`` on, in insertion order.

        Rows are append-only, so insertion positions are stable cursors."""
        self._materialize()
        stop = self.n
        if start >= stop:
            return []
        cols = self._cols
        sel = slice(start, stop)
        groups = self._group_strs
        return [
            SliceSummary(
                rank=rank,
                sensor_id=sensor,
                sensor_type=CODE_SENSOR_TYPE[stype],
                group=groups[code],
                slice_index=slice_index,
                t_slice_start=t_start,
                mean_duration=duration,
                count=count,
                mean_cache_miss=miss,
            )
            for rank, sensor, code, slice_index, t_start, duration, count, miss, stype in zip(
                cols["rank"][sel].tolist(),
                cols["sensor"][sel].tolist(),
                cols["group"][sel].tolist(),
                cols["slice"][sel].tolist(),
                cols["t_start"][sel].tolist(),
                cols["duration"][sel].tolist(),
                cols["count"][sel].tolist(),
                cols["miss"][sel].tolist(),
                cols["stype"][sel].tolist(),
            )
        ]

    # -- canonical replay --------------------------------------------------

    def pending(self) -> bool:
        return self._replayed < len(self)

    def _canonical_order(self, idx: np.ndarray) -> np.ndarray:
        """Sort row indices by (slice, rank, sensor, group string)."""
        grank = self._group_sort_ranks()
        cols = self._cols
        return idx[
            np.lexsort(
                (
                    grank[cols["group"][idx]],
                    cols["sensor"][idx],
                    cols["rank"][idx],
                    cols["slice"][idx],
                )
            )
        ]

    def _key_of(self, row: int) -> tuple[int, int, int, str]:
        cols = self._cols
        return (
            int(cols["slice"][row]),
            int(cols["rank"][row]),
            int(cols["sensor"][row]),
            self._group_strs[int(cols["group"][row])],
        )

    def replay(self) -> tuple[str, int] | None:
        """Bring the canonical order and per-row perf up to date.

        Returns ``("incremental" | "full", rows_replayed)`` when work was
        done, ``None`` when already current.  An epoch is incremental iff
        every new row sorts canonically after the last replayed row —
        then the sorted base is extended and the history state rolls
        forward; otherwise the whole store is re-sorted and re-observed.
        """
        self._materialize()
        n = self.n
        if self._replayed == n:
            return None
        tail = np.arange(self._replayed, n, dtype=np.int64)
        tail_order = self._canonical_order(tail)
        if (
            self._replayed
            and self._last_key is not None
            and self._key_of(int(tail_order[0])) > self._last_key
        ):
            self._observe_rows(tail_order)
            self._order = np.concatenate((self._order, tail_order))
            kind, rows = "incremental", n - self._replayed
        else:
            self._standards = {}
            self._order = self._canonical_order(np.arange(n, dtype=np.int64))
            self._observe_rows(self._order)
            kind, rows = "full", n
        self._last_key = self._key_of(int(self._order[-1]))
        self._replayed = n
        return kind, rows

    def _observe_rows(self, order: np.ndarray) -> None:
        """Vectorized history normalization of ``order``'s rows in place.

        Rows are grouped by (sensor, group) with a stable sort, so each
        key's durations stay in canonical order; the per-key cumulative
        minimum then continues from the carried-in standard.
        """
        cols = self._cols
        sens = cols["sensor"][order]
        grp = cols["group"][order]
        dur = cols["duration"][order]
        n_groups = len(self._group_strs)
        uniq_sens, inverse = np.unique(sens, return_inverse=True)
        pair = inverse.astype(np.int64) * n_groups + grp
        sidx = np.argsort(pair, kind="stable")
        pair_s = pair[sidx]
        dur_s = dur[sidx]
        starts = np.flatnonzero(np.concatenate(([True], pair_s[1:] != pair_s[:-1])))
        bounds = np.append(starts, len(pair_s))
        perf_s = np.empty(len(pair_s), np.float64)
        standards = self._standards
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            pid = int(pair_s[a])
            key = (int(uniq_sens[pid // n_groups]), pid % n_groups)
            perf_seg, new_standard = observe_block(dur_s[a:b], standards.get(key))
            standards[key] = new_standard
            perf_s[a:b] = perf_seg
        self._perf[order[sidx]] = perf_s

    def history_standards(self) -> dict[tuple[int, str], float]:
        """Replayed standard times keyed by (sensor id, group string)."""
        return {
            (sensor_id, self._group_strs[code]): standard
            for (sensor_id, code), standard in self._standards.items()
        }

    # -- query kernels (assume replay() ran) -------------------------------

    def matrix(self, stype_code: int, n_ranks: int, n_windows: int) -> np.ndarray:
        """(n_ranks, n_windows) matrix of per-cell mean normalized perf."""
        out = np.full((n_ranks, n_windows), np.nan)
        order = self._order
        if not len(order):
            return out
        cols = self._cols
        sel = order[cols["stype"][order] == stype_code]
        if not len(sel):
            return out
        cell = cols["rank"][sel] * np.int64(n_windows) + cols["window"][sel]
        sidx = np.argsort(cell, kind="stable")
        cell_s = cell[sidx]
        perf_s = self._perf[sel][sidx]
        starts = np.flatnonzero(np.concatenate(([True], cell_s[1:] != cell_s[:-1])))
        bounds = np.append(starts, len(cell_s))
        flat = out.reshape(-1)
        # Per-cell means over the contiguous segments: same values in the
        # same canonical order as the reference's per-cell lists.
        flat[cell_s[starts]] = _segment_means(perf_s, bounds)
        return out

    def inter_blocks(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield (sensor, window, ranks, per-rank mean durations) blocks.

        Blocks ascend by (sensor, window) and ranks ascend within each
        block — the iteration order of the reference's
        ``sorted(per_sensor.items())`` loop.
        """
        order = self._order
        if not len(order):
            return
        cols = self._cols
        sens = cols["sensor"][order]
        win = cols["window"][order]
        rank = cols["rank"][order]
        dur = cols["duration"][order]
        sidx = np.lexsort((rank, win, sens))
        sens_s = sens[sidx]
        win_s = win[sidx]
        rank_s = rank[sidx]
        dur_s = dur[sidx]
        change = (
            (sens_s[1:] != sens_s[:-1])
            | (win_s[1:] != win_s[:-1])
            | (rank_s[1:] != rank_s[:-1])
        )
        starts = np.flatnonzero(np.concatenate(([True], change)))
        bounds = np.append(starts, len(sens_s))
        means = _segment_means(dur_s, bounds)
        seg_sens = sens_s[starts]
        seg_win = win_s[starts]
        seg_rank = rank_s[starts]
        block_change = (seg_sens[1:] != seg_sens[:-1]) | (seg_win[1:] != seg_win[:-1])
        block_starts = np.flatnonzero(np.concatenate(([True], block_change)))
        block_bounds = np.append(block_starts, len(seg_sens))
        for a, b in zip(block_starts.tolist(), block_bounds[1:].tolist()):
            yield int(seg_sens[a]), int(seg_win[a]), seg_rank[a:b], means[a:b]
