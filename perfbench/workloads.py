"""The two workloads and their correctness gate.

Both workloads run the same lifecycle of the index, so that every
end-to-end metric is measured on each of them:

1. a set-up round: set up (build, or load a saved snapshot), answer a
   64-key first query, checkpoint into a new empty store;
2. measurement rounds that interleave 2^16-point and 2^12-range lookup
   batches, whole keyset-cursor scans, all-at-once request bursts, the
   remaining set-up rounds and the segments of an open-loop paced request
   stream, each segment with one update.

They differ in the index they serve and in where the run's time goes:

* ``serve_zipf`` builds a sharded DELTA_SHARD forest and gives the paced
  stream the largest share of its time, in two long segments with an
  update landing in the middle of each;
* ``restart_scan`` saves a paper-default single tree untimed, sets up by
  loading it back with ``mmap=True``, checkpoints the loaded index, and
  gives lookup batches and scans the larger share of its time; its stream
  comes in three short segments, each update landing once one has drained.

All inputs come from the seed and are generated before anything is timed.
Every answer is checked against a NumPy sorted-array reference of the key
column it was computed on.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import itertools
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.paced import drive_paced, serve_burst
from repro.baselines.base import MISS_SENTINEL
from repro.core.config import RXConfig
from repro.core.rx_index import RXIndex
from repro.rtx import shm
from repro.serve.resilience import RequestFailure
from repro.serve.service import IndexService

LOG2_KEYS = 20
#: keys are distinct draws from the 32-bit domain (the paper's sparse setup)
KEY_DOMAIN = 1 << 32
POINT_BATCH = 1 << 16
RANGE_BATCH = 1 << 12
#: rows per range lookup: consecutive keys in sorted order
RANGE_SPAN = 64
FIRST_QUERY = 64
SCAN_ROWS = 1 << 16
PAGE_ROWS = 1024
#: forest shards of the DELTA_SHARD index
SHARD_BITS = 6

#: offered load and window bound of the paced stream.  A window's cost on
#: the seed at 2^20 keys on a 2-CPU host is mostly fixed per launch: about
#: 30 ms for a 50 ms window, 50-55 ms for a 100 ms one, 60 ms for a 200 ms
#: one, at any rate from 500 to 2000 req/s.  A 100 ms window keeps the server
#: about half busy; at 50 ms it is 60-75% busy, and host slowdowns queue up
#: into the median latency.  Full bursts run at 16000-18000 req/s.
SERVE_RATE = 2000.0
SERVE_MAX_BATCH = 1024
#: requests of the burst phase: the first ones of the stream, re-sent at once
BURST_REQUESTS = 1 << 14
SERVE_MAX_WAIT = 0.1
SERVE_ZIPF = 1.0
SERVE_RANGE_SHARE = 1 / 8
SERVE_RANGE_LIMIT = 16
#: key pairs swapped by one update, all inside one narrow key window
UPDATE_SWAPS = 32

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: DELTA_SHARD forest instead of the paper-default single tree
    sharded: bool
    #: set-up is a load of a saved snapshot instead of a build
    restart: bool
    #: segments of the paced stream, spread over the run; each takes one
    #: update
    segments: int
    #: per second of ``--seconds``: set-up rounds, lookup batch pairs,
    #: paced-stream seconds and scans
    setups: float
    lookup_batches: float
    paced_share: float
    scans: float
    #: updates land inside a paced segment (else after it has drained)
    updates_mid_stream: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve_zipf",
            "DELTA_SHARD forest behind the service: paced Zipf points and ranges "
            "with updates mid-stream, so small launches, per-request Python, "
            "cache and epochs show here",
            sharded=True,
            restart=False,
            # an update holds the stream for about 2 s; with 11 s segments the
            # requests queued behind it stay near a fifth of the stream, so the
            # median latency does not hinge on where that backlog ends
            segments=2,
            setups=0.07,
            lookup_batches=0.15,
            paced_share=0.5,
            scans=0.07,
            updates_mid_stream=True,
        ),
        Workload(
            "restart_scan",
            "cold mmap load of a saved paper-default tree, then 2^16-point and "
            "2^12-range batches and keyset-cursor scans page by page: persist, "
            "the lazy duplicate check, big and small launches show here",
            sharded=False,
            restart=True,
            segments=3,
            setups=0.11,
            lookup_batches=0.22,
            paced_share=0.2,
            scans=0.09,
            updates_mid_stream=False,
        ),
    )
}


class Column:
    """Sorted-array reference over one key column."""

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self.keys = keys
        self.values = values
        self.order = np.argsort(keys, kind="stable")
        self.sorted = keys[self.order]
        self.prefix = np.concatenate(
            ([0], np.cumsum(values[self.order], dtype=np.uint64))
        ).astype(np.uint64)

    def find(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per query: whether it hits, and the row holding it where it does."""
        pos = np.minimum(np.searchsorted(self.sorted, queries), self.sorted.shape[0] - 1)
        return self.sorted[pos] == queries, self.order[pos]

    def bounds(self, lowers: np.ndarray, uppers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted-position slice ``[a, b)`` of each inclusive range."""
        return (
            np.searchsorted(self.sorted, lowers, side="left"),
            np.searchsorted(self.sorted, uppers, side="right"),
        )


def point_run_ok(run, column: Column, queries: np.ndarray) -> bool:
    hit, rows = column.find(queries)
    expected_rows = np.where(hit, rows.astype(np.uint64), MISS_SENTINEL)
    aggregate = int(column.values[rows[hit]].sum(dtype=np.uint64))
    return (
        np.array_equal(run.result_rows, expected_rows)
        and np.array_equal(run.hits_per_lookup, hit.astype(np.int64))
        and run.aggregate == aggregate
    )


def range_run_ok(run, column: Column, lowers: np.ndarray, uppers: np.ndarray) -> bool:
    a, b = column.bounds(lowers, uppers)
    aggregate = int((column.prefix[b] - column.prefix[a]).sum(dtype=np.uint64))
    return np.array_equal(run.hits_per_lookup, b - a) and run.aggregate == aggregate


def serve_result_ok(result, column: Column, stream: "Stream", i: int) -> bool:
    """A served request's rows against the key column of its epoch."""
    rows = np.asarray(result.hits.prim_indices, dtype=np.int64)
    if stream.is_range[i]:
        a, b = column.bounds(stream.lowers[i : i + 1], stream.uppers[i : i + 1])
        expected = column.order[int(a[0]) : int(b[0])]
        return (
            rows.shape[0] == min(SERVE_RANGE_LIMIT, expected.shape[0])
            and np.unique(rows).shape[0] == rows.shape[0]
            and bool(np.isin(rows, expected).all())
        )
    hit, row = column.find(stream.points[i : i + 1])
    return np.array_equal(np.sort(rows), row[hit])


def _zipf_ranks(rng, n: int, size: int, coefficient: float) -> np.ndarray:
    cdf = np.cumsum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** coefficient)
    return np.minimum(np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right"), n - 1)


@dataclass
class Stream:
    dues: np.ndarray
    is_range: np.ndarray
    points: np.ndarray
    lowers: np.ndarray
    uppers: np.ndarray


class Inputs:
    """Everything a run feeds the program, drawn from the seed up front."""

    def __init__(self, spec: Workload, seed: int, seconds: float):
        rng = np.random.default_rng(seed)
        n = 1 << LOG2_KEYS
        draw = np.unique(rng.integers(0, KEY_DOMAIN, size=n + n // 4, dtype=np.uint64))
        keys = rng.permutation(draw)[:n]
        values = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        base = Column(keys, values)
        #: one reference column per epoch: the built one, then each update's
        self.columns = [base]
        for _ in range(spec.segments):
            prev = self.columns[-1]
            start = int(rng.integers(0, n - 2 * UPDATE_SWAPS))
            rows = prev.order[start : start + 2 * UPDATE_SWAPS]
            new = prev.keys.copy()
            new[rows[0::2]], new[rows[1::2]] = prev.keys[rows[1::2]], prev.keys[rows[0::2]]
            self.columns.append(Column(new, values))

        self.first_query = self._points(rng, base, FIRST_QUERY)
        batches = max(1, round(spec.lookup_batches * seconds))
        self.point_batches = [self._points(rng, base, POINT_BATCH) for _ in range(batches)]
        self.range_batches = [self._ranges(rng, base, RANGE_BATCH) for _ in range(batches)]
        scans = max(1, round(spec.scans * seconds))
        starts = rng.integers(0, n - SCAN_ROWS + 1, size=scans)
        self.scans = [(base.sorted[s], base.sorted[s + SCAN_ROWS - 1]) for s in starts]

        self.setups = max(2, round(spec.setups * seconds))
        paced_s = spec.paced_share * seconds
        count = max(spec.segments, round(SERVE_RATE * paced_s))
        dues = np.cumsum(rng.exponential(1.0 / SERVE_RATE, size=count))
        popularity = rng.permutation(n)
        pos = popularity[_zipf_ranks(rng, n, count, SERVE_ZIPF)]
        start = np.minimum(pos, n - RANGE_SPAN)
        self.stream = Stream(
            dues=dues,
            is_range=rng.random(count) < SERVE_RANGE_SHARE,
            points=base.sorted[pos],
            lowers=base.sorted[start],
            uppers=base.sorted[start + RANGE_SPAN - 1],
        )
        #: the stream's request index ranges, one segment per update
        cuts = [count * j // spec.segments for j in range(spec.segments + 1)]
        self.segments = [range(a, b) for a, b in zip(cuts, cuts[1:])]
        #: per segment: when its update is due, in the segment's stream time
        if spec.updates_mid_stream:
            self.update_dues = [(dues[b - 1] - dues[a]) / 2 for a, b in zip(cuts, cuts[1:])]
        else:
            self.update_dues = [np.inf] * spec.segments

    @staticmethod
    def _points(rng, column: Column, count: int) -> np.ndarray:
        """About half hits (existing keys), half random draws (misses)."""
        hits = column.keys[rng.integers(0, column.keys.shape[0], size=count // 2)]
        misses = rng.integers(0, KEY_DOMAIN, size=count - count // 2, dtype=np.uint64)
        return rng.permutation(np.concatenate([hits, misses]))

    @staticmethod
    def _ranges(rng, column: Column, count: int) -> tuple[np.ndarray, np.ndarray]:
        start = rng.integers(0, column.sorted.shape[0] - RANGE_SPAN + 1, size=count)
        return column.sorted[start], column.sorted[start + RANGE_SPAN - 1]


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    #: wall seconds inside timed regions (reference checks and sleeps excluded)
    busy_s: float = 0.0
    #: median lateness of the paced stream's generator, milliseconds
    generator_lag_ms: float = 0.0
    #: requests per second of the median full burst window
    burst_rps: float = 0.0
    #: ``perf_counter`` intervals of the paced stream's segments
    paced_intervals: list = field(default_factory=list)
    leaked_blocks: int = 0

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def check(self, what: str, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.mismatches.append(what)

    def timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        return result, elapsed


try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc: nothing to hand back
    _malloc_trim = None


def _collect() -> None:
    """Collect garbage and hand freed heap pages back to the system.

    Called between phases, never inside a timed call, so that the RSS peak
    counts what the program holds and allocates rather than the pages an
    earlier phase freed and glibc kept.
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def _config(spec: Workload) -> RXConfig:
    if spec.sharded:
        return RXConfig().with_delta_updates(shard_bits=SHARD_BITS)
    return RXConfig()


class _SetUps:
    """Set-up rounds: set up, answer a 64-key first query, checkpoint.

    Each round checkpoints into a new, empty store, which is removed
    afterwards.  A build round builds a fresh index; a restart round loads
    the snapshot of an index built and saved untimed up front (released
    before any round runs) and checkpoints the loaded index.  The first
    round's index is the one the workload serves; the others are dropped, so
    rounds can be spread over the whole run.
    """

    def __init__(self, spec, inputs, out, store_dir: Path, quiet):
        self.spec = spec
        self.column = inputs.columns[0]
        self.query = inputs.first_query
        self.out = out
        self.store_dir = store_dir
        self.setup_s, self.first_s, self.save_s, self.on_disk = [], [], [], []
        self.origin = store_dir / "origin"
        self.built_answer = None
        if spec.restart:
            with quiet():
                built = RXIndex(_config(spec))
                built.build(self.column.keys, self.column.values)
                self.built_answer = built.point_lookup(self.query)
                built.save(self.origin)

    def round(self) -> RXIndex:
        out, column, query = self.out, self.column, self.query
        _collect()
        if self.spec.restart:
            index, elapsed = out.timed(RXIndex.load, self.origin, mmap=True)
        else:
            index = RXIndex(_config(self.spec))
            _, elapsed = out.timed(index.build, column.keys, column.values)
        self.setup_s.append(elapsed)
        run, elapsed = out.timed(index.point_lookup, query)
        self.first_s.append(elapsed)
        ok = point_run_ok(run, column, query)
        if self.built_answer is not None:
            built = self.built_answer
            ok = ok and (
                np.array_equal(run.result_rows, built.result_rows)
                and np.array_equal(run.hits_per_lookup, built.hits_per_lookup)
                and run.aggregate == built.aggregate
            )
        out.check("first query", ok, FIRST_QUERY)
        store = self.store_dir / f"store-{len(self.save_s)}"
        saved, elapsed = out.timed(index.save, store)
        self.save_s.append(elapsed)
        self.on_disk.append(saved["bytes_on_disk"])
        out.check("checkpoint", saved["segments_rewritten"] == saved["segments_total"])
        shutil.rmtree(store)
        return index

    def report(self) -> None:
        metrics = self.out.metrics
        metrics["setup_s"] = (float(np.median(self.setup_s)), "s")
        metrics["first_query_s"] = (float(np.median(self.first_s)), "s")
        metrics["checkpoint_s"] = (float(np.median(self.save_s)), "s")
        columns_bytes = self.column.keys.nbytes + self.column.values.nbytes
        metrics["space_amp"] = (float(np.median(self.on_disk)) / columns_bytes, "ratio")


class _Requests:
    """The stream's requests as service calls, checked per serving epoch."""

    def __init__(self, service, inputs, out):
        self.service = service
        self.stream = inputs.stream
        self.out = out
        self.by_epoch = {service.index.epoch: inputs.columns[0]}

    def submit(self, i: int, arrival: float):
        stream = self.stream
        if stream.is_range[i]:
            return self.service.submit_range(
                stream.lowers[i : i + 1],
                stream.uppers[i : i + 1],
                limit=SERVE_RANGE_LIMIT,
                arrival=arrival,
            )
        return self.service.submit_point(stream.points[i : i + 1], arrival=arrival)

    def updater(self, column: Column):
        def apply() -> None:
            self.service.update(column.keys)
            self.by_epoch[self.service.index.epoch] = column

        return apply

    def check(self, outcomes) -> None:
        for i, outcome in outcomes:
            if isinstance(outcome, RequestFailure):
                self.out.attempted += 1
                self.out.failed += 1
            else:
                column = self.by_epoch[outcome.epoch]
                self.out.check("served request", serve_result_ok(outcome, column, self.stream, i))


class _Paced:
    """The open-loop stream, driven segment by segment, one update each."""

    def __init__(self, requests: _Requests, inputs, out):
        self.requests = requests
        self.inputs = inputs
        self.out = out
        self.latency_s, self.lag_s, self.update_s = [], [], []

    def segment(self) -> None:
        """Drive the next segment; its update lands when it is due."""
        requests, inputs, out = self.requests, self.inputs, self.out
        k = len(self.update_s)
        segment = inputs.segments[k]
        dues = inputs.stream.dues[segment.start : segment.stop]
        update = (inputs.update_dues[k], requests.updater(inputs.columns[k + 1]))
        _collect()
        start = time.perf_counter()
        paced = drive_paced(
            requests.service,
            dues - dues[0],
            lambda i, arrival: requests.submit(segment.start + i, arrival),
            [update],
        )
        out.paced_intervals.append((start, time.perf_counter()))
        out.busy_s += paced.wall_s - paced.sleep_s
        requests.check(zip(segment, paced.outcomes))
        out.check("update", len(paced.update_s) == 1)
        self.latency_s.append(paced.latency_s)
        self.lag_s.append(paced.lag_s)
        self.update_s.extend(paced.update_s)

    def report(self) -> None:
        """Each latency percentile is the median of the segments' own.

        A segment's p99 rests on its few slowest windows; the median over
        segments keeps one host stall from setting a run's figure.
        """
        latency_ms = [latency * 1e3 for latency in self.latency_s]
        metrics = self.out.metrics
        for name, q in (("serve_p50_ms", 50), ("serve_p99_ms", 99)):
            metrics[name] = (float(np.median([np.percentile(ms, q) for ms in latency_ms])), "ms")
        metrics["update_s"] = (float(np.median(self.update_s)), "s")
        self.out.generator_lag_ms = float(np.median(np.concatenate(self.lag_s))) * 1e3


def _scan(index, lower, upper, column: Column, out, page_s: list) -> None:
    """Drain one keyset-cursor scan page by page and check the pages."""
    lowers = np.array([lower], dtype=np.uint64)
    uppers = np.array([upper], dtype=np.uint64)
    pages, cursor = [], None
    while True:
        (run, cursor), elapsed = out.timed(
            index.range_lookup, lowers, uppers, limit=PAGE_ROWS, order="key", cursor=cursor
        )
        pages.append(run.row_ids)
        if run.row_ids.shape[0] == PAGE_ROWS:
            page_s.append(elapsed)
        if cursor is None:
            break
    rows = np.concatenate(pages).astype(np.int64)
    a, b = column.bounds(lowers, uppers)
    out.check("scan", np.array_equal(rows, column.order[int(a[0]) : int(b[0])]), len(pages))


def _spread(count: int, rounds: int) -> list[int]:
    """How many of ``count`` events each of ``rounds`` rounds takes, evenly."""
    return [(r + 1) * count // rounds - r * count // rounds for r in range(rounds)]


def _measure_rounds(requests: _Requests, setups: _SetUps, paced: _Paced, inputs, out) -> None:
    """Lookup batches, scans, burst windows, set-up rounds and paced segments, interleaved.

    Spreading every metric's samples over the whole run keeps a slow
    stretch of the host from landing on one metric only.  Answers are
    checked against the column of the epoch the index serves at the time.
    """
    service = requests.service
    rounds = len(inputs.point_batches)
    n = min(inputs.stream.dues.shape[0], BURST_REQUESTS)
    windows = [range(i, min(i + SERVE_MAX_BATCH, n)) for i in range(0, n, SERVE_MAX_BATCH)]
    window_rounds = np.array_split(np.arange(len(windows)), rounds)
    plan = zip(
        _spread(len(inputs.segments), rounds),
        _spread(len(inputs.scans), rounds),
        _spread(inputs.setups - 1, rounds),
    )
    scans = iter(inputs.scans)
    point_s, range_s, page_s, window_s = [], [], [], []
    for r, (segments, scan_count, setup_count) in enumerate(plan):
        for _ in range(segments):
            paced.segment()
        _collect()
        index = service.index
        column = requests.by_epoch[index.epoch]
        queries = inputs.point_batches[r]
        run, elapsed = out.timed(index.point_lookup, queries)
        point_s.append(elapsed)
        out.check("point batch", point_run_ok(run, column, queries), queries.shape[0])
        lowers, uppers = inputs.range_batches[r]
        run, elapsed = out.timed(index.range_lookup, lowers, uppers, limit=None)
        range_s.append(elapsed)
        out.check("range batch", range_run_ok(run, column, lowers, uppers), lowers.shape[0])
        for lower, upper in itertools.islice(scans, scan_count):
            _scan(index, lower, upper, column, out, page_s)
        for w in window_rounds[r]:
            outcomes, elapsed = serve_burst(service, windows[w], requests.submit)
            out.busy_s += elapsed
            if len(windows[w]) == SERVE_MAX_BATCH:
                window_s.append(elapsed)
            requests.check(outcomes.items())
        for _ in range(setup_count):
            setups.round()
    out.metrics["point_lookups_per_s"] = (POINT_BATCH / float(np.median(point_s)), "1/s")
    out.metrics["range_lookups_per_s"] = (RANGE_BATCH / float(np.median(range_s)), "1/s")
    out.metrics["scan_rows_per_s"] = (PAGE_ROWS / float(np.median(page_s)), "1/s")
    out.burst_rps = SERVE_MAX_BATCH / float(np.median(window_s))


def _memory_kb(field: str) -> int:
    """``VmRSS`` or ``VmHWM`` of this process, in KiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def _reset_peak_rss() -> None:
    """Set this process's ``VmHWM`` back to its current RSS (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> Outcome:
    """One pass of workload ``name``; spans go to ``tracer`` when given.

    ``peak_rss_mb`` is the program's share of the peak: the process's RSS
    high-water mark over the measured part of the run, less its RSS once the
    inputs, their reference columns and any untimed set-up are in place.
    """
    spec = WORKLOADS[name]
    inputs = Inputs(spec, seed, seconds)
    out = Outcome()
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    live = shm.live_block_names()
    with tempfile.TemporaryDirectory(prefix=".perfbench-store-", dir=ROOT) as store_dir:
        setups = _SetUps(spec, inputs, out, Path(store_dir), quiet)
        _collect()
        base_kb = _memory_kb("VmRSS")
        _reset_peak_rss()
        index = setups.round()
        service = IndexService(index, max_batch=SERVE_MAX_BATCH, max_wait=SERVE_MAX_WAIT)
        requests = _Requests(service, inputs, out)
        paced = _Paced(requests, inputs, out)
        _measure_rounds(requests, setups, paced, inputs, out)
        paced.report()
        setups.report()
        peak_kb = _memory_kb("VmHWM")
    out.leaked_blocks = len(shm.live_block_names() - live)
    out.check("shared-memory blocks released", out.leaked_blocks == 0)
    out.metrics["peak_rss_mb"] = ((peak_kb - base_kb) / 1024, "MB")
    return out
