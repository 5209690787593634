"""Which program calls the traced run wraps, and the per-layer metrics.

Every span is named ``"<layer>:<operation>"``; the layer names are the
repository's module names.  :func:`install` wraps each target on the
attribute its caller looks it up on (a class attribute, or the name a
module imported), and :func:`layer_metrics` turns the recorded spans into
the per-layer metrics listed in :data:`PER_LAYER`.

:data:`MOVES` records, before any change is measured, which end-to-end
metric (and on which workload) each per-layer metric should move.
"""

from __future__ import annotations

import os
import time

import numpy as np

from perfbench.tracer import ATTRS, END, NAME, START, Patches, Tracer, self_times

LAYERS = (
    "core.keycodec",
    "core.rx_index",
    "core.cursor",
    "rtx.pipeline",
    "rtx.traversal",
    "rtx.bvh",
    "rtx.forest",
    "serve.service",
    "serve.scheduler",
    "serve.cache",
    "serve.snapshot",
    "persist.store",
    "persist.segments",
    "persist.fsync",
    "persist.checksum",
)

#: ``(name, unit, better)`` of every metric the traced run reports.
PER_LAYER = (
    ("core.keycodec.ray_gen_s", "s", "lower"),
    ("core.keycodec.rays_per_lookup", "count", "lower"),
    ("core.rx_index.dup_check_s", "s", "lower"),
    ("core.rx_index.assemble_s", "s", "lower"),
    ("core.cursor.filter_s", "s", "lower"),
    ("rtx.pipeline.launch_s", "s", "lower"),
    ("rtx.pipeline.launches", "count", "lower"),
    ("rtx.pipeline.small_launch_ms", "ms", "lower"),
    ("rtx.traversal.node_visits_per_ray", "count", "lower"),
    ("rtx.traversal.prim_tests_per_ray", "count", "lower"),
    ("rtx.traversal.rounds_per_launch", "count", "lower"),
    ("rtx.bvh.accel_build_s", "s", "lower"),
    ("rtx.bvh.compact_s", "s", "lower"),
    ("rtx.forest.delta_update_s", "s", "lower"),
    ("rtx.forest.dirty_shards", "count", "lower"),
    ("rtx.forest.dirty_key_fraction", "ratio", "lower"),
    ("rtx.shm.leaked_blocks", "count", "lower"),
    ("serve.service.admit_us", "us", "lower"),
    ("serve.service.queue_wait_ms", "ms", "lower"),
    ("serve.service.driver_lag_ms", "ms", "lower"),
    ("serve.service.burst_rps", "1/s", "higher"),
    ("serve.scheduler.launch_window_s", "s", "lower"),
    ("serve.scheduler.demux_s", "s", "lower"),
    ("serve.scheduler.windows", "count", "lower"),
    ("serve.scheduler.queries_per_window", "count", "higher"),
    ("serve.cache.hit_rate", "ratio", "higher"),
    ("serve.cache.lookup_s", "s", "lower"),
    ("serve.cache.invalidations", "count", "lower"),
    ("serve.snapshot.pins", "count", "lower"),
    ("persist.store.save_s", "s", "lower"),
    ("persist.store.load_s", "s", "lower"),
    ("persist.segments.write_s", "s", "lower"),
    ("persist.segments.verify_s", "s", "lower"),
    ("persist.segments.bytes_written", "bytes", "lower"),
    ("persist.segments.segments_rewritten", "count", "lower"),
    ("persist.fsync_s", "s", "lower"),
    ("persist.fsyncs", "count", "lower"),
    ("persist.checksum.crc_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
)

_ALL = ("serve_zipf", "restart_scan")

#: per-layer metric -> ``[(end-to-end metric, workloads), ...]`` it should move
MOVES = {
    "core.keycodec.ray_gen_s": [
        ("point_lookups_per_s", ["restart_scan"]),
        ("range_lookups_per_s", ["restart_scan"]),
    ],
    "core.rx_index.dup_check_s": [("first_query_s", _ALL)],
    "core.rx_index.assemble_s": [("point_lookups_per_s", ["restart_scan"])],
    "core.cursor.filter_s": [("scan_rows_per_s", ["restart_scan"])],
    "rtx.pipeline.launch_s": [
        ("point_lookups_per_s", _ALL),
        ("range_lookups_per_s", _ALL),
        ("serve.service.burst_rps", _ALL),
        ("scan_rows_per_s", _ALL),
    ],
    "rtx.pipeline.small_launch_ms": [
        ("serve_p50_ms", ["serve_zipf"]),
        ("scan_rows_per_s", ["restart_scan"]),
        ("point_lookups_per_s (no change predicted)", ["restart_scan"]),
    ],
    "rtx.traversal.node_visits_per_ray": [("point_lookups_per_s", ["restart_scan"])],
    "rtx.traversal.prim_tests_per_ray": [("point_lookups_per_s", ["restart_scan"])],
    "rtx.traversal.rounds_per_launch": [("range_lookups_per_s", ["restart_scan"])],
    "rtx.bvh.accel_build_s": [("setup_s", ["serve_zipf"]), ("update_s", ["restart_scan"])],
    "rtx.bvh.compact_s": [("update_s", ["restart_scan"])],
    "rtx.forest.delta_update_s": [("update_s", ["serve_zipf"]), ("serve_p99_ms", ["serve_zipf"])],
    "rtx.shm.leaked_blocks": [("failed / attempted", _ALL)],
    "serve.service.admit_us": [("serve.service.burst_rps", ["serve_zipf"])],
    "serve.service.queue_wait_ms": [("serve_p50_ms", ["serve_zipf"])],
    "serve.service.driver_lag_ms": [("serve_p50_ms", ["serve_zipf"])],
    "serve.scheduler.demux_s": [
        ("serve.service.burst_rps", ["serve_zipf"]),
        ("serve_p50_ms", ["serve_zipf"]),
    ],
    "serve.cache.hit_rate": [("serve_p50_ms", ["serve_zipf"])],
    "serve.cache.lookup_s": [("serve_p50_ms", ["serve_zipf"])],
    "serve.cache.invalidations": [("serve_p50_ms", ["serve_zipf"])],
    "persist.store.save_s": [("checkpoint_s", _ALL)],
    "persist.store.load_s": [("setup_s", ["restart_scan"])],
    "persist.segments.write_s": [("checkpoint_s", _ALL)],
    "persist.segments.verify_s": [("setup_s", ["restart_scan"])],
    "persist.fsync_s": [("checkpoint_s", _ALL)],
    "persist.checksum.crc_s": [("checkpoint_s", _ALL), ("setup_s", ["restart_scan"])],
}


def _rays(args, kwargs, result):
    return {"rays": len(result), "lookups": int(np.asarray(args[1]).shape[0])}


def _launch(args, kwargs, result):
    counters = result.counters
    return {
        "rays": result.num_rays,
        "node_visits": counters.node_visits,
        "prim_tests": counters.prim_tests,
        "rounds": counters.traversal_rounds,
    }


def _delta(args, kwargs, result):
    return {
        "dirty_shards": result.dirty_shards,
        "dirty_keys": result.dirty_keys,
        "total_keys": result.total_keys,
    }


def _submit(args, kwargs, result):
    return {"id": result.request_id}


def _window(args, kwargs, result):
    return {
        "ids": [request.request_id for request in result],
        "queries": sum(request.num_queries for request in result),
    }


def _cache_get(args, kwargs, result):
    return {"hit": result is not None}


def _count(args, kwargs, result):
    return {"count": int(result)}


def _save(args, kwargs, result):
    return {"rewritten": result.segments_rewritten}


def _segment(args, kwargs, result):
    return {"bytes": int(result["length"])}


def _targets():
    """``(span name, owner, attribute, observe, wrap_result)`` per wrapper."""
    from repro.core import keycodec, rx_index
    from repro.persist import checksum, store
    from repro.rtx import pipeline, traversal
    from repro.serve import cache, scheduler, service, snapshot

    index = rx_index.RXIndex
    svc = service.IndexService
    sched = scheduler.MicroBatchScheduler
    return [
        ("core.keycodec:point_rays", keycodec.ThreeDCodec, "point_ray_batch", _rays, False),
        ("core.keycodec:range_rays", keycodec.ThreeDCodec, "range_ray_batch", _rays, False),
        ("core.rx_index:build", index, "build", None, False),
        ("core.rx_index:point_lookup", index, "point_lookup", None, False),
        ("core.rx_index:range_lookup", index, "range_lookup", None, False),
        ("core.rx_index:dup_check", index, "_point_trace_mode", None, False),
        ("core.rx_index:update", index, "update", None, False),
        ("core.rx_index:save", index, "save", None, False),
        ("core.rx_index:load", index, "load", None, False),
        ("core.cursor:filter", rx_index, "make_cursor_filter", None, True),
        ("core.cursor:filter", scheduler, "make_cursor_filter", None, True),
        ("core.cursor:next_token", rx_index, "next_cursor_token", None, False),
        ("core.cursor:next_token", scheduler, "next_cursor_token", None, False),
        ("rtx.pipeline:launch", pipeline.Pipeline, "launch", _launch, False),
        ("rtx.traversal:trace", traversal.TraversalEngine, "trace", None, False),
        ("rtx.bvh:accel_build", rx_index, "accel_build", None, False),
        ("rtx.bvh:accel_compact", rx_index, "accel_compact", None, False),
        ("rtx.forest:build", pipeline, "build_forest", None, False),
        ("rtx.forest:delta_update", rx_index, "accel_delta_update", _delta, False),
        ("serve.service:submit", svc, "submit_point", _submit, False),
        ("serve.service:submit", svc, "submit_range", _submit, False),
        ("serve.service:pump", svc, "pump", None, False),
        ("serve.service:drain", svc, "drain", None, False),
        ("serve.service:update", svc, "update", None, False),
        ("serve.scheduler:take_window", sched, "take_window", _window, False),
        ("serve.scheduler:launch_window", sched, "launch_window", None, False),
        ("serve.cache:get", cache.ResultCache, "get", _cache_get, False),
        ("serve.cache:put", cache.ResultCache, "put", None, False),
        ("serve.cache:invalidate", cache.ResultCache, "invalidate_before", _count, False),
        ("serve.snapshot:pin", snapshot.EpochManager, "pin", None, False),
        ("persist.store:save", rx_index, "save_snapshot", _save, False),
        ("persist.store:load", rx_index, "load_snapshot", None, False),
        ("persist.segments:write", store, "write_segment", _segment, False),
        ("persist.segments:read", store, "read_segment", None, False),
        ("persist.fsync:fsync", os, "fsync", None, False),
        ("persist.checksum:crc", checksum.Crc32c, "update", None, False),
    ]


def install(tracer: Tracer) -> Patches:
    """Wrap every target; the caller must ``restore()`` the returned patches."""
    patches = Patches()
    try:
        for name, owner, attr, observe, wrap_result in _targets():
            patches.install(
                owner,
                attr,
                lambda fn, name=name, observe=observe, wrap_result=wrap_result: tracer.wrap(
                    name, fn, observe, wrap_result
                ),
            )
    except BaseException:
        patches.restore()
        raise
    return patches


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one traced call adds to the call it wraps.

    A wrapped no-op (span opened, attributes observed, span closed) against
    the bare no-op, best of ``repeats`` loops of ``calls`` calls each.
    """

    def noop(*args, **kwargs):
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop, observe=lambda args, kwargs, result: None)
    best = {}
    for fn in (noop, wrapped):
        times = []
        for _ in range(repeats):
            tracer.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                fn(1, key=2)
            times.append(time.perf_counter() - start)
        best[fn] = min(times)
    return max(best[wrapped] - best[noop], 0.0) / calls


def layer_metrics(spans: list[list], traced, span_cost_s: float) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric from one traced pass.

    ``traced`` is the pass's :class:`perfbench.workloads.Outcome`; its
    ``busy_s`` (wall time in timed regions, the benchmark's reference checks
    and idle sleeps excluded) is the base of ``trace.coverage`` and of
    ``trace.overhead``, which is the number of spans times ``span_cost_s``
    (see :func:`wrapper_cost_s`) as a share of it.  Times and counts are totals over
    the pass, except: ``small_launch_ms``, ``queue_wait_ms`` (paced stream
    only), ``delta_update_s``, ``save_s`` and ``load_s`` are medians per call,
    ``admit_us`` is the mean per request, the other ``persist.segments`` and
    ``persist.fsync`` metrics are means per save (``verify_s`` per load).
    """
    selfs = self_times(spans)
    by_op: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_op.setdefault(span[NAME], []).append(index)

    def durations(*ops):
        return [spans[i][END] - spans[i][START] for op in ops for i in by_op.get(op, ())]

    def attrs(op, key):
        return [spans[i][ATTRS][key] for i in by_op.get(op, ())]

    def self_sum(*ops):
        return float(sum(selfs[i] for op in ops for i in by_op.get(op, ())))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for index, span in enumerate(spans):
        layer_self[span[NAME].split(":")[0]] += selfs[index]

    ray_ops = ("core.keycodec:point_rays", "core.keycodec:range_rays")
    rays = sum(sum(attrs(op, "rays")) for op in ray_ops)
    lookups = sum(sum(attrs(op, "lookups")) for op in ray_ops)
    launch_rays = np.asarray(attrs("rtx.pipeline:launch", "rays"), dtype=np.int64)
    launch_s = np.asarray(durations("rtx.pipeline:launch"))
    traced_rays = max(int(launch_rays.sum()), 1)
    launches = len(launch_rays)
    dirty_keys = np.asarray(attrs("rtx.forest:delta_update", "dirty_keys"), dtype=np.float64)
    total_keys = np.asarray(attrs("rtx.forest:delta_update", "total_keys"), dtype=np.float64)
    saves = max(len(by_op.get("persist.store:save", ())), 1)
    loads = max(len(by_op.get("persist.store:load", ())), 1)

    submitted = {
        spans[i][ATTRS]["id"]: spans[i][END]
        for i in by_op.get("serve.service:submit", ())
        if any(start <= spans[i][START] <= end for start, end in traced.paced_intervals)
    }
    waits = [
        spans[i][END] - submitted[rid]
        for i in by_op.get("serve.scheduler:take_window", ())
        for rid in spans[i][ATTRS]["ids"]
        if rid in submitted
    ]
    window_queries = attrs("serve.scheduler:take_window", "queries")
    cache_hits = attrs("serve.cache:get", "hit")

    values = {
        "core.keycodec.ray_gen_s": (sum(durations(*ray_ops)), "s"),
        "core.keycodec.rays_per_lookup": (rays / max(lookups, 1), "count"),
        "core.rx_index.dup_check_s": (sum(durations("core.rx_index:dup_check")), "s"),
        "core.rx_index.assemble_s": (
            self_sum("core.rx_index:point_lookup", "core.rx_index:range_lookup"),
            "s",
        ),
        "core.cursor.filter_s": (
            sum(durations("core.cursor:filter", "core.cursor:next_token")),
            "s",
        ),
        "rtx.pipeline.launch_s": (float(launch_s.sum()), "s"),
        "rtx.pipeline.launches": (launches, "count"),
        "rtx.pipeline.small_launch_ms": (_median(launch_s[launch_rays <= 64]) * 1e3, "ms"),
        "rtx.traversal.node_visits_per_ray": (
            sum(attrs("rtx.pipeline:launch", "node_visits")) / traced_rays,
            "count",
        ),
        "rtx.traversal.prim_tests_per_ray": (
            sum(attrs("rtx.pipeline:launch", "prim_tests")) / traced_rays,
            "count",
        ),
        "rtx.traversal.rounds_per_launch": (
            sum(attrs("rtx.pipeline:launch", "rounds")) / max(launches, 1),
            "count",
        ),
        "rtx.bvh.accel_build_s": (sum(durations("rtx.bvh:accel_build")), "s"),
        "rtx.bvh.compact_s": (sum(durations("rtx.bvh:accel_compact")), "s"),
        "rtx.forest.delta_update_s": (_median(durations("rtx.forest:delta_update")), "s"),
        "rtx.forest.dirty_shards": (_median(attrs("rtx.forest:delta_update", "dirty_shards")), "count"),
        "rtx.forest.dirty_key_fraction": (
            _median(dirty_keys / np.maximum(total_keys, 1.0)),
            "ratio",
        ),
        "rtx.shm.leaked_blocks": (traced.leaked_blocks, "count"),
        "serve.service.admit_us": (
            float(np.mean(durations("serve.service:submit") or [0.0])) * 1e6,
            "us",
        ),
        "serve.service.queue_wait_ms": (_median(waits) * 1e3, "ms"),
        "serve.service.driver_lag_ms": (traced.generator_lag_ms, "ms"),
        "serve.service.burst_rps": (traced.burst_rps, "1/s"),
        "serve.scheduler.launch_window_s": (sum(durations("serve.scheduler:launch_window")), "s"),
        "serve.scheduler.demux_s": (self_sum("serve.scheduler:launch_window"), "s"),
        "serve.scheduler.windows": (len(window_queries), "count"),
        "serve.scheduler.queries_per_window": (
            float(np.mean(window_queries)) if window_queries else 0.0,
            "count",
        ),
        "serve.cache.hit_rate": (
            float(np.mean(cache_hits)) if cache_hits else 0.0,
            "ratio",
        ),
        "serve.cache.lookup_s": (sum(durations("serve.cache:get", "serve.cache:put")), "s"),
        "serve.cache.invalidations": (sum(attrs("serve.cache:invalidate", "count")), "count"),
        "serve.snapshot.pins": (len(by_op.get("serve.snapshot:pin", ())), "count"),
        "persist.store.save_s": (_median(durations("persist.store:save")), "s"),
        "persist.store.load_s": (_median(durations("persist.store:load")), "s"),
        "persist.segments.write_s": (sum(durations("persist.segments:write")) / saves, "s"),
        "persist.segments.verify_s": (sum(durations("persist.segments:read")) / loads, "s"),
        "persist.segments.bytes_written": (
            sum(attrs("persist.segments:write", "bytes")) / saves,
            "bytes",
        ),
        "persist.segments.segments_rewritten": (
            sum(attrs("persist.store:save", "rewritten")) / saves,
            "count",
        ),
        "persist.fsync_s": (sum(durations("persist.fsync:fsync")) / saves, "s"),
        "persist.fsyncs": (len(by_op.get("persist.fsync:fsync", ())) / saves, "count"),
        "persist.checksum.crc_s": (sum(durations("persist.checksum:crc")), "s"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (layer_self[layer], "s")
    values["trace.coverage"] = (sum(layer_self.values()) / traced.busy_s, "ratio")
    values["trace.overhead"] = (len(spans) * span_cost_s / traced.busy_s, "ratio")
    values["trace.wall_s"] = (traced.busy_s, "s")
    return values
