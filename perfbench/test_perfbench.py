"""Tests of the benchmark's own code: span arithmetic, wrappers, names, paced stream."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, workloads
from perfbench.paced import drive_paced
from perfbench.tracer import Patches, Tracer, self_times
from repro.core.config import RXConfig
from repro.core.rx_index import RXIndex
from repro.serve.service import IndexService

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 3.0, 0),
        span("c", 2.0, 5.0, 0),  # overlaps b: [1, 5] is covered once
        span("d", 8.0, 12.0, 0),  # runs past its parent: clipped to [8, 10]
        span("e", 2.5, 2.75, 2),
        span("f", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.75, 4.0, 0.25, 1.0])


def test_self_times_of_nested_tracer_spans_add_up_to_the_top_span():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    outer = tracer.open("outer")
    tick(1.0)
    inner = tracer.open("inner")
    tick(2.0)
    tracer.close(inner)
    tick(0.5)
    tracer.close(outer)
    with tracer.paused():
        assert tracer.wrap("hidden", lambda: 7)() == 7
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert self_times(tracer.spans) == pytest.approx([1.5, 2.0])


def _originals():
    return [(owner, attr, vars(owner).get(attr)) for _, owner, attr, _, _ in layers._targets()]


def test_wrappers_are_installed_and_restored(tmp_path):
    before = _originals()
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        assert all(vars(owner).get(attr) is not raw for owner, attr, raw in before)
        keys = np.random.default_rng(3).permutation(4096).astype(np.uint64)
        index = RXIndex(RXConfig())
        index.build(keys)
        run = index.point_lookup(keys[:8])
        assert run.total_hits == 8
        index.save(tmp_path / "store")
        loaded = RXIndex.load(tmp_path / "store")  # a patched classmethod still binds
        page, cursor = loaded.range_lookup([0], [4095], limit=64, order="key")
        assert page.row_ids.shape[0] == 64 and cursor is not None
    finally:
        patches.restore()
    assert _originals() == before
    patches.restore()  # idempotent
    assert _originals() == before
    names = {s[0] for s in tracer.spans}
    assert {
        "core.rx_index:load",
        "persist.segments:read",
        "persist.checksum:crc",
        "core.cursor:filter",
        "rtx.pipeline:launch",
    } <= names


def test_patches_restore_an_inherited_attribute_by_deleting_the_override():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    patches = Patches()
    patches.install(Child, "f", lambda fn: lambda self: fn(self) + 1)
    assert Child().f() == 2
    patches.restore()
    assert "f" not in vars(Child) and Child().f() == 1


def test_metric_and_workload_names():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: spec.why for name, spec in workloads.WORKLOADS.items()
    }
    assert set(layers.MOVES) <= {name for name, _, _ in layers.PER_LAYER}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_paced_latency_runs_from_the_due_time():
    keys = np.arange(256, dtype=np.uint64)
    index = RXIndex(RXConfig())
    index.build(keys)
    service = IndexService(index, max_batch=64, max_wait=0.004)
    clock = FakeClock()
    applied = []

    def submit(i, arrival):
        if i == 0:
            clock.now += 0.003  # the generator stalls on its first request
        return service.submit_point(keys[i : i + 1], arrival=arrival)

    report = drive_paced(
        service,
        [0.0, 0.001, 0.002, 0.010],
        submit,
        updates=[(np.inf, lambda: applied.append(clock.now))],
        clock=clock,
        sleep=clock.sleep,
    )
    # Requests 0-2 share the window that closes at 0.004, request 3's closes
    # at 0.014: latency counts from each due time, not from the late submit.
    assert report.latency_s == pytest.approx([0.004, 0.003, 0.002, 0.004])
    assert report.lag_s == pytest.approx([0.003, 0.002, 0.001, 0.0])
    assert report.sleep_s == pytest.approx(0.011)
    assert applied == [pytest.approx(0.014)] and len(report.update_s) == 1
    assert [r.hits.prim_indices.tolist() for r in report.outcomes] == [[0], [1], [2], [3]]


@pytest.fixture
def tiny(monkeypatch):
    """The workloads at 2^12 keys (same density) with short batches and scans."""
    for name, value in {
        "LOG2_KEYS": 12,
        "KEY_DOMAIN": 1 << 24,
        "POINT_BATCH": 512,
        "RANGE_BATCH": 64,
        "SCAN_ROWS": 512,
        "PAGE_ROWS": 64,
        "SERVE_MAX_BATCH": 32,
    }.items():
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_reports_every_metric_and_passes_its_gate(tiny, name):
    untraced = workloads.run_workload(name, seed=5, seconds=0.2)
    assert untraced.correct and untraced.failed == 0 and untraced.attempted > 0
    assert set(untraced.metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _ in untraced.metrics.values())

    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        traced = workloads.run_workload(name, seed=5, seconds=0.2, tracer=tracer)
    finally:
        patches.restore()
    assert traced.correct
    span_cost_s = layers.wrapper_cost_s(calls=2000)
    assert span_cost_s > 0
    metrics = layers.layer_metrics(tracer.spans, traced, span_cost_s)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert 0.5 < metrics["trace.coverage"][0] <= 1.0 + 1e-9
    assert metrics["trace.overhead"][0] == pytest.approx(len(tracer.spans) * span_cost_s / traced.busy_s)
