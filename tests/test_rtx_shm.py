"""Shared-memory forest build: mapping lifecycle and failure paths.

The bit-identity of the forest build's *output* is pinned by the forest
suite and the differential harness; this suite pins the part no array
comparison can see — that the build's shared arrays are anonymous mappings
that never leave a ``/dev/shm`` entry and are unmapped again, no matter how
the build ends:

* normal builds and delta chains drop every mapping once the forests are
  garbage collected (epoch snapshots may pin a ``Bvh``'s arrays, and those
  stay readable),
* a worker exception mid-build — serial or pooled — or a failing stitch
  releases every mapping the call made,
* a SIGKILLed build process leaves nothing behind, with no cleanup step,
* a failed delta update leaves the forest untouched and still
  delta-updatable.

Mappings are counted in ``/proc/self/maps``, where an anonymous shared
mapping shows up as ``/dev/zero (deleted)``.
"""

import gc
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.rtx import forest as forest_mod
from repro.rtx import shm
from repro.rtx.bvh import BvhBuildOptions, build_bvh, bvh_arrays_diff
from repro.rtx.forest import build_forest, delta_update_forest
from repro.rtx.geometry import TriangleBuffer, make_triangle_vertices


def _buffer(points: np.ndarray) -> TriangleBuffer:
    return TriangleBuffer(make_triangle_vertices(points))


def _points(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1e5, size=(n, 3))


def _options(workers: int = 1, shard_bits: int = 4) -> BvhBuildOptions:
    return BvhBuildOptions(shard_bits=shard_bits, workers=workers)


def _dev_shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _shared_mappings() -> int:
    """Anonymous shared mappings currently in this process's address space."""
    with open("/proc/self/maps") as maps:
        return sum(1 for line in maps if line.rstrip().endswith("/dev/zero (deleted)"))


def _assert_released(mappings: int, entries: set[str]) -> None:
    gc.collect()
    assert _shared_mappings() == mappings, "shared mappings outlived their arrays"
    assert _dev_shm_entries() - entries == set(), "a /dev/shm entry appeared"
    assert not shm.live_block_names()


def _boom(task):
    """Module-level so the fork pool can pickle it by qualified name."""
    raise ValueError("injected worker failure")


def _killable_build(queue):
    """Child-process target: start a build, report the ``/dev/shm`` entries
    and the shared mappings mid-build, then stall so the parent can
    SIGKILL it."""

    def report_and_stall(task):
        queue.put((sorted(_dev_shm_entries()), _shared_mappings()))
        time.sleep(300)  # the parent kills us long before this expires

    forest_mod._shm_round1 = report_and_stall
    build_forest(_buffer(_points(1200, seed=7)), _options(workers=1))


class TestLifecycle:
    def test_blocks_drain_after_gc(self):
        mappings, entries = _shared_mappings(), _dev_shm_entries()
        forest = build_forest(_buffer(_points(1500)), _options())
        assert _shared_mappings() > mappings
        assert _dev_shm_entries() == entries
        del forest
        _assert_released(mappings, entries)

    def test_delta_chain_drains_after_gc(self):
        mappings, entries = _shared_mappings(), _dev_shm_entries()
        points = _points(2000, seed=1)
        buf = _buffer(points)
        forest = build_forest(buf, _options(shard_bits=6))
        moved = points.copy()
        moved[50] = points[60]  # interior move: bounds unchanged
        new_buf = _buffer(moved)
        updated, stats = delta_update_forest(forest, buf, new_buf)
        assert not stats.noop
        del forest, updated
        _assert_released(mappings, entries)

    def test_epoch_snapshot_outlives_the_forest(self):
        # The serving layer pins a Bvh across updates: its shared arrays
        # must stay readable after the owning forest is gone.
        mappings, entries = _shared_mappings(), _dev_shm_entries()
        points = _points(1200, seed=2)
        buf = _buffer(points)
        forest = build_forest(buf, _options())
        pinned = forest.bvh
        want_left = pinned.left.copy()
        moved = points.copy()
        moved[7] = points[8]
        updated, _ = delta_update_forest(forest, buf, _buffer(moved))
        del forest, updated
        gc.collect()
        assert np.array_equal(pinned.left, want_left)
        assert pinned.node_count == want_left.shape[0]
        del pinned
        _assert_released(mappings, entries)

    def test_workers_1_shm_is_serial_bit_for_bit(self):
        # More shards than keys + empty shards in the same column.
        points = _points(9, seed=3)
        single = build_bvh(_buffer(points), BvhBuildOptions(max_leaf_size=1))
        forest = build_forest(
            _buffer(points), BvhBuildOptions(shard_bits=10, max_leaf_size=1)
        )
        assert bvh_arrays_diff(forest.bvh, single) is None
        assert forest.non_empty_shards < forest.num_shards


class TestFailurePaths:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_unlinks_every_block(self, workers, monkeypatch):
        mappings, entries = _shared_mappings(), _dev_shm_entries()
        monkeypatch.setattr(forest_mod, "_shm_round1", _boom)
        with pytest.raises(ValueError, match="injected worker failure"):
            build_forest(_buffer(_points(800, seed=4)), _options(workers=workers))
        _assert_released(mappings, entries)

    def test_failed_build_leaves_no_reopenable_names(self, monkeypatch):
        mappings, entries = _shared_mappings(), _dev_shm_entries()
        seen: list[int] = []

        def count_and_fail(*args):
            seen.append(_shared_mappings())
            raise RuntimeError("injected finalize failure")

        monkeypatch.setattr(forest_mod, "_shm_finalize", count_and_fail)
        with pytest.raises(RuntimeError, match="injected finalize failure"):
            build_forest(_buffer(_points(600, seed=5)), _options())
        assert seen and seen[0] > mappings, "the failing build must have mapped arrays"
        _assert_released(mappings, entries)

    def test_sigkilled_build_leaves_no_dev_shm_entries(self):
        """A build process killed with SIGKILL mid-build runs no cleanup at
        all; its anonymous mappings die with it, and it never created a
        ``/dev/shm`` entry that could outlive it."""
        entries = _dev_shm_entries()
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_killable_build, args=(queue,))
        child.start()
        try:
            mid_build_entries, child_mappings = queue.get(timeout=60)
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL
        assert child_mappings > 0, "the build must have mapped arrays before the kill"
        assert set(mid_build_entries) - entries == set()
        assert _dev_shm_entries() - entries == set()

    def test_failed_delta_leaves_the_forest_delta_updatable(self, monkeypatch):
        mappings, entries = _shared_mappings(), _dev_shm_entries()
        points = _points(1600, seed=6)
        buf = _buffer(points)
        forest = build_forest(buf, _options(shard_bits=6))
        want = {name: getattr(forest.bvh, name).copy() for name in ("left", "node_mins")}
        moved = points.copy()
        moved[100] = points[101]
        new_buf = _buffer(moved)

        original = forest_mod._shm_finalize
        monkeypatch.setattr(
            forest_mod,
            "_shm_finalize",
            lambda *args: (_ for _ in ()).throw(RuntimeError("injected")),
        )
        with pytest.raises(RuntimeError, match="injected"):
            delta_update_forest(forest, buf, new_buf)
        monkeypatch.setattr(forest_mod, "_shm_finalize", original)

        # A delta writes only its own epoch, so the failed one left the
        # forest intact, and the retry still runs incrementally.
        for name, array in want.items():
            assert np.array_equal(getattr(forest.bvh, name), array)
        updated, stats = delta_update_forest(forest, buf, new_buf)
        assert stats.dirty_keys < stats.total_keys
        fresh = build_bvh(new_buf, BvhBuildOptions())
        assert bvh_arrays_diff(updated.bvh, fresh) is None
        del forest, updated
        _assert_released(mappings, entries)
