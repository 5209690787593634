"""Save/load round-trip fidelity of the crash-safe epoch store.

Two layers of pinning:

* the CRC32C kernel — the slicing-by-64 vectorised implementation must
  match the per-byte reference (and the published check value) bit for
  bit, or every "verified" load is meaningless;
* the index itself — a randomised differential replay builds RX indexes
  across primitive types, sharding configs and both load paths
  (memory-mapped and heap), saves and reloads them, and requires every
  trace mode's hits *and counters* to be bit-identical to the in-memory
  index that was saved.

Reseed with ``DIFF_SEED`` (env var) to explore a different case set.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.config import RXConfig, UpdatePolicy
from repro.core.rx_index import RXIndex
from repro.persist import (
    Crc32c,
    SnapshotTorn,
    crc32c,
    crc32c_reference,
    load_snapshot,
    save_snapshot,
)
from repro.rtx.bvh import bvh_arrays_diff
from repro.workloads import clustered_key_swaps, dense_shuffled_keys

DIFF_SEED = int(os.environ.get("DIFF_SEED", "20260727"))

PRIMITIVES = ["triangle", "sphere", "aabb"]


class TestCrc32c:
    def test_check_value(self):
        # The CRC32C (Castagnoli) check value from RFC 3720 / the original
        # reflected-polynomial specification.
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert crc32c(b"") == 0

    @pytest.mark.parametrize(
        "size", [1, 7, 63, 64, 65, 255, 1024, 4096 + 17, 1 << 16]
    )
    def test_matches_reference(self, size):
        rng = np.random.default_rng([size, DIFF_SEED])
        data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        assert crc32c(data) == crc32c_reference(data)

    def test_streaming_matches_whole(self):
        rng = np.random.default_rng(DIFF_SEED)
        data = rng.integers(0, 256, size=100_003, dtype=np.uint8).tobytes()
        acc = Crc32c()
        for lo in range(0, len(data), 9973):
            acc.update(data[lo : lo + 9973])
        assert acc.digest() == crc32c(data)

    def test_arrays_hash_like_their_bytes(self):
        rng = np.random.default_rng(DIFF_SEED)
        arr = rng.integers(0, 1 << 62, size=513, dtype=np.int64)
        assert crc32c(arr) == crc32c(arr.tobytes())


class TestStoreBasics:
    def test_missing_store_is_torn(self, tmp_path):
        with pytest.raises(SnapshotTorn, match="no committed snapshot"):
            load_snapshot(tmp_path / "nowhere")

    def test_segments_survive_verbatim(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        arrays = {
            "a": rng.standard_normal((7, 3)).astype(np.float32),
            "b": rng.integers(0, 1 << 31, size=11, dtype=np.int64),
        }
        save_snapshot(
            tmp_path,
            epoch=0,
            segments={"seg": (arrays, {"tag": 42})},
            index_meta={"kind": "raw"},
        )
        for mmap in (True, False):
            snap = load_snapshot(tmp_path, mmap=mmap)
            assert snap.meta("seg") == {"tag": 42}
            for name, expected in arrays.items():
                got = snap.arrays("seg")[name]
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)

    def test_resave_reuses_every_clean_segment(self, tmp_path):
        arrays = {"x": np.arange(16, dtype=np.uint64)}
        save_snapshot(
            tmp_path, epoch=0, segments={"seg": (arrays, None)}, index_meta={}
        )
        again = save_snapshot(
            tmp_path, epoch=1, segments={"seg": (arrays, None)}, index_meta={}
        )
        assert again.segments_reused == 1
        assert again.segments_rewritten == 0
        assert again.manifest_version == 2


def _random_case(rng, case_index):
    """One randomised index configuration + workload."""
    primitive = PRIMITIVES[case_index % len(PRIMITIVES)]
    shard_bits = [0, 3][(case_index // len(PRIMITIVES)) % 2]
    config = RXConfig.paper_default()
    config.primitive = type(config.primitive)(primitive)
    config.compaction = False
    config.shard_bits = shard_bits
    if shard_bits:
        config.allow_updates = True
        config.update_policy = UpdatePolicy.DELTA_SHARD
    num_keys = int(rng.integers(256, 2048))
    keys = rng.integers(0, 1 << 18, size=num_keys, dtype=np.uint64)
    if rng.random() < 0.5:
        # Inject duplicate runs so ordered paging crosses them.
        keys[: num_keys // 4] = keys[num_keys // 2 : num_keys // 2 + num_keys // 4]
    return config, keys


def _trace_all_modes(index, queries, lowers, uppers, limit):
    """Hits + counters of every trace mode, as comparable structures."""
    out = {}
    pipeline = index.pipeline
    point_rays = index.codec.point_ray_batch(queries, index.config.point_ray_mode)
    range_rays = index.codec.range_ray_batch(
        lowers, uppers, index.config.range_ray_mode,
        max_rays_per_range=index.config.max_rays_per_range,
    )
    for mode, rays, kwargs in [
        ("all", point_rays, {}),
        ("any_hit", point_rays, {}),
        ("first_k", range_rays, {"limit": limit}),
        ("ordered_k", range_rays, {"limit": limit}),
    ]:
        launch = pipeline.launch(rays, mode=mode, **kwargs)
        out[mode] = (
            launch.hits.ray_indices.copy(),
            launch.hits.prim_indices.copy(),
            launch.hits.lookup_ids.copy(),
            launch.counters.as_dict(),
        )
    return out


def _assert_identical(a, b, label):
    assert a.keys() == b.keys()
    for mode in a:
        ra, pa, la, ca = a[mode]
        rb, pb, lb, cb = b[mode]
        assert np.array_equal(ra, rb), f"{label}/{mode}: ray indices differ"
        assert np.array_equal(pa, pb), f"{label}/{mode}: prim indices differ"
        assert np.array_equal(la, lb), f"{label}/{mode}: lookup ids differ"
        assert ca == cb, f"{label}/{mode}: counters differ"


class TestDifferentialRoundtrip:
    @pytest.mark.parametrize("case_index", range(12))
    def test_loaded_index_traces_bit_identically(self, tmp_path, case_index):
        rng = np.random.default_rng([DIFF_SEED, case_index])
        config, keys = _random_case(rng, case_index)
        index = RXIndex(config)
        index.build(keys)

        queries = rng.choice(keys, size=64)
        lowers = rng.integers(0, 1 << 17, size=16, dtype=np.uint64)
        uppers = lowers + rng.integers(1, 1 << 14, size=16, dtype=np.uint64)
        limit = int(rng.integers(2, 17))
        golden = _trace_all_modes(index, queries, lowers, uppers, limit)

        index.save(tmp_path)
        mmap = bool(case_index % 2)
        loaded = RXIndex.load(tmp_path, mmap=mmap)

        assert bvh_arrays_diff(index.accel.bvh, loaded.accel.bvh) is None
        assert np.array_equal(index.keys, loaded.keys)
        assert np.array_equal(index.values, loaded.values)
        replay = _trace_all_modes(loaded, queries, lowers, uppers, limit)
        _assert_identical(golden, replay, f"case {case_index} (mmap={mmap})")

    def test_ordered_paging_resumes_identically_after_load(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        keys = rng.integers(0, 1 << 16, size=1024, dtype=np.uint64)
        keys[:128] = keys[128:256]  # duplicate runs across page boundaries
        index = RXIndex()
        index.build(keys)
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path)

        lo = np.array([0], dtype=np.uint64)
        hi = np.array([1 << 15], dtype=np.uint64)

        def pages(idx):
            cursor, out = None, []
            while True:
                run, cursor = idx.range_lookup(
                    lo, hi, limit=7, order="key", cursor=cursor
                )
                out.append(run.row_ids.copy())
                if cursor is None:
                    return out

        for a, b in zip(pages(index), pages(loaded), strict=True):
            assert np.array_equal(a, b)

    def test_compacted_snapshot_round_trips(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        keys = rng.integers(0, 1 << 16, size=512, dtype=np.uint64)
        config = RXConfig.paper_default()
        assert config.compaction
        index = RXIndex(config)
        index.build(keys)
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path)
        assert loaded.accel.compacted
        assert bvh_arrays_diff(index.accel.bvh, loaded.accel.bvh) is None

    def test_loaded_forest_stays_delta_updatable(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        keys = rng.integers(0, 1 << 18, size=2048, dtype=np.uint64)
        config = RXConfig.paper_default()
        config.compaction = False
        config.allow_updates = True
        config.shard_bits = 4
        config.update_policy = UpdatePolicy.DELTA_SHARD
        index = RXIndex(config)
        index.build(keys)
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path)

        new_keys = keys.copy()
        new_keys[7] += 3
        index.update(new_keys)
        loaded.update(new_keys)
        assert bvh_arrays_diff(index.accel.bvh, loaded.accel.bvh) is None

    def test_restored_forest_updates_only_dirty_shards(self, tmp_path):
        # A restore must hand back a forest that delta-updates incrementally:
        # a 32-swap update after an mmap load rebuilds a strict subset of the
        # shards, and lookups equal a fresh build over the new keys.
        keys = dense_shuffled_keys(4096, seed=DIFF_SEED)
        index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=4))
        index.build(keys)
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path, mmap=True)

        new_keys = clustered_key_swaps(keys, 32, seed=DIFF_SEED)
        outcome = loaded.update(new_keys)
        assert not outcome.stats["noop"]
        assert outcome.stats["dirty_shards"] < outcome.stats["non_empty_shards"]

        fresh = RXIndex(RXConfig.paper_default())
        fresh.build(new_keys)
        assert bvh_arrays_diff(loaded.accel.bvh, fresh.accel.bvh) is None
        queries = new_keys[:: new_keys.shape[0] // 256]
        got, want = loaded.point_lookup(queries), fresh.point_lookup(queries)
        assert np.array_equal(got.result_rows, want.result_rows)
        assert np.array_equal(got.hits_per_lookup, want.hits_per_lookup)
        assert got.stats["total_node_visits"] == want.stats["total_node_visits"]
        lows = np.sort(queries)[:64]
        got, want = loaded.range_lookup(lows, lows + 40), fresh.range_lookup(lows, lows + 40)
        assert np.array_equal(got.hits_per_lookup, want.hits_per_lookup)
        assert got.aggregate == want.aggregate

    def test_snapshot_with_legacy_build_backend_loads(self, tmp_path):
        # Snapshots saved while sharded builds had a "fork"/"shm" executor
        # choice record it in the manifest's config; they must still load.
        keys = dense_shuffled_keys(1024, seed=DIFF_SEED)
        config = RXConfig.paper_default().with_delta_updates(shard_bits=4)
        index = RXIndex(config)
        index.build(keys)
        index.save(tmp_path)
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        assert "build_backend" not in manifest["index"]["config"]
        manifest["index"]["config"]["build_backend"] = "fork"
        manifest_path.write_text(json.dumps(manifest))

        loaded = RXIndex.load(tmp_path, mmap=True)
        assert loaded.config == config
        assert bvh_arrays_diff(loaded.accel.bvh, index.accel.bvh) is None

    def test_snapshot_with_legacy_serve_settings_loads(self, tmp_path):
        # Snapshots saved while RXConfig carried the serving settings record
        # all nine in the manifest's config; they must still load.
        keys = dense_shuffled_keys(1024, seed=DIFF_SEED)
        config = RXConfig.paper_default()
        index = RXIndex(config)
        index.build(keys)
        index.save(tmp_path)
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        saved = manifest["index"]["config"]
        assert not any(key.startswith("serve_") for key in saved)
        saved.update(
            serve_max_batch=4096,
            serve_max_wait=1e-3,
            serve_cache_capacity=4096,
            serve_deadline=None,
            serve_max_queue=None,
            serve_retry_max=3,
            serve_retry_backoff=1e-3,
            serve_retry_factor=2.0,
            serve_retry_jitter=0.1,
        )
        manifest_path.write_text(json.dumps(manifest))

        loaded = RXIndex.load(tmp_path, mmap=True)
        assert loaded.config == config
        assert bvh_arrays_diff(loaded.accel.bvh, index.accel.bvh) is None

    def test_restored_forest_reports_its_shape(self, tmp_path):
        keys = dense_shuffled_keys(4096, seed=DIFF_SEED)
        index = RXIndex(RXConfig.paper_default().with_delta_updates(shard_bits=3))
        build_result = index.build(keys)
        index.save(tmp_path)
        loaded = RXIndex.load(tmp_path, mmap=True)

        built, restored = index.stats()["build"], loaded.stats()["build"]
        assert restored["backend"] == built["backend"] == "shm"
        assert restored["shards"] == built["shards"] == 8
        assert restored["delegated_shards"] == built["delegated_shards"]
        for key in ("shards", "delegated_shards"):
            assert loaded._build_result.stats[key] == build_result.stats[key]
        assert loaded._build_result.stats["restored_from_snapshot"]

    def test_stats_persist_block(self, tmp_path):
        rng = np.random.default_rng(DIFF_SEED)
        keys = rng.integers(0, 1 << 16, size=256, dtype=np.uint64)
        index = RXIndex()
        index.build(keys)
        assert index.stats()["persist"]["saves"] == 0
        save_info = index.save(tmp_path)
        block = index.stats()["persist"]
        assert block["saves"] == 1
        assert block["bytes_on_disk"] == save_info["bytes_on_disk"] > 0
        assert block["segments_rewritten"] == save_info["segments_rewritten"]

        loaded = RXIndex.load(tmp_path)
        block = loaded.stats()["persist"]
        assert block["loads"] == 1
        assert block["last_load_seconds"] > 0
        assert block["checksum_verify_seconds"] > 0
        assert block["segments_total"] == save_info["segments_total"]
