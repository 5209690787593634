"""Morton-prefix sharded BVH forest: parallel builds, delta-shard updates.

The forest partitions primitives by the top ``shard_bits`` bits of their
Morton codes into ``S = 2**shard_bits`` shards.  Because the LBVH splits every
range at its *highest differing* Morton bit, two primitives in different
prefix buckets always separate on one of the top ``shard_bits`` levels —
which means the single tree :func:`repro.rtx.bvh.build_bvh` emits is exactly

* a small **top-level node table** whose splits happen in prefix space
  (computable from per-bucket counts alone, without touching primitives), and
* one **independent sub-BVH per bucket**, each derivable from nothing but the
  bucket's own sorted codes and primitive bounds.

The forest therefore builds the shards independently — optionally across a
fork pool, with bit-identical per-shard results for any worker count — and
stitches them under the top-level table into a tree whose arrays (including
the stack-order DFS node numbering) equal the single-tree build bit for bit.
Traversal needs no special dispatch path: advancing the frontier through the
top-level table *is* the shard dispatch (a ray only ever reaches the
sub-BVHs whose shard bounds it overlaps), and because the stitched tree is
the single tree, hits and counters of all three trace modes come out in
exactly the single-tree stream order.

Updates exploit the same decomposition: :func:`delta_update_forest` compares
the new primitive bounds row by row against the previous input, marks only
the shards that gained, lost, or moved a primitive as dirty, re-sorts and
rebuilds those, and re-stitches.  Clean shards reuse their sorted row order
and sub-tree unchanged (their leaf ranges are merely rebased), so the
expensive work scales with the dirty shards instead of the total key count.
An update that dirties nothing is recognised as a no-op and rebuilds nothing.

One top-level subtlety: a range whose total count is at most
``max_leaf_size`` becomes a single leaf in the single tree even when it spans
several buckets.  The top-level planner reproduces this by absorbing such
runs of tiny buckets into *mixed leaves*; absorbed buckets keep their sorted
rows (they still occupy their slice of the global primitive stream) but carry
no sub-tree.

Execution.  Every large array lives in anonymous shared memory
(:mod:`repro.rtx.shm`), so pool workers forked per call read and write it in
place and only O(1) task descriptors are ever pickled:

* Quantise and bucket grouping run as chunked passes.  Chunk boundaries
  depend only on ``(n, options.workers)`` — never on the effective pool size
  — and each pass is exactly equivalent to its serial counterpart:
  quantisation is row-independent, scene bounds are an associative min/max
  reduction, and the chunked counting-scatter (ascending chunks, stable
  within each chunk) reproduces the global stable argsort.
* The stitch *is* the final layout.  The single tree's DFS numbering
  (``_dfs_renumbering`` in :mod:`repro.rtx.bvh`: the k-th inner node in
  right-first preorder allocates ids ``2k+1``/``2k+2``) decomposes per shard:
  a shard subtree is a contiguous segment of that preorder, so every
  non-root local node ``l`` lands at global id ``l + 2K``, where ``K`` is the
  number of inner nodes preceding the segment.  ``_walk_top_numbering``
  computes all ``K`` in O(shards); workers then rebase-copy their scratch
  trees straight into the final arrays at those offsets.

Lifetimes.  The float64 primitive bounds and the Morton grid are per-call
inputs, dropped when the call returns.  A forest's *epoch* — its bucket
column, primitive stream, per-shard scratch trees and final node arrays —
lives as long as the forest or any ``Bvh`` pinned over it.  A delta update
writes a fresh epoch and copies the clean shards into it from the old one,
so every epoch is self-contained and serving-side snapshots that pin an old
``Bvh`` stay valid.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.rtx.build_input import write_aabbs_into
from repro.rtx.bvh import (
    BVH_ARRAY_FIELDS,
    Bvh,
    BvhBuildOptions,
    build_lbvh_over_sorted,
)
from repro.rtx.geometry import PrimitiveBuffer, ray_box_overlap_pairs
from repro.rtx.morton import (
    morton_interleave_grid,
    morton_prefix_buckets,
    quantize_points_to_grid,
)
from repro.rtx.shm import ShmArena


@dataclass
class DeltaUpdateStats:
    """What a delta-shard update actually did."""

    total_shards: int
    non_empty_shards: int
    dirty_shards: int
    rebuilt_trees: int
    dirty_keys: int
    total_keys: int
    noop: bool = False
    #: True when the global Morton grid moved (scene bounds changed), which
    #: re-quantises every code and forces a full re-sort of all shards.
    rescaled: bool = False


@dataclass
class BuildTelemetry:
    """What a forest build (or delta update) moved and spent.

    ``bytes_shared`` counts the shared-memory bytes the workers access as
    zero-copy views; ``bytes_pickled`` counts the exact task-descriptor
    bytes that crossed the pool's pickle channel.  Surfaced as
    ``RXIndex.stats()["build"]``.
    """

    workers_requested: int
    workers_used: int
    shards: int
    delegated_shards: int
    bytes_shared: int
    bytes_pickled: int
    tasks: int
    wall_seconds: float


@dataclass
class BvhForest:
    """A sharded BVH build: the stitched tree plus per-shard bookkeeping.

    ``bvh`` is bit-identical to the single-tree ``build_bvh`` output; the
    remaining fields exist so delta updates can identify and reuse clean
    shards.
    """

    bvh: Bvh
    options: BvhBuildOptions
    num_primitives: int
    #: bounds of the centroid cloud that defined the global Morton grid
    scene_lo: np.ndarray
    scene_hi: np.ndarray
    #: Morton-prefix bucket of every primitive row
    bucket_of_row: np.ndarray
    #: non-empty bucket ids, ascending (their stream slices concatenate into
    #: ``bvh.prim_indices``)
    shard_ids: np.ndarray
    #: per non-empty bucket: global rows in shard-sorted (code) order
    shard_rows: dict[int, np.ndarray]
    #: per *delegated* bucket: its sub-BVH in shard-local numbering
    shard_trees: dict[int, Bvh]
    workers_used: int = 1
    built_shards: int = 0
    _top_node_count: int = 0
    #: telemetry of the build or update that produced this forest
    telemetry: BuildTelemetry | None = None
    #: the shared arrays behind this forest (the old epoch a delta update
    #: copies clean shards out of)
    _epoch: object = field(default=None, repr=False, compare=False)

    @property
    def num_shards(self) -> int:
        return 1 << self.options.shard_bits

    @property
    def non_empty_shards(self) -> int:
        return int(self.shard_ids.shape[0])

    @property
    def delegated_shards(self) -> int:
        return len(self.shard_trees)

    @property
    def top_node_count(self) -> int:
        """Nodes of the top-level table (splits above the shard roots)."""
        return self._top_node_count

    def shard_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Root bounds of every delegated shard as ``(ids, mins, maxs)``."""
        ids = np.array(sorted(self.shard_trees), dtype=np.int64)
        if ids.size == 0:
            return ids, np.zeros((0, 3), np.float32), np.zeros((0, 3), np.float32)
        mins = np.stack([self.shard_trees[int(b)].node_mins[0] for b in ids])
        maxs = np.stack([self.shard_trees[int(b)].node_maxs[0] for b in ids])
        return ids, mins, maxs

    def dispatch_counts(self, rays) -> dict[int, int]:
        """Rays overlapping each delegated shard's root bounds.

        Diagnostic mirror of what frontier traversal does implicitly: a ray
        only descends into the sub-BVHs returned here.  Uses the engine's
        default node culling (the near limit is clamped to zero, like the
        hardware).
        """
        ids, mins, maxs = self.shard_bounds()
        node_tmin = np.minimum(rays.tmin, np.float32(0.0))
        counts: dict[int, int] = {}
        for i, b in enumerate(ids.tolist()):
            m = len(rays)
            overlap = ray_box_overlap_pairs(
                rays.origins,
                rays.directions,
                node_tmin,
                rays.tmax,
                np.broadcast_to(mins[i].astype(np.float64), (m, 3)),
                np.broadcast_to(maxs[i].astype(np.float64), (m, 3)),
            )
            counts[b] = int(np.count_nonzero(overlap))
        return counts


# --------------------------------------------------------------------------- #
# top-level planning (prefix space)
# --------------------------------------------------------------------------- #


@dataclass
class _TopPlan:
    """The single tree's structure above the shard roots.

    ``entries`` lists the top-level nodes in creation (preorder) order; each
    is ``("leaf", stream_lo, count)`` or ``("inner", left_ref, right_ref)``
    with refs of the form ``("t", entry_index)`` or ``("s", bucket_id)``.
    ``delegated`` holds the buckets that root their own sub-BVH.
    """

    entries: list[tuple] = field(default_factory=list)
    delegated: list[int] = field(default_factory=list)


def plan_top_level(
    shard_vals: np.ndarray, shard_counts: np.ndarray, max_leaf_size: int
) -> _TopPlan:
    """Derive the top-level node table from per-bucket counts alone.

    Mirrors the single-tree recursion exactly: a range whose count fits a
    leaf becomes a (possibly bucket-spanning) leaf, a range inside one bucket
    delegates to that bucket's sub-builder, and every other range splits at
    its highest differing Morton bit — which, for ranges spanning two or more
    prefix buckets, is always a prefix bit and therefore computable from the
    bucket ids.
    """
    plan = _TopPlan()
    if shard_vals.shape[0] == 0:
        return plan
    stream_starts = np.cumsum(shard_counts) - shard_counts

    # (range over bucket indices, parent entry, which child slot); the root
    # gets a placeholder parent.  Children are resolved by patching the
    # parent entry once the child's id (or shard delegation) is known.
    stack: list[tuple[int, int, int, int]] = [(0, int(shard_vals.shape[0]), -1, 0)]
    range_counts = np.cumsum(shard_counts)

    def _emit(parent: int, slot: int, ref: tuple) -> None:
        if parent < 0:
            return
        kind, left_ref, right_ref = plan.entries[parent]
        if slot == 0:
            plan.entries[parent] = (kind, ref, right_ref)
        else:
            plan.entries[parent] = (kind, left_ref, ref)

    while stack:
        a, b, parent, slot = stack.pop()
        count = int(range_counts[b - 1] - (range_counts[a - 1] if a else 0))
        if count <= max_leaf_size:
            plan.entries.append(("leaf", int(stream_starts[a]), count))
            _emit(parent, slot, ("t", len(plan.entries) - 1))
            continue
        if b - a == 1:
            bucket = int(shard_vals[a])
            plan.delegated.append(bucket)
            _emit(parent, slot, ("s", bucket))
            continue
        first = int(shard_vals[a])
        last = int(shard_vals[b - 1])
        # Highest differing Morton bit of the range, expressed in bucket
        # space (different buckets always differ within the prefix).
        h = (first ^ last).bit_length() - 1
        prefix = first >> h
        pos = a + int(np.searchsorted(shard_vals[a:b] >> np.uint64(h), prefix, "right"))
        node = len(plan.entries)
        plan.entries.append(("inner", None, None))
        _emit(parent, slot, ("t", node))
        # Push right first so ids are allocated left-first like the builder
        # (the final numbering is recomputed globally either way).
        stack.append((pos, b, node, 1))
        stack.append((a, pos, node, 0))
    return plan


# --------------------------------------------------------------------------- #
# shared arrays and the task runner
# --------------------------------------------------------------------------- #

#: Worker-side payload: a dict of shared-memory views plus small constants,
#: set in the parent before the pool forks so children inherit it, and
#: cleared when the call's executor closes.
_SHM_PAYLOAD: dict | None = None

#: Scratch/out array names; the int64 node arrays, then the float32 bounds.
_NODE_FIELDS_I64 = ("left", "right", "first_prim", "prim_count")
_NODE_FIELDS_F32 = ("node_mins", "node_maxs")


def _node_arrays(arena: ShmArena, rows: int) -> dict[str, np.ndarray]:
    arrays = {name: arena.allocate((rows,), np.int64) for name in _NODE_FIELDS_I64}
    arrays |= {name: arena.allocate((rows, 3), np.float32) for name in _NODE_FIELDS_F32}
    return arrays


class _ShmInputs:
    """Per-call inputs: float64 primitive bounds and the Morton grid."""

    def __init__(self, primitive_buffer: PrimitiveBuffer, n: int):
        self.arena = ShmArena()
        self.prim_mins = self.arena.allocate((n, 3), np.float64)
        self.prim_maxs = self.arena.allocate((n, 3), np.float64)
        self.grid = self.arena.allocate((n, 3), np.uint64)
        write_aabbs_into(primitive_buffer, self.prim_mins, self.prim_maxs)


class _ShmEpoch:
    """The shared arrays a forest keeps, plus the layout bookkeeping a later
    delta update needs to copy this epoch's clean shards forward."""

    def __init__(self, n: int):
        self.arena = ShmArena()
        #: Morton-prefix bucket of every primitive row
        self.bucket = self.arena.allocate((n,), np.int64)
        #: shard-sorted global row ids — the final ``prim_indices``
        self.stream = self.arena.allocate((n,), np.int64)
        # Worst-case-offset scratch: bucket b's sub-tree goes at offset
        # 2 * stream_start[b] with capacity 2 * count >= its node count.
        self.scratch = _node_arrays(self.arena, 2 * n)
        self.out = _node_arrays(self.arena, max(2 * n - 1, 1))
        # Per non-empty bucket: stream slice start and scratch offset; per
        # delegated bucket: node count.  Filled during the build.
        self.stream_start: dict[int, int] = {}
        self.scratch_off: dict[int, int] = {}
        self.node_count: dict[int, int] = {}


def _shm_payload(
    inputs: _ShmInputs, epoch: _ShmEpoch, old_epoch: _ShmEpoch | None,
    options: BvhBuildOptions,
) -> dict:
    return {
        "prim_mins": inputs.prim_mins,
        "prim_maxs": inputs.prim_maxs,
        "grid": inputs.grid,
        "bucket": epoch.bucket,
        "stream": epoch.stream,
        "scratch": epoch.scratch,
        "out": epoch.out,
        "old_stream": old_epoch.stream if old_epoch is not None else None,
        "old_scratch": old_epoch.scratch if old_epoch is not None else None,
        "bits": options.morton_bits,
        "shard_bits": options.shard_bits,
        "shards": 1 << options.shard_bits,
        "options": options,
    }


class _ShmExecutor:
    """Task runner over the fork-inherited shared payload.

    One pool serves every pass of a call (the payload is inherited at fork;
    writes made by the parent *after* the fork are still visible — the
    mappings are shared).  Falls back to in-process execution when
    ``workers == 1`` or fork is unavailable, running the very same task
    functions, which is what makes results bit-identical across worker
    counts by construction.  Tracks honest pickle-channel accounting:
    descriptors are the only traffic.
    """

    def __init__(self, payload: dict, workers: int):
        global _SHM_PAYLOAD
        _SHM_PAYLOAD = payload
        self.pool = None
        self.pool_size = 1
        self.tasks = 0
        self.bytes_pickled = 0
        if workers > 1:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = None
            if ctx is not None:
                self.pool = ctx.Pool(processes=workers)
                self.pool_size = workers

    def run(self, fn, tasks: list) -> list:
        tasks = list(tasks)
        if not tasks:
            return []
        self.tasks += len(tasks)
        self.bytes_pickled += sum(
            len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
            for task in tasks
        )
        if self.pool is not None and len(tasks) > 1:
            return self.pool.map(fn, tasks)
        return [fn(task) for task in tasks]

    def close(self) -> None:
        global _SHM_PAYLOAD
        if self.pool is not None:
            # All maps have returned by the time we get here (success or
            # raised), so terminate is safe and never blocks on stuck tasks.
            self.pool.terminate()
            self.pool.join()
            self.pool = None
        _SHM_PAYLOAD = None


def _chunk_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    """Row chunks of the parallel passes.

    A pure function of ``(n, requested workers)`` so chunked results never
    depend on how many processes actually ran.
    """
    chunks = max(1, min(workers, n))
    size = -(-n // chunks)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _shm_chunk_centroid_bounds(task: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Min/max of the centroid chunk; exact selection, so chunk-reducible."""
    lo, hi = task
    payload = _SHM_PAYLOAD
    centroids = 0.5 * (payload["prim_mins"][lo:hi] + payload["prim_maxs"][lo:hi])
    return centroids.min(axis=0), centroids.max(axis=0)


def _shm_chunk_quantize(task: tuple) -> np.ndarray:
    """Quantise one row chunk onto the fixed global grid, write its grid and
    bucket rows in place, and return the chunk's per-bucket counts."""
    lo, hi, scene_lo, scene_hi = task
    payload = _SHM_PAYLOAD
    centroids = 0.5 * (payload["prim_mins"][lo:hi] + payload["prim_maxs"][lo:hi])
    grid = quantize_points_to_grid(centroids, scene_lo, scene_hi, payload["bits"])
    payload["grid"][lo:hi] = grid
    bucket = morton_prefix_buckets(grid, payload["bits"], payload["shard_bits"])
    payload["bucket"][lo:hi] = bucket
    return np.bincount(bucket, minlength=payload["shards"])


def _shm_chunk_scatter(task: tuple) -> None:
    """Scatter one chunk's rows into their buckets' stream slices.

    ``offsets[b]`` is where this chunk's first row of bucket ``b`` goes —
    the bucket's global start plus the counts of earlier chunks.  Ascending
    chunks + a stable in-chunk sort reproduce the global stable argsort
    grouping bit for bit.
    """
    lo, hi, offsets = task
    payload = _SHM_PAYLOAD
    bucket = payload["bucket"][lo:hi]
    order = np.argsort(bucket, kind="stable")
    sorted_buckets = bucket[order]
    counts = np.bincount(bucket, minlength=payload["shards"])
    starts = np.cumsum(counts) - counts
    dest = offsets[sorted_buckets] + (
        np.arange(order.shape[0], dtype=np.int64) - starts[sorted_buckets]
    )
    payload["stream"][dest] = lo + order
    return None


def _quantize(
    executor: _ShmExecutor, n: int, options: BvhBuildOptions
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]], np.ndarray]:
    """Scene bounds, then the grid and bucket of every row, as chunked
    passes; returns ``(lo, hi, chunks, per-chunk bucket counts)``."""
    chunks = _chunk_ranges(n, options.workers)
    parts = executor.run(_shm_chunk_centroid_bounds, chunks)
    lo = np.minimum.reduce([part[0] for part in parts])
    hi = np.maximum.reduce([part[1] for part in parts])
    chunk_counts = np.stack(
        executor.run(_shm_chunk_quantize, [(a, b, lo, hi) for a, b in chunks])
    )
    return lo, hi, chunks, chunk_counts


class _ShmShardTask(NamedTuple):
    """Round-1 descriptor: everything a worker needs to place one bucket.

    ``old_start >= 0`` copies the rows from the old epoch's stream first
    (clean shard under a delta update); ``old_scratch_off >= 0`` additionally
    copies the old sub-tree instead of rebuilding it.
    """

    bucket: int
    start: int
    count: int
    needs_sort: bool
    build_tree: bool
    scratch_off: int
    old_start: int
    old_scratch_off: int
    old_node_count: int


def _shm_round1(task: _ShmShardTask) -> tuple[int, int]:
    """Sort one bucket's stream slice in place and emit its sub-tree into
    scratch at the precomputed offset; returns ``(bucket, node_count)``."""
    payload = _SHM_PAYLOAD
    rows = payload["stream"][task.start : task.start + task.count]
    if task.old_start >= 0:
        rows[:] = payload["old_stream"][task.old_start : task.old_start + task.count]
    if task.old_scratch_off >= 0:
        src = slice(task.old_scratch_off, task.old_scratch_off + task.old_node_count)
        dst = slice(task.scratch_off, task.scratch_off + task.old_node_count)
        old_scratch = payload["old_scratch"]
        scratch = payload["scratch"]
        for name in scratch:
            scratch[name][dst] = old_scratch[name][src]
        return task.bucket, task.old_node_count
    if not task.needs_sort and not task.build_tree:
        return task.bucket, 0
    codes = morton_interleave_grid(payload["grid"][rows], payload["bits"])
    if task.needs_sort:
        order = np.argsort(codes, kind="stable")
        rows[:] = rows[order]
        codes = codes[order]
    if not task.build_tree:
        return task.bucket, 0
    off = task.scratch_off
    cap = 2 * task.count
    scratch = payload["scratch"]
    out = {name: scratch[name][off : off + cap] for name in scratch}
    tree = build_lbvh_over_sorted(
        codes,
        payload["prim_mins"][rows],
        payload["prim_maxs"][rows],
        payload["options"],
        out=out,
    )
    return task.bucket, tree.node_count


class _ShmStitchTask(NamedTuple):
    """Round-2 descriptor: rebase one shard's scratch tree into the final
    arrays.  Non-root local node ``l`` lands at row ``base + l``; the root
    lands at ``root`` (its id was assigned by the top-level parent)."""

    bucket: int
    scratch_off: int
    node_count: int
    base: int
    root: int
    stream_start: int


def _shm_round2(task: _ShmStitchTask) -> None:
    payload = _SHM_PAYLOAD
    m = task.node_count
    src = slice(task.scratch_off, task.scratch_off + m)
    scratch = payload["scratch"]
    out = payload["out"]
    left = scratch["left"][src]
    right = scratch["right"][src]
    first = scratch["first_prim"][src]
    count = scratch["prim_count"][src]
    inner = left >= 0
    # Child pointers rebase by the same base for every row (the root's
    # children are local 1/2 -> base+1/base+2, matching its global rank);
    # only leaves reference the primitive stream, inner nodes keep the
    # builder's zero placeholder.
    g_left = np.where(inner, left + task.base, -1)
    g_right = np.where(inner, right + task.base, -1)
    g_first = np.where(inner, first, first + task.stream_start)
    dst = slice(task.base + 1, task.base + m)
    out["left"][dst] = g_left[1:]
    out["right"][dst] = g_right[1:]
    out["first_prim"][dst] = g_first[1:]
    out["prim_count"][dst] = count[1:]
    out["node_mins"][dst] = scratch["node_mins"][src][1:]
    out["node_maxs"][dst] = scratch["node_maxs"][src][1:]
    root = task.root
    out["left"][root] = g_left[0]
    out["right"][root] = g_right[0]
    out["first_prim"][root] = g_first[0]
    out["prim_count"][root] = count[0]
    out["node_mins"][root] = scratch["node_mins"][task.scratch_off]
    out["node_maxs"][root] = scratch["node_maxs"][task.scratch_off]
    return None


def _walk_top_numbering(
    plan: _TopPlan, node_counts: dict[int, int]
) -> tuple[list[int], dict[int, int], dict[int, int], int]:
    """Global DFS ids of the stitched tree in O(top entries + shards).

    Walks the top plan in the builder's right-first preorder, counting inner
    nodes: the k-th inner node allocates ids ``2k+1``/``2k+2`` for its
    children (the ``_dfs_renumbering`` rule).  A shard segment advances the
    inner count by its own ``(m - 1) // 2`` inner nodes, and the count at its
    start, doubled, is the rebase offset of all its non-root nodes.  Returns
    ``(entry ids, shard base offsets, shard root ids, total node count)``.
    """
    entries = plan.entries
    entry_gid = [0] * len(entries)
    if not entries:
        # The whole key range lives in one delegated bucket: the shard's
        # local numbering is already the global numbering.
        bucket = plan.delegated[0]
        return entry_gid, {bucket: 0}, {bucket: 0}, node_counts[bucket]
    shard_base: dict[int, int] = {}
    shard_root: dict[int, int] = {}
    inner_rank = 0
    stack: list[tuple[tuple, int]] = [(("t", 0), 0)]
    while stack:
        ref, gid = stack.pop()
        if ref[0] == "s":
            bucket = ref[1]
            shard_root[bucket] = gid
            shard_base[bucket] = 2 * inner_rank
            inner_rank += (node_counts[bucket] - 1) // 2
            continue
        index = ref[1]
        entry_gid[index] = gid
        entry = entries[index]
        if entry[0] == "leaf":
            continue
        k = inner_rank
        inner_rank += 1
        stack.append((entry[1], 2 * k + 1))  # left pushed first ...
        stack.append((entry[2], 2 * k + 2))  # ... so right pops (visits) first
    num_nodes = len(entries) + sum(node_counts[b] for b in plan.delegated)
    return entry_gid, shard_base, shard_root, num_nodes


def _shm_finalize(
    inputs: _ShmInputs,
    epoch: _ShmEpoch,
    executor: _ShmExecutor,
    plan: _TopPlan,
    options: BvhBuildOptions,
    n: int,
) -> Bvh:
    """Rounds 2+3: rebase shard sub-trees into the final layout (parallel)
    and fill the O(shards) top-level rows (parent), then wrap the out views
    as the stitched ``Bvh`` — bit-identical to the single-tree build."""
    entry_gid, shard_base, shard_root, num_nodes = _walk_top_numbering(
        plan, epoch.node_count
    )
    executor.run(
        _shm_round2,
        [
            _ShmStitchTask(
                bucket=b,
                scratch_off=epoch.scratch_off[b],
                node_count=epoch.node_count[b],
                base=shard_base[b],
                root=shard_root[b],
                stream_start=epoch.stream_start[b],
            )
            for b in plan.delegated
        ],
    )
    out = {name: array[:num_nodes] for name, array in epoch.out.items()}

    def _resolve(ref: tuple) -> int:
        return entry_gid[ref[1]] if ref[0] == "t" else shard_root[ref[1]]

    # Top leaves first (bounds straight from the primitives), then inner
    # bounds bottom-up — children always have larger entry indices, so one
    # reverse sweep suffices; shard-root rows were written by round 2.
    stream = epoch.stream
    for index, entry in enumerate(plan.entries):
        if entry[0] != "leaf":
            continue
        gid = entry_gid[index]
        _, stream_lo, count = entry
        gathered = stream[stream_lo : stream_lo + count]
        out["left"][gid] = -1
        out["right"][gid] = -1
        out["first_prim"][gid] = stream_lo
        out["prim_count"][gid] = count
        out["node_mins"][gid] = inputs.prim_mins[gathered].min(axis=0).astype(np.float32)
        out["node_maxs"][gid] = inputs.prim_maxs[gathered].max(axis=0).astype(np.float32)
    for index in range(len(plan.entries) - 1, -1, -1):
        entry = plan.entries[index]
        if entry[0] != "inner":
            continue
        gid = entry_gid[index]
        left_id = _resolve(entry[1])
        right_id = _resolve(entry[2])
        out["left"][gid] = left_id
        out["right"][gid] = right_id
        out["first_prim"][gid] = 0
        out["prim_count"][gid] = 0
        out["node_mins"][gid] = np.minimum(
            out["node_mins"][left_id], out["node_mins"][right_id]
        )
        out["node_maxs"][gid] = np.maximum(
            out["node_maxs"][left_id], out["node_maxs"][right_id]
        )

    bvh = Bvh(
        node_mins=out["node_mins"],
        node_maxs=out["node_maxs"],
        left=out["left"],
        right=out["right"],
        first_prim=out["first_prim"],
        prim_count=out["prim_count"],
        prim_indices=epoch.stream,
        num_primitives=n,
        options=options,
    )
    bvh.build_stats = {
        "builder": options.builder,
        "num_primitives": n,
        "node_count": bvh.node_count,
        "leaf_count": bvh.leaf_count,
        "shards": 1 << options.shard_bits,
        "delegated_shards": len(plan.delegated),
        "top_nodes": len(plan.entries),
    }
    return bvh


def _shm_shard_views(
    epoch: _ShmEpoch, plan: _TopPlan, counts: np.ndarray, options: BvhBuildOptions
) -> dict[int, Bvh]:
    """Shard sub-trees as views into the epoch's scratch arrays (no copy)."""
    trees: dict[int, Bvh] = {}
    for bucket in plan.delegated:
        m = epoch.node_count[bucket]
        off = epoch.scratch_off[bucket]
        count = int(counts[bucket])
        trees[bucket] = Bvh(
            node_mins=epoch.scratch["node_mins"][off : off + m],
            node_maxs=epoch.scratch["node_maxs"][off : off + m],
            left=epoch.scratch["left"][off : off + m],
            right=epoch.scratch["right"][off : off + m],
            first_prim=epoch.scratch["first_prim"][off : off + m],
            prim_count=epoch.scratch["prim_count"][off : off + m],
            prim_indices=np.arange(count, dtype=np.int64),
            num_primitives=count,
            options=options,
        )
    return trees


def _shm_forest(
    inputs: _ShmInputs,
    epoch: _ShmEpoch,
    executor: _ShmExecutor,
    plan: _TopPlan,
    counts: np.ndarray,
    scene: tuple[np.ndarray, np.ndarray],
    options: BvhBuildOptions,
    t0: float,
) -> BvhForest:
    """Stitch the placed shards and wrap the epoch as a :class:`BvhForest`."""
    n = int(epoch.stream.shape[0])
    bvh = _shm_finalize(inputs, epoch, executor, plan, options, n)
    return BvhForest(
        bvh=bvh,
        options=options,
        num_primitives=n,
        scene_lo=scene[0],
        scene_hi=scene[1],
        bucket_of_row=epoch.bucket,
        shard_ids=np.flatnonzero(counts),
        shard_rows={
            bucket: epoch.stream[start : start + int(counts[bucket])]
            for bucket, start in epoch.stream_start.items()
        },
        shard_trees=_shm_shard_views(epoch, plan, counts, options),
        workers_used=executor.pool_size,
        built_shards=len(plan.delegated),
        _top_node_count=len(plan.entries),
        telemetry=BuildTelemetry(
            workers_requested=options.workers,
            workers_used=executor.pool_size,
            shards=1 << options.shard_bits,
            delegated_shards=len(plan.delegated),
            bytes_shared=inputs.arena.total_bytes + epoch.arena.total_bytes,
            bytes_pickled=executor.bytes_pickled,
            tasks=executor.tasks,
            wall_seconds=time.perf_counter() - t0,
        ),
        _epoch=epoch,
    )


def _plan(counts: np.ndarray, options: BvhBuildOptions) -> tuple[np.ndarray, _TopPlan]:
    """Non-empty bucket ids and the top-level plan over their counts."""
    shard_vals = np.flatnonzero(counts)
    plan = plan_top_level(
        shard_vals.astype(np.uint64), counts[shard_vals], options.max_leaf_size
    )
    return shard_vals, plan


def _build_all(
    inputs: _ShmInputs,
    epoch: _ShmEpoch,
    executor: _ShmExecutor,
    options: BvhBuildOptions,
    scene: tuple[np.ndarray, np.ndarray],
    chunks: list[tuple[int, int]],
    chunk_counts: np.ndarray,
    t0: float,
) -> BvhForest:
    """Group, sort and build every shard of a quantised input."""
    counts = chunk_counts.sum(axis=0)
    starts = np.cumsum(counts) - counts
    chunk_offsets = starts[None, :] + np.cumsum(chunk_counts, axis=0) - chunk_counts
    executor.run(
        _shm_chunk_scatter,
        [(a, b, chunk_offsets[i]) for i, (a, b) in enumerate(chunks)],
    )
    shard_vals, plan = _plan(counts, options)
    delegated = set(plan.delegated)
    tasks = []
    for bucket in shard_vals.tolist():
        start = int(starts[bucket])
        epoch.stream_start[bucket] = start
        epoch.scratch_off[bucket] = 2 * start
        tasks.append(
            _ShmShardTask(
                bucket=bucket,
                start=start,
                count=int(counts[bucket]),
                needs_sort=True,
                build_tree=bucket in delegated,
                scratch_off=2 * start,
                old_start=-1,
                old_scratch_off=-1,
                old_node_count=0,
            )
        )
    for bucket, node_count in executor.run(_shm_round1, tasks):
        if node_count:
            epoch.node_count[bucket] = node_count
    return _shm_forest(inputs, epoch, executor, plan, counts, scene, options, t0)


# --------------------------------------------------------------------------- #
# build, persist/restore, delta update
# --------------------------------------------------------------------------- #


def build_forest(
    primitive_buffer: PrimitiveBuffer, options: BvhBuildOptions | None = None
) -> BvhForest:
    """Build a sharded BVH forest over all primitives of ``primitive_buffer``.

    Requires ``options.shard_bits >= 1`` and the ``"lbvh"`` builder; the
    stitched ``forest.bvh`` is bit-identical to the single-tree
    :func:`repro.rtx.bvh.build_bvh` with the same options minus sharding.
    """
    options = options or BvhBuildOptions(shard_bits=4)
    options.validate()
    if options.shard_bits < 1:
        raise ValueError("build_forest requires shard_bits >= 1")
    t0 = time.perf_counter()
    n = len(primitive_buffer)
    if n == 0:
        raise ValueError("cannot build a BVH forest over zero primitives")
    inputs = _ShmInputs(primitive_buffer, n)
    epoch = _ShmEpoch(n)
    executor = _ShmExecutor(_shm_payload(inputs, epoch, None, options), options.workers)
    try:
        lo, hi, chunks, chunk_counts = _quantize(executor, n, options)
        return _build_all(
            inputs, epoch, executor, options, (lo, hi), chunks, chunk_counts, t0
        )
    finally:
        executor.close()


def forest_state_segments(forest: BvhForest):
    """Yield ``(bucket, arrays, meta)`` per non-empty shard — the persisted
    form of a forest.

    Only the per-shard *sort outputs* (global rows in code order) and
    *build outputs* (sub-tree arrays, for delegated buckets) are persisted.
    Everything else a :class:`BvhForest` carries — the Morton grid, the
    bucket partition, the top-level plan and the stitched global tree — is
    a cheap deterministic pass over the key column and is recomputed at
    load time by :func:`forest_from_saved`, which keeps an incremental save
    after a delta update proportional to the dirty shards instead of O(n).
    """
    for bucket in sorted(forest.shard_rows):
        arrays: dict[str, np.ndarray] = {
            "rows": np.ascontiguousarray(forest.shard_rows[bucket], dtype=np.int64)
        }
        tree = forest.shard_trees.get(bucket)
        meta = {"bucket": int(bucket), "delegated": tree is not None}
        if tree is not None:
            for name in BVH_ARRAY_FIELDS:
                arrays[name] = np.ascontiguousarray(getattr(tree, name))
        yield bucket, arrays, meta


def forest_from_saved(
    primitive_buffer: PrimitiveBuffer,
    options: BvhBuildOptions,
    shard_rows: dict[int, np.ndarray],
    shard_tree_arrays: dict[int, dict[str, np.ndarray]],
) -> BvhForest:
    """Rebuild a :class:`BvhForest` from persisted shard state.

    Recomputes the grid, bucket partition and top-level plan from the
    primitive buffer (deterministic, so they match the saved build
    exactly), copies the persisted rows and sub-trees into a fresh epoch,
    and stitches — the resulting ``forest.bvh`` is bit-identical to the
    tree that was saved, and the forest delta-updates incrementally like a
    freshly built one.  The O(n log n) per-shard sorts and the per-shard
    tree builds — the expensive parts — are exactly what the persisted
    state skips.
    """
    options.validate()
    t0 = time.perf_counter()
    n = len(primitive_buffer)
    if n == 0:
        raise ValueError("cannot restore a BVH forest over zero primitives")
    inputs = _ShmInputs(primitive_buffer, n)
    epoch = _ShmEpoch(n)
    # Nothing left to sort or build, so the passes run in-process.
    executor = _ShmExecutor(_shm_payload(inputs, epoch, None, options), 1)
    try:
        lo, hi, _, chunk_counts = _quantize(executor, n, options)
        counts = chunk_counts.sum(axis=0)
        starts = np.cumsum(counts) - counts
        shard_vals, plan = _plan(counts, options)

        saved = {int(b) for b in shard_rows}
        expected = set(shard_vals.tolist())
        if saved != expected:
            raise ValueError(
                "persisted shard set does not match the Morton partition recomputed "
                f"from the key column (saved {sorted(saved)[:8]}..., "
                f"expected {sorted(expected)[:8]}...)"
            )
        if {int(b) for b in shard_tree_arrays} != set(plan.delegated):
            raise ValueError(
                "persisted delegated-shard set does not match the recomputed "
                "top-level plan"
            )
        rows = {int(b): r for b, r in shard_rows.items()}
        for bucket in shard_vals.tolist():
            start = int(starts[bucket])
            epoch.stream[start : start + int(counts[bucket])] = rows[bucket]
            epoch.stream_start[bucket] = start
            epoch.scratch_off[bucket] = 2 * start
        for bucket, arrays in shard_tree_arrays.items():
            off = epoch.scratch_off[int(bucket)]
            m = int(arrays["left"].shape[0])
            for name, scratch in epoch.scratch.items():
                scratch[off : off + m] = arrays[name]
            epoch.node_count[int(bucket)] = m
        forest = _shm_forest(
            inputs, epoch, executor, plan, counts, (lo, hi), options, t0
        )
    finally:
        executor.close()
    return forest


def delta_update_forest(
    forest: BvhForest,
    old_buffer: PrimitiveBuffer,
    new_buffer: PrimitiveBuffer,
) -> tuple[BvhForest, DeltaUpdateStats]:
    """Bring a forest up to date with moved/added/removed primitives.

    Only shards whose primitive membership or geometry changed are re-sorted
    and rebuilt; clean shards copy their sorted rows and sub-trees forward
    from the old epoch (rebased into the new stream during stitching).
    Returns the updated forest — whose ``bvh`` is bit-identical to a
    from-scratch build over ``new_buffer`` — plus statistics of the work
    performed.  A no-op update (nothing changed) returns the original forest
    untouched.
    """
    t0 = time.perf_counter()
    options = forest.options
    num_buckets = 1 << options.shard_bits
    n_new = len(new_buffer)
    if n_new == 0:
        raise ValueError("cannot delta-update a forest to zero primitives")
    old_epoch: _ShmEpoch = forest._epoch
    inputs = _ShmInputs(new_buffer, n_new)
    epoch = _ShmEpoch(n_new)
    executor = _ShmExecutor(
        _shm_payload(inputs, epoch, old_epoch, options), options.workers
    )
    try:
        lo, hi, chunks, chunk_counts = _quantize(executor, n_new, options)
        if not (
            np.array_equal(lo, forest.scene_lo) and np.array_equal(hi, forest.scene_hi)
        ):
            # The global grid moved: every Morton code is re-quantised, so no
            # shard content can be trusted.
            rebuilt = _build_all(
                inputs, epoch, executor, options, (lo, hi), chunks, chunk_counts, t0
            )
            return rebuilt, DeltaUpdateStats(
                total_shards=num_buckets,
                non_empty_shards=rebuilt.non_empty_shards,
                dirty_shards=rebuilt.non_empty_shards,
                rebuilt_trees=rebuilt.built_shards,
                dirty_keys=n_new,
                total_keys=n_new,
                rescaled=True,
            )

        old_mins, old_maxs = old_buffer.compute_aabbs()
        old_bucket = forest.bucket_of_row
        bucket = epoch.bucket
        common = min(forest.num_primitives, n_new)
        changed = (inputs.prim_mins[:common] != old_mins[:common]).any(axis=1)
        changed |= (inputs.prim_maxs[:common] != old_maxs[:common]).any(axis=1)
        dirty = np.zeros(num_buckets, dtype=bool)
        dirty[old_bucket[:common][changed]] = True
        dirty[bucket[:common][changed]] = True
        dirty[old_bucket[common:]] = True
        dirty[bucket[common:]] = True
        dirty_ids = np.flatnonzero(dirty)
        if dirty_ids.size == 0:
            return forest, DeltaUpdateStats(
                total_shards=num_buckets,
                non_empty_shards=forest.non_empty_shards,
                dirty_shards=0,
                rebuilt_trees=0,
                dirty_keys=0,
                total_keys=n_new,
                noop=True,
            )

        counts = chunk_counts.sum(axis=0)
        starts = np.cumsum(counts) - counts
        shard_vals, plan = _plan(counts, options)
        delegated = set(plan.delegated)

        # Parent scatters the dirty buckets' rows into their new stream
        # slices (O(dirty keys)); clean buckets are copied by the workers.
        dirty_rows = np.flatnonzero(dirty[bucket])
        grouped = dirty_rows[np.argsort(bucket[dirty_rows], kind="stable")]
        group_counts = np.bincount(bucket[dirty_rows], minlength=num_buckets)
        pos = 0
        for b in np.flatnonzero(group_counts).tolist():
            count = int(group_counts[b])
            start = int(starts[b])
            epoch.stream[start : start + count] = grouped[pos : pos + count]
            pos += count

        tasks = []
        rebuilt_trees = 0
        for b in shard_vals.tolist():
            start = int(starts[b])
            count = int(counts[b])
            epoch.stream_start[b] = start
            epoch.scratch_off[b] = 2 * start
            if dirty[b]:
                tasks.append(
                    _ShmShardTask(
                        b, start, count, True, b in delegated, 2 * start, -1, -1, 0
                    )
                )
                rebuilt_trees += b in delegated
                continue
            old_start = old_epoch.stream_start[b]
            if b in delegated and b in old_epoch.node_count:
                # Clean shard with a live sub-tree: copy rows + tree forward
                # so the new epoch is self-contained.
                tasks.append(
                    _ShmShardTask(
                        b, start, count, False, False, 2 * start,
                        old_start, old_epoch.scratch_off[b], old_epoch.node_count[b],
                    )
                )
            else:
                # Clean rows are still sorted; a bucket the new plan newly
                # delegates (it was absorbed into a mixed leaf) also needs
                # its tree built.
                tasks.append(
                    _ShmShardTask(
                        b, start, count, False, b in delegated, 2 * start,
                        old_start, -1, 0,
                    )
                )
                rebuilt_trees += b in delegated
        for b, node_count in executor.run(_shm_round1, tasks):
            if node_count:
                epoch.node_count[b] = node_count

        updated = _shm_forest(
            inputs, epoch, executor, plan, counts, (lo, hi), options, t0
        )
        return updated, DeltaUpdateStats(
            total_shards=num_buckets,
            non_empty_shards=updated.non_empty_shards,
            dirty_shards=int(dirty_ids.size),
            rebuilt_trees=rebuilt_trees,
            dirty_keys=int(dirty_rows.size),
            total_keys=n_new,
        )
    finally:
        executor.close()
