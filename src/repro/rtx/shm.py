"""Anonymous shared memory for the forest build.

The forest build (:mod:`repro.rtx.forest`) places every large array it
shares with its pool workers — primitive bounds, Morton grid, bucket ids,
the primitive stream, the per-shard scratch trees and the final node arrays
— in anonymous shared mappings (``mmap.mmap(-1, nbytes)``, i.e.
``MAP_SHARED | MAP_ANONYMOUS``).  Workers forked after the allocation
inherit the mappings, so they read and write the parent's pages in place and
a task descriptor is the only thing that crosses the pool's pickle channel.

An anonymous mapping has no name.  Nothing appears in ``/dev/shm``, and the
kernel frees the pages once the last process that maps them unmaps them or
exits, so a build that raises, or a process that is SIGKILLed mid-build,
leaves nothing behind to clean up.  Within a process, a numpy view holds a
buffer export on its ``mmap`` object: the mapping lives exactly as long as
the arrays over it, which is what lets an epoch snapshot keep a pinned
``Bvh`` readable after the forest that built it is gone.
"""

from __future__ import annotations

import mmap

import numpy as np


def live_block_names() -> frozenset[str]:
    """Named shared-memory blocks this process holds (leak probe).

    Always empty: anonymous mappings never create a ``/dev/shm`` entry.
    """
    return frozenset()


class ShmArena:
    """A group of numpy arrays over anonymous shared mappings.

    ``allocate`` maps one region per array and returns a zero-copy view;
    ``total_bytes`` is what the group shares with forked workers.  There is
    no release step: the pages go when the last view does.
    """

    def __init__(self) -> None:
        self.total_bytes = 0

    def allocate(self, shape, dtype) -> np.ndarray:
        """Map one shared array of ``shape`` and ``dtype`` and return it."""
        shape = tuple(int(s) for s in (shape if np.iterable(shape) else (shape,)))
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = count * np.dtype(dtype).itemsize
        # A mapping cannot be empty; zero-size arrays view one spare byte.
        region = mmap.mmap(-1, max(nbytes, 1))
        self.total_bytes += nbytes
        return np.frombuffer(region, dtype=dtype, count=count).reshape(shape)
