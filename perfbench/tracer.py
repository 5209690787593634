"""In-memory spans around calls into the program, installed from outside.

A :class:`Tracer` keeps every span as ``[name, start, end, parent, attrs]``
in one list and writes nothing until the benchmark asks for it.  Spans are
opened by wrappers that :class:`Patches` installs on the attribute a caller
looks the callable up on (a class attribute, or a name a module imported),
and :meth:`Patches.restore` puts every original object back.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Nested spans on a monotonic clock, recorded while ``active``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = True

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[END] = self.clock()
        span[ATTRS] = attrs
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    @contextmanager
    def paused(self):
        """Run a block without recording (untimed set-up and reference work)."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def wrap(self, name: str, fn, observe=None, wrap_result: bool = False):
        """``fn`` with a span named ``name`` around every active call.

        ``observe(args, kwargs, result)`` returns the span's attributes.
        With ``wrap_result`` the callable ``fn`` returns is wrapped in a span
        of the same name as well (a factory of per-call filters).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    attrs = observe(args, kwargs, result)
                if wrap_result and callable(result):
                    result = tracer.wrap(name, result)
                return result
            finally:
                tracer.close(index, attrs)

        return traced

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON (at the end of a run)."""
        with open(path, "w") as handle:
            json.dump({**header, "spans": self.spans}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the self times of a tree add up to the union of its
    top-level spans.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []

    def install(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original_callable)``.

        Class-level ``classmethod``/``staticmethod`` descriptors are unwrapped
        and re-wrapped, so the patched attribute binds like the original.
        """
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(raw)
        self._saved.append((owner, attr, own, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original back, newest first; idempotent."""
        while self._saved:
            owner, attr, own, raw = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
