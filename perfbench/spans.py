"""Spans around calls into the library, timed from outside the library.

A :class:`Tracer` replaces a module attribute with a wrapper that records
one span per call.  Spans nest through a stack, so every span name gets:

- ``calls``: how many times it was entered;
- ``busy``: time inside the outermost active span of that name (a
  function re-entered through itself is not counted twice);
- ``self``: span time minus the time its child spans cover.

Top-level spans (entered with an empty stack) add to ``covered_ns``, which
gives the share of a timed region spent outside every span.  Times are
integer nanoseconds from ``perf_counter_ns``, so ``self`` is never negative.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.covered_ns = 0
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span name, ns covered by child spans]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            self._stack.append(frame)
            self._active[name] += 1
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._stack.pop()
                self._active[name] -= 1
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame[1]
                if self._active[name] == 0:
                    self.busy_ns[name] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
                else:
                    self.covered_ns += elapsed

        return traced

    def patch(self, module, attr: str, name: str, inner=None) -> bool:
        """Wrap ``module.attr`` in place; False when the module lacks it.

        ``inner(original)`` may return a replacement that records extra
        counters; the span then times that replacement.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False
        fn = inner(original) if inner is not None else original
        setattr(module, attr, self.wrap(name, fn))
        self._patched.append((module, attr, original))
        return True

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
