"""Span tracer that wraps the library's layer entry points from outside.

Wrappers go on the names the calling modules bound (for example
``diamwidth.census.canonical_code``), so the library under ``src/`` is
not edited.  A span records name, start, end and parent; spans stay in
memory in flat arrays and are written out when the run ends.  Hot inner
functions whose per-call span would dominate their own cost get a
counting wrapper instead (``width.component_masks``).
"""

from __future__ import annotations

import json
import os
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper recording one span per call; ``on_result(result, args)``
        may update ``self.counts`` from the returned value."""
        nid = self._id(name)
        stack, counts = self._stack, self.counts
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(perf_counter())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def counter(self, name: str, fn, on_result=None):
        """A wrapper that only counts calls (no span)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        return counted

    # -- installing wrappers ---------------------------------------------

    def patch(self, target, key: str, wrapper_factory) -> None:
        """Replace ``target.key`` (or ``target[key]`` for a dict) by
        ``wrapper_factory(original)``; ``restore`` undoes it."""
        is_dict = isinstance(target, dict)
        original = target[key] if is_dict else getattr(target, key)
        wrapped = wrapper_factory(original)
        if is_dict:
            target[key] = wrapped
        else:
            setattr(target, key, wrapped)
        self._patches.append((target, key, original, is_dict))

    def restore(self) -> None:
        for target, key, original, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """name -> (inclusive seconds, self seconds).  Self time is a span's
        duration minus the durations of its direct children; calls are
        strictly nested in this single-threaded run, so children never
        overlap."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: dict[str, list[float]] = {}
        for i in range(n):
            acc = total.setdefault(self.names[self.name_id[i]], [0.0, 0.0])
            acc[0] += dur[i]
            acc[1] += dur[i] - child[i]
        return {k: (v[0], v[1]) for k, v in total.items()}

    def write(self, directory: str, stem: str) -> None:
        """Write the spans (flat binary arrays) plus a JSON index."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, stem + ".spans")
        with open(path, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        index = {
            "spans": len(self.start),
            "layout": "name_id int64[], parent int64[] (-1 = root), start float64[], "
                      "end float64[] (perf_counter seconds), concatenated",
            "names": self.names,
            "counts": dict(self.counts),
        }
        with open(os.path.join(directory, stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)
