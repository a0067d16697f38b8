"""Ordered-map adapter over ``sortedcontainers.SortedDict``.

SortedDict is what a Python user would reach for, so the benchmark runs
the same inputs through it as a reference. The adapter exposes the map
surface ``BaselineBook`` and the map workload call: find, insert, erase,
min, max, next, prev and first_items, with the glass's semantics
(insert-if-absent, ``None`` for absent, strict next/prev).

The import is guarded: without the package ``SortedDictMap`` is None and
the benchmark drops this baseline instead of failing.
"""

from __future__ import annotations

try:
    from sortedcontainers import SortedDict
except ImportError:  # pragma: no cover - depends on the environment
    SortedDict = None


class _SortedDictMap:
    def __init__(self):
        self._d = SortedDict()

    def __len__(self):
        return len(self._d)

    def find(self, key):
        return self._d.get(key)

    def insert(self, key, value) -> bool:
        d = self._d
        if key in d:
            return False
        d[key] = value
        return True

    def erase(self, key) -> bool:
        return self._d.pop(key, None) is not None

    def min(self):
        d = self._d
        return d.peekitem(0)[0] if d else None

    def max(self):
        d = self._d
        return d.peekitem(-1)[0] if d else None

    def next(self, key):
        d = self._d
        i = d.bisect_right(key)
        return d.peekitem(i)[0] if i < len(d) else None

    def prev(self, key):
        d = self._d
        i = d.bisect_left(key)
        return d.peekitem(i - 1)[0] if i > 0 else None

    def first_items(self, count, descending=False):
        d = self._d
        keys = d.keys()
        chosen = keys[:-count - 1:-1] if descending else keys[:count]
        return [(k, d[k]) for k in chosen]


SortedDictMap = _SortedDictMap if SortedDict is not None else None
