"""The benchmark's workloads: what each builds, feeds and checks.

A workload turns seeded ``(slot, args)`` events into calls through a
table of bound methods, so one replay loop drives the glass, a traced
glass, the baselines and the oracle alike. Answers are checked op by op
against the package oracles (``OracleBook`` and ``RefMap``), which are
slow but plainly correct.
"""

from __future__ import annotations

from glasstrie import MAX_SIDE, MIN_SIDE, OrderBook
from glasstrie import create as create_glass
from glasstrie.benchkit.baseline import BaselineBook, RBMap
from glasstrie.oracle import OracleBook, RefMap

from . import feed as F
from .baselines import SortedDictMap

#: order-book defaults the book workloads keep (see OrderBook)
BOOK_DEFAULTS = dict(best_window=25, key_bits=50, chunk_bits=5, width=16)
MAP_KEY_BITS = 50
MAP_CHUNK_BITS = 5
MAP_MAX_SIZE = 8192
MAP_LIVE_SIZE = 7000

_MASK64 = (1 << 64) - 1


def checksum(answers, acc: int = 0) -> int:
    """Order-sensitive fold of op answers, identical across structures."""
    for a in answers:
        if a is None:
            x = 1
        elif a is True:
            x = 2
        elif a is False:
            x = 3
        elif isinstance(a, list):
            x = 4
            for k, v in a:
                x = (x * 1_000_003 + k * 31 + v) & _MASK64
        else:
            x = a + 5
        acc = (acc * 1_000_003 + x) & _MASK64
    return acc


def replay(table, events) -> list:
    """Answers of ``events`` called through a method table."""
    return [table[slot](*args) for slot, args in events]


class _RefMapItems(RefMap):
    """RefMap plus the glass's ``first_items``, for the map oracle."""

    def first_items(self, count, descending=False):
        keys = self._keys[::-1] if descending else self._keys
        return [(k, self._data[k]) for k in keys[:count]]


class BookWorkload:
    """Bid and ask order-book sides fed by :class:`feed.BookFeed`."""

    ops = F.BOOK_OPS
    slot_names = [f"{side}.{op}" for side in ("bid", "ask") for op in F.BOOK_OPS]

    def __init__(self, name: str, max_size: int, spills: bool, why: str):
        self.name = name
        self.max_size = max_size
        self.spills = spills
        self.why = why

    def new_feed(self, seed: int) -> F.BookFeed:
        return F.BookFeed(seed, BOOK_DEFAULTS["key_bits"])

    def inputs(self, feed) -> None:
        return None

    def create(self, baseline=None):
        """Bid and ask side of the structure under test, or of
        ``BaselineBook`` over ``baseline`` when one is given."""
        if baseline is not None:
            return (BaselineBook("max", baseline), BaselineBook("min", baseline))
        return (
            OrderBook(MAX_SIDE, max_size=self.max_size, **BOOK_DEFAULTS),
            OrderBook(MIN_SIDE, max_size=self.max_size, **BOOK_DEFAULTS),
        )

    def build(self, inputs, baseline=None):
        """The books start empty: building them is only creating them."""
        return self.create(baseline)

    def oracle(self, inputs):
        return (OracleBook("max"), OracleBook("min"))

    def methods(self, subject) -> list:
        """Bound methods indexed by event slot."""
        return [getattr(book, op) for book in subject for op in self.ops]

    def layers(self, subject):
        """(book, glass) pairs of the structure under test."""
        return [(book, book.glass) for book in subject]

    def not_exercised(self, counts) -> str | None:
        """Why a count pass shows the workload missing its layer, if it does."""
        if self.spills:
            if counts.restructures == 0 or counts.preemptions == 0:
                return "no restructure or preemption: the book never spilled"
        elif counts.preemptions:
            return f"{counts.preemptions} preemptions: the glass did not hold every level"
        return None


class MapWorkload:
    """One glass at a constant live size fed by :class:`feed.MapFeed`."""

    ops = F.MAP_OPS
    slot_names = list(F.MAP_OPS)

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def new_feed(self, seed: int) -> F.MapFeed:
        return F.MapFeed(seed, MAP_KEY_BITS, MAP_LIVE_SIZE)

    def inputs(self, feed) -> list[int]:
        return feed.fill_keys()

    def create(self, baseline=None):
        """The empty map under test, or ``baseline()`` when one is given."""
        if baseline is not None:
            return baseline()
        return create_glass(
            key_bits=MAP_KEY_BITS, chunk_bits=MAP_CHUNK_BITS, max_size=MAP_MAX_SIZE
        )

    def build(self, fill, baseline=None):
        """The map filled with ``fill``; only :meth:`create` is set-up,
        the fill is the workload's first phase."""
        m = self.create(baseline)
        value_of = F.MapFeed.value_of
        for key in fill:
            m.insert(key, value_of(key))
        return m

    def oracle(self, fill):
        return self.build(fill, baseline=_RefMapItems)

    def methods(self, m) -> list:
        return [getattr(m, op) for op in self.ops]

    def layers(self, subject):
        return [(None, subject)]

    def not_exercised(self, counts) -> str | None:
        mean = counts.jump_depth_sum / max(counts.jumps, 1)
        if mean >= 1:
            return f"mean jump depth {mean:.2f} chunks: keys share a cached path"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        BookWorkload(
            "book-feed",
            9000,
            False,
            "Default book sides hold every level, so each adjust is a glass "
            "find+erase+insert with a deep cached-path jump and nothing spills.",
        ),
        BookWorkload(
            "book-spill",
            64,
            True,
            "The same feed with the glass bound at 64 levels, well under the "
            "few hundred live per side: preemption, overflow routing, restructure.",
        ),
        MapWorkload(
            "map-uniform",
            "Uniform keys at a constant 7000 live: no cached-path head start, "
            "about 7 pool nodes per new key, a working set of ~50k nodes.",
        ),
    )
}

#: reference maps the same inputs also run through (never gated)
BASELINES = {"rbt": RBMap}
if SortedDictMap is not None:
    BASELINES["sorteddict"] = SortedDictMap
