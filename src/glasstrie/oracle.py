"""Reference implementations and differential-fuzz drivers.

``RefMap`` is the ground truth for the ordered-map ADT: a dict plus a
bisect-maintained sorted key list, slow but obviously correct. Traces
of operations are generated deterministically from a seed, so a seed
is all it takes to replay one, and applied in lockstep to a glass and
the reference; the first divergence is raised with full context.
``OracleBook`` is the reference book side: a ``BaselineBook`` over a
RefMap, which ``fuzz_orderbook`` drives beside a book of the same side.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterable, Iterator as TIterator

from .benchkit.baseline import BaselineBook
from .cachetable import CacheTable
from .errors import IntegrityError, MalformedEvent, PriceTooFar
from .glass import Glass, create

UNIFORM = "uniform"
LOCAL = "local"

#: trace op kinds
OP_INSERT = "I"
OP_ERASE = "E"
OP_FIND = "F"
OP_MIN = "MIN"
OP_MAX = "MAX"
OP_NEXT = "N"
OP_PREV = "P"


class RefMap:
    """Textbook ordered map: insert-if-absent, erase, find, min, max,
    strict next/prev. ``None`` plays the blank symbol."""

    def __init__(self):
        self._data: dict[int, object] = {}
        self._keys: list[int] = []

    def __len__(self):
        return len(self._data)

    def insert(self, key: int, value) -> bool:
        if key in self._data:
            return False
        self._data[key] = value
        bisect.insort(self._keys, key)
        return True

    def erase(self, key: int) -> bool:
        if key not in self._data:
            return False
        del self._data[key]
        del self._keys[bisect.bisect_left(self._keys, key)]
        return True

    def find(self, key: int):
        return self._data.get(key)

    def min(self) -> int | None:
        return self._keys[0] if self._keys else None

    def max(self) -> int | None:
        return self._keys[-1] if self._keys else None

    def next(self, key: int) -> int | None:
        i = bisect.bisect_right(self._keys, key)
        return self._keys[i] if i < len(self._keys) else None

    def prev(self, key: int) -> int | None:
        i = bisect.bisect_left(self._keys, key)
        return self._keys[i - 1] if i > 0 else None

    def keys(self) -> list[int]:
        return list(self._keys)

    def first_items(self, count: int, descending: bool = False) -> list[tuple[int, object]]:
        """Up to ``count`` (key, value) pairs from the ordered end, as
        ``Glass.first_items`` gives them."""
        if count <= 0:
            return []
        keys = self._keys[:-count - 1:-1] if descending else self._keys[:count]
        data = self._data
        return [(k, data[k]) for k in keys]

    def rank(self, key: int) -> int:
        """0-based position of ``key`` in sorted order."""
        return bisect.bisect_left(self._keys, key)


def ref_apply(ref, op: tuple):
    """Apply one trace op to any map with the RefMap interface."""
    kind = op[0]
    if kind == OP_INSERT:
        return ref.insert(op[1], op[2])
    if kind == OP_ERASE:
        return ref.erase(op[1])
    if kind == OP_FIND:
        return ref.find(op[1])
    if kind == OP_MIN:
        return ref.min()
    if kind == OP_MAX:
        return ref.max()
    if kind == OP_NEXT:
        return ref.next(op[1])
    if kind == OP_PREV:
        return ref.prev(op[1])
    raise MalformedEvent(f"unknown trace op {op!r}")


#: the walks' default step parameter: about 80% of the steps have
#: magnitude five or below, the tight clustering of successive market
#: prices around each other
STEP_P = 0.2752


def geometric_step(rng: random.Random, p: float = STEP_P) -> int:
    """Nonzero symmetric step whose magnitude is geometric."""
    mag = 1
    while rng.random() >= p:
        mag += 1
    return mag if rng.random() < 0.5 else -mag


def walk_step(rng: random.Random, key: int, hi: int, p: float = STEP_P) -> int:
    """``key`` moved by one ``geometric_step``, the step redrawn until
    the result stays in ``[0, hi]`` (the walk reflects at the edges)."""
    while True:
        step = geometric_step(rng, p)
        if 0 <= key + step <= hi:
            return key + step


@dataclass
class OpTrace:
    """Replayable op sequence: same parameters, same ops, every time."""

    seed: int
    shape: str = LOCAL
    length: int = 10_000
    key_bits: int = 16
    size_cap: int = 1024
    mix: tuple[float, float, float, float, float] = (0.34, 0.26, 0.16, 0.08, 0.16)
    #: cumulative weights for insert / erase / find / min+max / next+prev

    def __iter__(self) -> TIterator[tuple]:
        return gen_ops(self)

    def materialize(self) -> list[tuple]:
        return list(gen_ops(self))


def gen_ops(trace: OpTrace) -> TIterator[tuple]:
    """Yield the ops of a trace.

    LOCAL draws successive keys by small nonzero steps from the previous
    key (reflecting at the key-space edges); UNIFORM draws keys
    uniformly. The generator tracks which keys it has inserted so it can
    keep the live size near size_cap without consulting the structure
    under test.
    """
    rng = random.Random(trace.seed)
    hi = (1 << trace.key_bits) - 1
    key = hi // 2
    present: set[int] = set()
    present_list: list[int] = []
    w_ins, w_era, w_find, w_edge, w_nbr = trace.mix

    def next_key() -> int:
        nonlocal key
        if trace.shape == UNIFORM:
            key = rng.randint(0, hi)
        else:
            key = walk_step(rng, key, hi)
        return key

    for i in range(trace.length):
        r = rng.random()
        if len(present) >= trace.size_cap:
            r = w_ins + 0.001  # force a non-insert op while saturated
        if r < w_ins:
            k = next_key()
            if k not in present:
                present.add(k)
                present_list.append(k)
            yield (OP_INSERT, k, k * 31 & 0xFFFF)
        elif r < w_ins + w_era:
            if present and rng.random() < 0.7:
                k = present_list[rng.randrange(len(present_list))]
                if k not in present:
                    k = next_key()
            else:
                k = next_key()
            present.discard(k)
            yield (OP_ERASE, k)
        elif r < w_ins + w_era + w_find:
            yield (OP_FIND, next_key())
        elif r < w_ins + w_era + w_find + w_edge:
            yield (OP_MIN,) if rng.random() < 0.5 else (OP_MAX,)
        else:
            k = next_key()
            yield (OP_NEXT, k) if rng.random() < 0.5 else (OP_PREV, k)


def gen_trace(seed: int, shape: str = LOCAL, length: int = 10_000, **kw) -> OpTrace:
    if shape not in (LOCAL, UNIFORM):
        raise MalformedEvent(f"unknown trace shape {shape!r}")
    return OpTrace(seed=seed, shape=shape, length=length, **kw)


@dataclass(frozen=True)
class FeatureConfig:
    """One way a glass can be built: with the default cache table
    (``buckets`` None) or with a table of ``buckets`` buckets."""

    buckets: int | None = None
    key_bits: int = 16
    chunk_bits: int = 4
    width: int = 32

    def build(self, max_size: int) -> Glass:
        g = create(
            key_bits=self.key_bits,
            chunk_bits=self.chunk_bits,
            width=self.width,
            max_size=max_size,
        )
        if self.buckets is None:
            return g
        return Glass(g.geo, g.pool, max_size, table=CacheTable(g.pool, self.buckets))

    @property
    def label(self) -> str:
        return f"buckets={'default' if self.buckets is None else self.buckets}"


def all_feature_configs(**kw) -> list[FeatureConfig]:
    """The glass with its default cache table and with a one-bucket one.

    The default table almost never answers don't-know, so a one-bucket
    table, whose one chain holds every pre-leaf, is the deterministic
    way to send lookups through the probe's don't-know into the descent
    arm of ``_preleaf_of`` and ``find``'s fall-through. Both are fuzzed.
    """
    return [FeatureConfig(buckets=b, **kw) for b in (None, 1)]


class Divergence(IntegrityError):
    """The first op at which a structure answered other than the
    reference: its trace index, the op, and both answers."""

    def __init__(self, index: int, op: tuple, expected, got):
        super().__init__(
            f"op #{index} {op!r}: reference returned {expected!r}, "
            f"structure returned {got!r}"
        )
        self.index = index
        self.op = op
        self.expected = expected
        self.got = got


def fuzz_run(
    config: FeatureConfig,
    trace: OpTrace | Iterable[tuple],
    structure=None,
    check_every: int = 0,
) -> None:
    """Apply a trace to a glass and a RefMap in lockstep.

    Raises the first divergence as a ``Divergence``, also under
    ``python -O``; returns None when every result matched.
    ``structure`` overrides the glass under test (harness self-tests);
    ``check_every`` > 0 additionally runs the full structural-integrity
    walk at that op interval and compares the cached edges with the
    reference there, as every MIN and MAX op does. The ordered walks
    are compared with the reference at each such point and after the
    last op.
    """
    size_cap = trace.size_cap if isinstance(trace, OpTrace) else None
    g = structure
    if g is None:
        max_size = 1 << config.key_bits
        if size_cap is not None:
            max_size = min(max_size, max(size_cap * 2, 64))
        g = config.build(max_size)
    ref = RefMap()
    i = -1
    for i, op in enumerate(trace):
        expected = ref_apply(ref, op)
        got = ref_apply(g, op)
        if got != expected:
            raise Divergence(i, op, expected, got)
        if op[0] == OP_MIN or op[0] == OP_MAX:
            _check_edges(g, ref, i)
        if check_every and i % check_every == 0:
            g.check_integrity()
            _check_edges(g, ref, i)
            _check_walks(g, ref, i)
    _check_walks(g, ref, i + 1)


def _check_walks(g: Glass, ref: RefMap, index: int):
    """``first_items`` over every element in both directions against the
    reference's (key, value) pairs; raises the first mismatch."""
    for descending in (False, True):
        want = ref.first_items(len(ref), descending)
        got = g.first_items(len(g), descending)
        if got != want:
            raise Divergence(index, ("first_items", descending), want, got)


def _check_edges(g: Glass, ref: RefMap, index: int):
    """The ``min()`` and ``max()`` keys, each then with the one pair
    ``first_items`` reads through the cached pre-leaf, against the
    reference's; a key alone would pass an edge cached on a wrong
    pre-leaf. Raises the first mismatch."""
    for name, descending in (("min", False), ("max", True)):
        want = getattr(ref, name)()
        got = getattr(g, name)()
        if got == want:
            want = ref.first_items(1, descending)
            got = g.first_items(1, descending)
        if got != want:
            raise Divergence(index, (name,), want, got)


# -- order-book oracle ----------------------------------------------------


class OracleBook(BaselineBook):
    """Unbounded reference book side: a ``BaselineBook`` over a RefMap of
    price -> amount, plus rank queries."""

    def __init__(self, side: str):
        super().__init__(side, RefMap)

    def rank(self, price: int) -> int:
        """0-based rank counting from the best price."""
        m = self.levels_map
        if self.side == "min":
            return m.rank(price)
        return len(m) - 1 - m.rank(price)


#: share of a book stream's adjusts that remove a whole edge level, the
#: lowest or the highest price, so the best moves on either side
EDGE_REMOVE_RATE = 0.05
#: a book stream's prices lie in ``[0, 2**BOOK_KEY_BITS)``
BOOK_KEY_BITS = 20
#: a book stream's op mix: adjusts, next-best probes, best queries
#: (``BEST_WEIGHT``) and iterations (the rest)
ADJUST_WEIGHT = 0.62
PROBE_WEIGHT = 0.10
BEST_WEIGHT = 0.14


def gen_book_ops(seed: int, length: int, max_depth: int = 25) -> TIterator[tuple]:
    """Deterministic market-like op stream for one book side.

    Yields ('A', price, delta) adjusts whose deltas are valid against
    the stream's own simulated book, ('B',) best queries, ('T', depth)
    iterations, and ('NB', price) next-best probes at present prices.
    Prices random-walk with small nonzero steps (sequential locality).
    A walk leaves the levels behind it in place, so one side's best
    would barely move; ``EDGE_REMOVE_RATE`` of the adjusts instead
    remove the lowest or the highest level, half each.
    """
    rng = random.Random(seed)
    hi = (1 << BOOK_KEY_BITS) - 1
    price = hi // 2
    amounts: dict[int, int] = {}
    for _ in range(length):
        r = rng.random()
        if r < ADJUST_WEIGHT or not amounts:
            if amounts and rng.random() < EDGE_REMOVE_RATE:
                edge = min(amounts) if rng.random() < 0.5 else max(amounts)
                yield ("A", edge, -amounts.pop(edge))
                continue
            price = walk_step(rng, price, hi)
            have = amounts.get(price, 0)
            if have and rng.random() < 0.45:
                delta = -have if rng.random() < 0.6 else -rng.randint(1, have)
            else:
                delta = rng.randint(1, 50)
            new_amount = have + delta
            if new_amount == 0:
                del amounts[price]
            else:
                amounts[price] = new_amount
            yield ("A", price, delta)
        elif r < ADJUST_WEIGHT + PROBE_WEIGHT:
            pool = list(amounts)
            yield ("NB", pool[rng.randrange(len(pool))])
        elif r < ADJUST_WEIGHT + PROBE_WEIGHT + BEST_WEIGHT:
            yield ("B",)
        else:
            yield ("T", rng.randint(1, max_depth))


def _fast_partition_check(book, oracle: OracleBook):
    """Constant-cost partition checks, sound because the sides are
    sorted: all glass prices beat the threshold iff the worst one does,
    and the best spilled price is the oracle's next rank after the
    glass contents. Raises IntegrityError, also under ``python -O``."""
    glass = book.glass
    size = glass.size
    spilled = len(book) - size
    if size > book.max_size:
        raise IntegrityError(f"glass holds {size} levels, over its {book.max_size}")
    if (book.threshold is None) != (spilled == 0):
        raise IntegrityError(f"threshold {book.threshold} with {spilled} spilled levels")
    if size + spilled != len(oracle):
        raise IntegrityError(f"book holds {size + spilled} levels, oracle {len(oracle)}")
    if book.threshold is not None:
        if size:  # a drained glass with a set threshold is legal
            worst = glass.max() if book.side == "min" else glass.min()
            if not book.better(worst, book.threshold):
                raise IntegrityError(
                    f"glass level {worst} does not beat threshold {book.threshold}"
                )
        spill_best = oracle.iterate_best(size + 1)[size][0]
        if book.better(spill_best, book.threshold):
            raise IntegrityError(
                f"spilled level {spill_best} beats threshold {book.threshold}"
            )


def fuzz_orderbook(
    book,
    ops: Iterable[tuple],
    check_every: int = 1,
    deep_every: int | None = None,
) -> int:
    """Drive a book and an oracle of the book's side in lockstep; raise
    IntegrityError on any mismatch, also under ``python -O``.

    The partition invariant is checked every ``check_every`` ops in its
    constant-cost form; the full walking check, the partition's and the
    glass's own (trie, cache-table count, cached path), runs every
    ``deep_every`` ops (defaults to ``check_every``). Next-best probes
    may range past the book's supported window: those only check the
    too-far guard (raises exactly when the sought rank is at or past the
    glass capacity while the glass is saturated); the in-window ones
    must also return the oracle's answer. Returns the count of guard
    trips.
    """
    if deep_every is None:
        deep_every = check_every
    oracle = OracleBook(book.side)
    too_far = 0
    cap = book.max_size
    window = book.best_window
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "A":
            book.adjust(op[1], op[2])
            oracle.adjust(op[1], op[2])
        elif kind == "B":
            got, want = book.best(), oracle.best()
            if got != want:
                raise IntegrityError(f"op #{i} {op!r}: best {got!r}, oracle {want!r}")
        elif kind == "T":
            depth = min(op[1], window)
            got, want = book.iterate_best(depth), oracle.iterate_best(depth)
            if got != want:
                raise IntegrityError(f"op #{i} {op!r}: levels {got!r}, oracle {want!r}")
        elif kind == "NB":
            price = op[1]
            sought = oracle.rank(price) + 1
            saturated = book.glass.size == cap and len(book) > cap
            try:
                got = book.next_best_after(price)
            except PriceTooFar:
                too_far += 1
                if sought < cap:
                    raise IntegrityError(f"op #{i}: guard fired for in-window rank {sought}")
            else:
                if sought >= cap and saturated and sought < len(oracle):
                    raise IntegrityError(
                        f"op #{i}: rank {sought} beyond capacity {cap} not rejected"
                    )
                if sought <= window:
                    want = oracle.next_best_after(price)
                    if got != want:
                        raise IntegrityError(
                            f"op #{i} {op!r}: next best {got!r}, oracle {want!r}"
                        )
        if check_every and i % check_every == 0:
            _fast_partition_check(book, oracle)
            if deep_every and i % deep_every == 0:
                book.check_invariants()
                book.glass.check_integrity(deep=False)
                if len(book) != len(oracle):
                    raise IntegrityError(f"op #{i}: book holds {len(book)} levels, "
                                         f"oracle {len(oracle)}")
    levels = sorted(dict(book.levels()).items())
    want = oracle.levels_map.first_items(len(oracle))
    if levels != want:
        raise IntegrityError(f"book levels {levels!r} differ from the oracle's {want!r}")
    return too_far
