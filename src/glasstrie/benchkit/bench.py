"""Multi-copy benchmark harness.

Each benchmark applies one workload op-major across ``copies`` identical
structures (all copies see every op before the next op runs), the way a
feed handler fans one message out to many instruments' books. Timed
passes call the structures and nothing else; result checksums come from
a separate untimed pass so they never pollute the measurement. Speedup
ratios are reported against the red-black-tree baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

from ..errors import ConfigError, IntegrityError
from ..glass import create
from ..orderbook import MAX_SIDE, MIN_SIDE, OrderBook
from .amplify import amplify
from .baseline import BaselineBook, RBMap
from .events import ADJUST, ASK, BEST, BID, DEFAULT_ITER_DEPTH, ITER, MarketEvent
from .synth import absent_neighbors, local_price_sequence, market_events

GLASS = "glass"
RBT = "rbt"
STRUCTURES = (GLASS, RBT)

SYNTH_FAMILIES = ("insert", "erase", "find-e", "find-ne")
REPLAY_FAMILIES = ("replay", "replay-iter")
FAMILIES = SYNTH_FAMILIES + REPLAY_FAMILIES

MAX_COPIES = 32
_MASK64 = (1 << 64) - 1
#: every workload's prices are 50-bit, the paper's key width
KEY_BITS = 50
#: a glass book's best-price window: the depth the streams iterate to
BEST_WINDOW = DEFAULT_ITER_DEPTH


def default_iterations(kind: str, copies: int) -> int:
    """The iteration law: 2500/copies synthetic runs, 7500/copies replay."""
    base = 2500 if kind == "synthetic" else 7500
    return base // copies


@dataclass(frozen=True)
class SynthWorkload:
    family: str
    prices: list[int]
    queries: list[int] | None
    max_size: int
    kind: str = "synthetic"


@dataclass(frozen=True)
class ReplayWorkload:
    family: str
    events: list[MarketEvent]
    max_size: int
    kind: str = "replay"


@dataclass(frozen=True)
class BenchResult:
    structure: str
    family: str
    copies: int
    iterations: int
    ops_applied: int
    elapsed_ns: int
    checksum: int

    @property
    def ns_per_op(self) -> float:
        return self.elapsed_ns / max(1, self.ops_applied)


def synth_workload(family: str, seed: int, count: int = 512) -> SynthWorkload:
    if family not in SYNTH_FAMILIES:
        raise ConfigError(f"unknown synthetic family {family!r}")
    prices = local_price_sequence(seed, count, key_bits=KEY_BITS)
    queries = absent_neighbors(prices, key_bits=KEY_BITS) if family == "find-ne" else None
    return SynthWorkload(family, prices, queries, max_size=count)


def replay_workload(
    seed: int = 0,
    count: int = 4000,
    max_size: int = 256,
    events: list[MarketEvent] | None = None,
    amplify_iter: int | None = None,
) -> ReplayWorkload:
    if events is None:
        events = market_events(seed, count, key_bits=KEY_BITS)
    family = "replay"
    if amplify_iter is not None:
        events = amplify(events, amplify_iter)
        family = "replay-iter"
    if not events:
        # a timed pass over nothing would report loop overhead as ns/op
        raise ConfigError(f"no {family} events to replay")
    return ReplayWorkload(family, events, max_size)


def _map_factory(structure: str, workload: SynthWorkload) -> Callable[[], object]:
    if structure == GLASS:
        return lambda: create(
            key_bits=KEY_BITS,
            chunk_bits=5,
            width=32,
            max_size=workload.max_size,
        )
    if structure == RBT:
        return RBMap
    raise ConfigError(f"unknown structure {structure!r}")


def _book_factory(structure: str, workload: ReplayWorkload) -> Callable[[], dict]:
    def glass_pair():
        kw = dict(
            max_size=workload.max_size,
            best_window=BEST_WINDOW,
            key_bits=KEY_BITS,
            chunk_bits=5,
            width=32,
        )
        return {BID: OrderBook(MAX_SIDE, **kw), ASK: OrderBook(MIN_SIDE, **kw)}

    def rbt_pair():
        return {BID: BaselineBook("max"), ASK: BaselineBook("min")}

    if structure == GLASS:
        return glass_pair
    if structure == RBT:
        return rbt_pair
    raise ConfigError(f"unknown structure {structure!r}")


def _fill(subject, prices):
    insert = subject.insert
    for p in prices:
        insert(p, p & 0xFFFF)


def _run_synth(structure: str, w: SynthWorkload, copies: int, iterations: int):
    build = _map_factory(structure, w)
    prices = w.prices
    clock = time.perf_counter_ns
    elapsed = 0
    ops_applied = 0
    family = w.family
    single = copies == 1  # skip the fan-out loop when there is no fan-out
    if family in ("find-e", "find-ne"):
        subjects = [build() for _ in range(copies)]
        for s in subjects:
            _fill(s, prices)
        fns = [s.find for s in subjects]
        queries = prices if family == "find-e" else w.queries
        for q in queries:  # warmup pass, untimed
            for f in fns:
                f(q)
        find = fns[0]
        for _ in range(iterations):
            t0 = clock()
            if single:
                for q in queries:
                    find(q)
            else:
                for q in queries:
                    for f in fns:
                        f(q)
            elapsed += clock() - t0
            ops_applied += len(queries) * copies
    elif family == "insert":
        for _ in range(iterations):
            subjects = [build() for _ in range(copies)]
            fns = [s.insert for s in subjects]
            insert = fns[0]
            t0 = clock()
            if single:
                for p in prices:
                    insert(p, p & 0xFFFF)
            else:
                for p in prices:
                    for f in fns:
                        f(p, p & 0xFFFF)
            elapsed += clock() - t0
            ops_applied += len(prices) * copies
    elif family == "erase":
        for _ in range(iterations):
            subjects = [build() for _ in range(copies)]
            for s in subjects:
                _fill(s, prices)
            fns = [s.erase for s in subjects]
            erase = fns[0]
            t0 = clock()
            if single:
                for p in prices:
                    erase(p)
            else:
                for p in prices:
                    for f in fns:
                        f(p)
            elapsed += clock() - t0
            ops_applied += len(prices) * copies
    else:
        raise ConfigError(f"unknown synthetic family {family!r}")
    return elapsed, ops_applied


def _fold(acc: int, answer) -> int:
    """``acc`` with one answer folded in: None, a bool, an int (a found
    value or a price) or a list of (price, amount) pairs."""
    if answer is None:
        return acc * 3 & _MASK64
    if answer is True or answer is False:
        return (acc * 3 + answer) & _MASK64
    if isinstance(answer, list):
        for price, amount in answer:
            acc = (acc * 3 + price + amount) & _MASK64
        return acc
    return (acc * 3 + answer + 1) & _MASK64


def _synth_checksum(structure: str, w: SynthWorkload) -> int:
    s = _map_factory(structure, w)()
    if w.family == "insert":
        answers = [s.insert(p, p & 0xFFFF) for p in w.prices]
    else:
        _fill(s, w.prices)
        if w.family == "erase":
            answers = [s.erase(p) for p in w.prices]
        else:
            queries = w.prices if w.family == "find-e" else w.queries
            answers = [s.find(q) for q in queries]
    return reduce(_fold, answers, 0)


def _apply_event(books: dict, ev: MarketEvent):
    """Apply one event to its side and return the book's answer."""
    book = books[ev.side]
    op = ev.op
    if op == ADJUST:
        return book.adjust(ev.price, ev.delta)
    if op == BEST:
        return book.best()
    if op == ITER:
        return book.iterate_best(ev.depth)
    return book.next_best_after(ev.price)


def _run_replay(structure: str, w: ReplayWorkload, copies: int, iterations: int):
    build = _book_factory(structure, w)
    events = w.events
    clock = time.perf_counter_ns
    elapsed = 0
    ops_applied = 0
    for _ in range(iterations):
        pairs = [build() for _ in range(copies)]
        t0 = clock()
        for ev in events:
            for books in pairs:
                _apply_event(books, ev)
        elapsed += clock() - t0
        ops_applied += len(events) * copies
    return elapsed, ops_applied


def _replay_checksum(structure: str, w: ReplayWorkload) -> int:
    books = _book_factory(structure, w)()
    return reduce(_fold, (_apply_event(books, ev) for ev in w.events), 0)


def run_bench(
    structure: str,
    workload: SynthWorkload | ReplayWorkload,
    copies: int,
    iterations: int | None = None,
) -> BenchResult:
    """Time one structure on one workload at one copy count."""
    if not 1 <= copies <= MAX_COPIES:
        raise ConfigError(f"copies must be in 1..{MAX_COPIES}, got {copies}")
    if iterations is None:
        iterations = default_iterations(workload.kind, copies)
    iterations = max(1, iterations)
    if isinstance(workload, SynthWorkload):
        elapsed, ops_applied = _run_synth(structure, workload, copies, iterations)
        checksum = _synth_checksum(structure, workload)
    else:
        elapsed, ops_applied = _run_replay(structure, workload, copies, iterations)
        checksum = _replay_checksum(structure, workload)
    return BenchResult(
        structure, workload.family, copies, iterations, ops_applied, elapsed, checksum
    )


@dataclass(frozen=True)
class RatioRow:
    copies: int
    glass_ns: float
    rbt_ns: float

    @property
    def ratio_rbt(self) -> float:
        return self.rbt_ns / self.glass_ns if self.glass_ns else 0.0


def ratio_sweep(
    workload: SynthWorkload | ReplayWorkload,
    copies_list: Sequence[int] = range(1, MAX_COPIES + 1),
    iterations: int | None = None,
) -> list[RatioRow]:
    """Glass-vs-baseline timing over a range of copy counts.

    Checksums of both structures are cross-checked for every copy
    count: a benchmark that computes different answers measures nothing.
    Every copy count is checked against ``1..MAX_COPIES`` before the
    first run, so a bad one cannot throw a finished sweep away.
    """
    bad = [c for c in copies_list if not 1 <= c <= MAX_COPIES]
    if bad:
        raise ConfigError(f"copies must be in 1..{MAX_COPIES}, got {bad}")
    rows = []
    for copies in copies_list:
        results = {
            s: run_bench(s, workload, copies, iterations) for s in STRUCTURES
        }
        sums = {r.checksum for r in results.values()}
        if len(sums) != 1:
            raise IntegrityError(
                f"checksum mismatch across structures at copies={copies}: "
                + ", ".join(f"{s}={r.checksum}" for s, r in results.items())
            )
        rows.append(RatioRow(copies, results[GLASS].ns_per_op, results[RBT].ns_per_op))
    return rows


def ratio_csv(rows: list[RatioRow]) -> str:
    """The ratio-vs-copies table as CSV text, header first."""
    lines = ["copies,glass_ns_per_op,rbt_ns_per_op,ratio_vs_rbt"]
    lines += [f"{r.copies},{r.glass_ns:.1f},{r.rbt_ns:.1f},{r.ratio_rbt:.3f}" for r in rows]
    return "\n".join(lines) + "\n"


def write_ratio_csv(rows: list[RatioRow], path: str):
    with open(path, "w") as f:
        f.write(ratio_csv(rows))
