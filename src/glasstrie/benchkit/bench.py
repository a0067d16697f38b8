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
from typing import Callable, Sequence

from ..errors import ConfigError
from ..glass import create
from ..orderbook import MAX_SIDE, MIN_SIDE, OrderBook
from .amplify import amplify
from .baseline import BaselineBook, RBMap
from .events import ADJUST, ASK, BEST, BID, ITER, NEXT_BEST, MarketEvent
from .synth import absent_neighbors, local_price_sequence, market_events

GLASS = "glass"
RBT = "rbt"
STRUCTURES = (GLASS, RBT)

SYNTH_FAMILIES = ("insert", "erase", "find-e", "find-ne")
REPLAY_FAMILIES = ("replay", "replay-iter")
FAMILIES = SYNTH_FAMILIES + REPLAY_FAMILIES

MAX_COPIES = 32
_MASK64 = (1 << 64) - 1


def default_iterations(kind: str, copies: int) -> int:
    """The iteration law: 2500/copies synthetic runs, 7500/copies replay."""
    base = 2500 if kind == "synthetic" else 7500
    return base // copies


@dataclass(frozen=True)
class SynthWorkload:
    family: str
    prices: list[int]
    queries: list[int] | None
    key_bits: int
    max_size: int
    kind: str = "synthetic"


@dataclass(frozen=True)
class ReplayWorkload:
    family: str
    events: list[MarketEvent]
    key_bits: int
    max_size: int
    best_window: int
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


def synth_workload(
    family: str,
    seed: int,
    count: int = 512,
    key_bits: int = 50,
) -> SynthWorkload:
    if family not in SYNTH_FAMILIES:
        raise ConfigError(f"unknown synthetic family {family!r}")
    prices = local_price_sequence(seed, count, key_bits=key_bits)
    queries = absent_neighbors(prices, key_bits=key_bits) if family == "find-ne" else None
    return SynthWorkload(family, prices, queries, key_bits, max_size=count)


def replay_workload(
    seed: int = 0,
    count: int = 4000,
    key_bits: int = 50,
    max_size: int = 256,
    best_window: int = 25,
    events: list[MarketEvent] | None = None,
    amplify_iter: int | None = None,
) -> ReplayWorkload:
    if events is None:
        events = market_events(seed, count, key_bits=key_bits, iter_depth=best_window)
    family = "replay"
    if amplify_iter is not None:
        events = amplify(events, amplify_iter, ITER)
        family = "replay-iter"
    return ReplayWorkload(family, events, key_bits, max_size, best_window)


def _map_factory(structure: str, workload: SynthWorkload) -> Callable[[], object]:
    if structure == GLASS:
        return lambda: create(
            key_bits=workload.key_bits,
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
            best_window=workload.best_window,
            key_bits=workload.key_bits,
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


def _synth_checksum(structure: str, w: SynthWorkload) -> int:
    s = _map_factory(structure, w)()
    acc = 0
    if w.family == "insert":
        for p in w.prices:
            acc = (acc * 3 + s.insert(p, p & 0xFFFF)) & _MASK64
    elif w.family == "erase":
        _fill(s, w.prices)
        for p in w.prices:
            acc = (acc * 3 + s.erase(p)) & _MASK64
    else:
        _fill(s, w.prices)
        queries = w.prices if w.family == "find-e" else w.queries
        for q in queries:
            v = s.find(q)
            acc = (acc * 3 + (v + 1 if v is not None else 0)) & _MASK64
    return acc


def _apply_event(books: dict, ev: MarketEvent):
    book = books[ev.side]
    op = ev.op
    if op == ADJUST:
        book.adjust(ev.price, ev.delta)
    elif op == BEST:
        book.best()
    elif op == ITER:
        book.iterate_best(ev.depth)
    elif op == NEXT_BEST:
        book.next_best_after(ev.price)


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
    acc = 0
    for ev in w.events:
        book = books[ev.side]
        if ev.op == ADJUST:
            book.adjust(ev.price, ev.delta)
        elif ev.op == BEST:
            best = book.best()
            acc = (acc * 3 + (best + 1 if best is not None else 0)) & _MASK64
        elif ev.op == ITER:
            for price, amount in book.iterate_best(ev.depth):
                acc = (acc * 3 + price + amount) & _MASK64
        elif ev.op == NEXT_BEST:
            nb = book.next_best_after(ev.price)
            acc = (acc * 3 + (nb + 1 if nb is not None else 0)) & _MASK64
    return acc


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


def best_of(
    structure: str,
    workload: SynthWorkload | ReplayWorkload,
    copies: int,
    iterations: int | None = None,
    reps: int = 5,
) -> BenchResult:
    """Fastest of ``reps`` identical runs.

    Interpreter timing on a shared machine is noisy in one direction
    only (preemption, frequency dips), so the minimum is the honest
    estimate of the structure's cost.
    """
    results = [run_bench(structure, workload, copies, iterations) for _ in range(reps)]
    return min(results, key=lambda r: r.ns_per_op)


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
            raise AssertionError(
                f"checksum mismatch across structures at copies={copies}: "
                + ", ".join(f"{s}={r.checksum}" for s, r in results.items())
            )
        rows.append(RatioRow(copies, results[GLASS].ns_per_op, results[RBT].ns_per_op))
    return rows


def write_ratio_csv(rows: list[RatioRow], path: str, family: str = ""):
    with open(path, "w") as f:
        f.write("copies,glass_ns_per_op,rbt_ns_per_op,ratio_vs_rbt\n")
        for r in rows:
            f.write(f"{r.copies},{r.glass_ns:.1f},{r.rbt_ns:.1f},{r.ratio_rbt:.3f}\n")
