"""Per-layer tracing from outside the package.

Two instruments replace bound methods on the instances under test with
wrappers (instance attributes shadow the class methods, and every layer
calls the next one through an attribute of the instance), so no file of
the package is edited:

* :class:`SpanRecorder` times each call as a span and derives each span
  name's self time: its duration minus the time its child spans cover,
  minus the calibrated cost of tracing itself;
* :class:`LayerCounts` counts what each layer did, with no timing, so
  its bookkeeping never pollutes a self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass

from glasstrie.benchkit.probability import dunno_prob_absent, dunno_prob_present
from glasstrie.bitops import common_prefix_chunks
from glasstrie.cachetable import ABSENT, DONT_KNOW, PROBE_LIMIT

#: methods wrapped per layer (layer names match the package's modules)
SPAN_METHODS = {
    # the book's own find/insert/erase stay inside adjust's self time:
    # routing and preemption are the orderbook layer's work
    "orderbook": ("adjust", "best", "iterate_best", "next_best_after", "restructure"),
    "glass": ("find", "insert", "erase", "next", "prev", "min", "max",
              "first_items"),
    "cachetable": ("insert", "remove", "maybe_grow", "grow"),
    "nodepool": ("allocate", "allocate_many", "deallocate"),
}

#: calls of an empty function each calibration times, plain and traced
CALIBRATION_CALLS = 2_000

#: fields of one kept span, in the order they are stored
SPAN_FIELDS = ("span", "parent", "request", "name", "start_ns", "end_ns")


@dataclass(frozen=True)
class Calibration:
    """Cost of one span, split where it lands.

    ``outer_ns`` is spent outside the recorded interval and shows up in
    the caller's duration; ``inner_ns`` is spent inside it and shows up
    in the span's own duration.
    """

    outer_ns: float
    inner_ns: float

    @property
    def span_ns(self) -> float:
        return self.outer_ns + self.inner_ns

    def scaled(self, span_ns: float) -> Calibration:
        """The same split between outer and inner at a total of ``span_ns``."""
        outer_share = min(max(self.outer_ns / self.span_ns, 0.0), 1.0)
        return Calibration(span_ns * outer_share, span_ns * (1 - outer_share))


class SpanRecorder:
    """Spans around bound methods, aggregated per name as they close.

    The first ``keep`` spans are also kept whole, for writing out; the
    aggregates cover every span. ``request`` is set by the replay loop
    to the index of the event being served, so the spans of one event
    share it. The root frame stands for the replay loop itself.
    """

    def __init__(self, keep: int = 50_000, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.duration: list[int] = []
        self.child_time: list[int] = []
        self.children: list[int] = []
        # [time covered by child spans, number of child spans, span index]
        self.root = [0, 0, -1]
        self._stack = [self.root]
        self.opened = 0
        self.request = 0
        self.kept = array("q")
        self.keep = keep

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for agg in (self.calls, self.duration, self.child_time, self.children):
                agg.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        stack = self._stack
        clock = self.clock
        calls, duration = self.calls, self.duration
        child_time, children = self.child_time, self.children
        kept = self.kept
        limit = self.keep * len(SPAN_FIELDS)
        rec = self

        def span(*args):
            idx = rec.opened
            rec.opened = idx + 1
            frame = [0, 0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent = stack[-1]
                parent[0] += d
                parent[1] += 1
                calls[nid] += 1
                duration[nid] += d
                child_time[nid] += frame[0]
                children[nid] += frame[1]
                if len(kept) < limit:
                    kept.extend((idx, parent[2], rec.request, nid, t0, t1))

        return span

    def instrument(self, layer: str, obj):
        for method in SPAN_METHODS[layer]:
            setattr(obj, method, self.wrap(f"{layer}.{method}", getattr(obj, method)))

    def self_times(self, cal: Calibration) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self ns), tracing cost taken out."""
        out = {}
        for nid, name in enumerate(self.names):
            own = (self.duration[nid] - self.child_time[nid]
                   - self.children[nid] * cal.outer_ns - self.calls[nid] * cal.inner_ns)
            out[name] = (self.calls[nid], own)
        return out

    def loop_self(self, wall_ns: int, cal: Calibration) -> float:
        """The replay loop's own time: wall time not covered by top spans."""
        return wall_ns - self.root[0] - self.root[1] * cal.outer_ns

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write(",".join(SPAN_FIELDS) + "\n")
            kept = self.kept
            width = len(SPAN_FIELDS)
            for i in range(0, len(kept), width):
                idx, parent, request, nid, t0, t1 = kept[i:i + width]
                fh.write(f"{idx},{parent},{request},{self.names[nid]},{t0},{t1}\n")


def calibrate() -> Calibration:
    """Measure the cost of a span around an empty one-argument function
    against the same plain call.

    Real calls cost more to trace (real arguments, colder caches, spans
    kept for writing out), so the total understates the cost of a span;
    its split between outer and inner is what a traced run keeps.
    """

    def work(x):
        return x

    calls = CALIBRATION_CALLS
    clock = time.perf_counter_ns
    rec = SpanRecorder(keep=0)
    wrapped = rec.wrap("work", work)
    t = clock()
    for i in range(calls):
        work(i)
    plain = (clock() - t) / calls
    t = clock()
    for i in range(calls):
        wrapped(i)
    traced = (clock() - t) / calls
    recorded = rec.duration[0] / calls
    return Calibration(traced - recorded, recorded - plain)


class LayerCounts:
    """Counts of each layer's work, taken at the same method boundaries.

    The cache-table probe is inlined in ``Glass.find``/``erase``, so
    before each of those calls an untimed shadow probe asks the table
    the same question and the answer is counted. Jump depths are the
    leading chunks a key shares with the previous key inserted into the
    same glass; node counts are ``live_count`` deltas around each call,
    which also catch the free-list pop ``Glass.insert`` does inline.
    """

    def __init__(self):
        self.routed = 0
        self.overflow_routed = 0
        self.preemptions = 0
        self.restructures = 0
        self.levels_moved = 0
        self.probes = 0
        self.hits = 0
        self.absents = 0
        self.dont_knows = 0
        self.probe_steps = 0
        self.jumps = 0
        self.jump_depth_sum = 0
        self.inserts = 0
        self.erases = 0
        self.nodes_allocated = 0
        self.nodes_freed = 0
        self.items = 0
        self.grows = 0
        self.live_peak = 0
        self.pools = []
        self.tables = []

    # -- order book -------------------------------------------------------

    def instrument_book(self, book):
        counts = self

        def to_glass(price):
            return book.threshold is None or book.better(price, book.threshold)

        def routed(fn):
            def call(price, *args):
                counts.routed += 1
                if not to_glass(price):
                    counts.overflow_routed += 1
                return fn(price, *args)
            return call

        insert = book.insert

        def book_insert(price, amount):
            counts.routed += 1
            if not to_glass(price):
                counts.overflow_routed += 1
            elif book.glass.size >= book.max_size:
                counts.preemptions += 1
            return insert(price, amount)

        restructure = book.restructure

        def book_restructure():
            counts.restructures += 1
            before = book.glass.size
            try:
                return restructure()
            finally:
                counts.levels_moved += book.glass.size - before

        book.find = routed(book.find)
        book.erase = routed(book.erase)
        book.insert = book_insert
        book.restructure = book_restructure

    # -- glass, its table and its pool -------------------------------------

    def instrument_glass(self, glass):
        counts = self
        geo = glass.geo
        cap = geo.levels - 1
        pool = glass.pool
        table = glass.table
        shift = geo.chunk_bits
        pools = self.pools
        pools.append(pool)
        self.tables.append(table)
        last = [None]

        def jump(key):
            if last[0] is not None:
                counts.jumps += 1
                counts.jump_depth_sum += min(common_prefix_chunks(last[0], key, geo), cap)

        def probe(key):
            answer = table.lookup(key >> shift)
            counts.probes += 1
            counts.probe_steps += table.last_probes
            if answer == ABSENT:
                counts.absents += 1
            elif answer == DONT_KNOW:
                counts.dont_knows += 1
            else:
                counts.hits += 1

        def peak():
            live = sum(p.live_count for p in pools)
            if live > counts.live_peak:
                counts.live_peak = live

        find, insert, erase = glass.find, glass.insert, glass.erase

        def glass_find(key):
            jump(key)
            probe(key)
            return find(key)

        def glass_insert(key, value):
            jump(key)
            before = pool.live_count
            done = insert(key, value)
            last[0] = key
            if done:
                counts.inserts += 1
                counts.nodes_allocated += pool.live_count - before
                peak()
            return done

        def glass_erase(key):
            jump(key)
            probe(key)
            before = pool.live_count
            done = erase(key)
            if done:
                counts.erases += 1
                counts.nodes_freed += before - pool.live_count
            return done

        def keyed(fn):
            def call(key):
                jump(key)
                return fn(key)
            return call

        first_items = glass.first_items

        def glass_first_items(count, descending=False):
            out = first_items(count, descending)
            counts.items += len(out)
            return out

        grow = table.grow

        def table_grow():
            counts.grows += 1
            return grow()

        glass.find = glass_find
        glass.insert = glass_insert
        glass.erase = glass_erase
        glass.next = keyed(glass.next)
        glass.prev = keyed(glass.prev)
        glass.first_items = glass_first_items
        table.grow = table_grow
        peak()

    # -- derived figures ---------------------------------------------------

    def dont_know_model(self) -> float:
        """The paper's don't-know probability at the measured table load,
        weighted by the measured shares of present and absent prefixes."""
        n = sum(t.count for t in self.tables)
        buckets = sum(t.bucket_count for t in self.tables)
        decided = self.hits + self.absents
        if n == 0 or decided == 0:
            return 0.0
        present = self.hits / decided
        model = (present * dunno_prob_present(n, buckets, PROBE_LIMIT)
                 + (1 - present) * dunno_prob_absent(n, buckets, PROBE_LIMIT))
        return max(model, 0.0)  # the present-key formula can round below 0

    def array_bytes(self) -> int:
        """Bytes the pools' arrays hold, as ``sys.getsizeof`` sees them."""
        total = 0
        for p in self.pools:
            for arr in (p.mask, p.parent, p.chain_next, p.chain_prev,
                        p.cache_key, p.free_link, p.children, p.values):
                total += sys.getsizeof(arr)
        return total
