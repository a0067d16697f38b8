from __future__ import annotations

import hashlib
import random
import statistics

import pytest

from glasstrie.benchkit.synth import absent_neighbors, local_price_sequence, market_events
from glasstrie.cachetable import DONT_KNOW
from glasstrie.errors import IntegrityError, MalformedEvent
from glasstrie.oracle import (
    LOCAL,
    UNIFORM,
    Divergence,
    FeatureConfig,
    OpTrace,
    RefMap,
    all_feature_configs,
    fuzz_run,
    gen_book_ops,
    gen_trace,
    geometric_step,
    ref_apply,
)


class NaiveMap:
    """Second, even simpler reference used to validate RefMap itself:
    an unsorted list of pairs with linear scans everywhere."""

    def __init__(self):
        self._pairs: list[tuple[int, object]] = []

    def insert(self, key, value):
        if any(k == key for k, _ in self._pairs):
            return False
        self._pairs.append((key, value))
        return True

    def erase(self, key):
        for i, (k, _) in enumerate(self._pairs):
            if k == key:
                del self._pairs[i]
                return True
        return False

    def find(self, key):
        for k, v in self._pairs:
            if k == key:
                return v
        return None

    def min(self):
        return min((k for k, _ in self._pairs), default=None)

    def max(self):
        return max((k for k, _ in self._pairs), default=None)

    def next(self, key):
        return min((k for k, _ in self._pairs if k > key), default=None)

    def prev(self, key):
        return max((k for k, _ in self._pairs if k < key), default=None)


class TestRefMap:
    def test_blank_symbol_on_empty(self):
        ref = RefMap()
        assert ref.min() is None
        assert ref.max() is None
        assert ref.find(1) is None

    def test_insert_existing_is_noop(self):
        ref = RefMap()
        assert ref.insert(4, "a")
        assert not ref.insert(4, "b")
        assert ref.find(4) == "a"

    def test_next_of_absent_key(self):
        ref = RefMap()
        for k in (10, 20, 30):
            ref.insert(k, k)
        assert ref.next(15) == 20
        assert ref.prev(15) == 10
        assert ref.next(30) is None

    @pytest.mark.parametrize("count", [-1, 0, 1, 3, 5, 9])
    def test_first_items_matches_the_glass(self, count):
        ref, g = RefMap(), FeatureConfig().build(64)
        for k in (40, 7, 23, 61, 15):
            ref.insert(k, -k)
            g.insert(k, -k)
        for descending in (False, True):
            assert ref.first_items(count, descending) == g.first_items(count, descending)

    def test_against_naive_map(self):
        rng = random.Random(42)
        ref, naive = RefMap(), NaiveMap()
        for _ in range(10_000):
            r = rng.random()
            k = rng.randrange(512)
            if r < 0.4:
                assert ref.insert(k, k) == naive.insert(k, k)
            elif r < 0.65:
                assert ref.erase(k) == naive.erase(k)
            elif r < 0.8:
                assert ref.find(k) == naive.find(k)
            elif r < 0.9:
                assert ref.min() == naive.min()
                assert ref.max() == naive.max()
            else:
                assert ref.next(k) == naive.next(k)
                assert ref.prev(k) == naive.prev(k)


class TestTraceGeneration:
    def test_deterministic(self):
        a = gen_trace(7, LOCAL, 2000).materialize()
        b = gen_trace(7, LOCAL, 2000).materialize()
        assert a == b

    def test_local_steps_never_zero(self):
        rng = random.Random(1)
        assert all(geometric_step(rng) != 0 for _ in range(10_000))

    def test_local_walk_never_repeats_consecutively(self):
        trace = OpTrace(seed=3, shape=LOCAL, length=5000, mix=(1.0, 0, 0, 0, 0))
        keys = [op[1] for op in trace]
        assert all(a != b for a, b in zip(keys, keys[1:]))

    def test_local_median_step_is_small(self):
        rng = random.Random(9)
        steps = [abs(geometric_step(rng)) for _ in range(20_000)]
        assert statistics.median(steps) <= 10

    def test_uniform_covers_range(self):
        trace = OpTrace(seed=5, shape=UNIFORM, length=4000, key_bits=16,
                        mix=(1.0, 0, 0, 0, 0))
        keys = [op[1] for op in trace]
        assert max(keys) > 3 * (1 << 14) and min(keys) < (1 << 14)

    def test_unknown_shape_rejected(self):
        with pytest.raises(MalformedEvent):
            gen_trace(1, "zipf", 10)


def _market_tuples(events):
    return [(e.op, e.side, e.price, e.delta, e.depth) for e in events]


#: the first 16 hex digits of sha256(repr(list(stream))) for streams the
#: fuzz gates and criterion 9 read; a change to a generator's draws or
#: defaults moves them
STREAM_DIGESTS = {
    "local-trace": (lambda: gen_trace(101, LOCAL, 5000, key_bits=16, size_cap=1024),
                    "017a76b470ba992f"),
    "uniform-trace": (lambda: gen_trace(202, UNIFORM, 5000, key_bits=16, size_cap=1024),
                      "1506d611983a134a"),
    "book-ops": (lambda: gen_book_ops(seed=964, length=5000, max_depth=25),
                 "d2f3dc2fd9f5f006"),
    "market-events": (lambda: _market_tuples(market_events(23, 1500, key_bits=50)),
                      "ae645ed66861ee2e"),
    "price-sequence": (lambda: local_price_sequence(17, 2048, key_bits=50),
                       "eaef4baca3326b64"),
    "absent-neighbors": (lambda: absent_neighbors(local_price_sequence(17, 512, key_bits=50),
                                                  key_bits=50),
                         "8a370b973b6a7efa"),
}


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_stream_digest_is_pinned(name):
    stream, digest = STREAM_DIGESTS[name]
    assert hashlib.sha256(repr(list(stream())).encode()).hexdigest()[:16] == digest


class _BrokenMap:
    """Glass-shaped stub that loses every key (harness self-test)."""

    def insert(self, key, value):
        return True

    def erase(self, key):
        return False

    def find(self, key):
        return None

    def first_items(self, count, descending=False):
        return []

    def min(self):
        return None

    def max(self):
        return None

    def next(self, key):
        return None

    def prev(self, key):
        return None


#: two inserts and two reads, no MIN or MAX op
EDGE_TRACE = [("I", 5, 50), ("I", 9, 90), ("F", 5), ("N", 5)]


#: a glass whose cached min holds the right key on another pre-leaf, which
#: the key comparison passes and the edge's read-back value does not
WRONG_PRELEAF_RUN = """
from glasstrie.oracle import Divergence, FeatureConfig, RefMap, _check_edges

g, ref = FeatureConfig().build(64), RefMap()
for k in (5, 0x109):
    g.insert(k, k * 10)
    ref.insert(k, k * 10)
_check_edges(g, ref, 7)
g._first = (g._preleaf_of(0x109), 5)
try:
    _check_edges(g, ref, 7)
except Divergence as div:
    got = (div.index, div.op, div.expected, div.got)
    if got != (7, ("min",), [(5, 50)], [(5, None)]):
        raise SystemExit(f"reported {got}")
else:
    raise SystemExit("a min edge on a wrong pre-leaf went unreported")
"""


class TestFuzzRun:
    def test_empty_trace_ok(self):
        assert fuzz_run(FeatureConfig(), []) is None

    def test_broken_structure_is_caught(self):
        trace = gen_trace(2, LOCAL, 500)
        with pytest.raises(Divergence) as caught:
            fuzz_run(FeatureConfig(), trace, structure=_BrokenMap())
        div = caught.value
        assert isinstance(div, IntegrityError)
        assert div.expected != div.got
        assert "reference returned" in str(div)

    def test_wrong_cached_edge_is_reported(self):
        # a glass whose min() answers its max, on a trace with no MIN or
        # MAX op: the edge check at a check point reports it, before the
        # walks from min() would
        g = FeatureConfig().build(64)
        g.min = g.max
        with pytest.raises(Divergence) as caught:
            fuzz_run(FeatureConfig(), EDGE_TRACE, structure=g, check_every=1)
        div = caught.value
        assert (div.index, div.op, div.expected, div.got) == (1, ("min",), 5, 9)

    def test_wrong_cached_edge_is_reported_under_optimize(self, run_optimized):
        run_optimized(
            "from glasstrie.oracle import Divergence, FeatureConfig, fuzz_run\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "g = FeatureConfig().build(64)\n"
            "g.min = g.max\n"
            "try:\n"
            f"    fuzz_run(FeatureConfig(), {EDGE_TRACE!r}, structure=g, check_every=1)\n"
            "except Divergence as div:\n"
            "    if div.op != ('min',):\n"
            "        raise SystemExit(f'reported {div}')\n"
            "else:\n"
            "    raise SystemExit('a wrong cached edge went unreported')\n"
        )

    def test_edge_on_a_wrong_preleaf_is_reported(self, run_fresh):
        run_fresh(WRONG_PRELEAF_RUN)

    def test_edge_on_a_wrong_preleaf_is_reported_under_optimize(self, run_optimized):
        run_optimized("if __debug__:\n    raise SystemExit('asserts are on')\n"
                      + WRONG_PRELEAF_RUN)

    def test_short_runs_all_configs(self):
        trace = gen_trace(13, LOCAL, 4000)
        for config in all_feature_configs():
            assert fuzz_run(config, trace, check_every=500) is None

    def test_uniform_shape_too(self):
        trace = gen_trace(14, UNIFORM, 4000, size_cap=512)
        for config in all_feature_configs():
            assert fuzz_run(config, trace) is None

    def test_ref_apply_rejects_unknown(self):
        with pytest.raises(MalformedEvent):
            ref_apply(RefMap(), ("Z", 1))

    def test_one_bucket_config_answers_dont_know(self):
        # a shadow CacheTable.lookup before each find and erase, as the
        # glass probes inline: over this LOCAL trace the default table
        # never answers don't-know, the one-bucket one often does
        trace = gen_trace(6, LOCAL, 20_000)
        dont_knows = {}
        for config in all_feature_configs():
            g = config.build(2 * trace.size_cap)
            answers = []

            def shadow(fn):
                def call(key):
                    answers.append(g.table.lookup(key >> config.chunk_bits))
                    return fn(key)
                return call

            g.find = shadow(g.find)
            g.erase = shadow(g.erase)
            assert fuzz_run(config, trace, structure=g) is None
            dont_knows[config.buckets] = answers.count(DONT_KNOW)
        assert dont_knows[None] == 0
        assert dont_knows[1] > 1000

    def test_deterministic_given_config_and_trace(self):
        trace = gen_trace(17, LOCAL, 3000)
        config = FeatureConfig()
        assert fuzz_run(config, trace) is None
        assert fuzz_run(config, trace) is None  # same trace replays identically
