from __future__ import annotations

import random
import statistics

import pytest

from glasstrie.cachetable import DONT_KNOW
from glasstrie.errors import MalformedEvent
from glasstrie.oracle import (
    LOCAL,
    UNIFORM,
    FeatureConfig,
    OpTrace,
    RefMap,
    all_feature_configs,
    fuzz_run,
    gen_trace,
    geometric_step,
    ref_apply,
    trace_load,
    trace_save,
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


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        ops = gen_trace(11, LOCAL, 500).materialize()
        path = tmp_path / "trace.txt"
        trace_save(ops, path, header="seed=11 local")
        assert trace_load(path) == ops

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# hello\n\nI 5 50\nMIN\nN 5\n")
        assert trace_load(path) == [("I", 5, 50), ("MIN",), ("N", 5)]

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("I 5 50\nQ 1\n")
        with pytest.raises(MalformedEvent, match="bad.txt:2"):
            trace_load(path)


class _BrokenMap:
    """Glass-shaped stub that loses every key (harness self-test)."""

    def insert(self, key, value):
        return True

    def erase(self, key):
        return False

    def find(self, key):
        return None

    def locate(self, key):
        return None

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


class TestFuzzRun:
    def test_empty_trace_ok(self):
        assert fuzz_run(FeatureConfig(), []) is None

    def test_broken_structure_is_caught(self):
        trace = gen_trace(2, LOCAL, 500)
        div = fuzz_run(FeatureConfig(), trace, structure=_BrokenMap())
        assert div is not None
        assert div.expected != div.got
        assert "reference returned" in str(div)

    def test_wrong_cached_edge_is_reported(self):
        # a glass whose min() answers its max, on a trace with no MIN or
        # MAX op: the edge check at a check point reports it, before the
        # walks from min() would
        g = FeatureConfig().build(64)
        g.min = g.max
        div = fuzz_run(FeatureConfig(), EDGE_TRACE, structure=g, check_every=1)
        assert (div.index, div.op, div.expected, div.got) == (1, ("min",), (5, 50), (9, 90))

    def test_wrong_cached_edge_is_reported_under_optimize(self, run_optimized):
        run_optimized(
            "from glasstrie.oracle import FeatureConfig, fuzz_run\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "g = FeatureConfig().build(64)\n"
            "g.min = g.max\n"
            f"div = fuzz_run(FeatureConfig(), {EDGE_TRACE!r}, structure=g, check_every=1)\n"
            "if div is None or div.op != ('min',):\n"
            "    raise SystemExit(f'reported {div}')\n"
        )

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
