from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from glasstrie import glass as glassmod
from glasstrie.bitops import TrieGeometry, clz
from glasstrie.cachetable import DONT_KNOW, PROBE_LIMIT
from glasstrie.errors import ConfigError, GlassFull, IntegrityError, InvalidArgument
from glasstrie.glass import Glass, Iterator, create
from glasstrie.nodepool import CapacityModel, max_size_for_capacity
from glasstrie.oracle import FeatureConfig, RefMap, all_feature_configs


def small_glass(**kw) -> Glass:
    kw.setdefault("key_bits", 16)
    kw.setdefault("chunk_bits", 4)
    kw.setdefault("width", 16)
    kw.setdefault("max_size", 4096)
    return create(**kw)


def table_glass(default_table: bool, max_size: int = 4096) -> Glass:
    """``small_glass`` with its default cache table, or with a one-bucket
    table: every pre-leaf in one chain, so a lookup past the PROBE_LIMIT
    newest pre-leafs gets a don't-know and goes on to the descent."""
    if default_table:
        return small_glass(max_size=max_size)
    return FeatureConfig(buckets=1, width=16).build(max_size)


# Cases parametrized on ``default_table`` once ran with the cache table on
# (True) and off (False). The table is now always on, and the False case
# runs the one-bucket table of ``table_glass``, which reaches the descent
# through the probe's don't-know; the cases keep the ids they had. For
# the same reason a feature config's case id is still "ct=on" for the
# default table and "ct=off" for the one-bucket one.
def cfg_id(cfg: FeatureConfig) -> str:
    return "ct=on" if cfg.buckets is None else "ct=off"


# Edges are kept eagerly and the pool is trash-encoded, the one build. The
# "eager" and "True" (trash-encoded) parts of some test ids name that build,
# so these cases keep the names they had when other builds ran beside it.
@pytest.fixture(params=["eager"])
def eager_edges(request):
    return request.param


class TestCreate:
    def test_paper_scale_pool(self):
        g = create(key_bits=50, chunk_bits=5, width=16, max_size=9000)
        assert g.pool.max_capacity == 64057
        assert g.pool.capacity == 16

    def test_zero_capacity_rejects_inserts(self):
        g = small_glass(max_size=0)
        with pytest.raises(GlassFull):
            g.insert(5, "x")

    def test_wide_chunks_rejected(self):
        with pytest.raises(ConfigError):
            create(key_bits=50, chunk_bits=7, max_size=10)

    def test_oversized_max_size_rejected(self):
        with pytest.raises(ConfigError):
            create(key_bits=50, chunk_bits=5, width=16, max_size=10_000)


class TestBasicOps:
    def test_insert_find_roundtrip(self):
        g = small_glass()
        assert g.insert(100, "a")
        assert g.find(100) == "a"
        assert g.find(101) is None

    def test_insert_twice_is_noop(self):
        g = small_glass()
        assert g.insert(7, "a")
        assert not g.insert(7, "b")
        assert g.size == 1
        assert g.find(7) == "a"

    def test_min_max(self):
        g = small_glass()
        for k in (5, 1, 9):
            g.insert(k, k)
        assert g.min().key == 1
        assert g.max().key == 9

    def test_empty_queries(self):
        g = small_glass()
        assert g.min() is None
        assert g.max() is None
        assert g.find(3) is None
        assert g.next(3) is None
        assert not g.erase(3)

    def test_next_prev(self):
        g = small_glass()
        for k in (1, 5, 9):
            g.insert(k, k)
        assert g.next(5) == 9
        assert g.prev(5) == 1
        assert g.next(9) is None
        assert g.prev(1) is None
        assert g.next(3) == 5  # absent key between elements
        assert g.prev(6) == 5

    def test_full_raises_only_for_new_keys(self):
        g = small_glass(max_size=2)
        g.insert(1, "a")
        g.insert(2, "b")
        assert not g.insert(1, "z")  # present key: no error
        with pytest.raises(GlassFull):
            g.insert(3, "c")

    def test_iterator_walk(self):
        g = small_glass()
        keys = sorted(random.Random(0).sample(range(1 << 16), 200))
        for k in keys:
            g.insert(k, k)
        assert g.keys() == keys
        # backwards
        out = []
        it = g.max()
        while it is not None:
            out.append(it.key)
            it = g.iter_prev(it)
        assert out == keys[::-1]


class TestOutOfRangeKeys:
    #: keys outside [0, 2**16): each once answered with a stored or an
    #: invented key
    OUTSIDE = (-65531, -3796, -1, 1 << 16, 786437)

    @pytest.mark.parametrize("default_table", [True, False])
    def test_reads_and_erase_match_reference(self, default_table):
        g = table_glass(default_table, max_size=256)
        ref = RefMap()
        for k in self.OUTSIDE:
            assert (g.next(k), g.prev(k)) == (None, None)
        for k in (5, 6, 7, 300):
            g.insert(k, k * 10)
            ref.insert(k, k * 10)
        for k in self.OUTSIDE:
            assert g.find(k) is None
            assert g.locate(k) is None
            assert g.next(k) == ref.next(k)
            assert g.prev(k) == ref.prev(k)
            assert g.erase(k) is False
        assert g.keys() == ref.keys()
        g.check_integrity()

    @pytest.mark.parametrize("key", [-1, 1 << 16])
    def test_insert_rejects_key(self, key):
        g = small_glass()
        g.insert(5, 5)
        with pytest.raises(InvalidArgument):
            g.insert(key, 1)
        assert g.keys() == [5]

    def test_insert_rejects_none_value(self):
        g = small_glass()
        with pytest.raises(InvalidArgument):
            g.insert(5, None)
        assert len(g) == 0 and g.find(5) is None

    def test_insert_checks_survive_optimize(self, run_optimized):
        # asserts vanish under python -O; the checks must not
        code = (
            "from glasstrie import create\n"
            "from glasstrie.errors import InvalidArgument\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "g = create(16, 4, width=16, max_size=256)\n"
            "for key, value in ((-1, 1), (5, None)):\n"
            "    try:\n"
            "        g.insert(key, value)\n"
            "    except InvalidArgument:\n"
            "        continue\n"
            "    raise SystemExit(f'insert({key}, {value}) was accepted')\n"
            "if len(g) or g.keys():\n"
            "    raise SystemExit(f'glass holds {g.keys()}')\n"
        )
        run_optimized(code)


class TestIntegrityChecks:
    def test_corrupt_preleaf_mask_raises_under_optimize(self, run_optimized):
        # asserts vanish under python -O; the integrity walk must not
        code = (
            "from glasstrie import create\n"
            "from glasstrie.errors import IntegrityError\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "g = create(16, 4, width=16, max_size=256)\n"
            "g.insert_sorted([0x1230, 0x1235, 0x8000], 'v')\n"
            "g.check_integrity(deep=True)\n"
            "g.pool.mask[g.min().preleaf] |= 1 << 7  # a set slot with no value\n"
            "try:\n"
            "    g.check_integrity(deep=True)\n"
            "except IntegrityError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('corrupt mask passed')\n"
        )
        run_optimized(code)

    def test_each_broken_invariant_raises(self):
        g = small_glass()
        g.insert_sorted([0x1230, 0x1235, 0x8000], "v")
        g.check_integrity(deep=True)
        for corrupt in (
            lambda: g.pool.mask.__setitem__(g.min().preleaf, 0b1000_0000_0010_0001),
            lambda: setattr(g, "size", 4),
            lambda: g.rho.__setitem__(1, g.rho[2]),
            lambda: setattr(g.pool, "live_count", 9),
        ):
            saved = (list(g.pool.mask), g.size, list(g.rho), g.pool.live_count)
            corrupt()
            with pytest.raises(IntegrityError):
                g.check_integrity(deep=True)
            g.pool.mask[:], g.size, g.rho[:], g.pool.live_count = saved
            g.check_integrity(deep=True)


    @pytest.mark.parametrize("blank", ["zero", "invalid"])
    @pytest.mark.parametrize("kind", ["inner", "preleaf"])
    def test_clear_slot_accepts_only_none(self, kind, blank):
        # 0 and the invalid handle once passed as blanks in inner nodes
        g = small_glass()
        g.insert_sorted([0x1230, 0x8000], "v")
        pool = g.pool
        node = g.root if kind == "inner" else g.min().preleaf
        c = next(c for c in range(g.geo.fanout) if not (pool.mask[node] >> c) & 1)
        pool.slots[node * g.geo.fanout + c] = 0 if blank == "zero" else pool.invalid
        with pytest.raises(IntegrityError, match="clear slot"):
            g.check_integrity(deep=False)


class TestLocateSetValue:
    @pytest.mark.parametrize("default_table", [True, False])
    def test_present_and_absent_keys(self, default_table):
        g = table_glass(default_table)
        assert g.locate(0x123) is None  # empty glass
        for k in (0x123, 0x125, 0x800):
            g.insert(k, k)
        g.insert(0x400, 0)  # moves the cached path away from 0x123
        path = (g.last_key, g.path_len, list(g.rho))
        it = g.locate(0x123)
        assert it == g.min() and g.value_at(it) == 0x123
        assert g.locate(0x124) is None  # absent slot of a live pre-leaf
        assert g.locate(0x900) is None  # no pre-leaf
        assert (g.last_key, g.path_len, list(g.rho)) == path


class TestCachedPathLookup:
    """``locate`` and ``erase`` answer a key in the pre-leaf that ends a
    whole cached path from the path itself; every other key goes to the
    table or the descent."""

    @staticmethod
    def located(g, key):
        it = g.locate(key)
        return None if it is None else (it.key, g.value_at(it))

    @pytest.mark.parametrize("default_table", [True, False])
    def test_lookups_match_reference(self, default_table):
        g = table_glass(default_table)
        ref = RefMap()
        for k in (0x1230, 0x1234, 0x1237, 0x8000, 0x1235):
            g.insert(k, k * 10)
            ref.insert(k, k * 10)
        assert g.last_key == 0x1235 and g.path_len == g._levels
        descents = []
        descend = g._descend
        g._descend = lambda key: descents.append(key) or descend(key)
        # every slot of last_key's pre-leaf, set or not, and keys that
        # share last_key's low bits but lie outside the key range
        same_preleaf = list(range(0x1230, 0x1240))
        outside = [-1, -0x10000 + 0x1235, (1 << 16) + 0x1235, (1 << 16) + 0x1230]
        for k in same_preleaf + outside:
            want = ref.find(k)
            assert g.find(k) == want
            assert self.located(g, k) == (None if want is None else (k, want))
        for k in (0x1234, 0x8000):
            assert self.located(g, k) == (k, k * 10)
        # the pre-leaf's keys never reach the descent
        assert not set(descents) & set(same_preleaf)
        g.check_integrity()

    @pytest.mark.parametrize("default_table", [True, False])
    def test_off_after_last_keys_preleaf_is_freed(self, default_table):
        g = table_glass(default_table)
        ref = RefMap()
        for k in (0x8001, 0x1230, 0x1235):
            g.insert(k, k)
            ref.insert(k, k)
        for k in (0x1230, 0x1235):
            assert g.erase(k) and ref.erase(k)
        assert g.path_len < g._levels
        for k in (0x1230, 0x1235, 0x8001, 0x8000):
            want = ref.find(k)
            assert self.located(g, k) == (None if want is None else (k, want))
            assert g.find(k) == want
        # refill the freed pre-leaf through another cached path
        g.insert(0x8002, 1)
        g.insert(0x1236, 2)
        ref.insert(0x8002, 1)
        ref.insert(0x1236, 2)
        assert g.keys() == ref.keys()
        assert self.located(g, 0x1236) == (0x1236, 2)
        g.check_integrity()

    @pytest.mark.parametrize("default_table", [True, False])
    def test_off_after_an_insert_stopped_above_the_preleaf(self, default_table):
        # a full glass refuses 0x9235 after descending only to the root:
        # last_key moves there, but rho's pre-leaf entry still names
        # 0x1235's pre-leaf, whose slot 5 is set
        g = table_glass(default_table, max_size=2)
        g.insert(0x1235, 1)
        g.insert(0x1236, 2)
        with pytest.raises(GlassFull):
            g.insert(0x9235, 3)
        assert g.last_key == 0x9235 and g.path_len < g._levels
        for k in (0x9235, 0x9236, 0x9230):
            assert g.locate(k) is None and g.find(k) is None and not g.erase(k)
        assert self.located(g, 0x1235) == (0x1235, 1)
        assert g.keys() == [0x1235, 0x1236]
        g.check_integrity()


def ref_split(ref: RefMap, key: int, above: bool) -> list[int]:
    """The keys ``split_off`` must remove from ``ref``; removes them
    there too."""
    cut = [k for k in ref.keys() if (k >= key if above else k <= key)]
    for k in cut:
        ref.erase(k)
    return cut


def items(g: Glass) -> list[tuple[int, object]]:
    return g.first_items(len(g))


def ref_items(ref: RefMap) -> list[tuple[int, object]]:
    return [(k, ref.find(k)) for k in ref.keys()]


def assert_free_nodes_blank(g: Glass):
    """Every free node reads as blank memory: mask 0 and its slot row
    all None. A freed inner node shares its row with the values it will
    hold as a pre-leaf, so a child handle left there would read as one."""
    pool = g.pool
    fanout = g.geo.fanout
    for p in pool.free_list_slots():
        assert pool.mask[p] == 0
        assert all(v is None for v in pool.slots[p * fanout:(p + 1) * fanout])


class TestSplitOff:
    """``split_off`` removes one side of a key in a single trie cut and
    answers as a comparison with every stored key would."""

    LIMIT = 1 << 16

    @pytest.mark.parametrize("above", [True, False])
    def test_cut_inside_a_preleaf(self, above):
        g = small_glass()
        ref = RefMap()
        for k in (0x1230, 0x1233, 0x1235, 0x1237, 0x123F, 0x0100, 0x8000):
            g.insert(k, k * 10)
            ref.insert(k, k * 10)
        live = g.pool.live_count
        assert g.split_off(0x1236, above) == len(ref_split(ref, 0x1236, above))
        assert items(g) == ref_items(ref)
        assert g.find(0x1235) == ref.find(0x1235)
        # the cut pre-leaf keeps slots on the other side, so it stays
        assert g.locate(0x1233 if above else 0x1237) is not None
        # one whole subtree of 3 nodes beyond the path goes: 0x8000's or 0x0100's
        assert g.pool.live_count == live - 3
        g.check_integrity(deep=True)
        assert_free_nodes_blank(g)

    @pytest.mark.parametrize("above", [True, False])
    def test_cut_at_last_key_keeps_the_path_to_its_preleaf(self, above):
        g = small_glass()
        for k in (0x1230, 0x1235, 0x123A):
            g.insert(k, k)
        g.insert(0x1235, 0)  # present: only repoints the cached path
        assert g.last_key == 0x1235 and g.path_len == g._levels
        assert g.split_off(0x1235, above) == 2
        assert items(g) == ([(0x1230, 0x1230)] if above else [(0x123A, 0x123A)])
        assert g.path_len == g._levels
        assert g.locate(0x1235) is None
        assert g.find(0x123A if not above else 0x1230) is not None
        g.check_integrity(deep=True)

    @pytest.mark.parametrize("default_table", [True, False], ids=lambda default_table: f"{default_table}-eager")
    def test_cut_that_empties_the_glass(self, default_table):
        g = table_glass(default_table)
        keys = [0x0001, 0x1230, 0x1235, 0x8000, 0xFFFF]
        for k in keys:
            g.insert(k, k)
        assert g.split_off(0x0001, True) == len(keys)
        assert g.root == g.pool.invalid and g.path_len == 0 and len(g) == 0
        assert g._first is None and g._last is None
        assert g.min() is None and g.max() is None
        assert g.pool.live_count == 0
        assert g.table.count == 0
        g.check_integrity(deep=True)
        assert_free_nodes_blank(g)
        assert g.split_off(0x1000, True) == 0
        # reused nodes must arrive blank
        for k in (0x1231, 0x8001):
            g.insert(k, -k)
        assert g.keys() == [0x1231, 0x8001]
        assert (g.min().key, g.max().key) == (0x1231, 0x8001)
        g.check_integrity(deep=True)

    @pytest.mark.parametrize("above", [True, False])
    @pytest.mark.parametrize("key", [-(1 << 70), -(1 << 16), -1, 0, 1,
                                     (1 << 16) - 2, (1 << 16) - 1, 1 << 16,
                                     (1 << 16) + 0x1235, 1 << 70])
    def test_any_int_key_answers_as_a_comparison(self, above, key):
        keys = [0, 1, 0x1235, 0xFFFE, 0xFFFF]
        g = small_glass()
        ref = RefMap()
        for k in keys:
            g.insert(k, k + 1)
            ref.insert(k, k + 1)
        got = g.split_off(key, above)
        assert got == len(ref_split(ref, key, above))
        if not 0 <= key < self.LIMIT:
            # out of range, a cut takes everything or nothing
            assert got in (0, len(keys))
        assert items(g) == ref_items(ref)
        g.check_integrity(deep=True)

    @staticmethod
    def cube_id(cfg):
        return f"{cfg_id(cfg)},edge=eager,trash=on"

    @pytest.mark.parametrize("cfg", all_feature_configs(), ids=cube_id.__func__)
    def test_matches_reference_over_feature_cube(self, cfg):
        rng = random.Random(f"split-{self.cube_id(cfg)}")
        g = cfg.build(max_size=400)
        ref = RefMap()
        limit = self.LIMIT
        splits = 0

        def check():
            assert items(g) == ref_items(ref)
            lo, hi = g.min(), g.max()
            assert (lo and lo.key, hi and hi.key) == (ref.min(), ref.max())
            g.check_integrity(deep=True)

        for _ in range(700):
            r = rng.random()
            if r < 0.55 and len(ref) < 400:
                # clustered keys fill pre-leafs; spread ones grow subtrees
                base = rng.choice((0x1200, 0x7F00, 0xC000))
                k = base + rng.randrange(0x300) if rng.random() < 0.7 else rng.randrange(limit)
                assert g.insert(k, k ^ 0x3C3C) == ref.insert(k, k ^ 0x3C3C)
            elif r < 0.65 and len(ref):
                k = rng.choice(ref.keys())
                assert g.erase(k) and ref.erase(k)
            else:
                keys = ref.keys()
                choice = rng.randrange(7)
                if choice == 0 or not keys:
                    key = rng.randrange(limit)
                elif choice == 1:
                    key = rng.choice(keys)  # a stored key
                elif choice == 2:
                    key = rng.choice(keys) + rng.choice((-1, 1))  # beside one
                elif choice == 3:
                    key = g.last_key
                elif choice == 4:
                    key = rng.choice((keys[0] - 1, keys[-1] + 1, keys[0], keys[-1]))
                elif choice == 5:
                    key = rng.choice((-1, -limit, limit, limit + 7, limit - 1, 0))
                else:
                    # a cut close to one end removes only a few keys
                    i = rng.randrange(min(4, len(keys)))
                    key = keys[i] if rng.random() < 0.5 else keys[-1 - i]
                above = rng.random() < 0.5
                cut = ref_split(ref, key, above)
                assert g.split_off(key, above) == len(cut)
                assert len(g) == len(ref)
                splits += 1
                for k in cut[:3]:
                    assert g.find(k) is None and g.locate(k) is None
            check()
        assert_free_nodes_blank(g)
        assert splits > 150


def twin_state(g: Glass):
    """Everything a run of single inserts and ``insert_sorted`` must
    leave equal: trie, free list, cached path, edges and table chains."""
    table = g.table
    chains = [table.chain(b) for b in range(table.bucket_count)]
    return (g.dump(), g.pool.free_list_slots(), g.pool.live_count, g.pool.capacity,
            g.size, g.root, g.last_key, g.path_len, g.rho[:g.path_len],
            g.min(), g.max(), chains)


class TestInsertSorted:
    """``insert_sorted`` builds a monotone run one pre-leaf at a time and
    leaves the state one ``insert`` per key would."""

    LIMIT = 1 << 16
    STORED = (0x0100, 0x1203, 0x1231, 0x1238, 0x12F0, 0x8000, 0x8004, 0xFFFF)

    @staticmethod
    def twins(cfg, stored, max_size=400):
        """Two glasses built alike, over a free list out of array order."""
        pair = []
        for _ in range(2):
            g = cfg.build(max_size=max_size)
            for k in (0x4444, 0x4445, 0xA000):
                g.insert(k, k)
            for k in (0x4444, 0xA000, 0x4445):
                g.erase(k)
            for k in stored:
                g.insert(k, k)
            pair.append(g)
        return pair

    RUNS = {
        "ascending between stored keys": (STORED, list(range(0x1200, 0x1300, 3)) + [0x7FFF, 0x8001]),
        "descending between stored keys": (STORED, list(range(0x12FE, 0x11FF, -5)) + [0x0101, 0x00FF]),
        "into an empty glass ascending": ((), [0x0001, 0x0002, 0x0FFF, 0x1000, 0x5555, 0xFFFF]),
        "into an empty glass descending": ((), [0xFFFF, 0x5555, 0x1000, 0x0FFF, 0x0002, 0x0001]),
        "with present keys": (STORED, [0x0100, 0x1230, 0x1231, 0x1232, 0x1238, 0x8000, 0xFFFE, 0xFFFF]),
        "only present keys": (STORED, [0x1231, 0x1238, 0x8004]),
        "one new key": (STORED, [0x6000]),
        "one key into an empty glass": ((), [0x6000]),
        "one present key": (STORED, [0x8004]),
        "one pre-leaf": (STORED, list(range(0x3330, 0x3340))),
        "new minimum and maximum": (STORED[:-1], [0x0000, 0x0050, 0x9000, 0xFFFF]),
        "new maximum and minimum descending": (STORED[:-1], [0xFFFF, 0x9000, 0x0050, 0x0000]),
    }

    @pytest.mark.parametrize("cfg", all_feature_configs(), ids=cfg_id)
    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_end_state_equals_single_inserts(self, cfg, case):
        stored, run = self.RUNS[case]
        bulk, single = self.twins(cfg, stored)
        added = bulk.insert_sorted(run, "v")
        assert added == sum(single.insert(k, "v") for k in run)
        assert added == len(set(run) - set(stored))
        assert twin_state(bulk) == twin_state(single)
        for k in run:
            assert bulk.find(k) == (k if k in stored else "v")
        bulk.check_integrity(deep=True)

    @pytest.mark.parametrize("cfg", all_feature_configs(), ids=cfg_id)
    def test_empty_run_touches_nothing(self, cfg):
        g, _ = self.twins(cfg, self.STORED)
        before = twin_state(g)
        assert g.insert_sorted([], "v") == 0
        assert twin_state(g) == before

    @pytest.mark.parametrize("cfg", all_feature_configs(), ids=cfg_id)
    def test_matches_reference_over_feature_cube(self, cfg):
        rng = random.Random(f"insert-sorted-{cfg_id(cfg)}")
        g = cfg.build(max_size=300)
        ref = RefMap()
        limit = self.LIMIT
        bulk = 0
        for step in range(500):
            r = rng.random()
            keys = ref.keys()
            if r < 0.3:
                # a run of clustered and spread keys, some already stored
                room = 300 - len(ref)
                n = rng.randrange(min(room, 40) + 1)
                base = rng.choice((0x1200, 0x7F00, 0xC000))
                run = {base + rng.randrange(0x400) if rng.random() < 0.7 else rng.randrange(limit)
                       for _ in range(n)}
                run.update(rng.sample(keys, min(len(keys), rng.randrange(3))))
                run = sorted(run)[:room]
                if rng.random() < 0.5:
                    run.reverse()
                want = sum(ref.insert(k, step) for k in run)
                assert g.insert_sorted(run, step) == want
                bulk += want
            elif r < 0.55 and len(ref) < 300:
                k = rng.randrange(limit)
                assert g.insert(k, step) == ref.insert(k, step)
            elif r < 0.85 and keys:
                k = rng.choice(keys)
                assert g.erase(k) and ref.erase(k)
            else:
                key = rng.choice(keys) if keys and rng.random() < 0.5 else rng.randrange(limit)
                above = rng.random() < 0.5
                assert g.split_off(key, above) == len(ref_split(ref, key, above))
            assert items(g) == ref_items(ref)
            assert [g.find(k) for k in ref.keys()] == [ref.find(k) for k in ref.keys()]
            lo, hi = g.min(), g.max()
            assert (lo and lo.key, hi and hi.key) == (ref.min(), ref.max())
            g.check_integrity(deep=True)
            assert_free_nodes_blank(g)
        assert bulk > 1000

    @pytest.mark.parametrize("cfg", all_feature_configs(), ids=cfg_id)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_runs_equal_single_inserts(self, cfg, data):
        # prior contents and the run share pre-leafs: a few drawn
        # prefixes, some next to each other so they share parents too
        prefixes = data.draw(st.lists(st.integers(0, 0xFFF) | st.integers(0x120, 0x12F),
                                      min_size=1, max_size=6, unique=True))
        key = (st.builds(lambda hi, lo: hi << 4 | lo, st.sampled_from(prefixes),
                         st.integers(0, 15))
               | st.integers(0, self.LIMIT - 1))
        stored = data.draw(st.lists(key, max_size=40, unique=True))
        run = sorted(data.draw(st.sets(key, min_size=1, max_size=60)))
        if data.draw(st.booleans()):
            run.reverse()
        bulk, single = self.twins(cfg, stored)
        added = bulk.insert_sorted(run, "v")
        assert added == sum(single.insert(k, "v") for k in run)
        assert twin_state(bulk) == twin_state(single)
        bulk.check_integrity(deep=True)

    ERRORS = {
        "full": (GlassFull, [0x0200, 0x0300, 0x0400], "v"),
        "full counting a present key": (GlassFull, [0x0100, 0x0300, 0x0400], "v"),
        "-1 first": (InvalidArgument, [-1, 0x0300], "v"),
        "-1 last": (InvalidArgument, [0x0300, -1], "v"),
        "2**key_bits first": (InvalidArgument, [1 << 16, 0x0300], "v"),
        "2**key_bits last": (InvalidArgument, [0x0300, 1 << 16], "v"),
        "None value": (InvalidArgument, [0x0300], None),
        "equal adjacent pair": (InvalidArgument, [0x0300, 0x0301, 0x0301, 0x0302], "v"),
        "dip mid-run": (InvalidArgument, [0x0300, 0x0302, 0x0301, 0x0303], "v"),
        "rise mid-descent": (InvalidArgument, [0x0303, 0x0301, 0x0302, 0x0300], "v"),
    }

    @pytest.mark.parametrize("cfg", all_feature_configs(), ids=cfg_id)
    @pytest.mark.parametrize("case", sorted(ERRORS))
    def test_error_changes_nothing(self, cfg, case):
        error, run, value = self.ERRORS[case]
        # room for two more keys, so a run of three is refused as too many
        g, _ = self.twins(cfg, self.STORED, max_size=len(self.STORED) + 2)
        before = twin_state(g)
        with pytest.raises(error):
            g.insert_sorted(run, value)
        assert twin_state(g) == before
        g.check_integrity(deep=True)


class TestWorkedExamples:
    def test_prefix_length_of_sibling_keys(self):
        # 010 vs 011 with one-bit chunks in an 8-bit word: the shared
        # prefix is two chunks
        beta = (-3) % 1
        lam = (beta - (8 - 3) + clz(0b010 ^ 0b011, 8)) // 1
        assert lam == 2

    def test_second_insert_allocates_one_node(self):
        # inserting 0110 after 0100 (one-bit chunks, four levels): the
        # keys share two chunks, so only the depth-3 pre-leaf is new
        g = create(key_bits=4, chunk_bits=1, width=16, max_size=16)
        g.insert(0b0100, "a")
        before = g.pool.live_count
        g.insert(0b0110, "b")
        assert g.pool.live_count - before == 1

    def test_erase_keeps_cached_path_when_no_node_is_freed(self):
        # keys 010 then 011 share a pre-leaf; erasing 011 frees no node,
        # so every entry of the cached path still names a live ancestor
        # and the path keeps all three
        g = create(key_bits=3, chunk_bits=1, width=16, max_size=8)
        g.insert(0b010, "a")
        g.insert(0b011, "b")
        assert g.path_len == 3
        path_before = list(g.rho[:3])
        g.erase(0b011)
        assert g.path_len == 3
        assert g.rho[:3] == path_before
        g.check_integrity()

    def test_erase_only_element_removes_root(self):
        g = create(key_bits=3, chunk_bits=1, width=16, max_size=8)
        g.insert(0b010, "a")
        g.erase(0b010)
        assert g.size == 0
        assert g.root == g.pool.invalid
        assert g.path_len == 0
        assert g.pool.live_count == 0

    def test_erase_removing_one_node(self):
        # mirror of the insert example: removing 0110's pre-leaf leaves
        # a cached path of root, 0, 01
        g = create(key_bits=4, chunk_bits=1, width=16, max_size=16)
        g.insert(0b0100, "a")
        g.insert(0b0110, "b")
        assert g.path_len == 4
        g.erase(0b0110)
        assert g.size == 1
        assert g.path_len == 3
        g.check_integrity()
        assert g.find(0b0100) == "a"

    # last_key is the second key; erasing it frees k nodes: none when the
    # first key shares its pre-leaf, its whole branch below the root at
    # k == 3
    @pytest.mark.parametrize("k, second", [(0, 0x1235), (1, 0x1245), (2, 0x1345), (3, 0x2345)])
    def test_erasing_last_key_drops_one_path_entry_per_freed_node(self, k, second):
        g = table_glass(False)
        g.insert(0x1230, "a")
        # five pre-leafs under other root children, chained ahead of
        # 0x1230's in the one bucket: its probe answers don't-know
        for top in range(0x8, 0xD):
            g.insert(top << 12, "filler")
        g.insert(second, "b")
        live, path = g.pool.live_count, list(g.rho)
        g.erase(second)
        assert g.pool.live_count == live - k
        assert g.path_len == g._levels - k
        assert g.rho[:g.path_len] == path[:g.path_len]
        g.check_integrity()
        # past the don't-know, 0x1230 is found from what the path kept:
        # its own pre-leaf, or a descent from the deepest entry left
        starts = []
        descend = g._descend
        g._descend = lambda key: starts.append(g._jump(key)[0]) or descend(key)
        it = g.locate(0x1230)
        assert it is not None and g.value_at(it) == "a"
        assert starts == ([] if k == 0 else [g._levels - 1 - k])


class TestEdgeCache:
    @pytest.mark.usefixtures("eager_edges")
    def test_modes_agree(self):
        g = small_glass()
        for k in (3, 7):
            g.insert(k, k)
        assert g.min().key == 3 and g.max().key == 7
        g.erase(3)
        assert g.min().key == 7

    def test_eager_never_bad(self):
        # the edges are current after every insert and erase
        rng = random.Random(4)
        g = small_glass()
        present = set()
        for _ in range(2000):
            k = rng.randrange(1 << 16)
            if k in present and rng.random() < 0.5:
                g.erase(k)
                present.discard(k)
            else:
                g.insert(k, k)
                present.add(k)
            if present:
                assert g.min().key == min(present)
                assert g.max().key == max(present)

    @pytest.mark.usefixtures("eager_edges")
    def test_erased_edge_found_in_its_preleaf_or_from_root(self):
        g = small_glass()
        # three pre-leafs: slots 0x1_, 0x3_ and 0x4_
        for k in (0x12, 0x15, 0x30, 0x34, 0x47, 0x4E):
            g.insert(k, k * 10)
        # the erased edge's pre-leaf survives
        g.erase(0x12)
        g.erase(0x4E)
        assert (g._first, g._last) == (g.locate(0x15), g.locate(0x47))
        assert (g.min(), g.max()) == (g.locate(0x15), g.locate(0x47))
        # the erased edge's pre-leaf is freed
        g.erase(0x15)
        g.erase(0x47)
        assert (g.min(), g.max()) == (g.locate(0x30), g.locate(0x34))
        assert (g.value_at(g.min()), g.value_at(g.max())) == (0x30 * 10, 0x34 * 10)
        g.check_integrity()

    @pytest.mark.parametrize("default_table", [True, False])
    def test_edge_repair_after_freeing_a_long_chain(self, default_table):
        # sparse keys: almost every edge erase frees its pre-leaf and
        # parents above it, and the new edge comes from where the walk
        # stopped
        rng = random.Random(12)
        g = table_glass(default_table)
        ref = RefMap()
        for k in rng.sample(range(1 << 16), 40) + [0x0001, 0x0002, 0xFFFE]:
            g.insert(k, k + 1)
            ref.insert(k, k + 1)
        starts = []  # depth each edge walk starts from
        walk = g._edge_from
        g._edge_from = lambda node, depth, prefix, forward: (
            starts.append(depth) or walk(node, depth, prefix, forward))
        long_chains = 0
        while len(ref):
            key = ref.min() if rng.random() < 0.5 else ref.max()
            before = g.pool.live_count
            starts.clear()
            assert g.erase(key)
            ref.erase(key)
            freed = before - g.pool.live_count
            long_chains += freed > 1
            # a walk starts at the deepest node the erase left in place
            assert all(depth == g._lastdepth - freed for depth in starts)
            for it, want in ((g._first, ref.min()), (g._last, ref.max())):
                if want is None:
                    assert it is None
                else:
                    assert it == g.locate(want) and g.value_at(it) == want + 1
        assert long_chains >= 30
        g.check_integrity()

    def test_empty_transition_resets(self):
        g = small_glass()
        g.insert(9, 9)
        g.erase(9)
        assert g.min() is None and g.max() is None
        g.insert(4, 4)
        assert g.min().key == 4 == g.max().key


class TestCacheTableIntegration:
    def test_hit_avoids_descent(self):
        g = small_glass()
        for k in range(64, 96):
            g.insert(k, k)

        def no_descent(key):
            raise AssertionError(f"find({key}) descended despite a table hit")

        g._descend = no_descent
        for k in range(64, 96):
            assert g.find(k) == k

    def test_results_identical_without_table(self):
        # the id is older than the always-on table: the default table
        # against the one-bucket one, whose lookups mostly descend
        rng = random.Random(12)
        a = table_glass(True)
        b = table_glass(False)
        for _ in range(3000):
            k = rng.randrange(1 << 16)
            r = rng.random()
            if r < 0.5:
                assert a.insert(k, k) == b.insert(k, k)
            elif r < 0.8:
                assert a.erase(k) == b.erase(k)
            else:
                assert a.find(k) == b.find(k)
        assert a.keys() == b.keys()

    def test_grow_under_a_glass_raises(self):
        # a grown table would rehash into a bucket array the glass does
        # not probe, and finds would miss stored keys
        rng = random.Random(15)
        g = create(50, 5, max_size=2000)
        keys = rng.sample(range(1 << 50), 1500)
        for k in keys:
            g.insert(k, k)
        table = g.table
        buckets, heads = table.bucket_count, table.heads
        with pytest.raises(ConfigError):
            table.grow()
        assert table.bucket_count == buckets and table.heads is heads
        assert all(g.find(k) == k for k in keys)
        g.check_integrity(deep=True)

    def test_stale_bucket_binding_raises(self):
        g = small_glass()
        g.insert_sorted([0x1230, 0x8000], "v")
        g.table.held = False
        g.table.grow()
        with pytest.raises(IntegrityError, match="binding"):
            g.check_integrity(deep=False)

    def test_erase_unregisters_preleaf(self):
        g = create(key_bits=8, chunk_bits=4, width=16, max_size=256)
        g.insert(0x37, 1)
        g.erase(0x37)
        g.check_integrity()
        assert g.table.count == 0


class TestDontKnowRoute:
    """On a one-bucket glass every pre-leaf sits in one chain, newest
    first: a probe gives up after the PROBE_LIMIT newest with a
    don't-know, and ``find``, ``locate`` and ``erase`` go on to the
    descent."""

    #: one key in each of eight pre-leafs under distinct root children,
    #: inserted in this order; the first three end up past the probe
    KEYS = [(top << 12) | 0x5 for top in range(1, 9)]
    DEEP = KEYS[:len(KEYS) - PROBE_LIMIT]
    NEWEST = KEYS[len(KEYS) - PROBE_LIMIT:]

    def glass(self):
        g = table_glass(False)
        for k in self.KEYS:
            g.insert(k, k * 10)
        assert g.table.bucket_count == 1 and g.table.count == len(self.KEYS)
        return g

    @staticmethod
    def watch(g) -> list[int]:
        """The keys ``g`` descends for, from now on."""
        descents = []
        descend = g._descend
        g._descend = lambda key: descents.append(key) or descend(key)
        return descents

    @staticmethod
    def no_descent(g):
        def refuse(key):
            raise AssertionError(f"{key:#x} descended")
        g._descend = refuse

    def test_key_past_the_probe_limit_descends(self):
        g = self.glass()
        c_bits = g.geo.chunk_bits
        descents = self.watch(g)
        # erasing oldest first leaves each next key past the limit still
        for k in self.DEEP:
            assert g.table.lookup(k >> c_bits) == DONT_KNOW
            assert g.find(k) == k * 10 and descents == [k]
            it = g.locate(k)
            assert it is not None and g.value_at(it) == k * 10 and descents == [k, k]
            assert g.erase(k) and descents == [k, k, k]
            descents.clear()
        assert g.keys() == self.NEWEST
        g.check_integrity(deep=True)

    def test_find_walks_the_chain_once(self):
        # after the probe's don't-know, find descends at once: it never
        # asks _preleaf_of, which would walk the same chain entries again
        g = self.glass()
        ref = RefMap()
        for k in self.KEYS:
            ref.insert(k, k * 10)

        def refuse(key):
            raise AssertionError(f"find({key:#x}) probed again through _preleaf_of")

        g._preleaf_of = refuse
        descents = self.watch(g)
        in_range = self.DEEP + [k + 1 for k in self.DEEP] + [0x9005, 0x0005]
        for k in in_range + [-1, 1 << 16]:
            assert g.find(k) == ref.find(k)
        assert descents == in_range

    def test_newest_preleafs_answer_without_descent(self):
        g = self.glass()
        self.no_descent(g)
        for k in self.NEWEST:
            assert g.find(k) == k * 10
            it = g.locate(k)
            assert it is not None and g.value_at(it) == k * 10
            # an absent slot of a chained pre-leaf: a hit, then a clear bit
            assert g.find(k + 1) is None and g.locate(k + 1) is None
        # newest first, each erase finds its pre-leaf at the chain's head
        for k in reversed(self.NEWEST):
            assert g.erase(k)
        assert g.keys() == self.DEEP
        g.check_integrity(deep=True)

    def test_absent_key_behind_a_long_chain_descends(self):
        g = self.glass()
        descents = self.watch(g)
        # no pre-leaf, and a clear slot of a pre-leaf past the limit
        for k in (0x9005, 0x0005, self.DEEP[0] + 1):
            assert g.find(k) is None and descents == [k]
            assert g.locate(k) is None and descents == [k, k]
            assert g.erase(k) is False and descents == [k, k, k]
            descents.clear()
        # out of range: the don't-know ends at the range check
        for k in (-1, 1 << 16, (1 << 16) + self.DEEP[0]):
            assert g.find(k) is None and g.locate(k) is None and g.erase(k) is False
        assert descents == []
        assert g.keys() == self.KEYS
        g.check_integrity(deep=True)

    def test_erases_unlinking_from_mid_chain(self):
        g = self.glass()
        preleaf = {k: g.locate(k).preleaf for k in self.KEYS}
        chain = g.table.chain(0)
        assert chain == [preleaf[k] for k in reversed(self.KEYS)]
        left = list(self.KEYS)
        for k in (self.KEYS[4], self.KEYS[1], self.KEYS[6]):
            assert g.erase(k)
            left.remove(k)
            g.check_integrity(deep=True)
            assert g.table.chain(0) == [preleaf[k] for k in reversed(left)]
        assert [g.find(k) for k in left] == [k * 10 for k in left]

    def test_table_over_another_pool_refused(self):
        g = small_glass()
        with pytest.raises(ConfigError):
            Glass(g.geo, g.pool, g.max_size, table=small_glass().table)

    def test_table_holding_entries_refused(self):
        g = small_glass()
        g.insert(0x1235, 1)
        with pytest.raises(ConfigError):
            Glass(g.geo, g.pool, g.max_size, table=g.table)


class TestCompressedIterators:
    def test_round_trip_over_contents(self):
        # 16-bit handles are what the 4-byte compressed form packs, so fill
        # a 16-bit glass to the largest size those handles can address
        model = CapacityModel(TrieGeometry(key_bits=50, chunk_bits=5), width=16)
        size = max_size_for_capacity(model.addressable, model)
        g = create(key_bits=50, chunk_bits=5, width=16, max_size=size)
        rng = random.Random(8)
        keys = rng.sample(range(1 << 50), size)
        for k in keys:
            assert g.insert(k, k & 0xFF)
        visited = []
        it = g.min()
        while it is not None:
            assert g.decompress(g.compress(it)) == it
            visited.append(it.key)
            it = g.iter_next(it)
        assert len(visited) == len(g) == size
        assert visited == sorted(keys)

    def test_survives_unrelated_inserts(self):
        g = small_glass()
        g.insert(100, "v")
        cit = g.compress(g.min())
        for k in range(200, 260):
            g.insert(k, k)
        assert g.decompress(cit) == Iterator(cit.preleaf, 100)
        assert g.value_at(g.decompress(cit)) == "v"

    def test_packed_sizes(self):
        # 16-bit handle + final-chunk byte packs in 4 bytes; a full
        # iterator needs handle plus a 64-bit key, padded to 16
        assert struct.calcsize("<HBx") == 4
        assert struct.calcsize("<HQ6x") == 16


class TestStructure:
    def test_structural_integrity_under_churn(self):
        rng = random.Random(77)
        g = small_glass()
        present = set()
        for step in range(4000):
            k = rng.randrange(1 << 16)
            if k in present and rng.random() < 0.6:
                g.erase(k)
                present.discard(k)
            else:
                g.insert(k, k)
                present.add(k)
            if step % 200 == 0:
                g.check_integrity()
                assert_free_nodes_blank(g)
        g.check_integrity()
        assert_free_nodes_blank(g)
        assert g.keys() == sorted(present)

    def test_dump_golden(self):
        g = create(key_bits=4, chunk_bits=2, width=16, max_size=16)
        g.insert(0b0110, 6)
        g.insert(0b0111, 7)
        g.insert(0b1100, 12)
        assert g.dump() == "\n".join(
            [
                "0 root mask=1010 children[1,3]",
                "1 01 mask=1100 values[2=6,3=7]",
                "1 11 mask=0001 values[0=12]",
            ]
        )

    def test_locality_starts_descents_deep(self):
        g = create(key_bits=50, chunk_bits=5, width=16, max_size=4096)
        g.insert(1 << 25, 0)
        depths = []
        key = 1 << 25
        for i in range(1, 1000):
            key += 1 if i % 3 else 2
            depths.append(g._jump(key)[0])
            g.insert(key, i)
        assert sum(depths) / len(depths) >= 1.0


class TestAllocationRoute:
    @pytest.mark.parametrize("default_table", [True, False], ids=lambda default_table: f"True-{default_table}")
    def test_every_node_comes_through_allocate_many(self, default_table):
        g = table_glass(default_table, max_size=64)
        pool = g.pool
        counted = 0
        allocate_many, deallocate_many = pool.allocate_many, pool.deallocate_many

        def counting_allocate_many(count):
            nonlocal counted
            counted += count
            return allocate_many(count)

        def counting_deallocate_many(nodes):
            nonlocal counted
            counted -= len(nodes)
            deallocate_many(nodes)

        pool.allocate_many = counting_allocate_many
        pool.deallocate_many = counting_deallocate_many
        rng = random.Random(31)
        live = set()
        for _ in range(5):
            # clustered keys mostly fill existing pre-leafs or add one
            # fresh pre-leaf; spread keys need longer suffixes
            for _ in range(60):
                if rng.random() < 0.6:
                    k = 0x4000 + rng.randrange(256)
                else:
                    k = rng.randrange(1 << 16)
                if k in live or len(live) < 64:
                    g.insert(k, k)
                    live.add(k)
                assert counted == pool.live_count
            # erase to empty, then refill on the next round
            for k in rng.sample(sorted(live), len(live)):
                g.erase(k)
                assert counted == pool.live_count
            live.clear()
            assert len(g) == 0 and counted == 0
            g.check_integrity()
        g.insert(0x4001, 1)
        assert counted == pool.live_count == g._levels

    @pytest.mark.parametrize("case", ["empty glass", "new slot", "new suffix"])
    def test_glass_full_changes_nothing(self, case):
        if case == "empty glass":
            g = small_glass(max_size=0)
        else:
            g = small_glass(max_size=2)
            g.insert(0x1230, 1)
            g.insert(0x8000, 2)
        key = 0x1231 if case == "new slot" else 0x5678

        def state():
            return g.dump(), len(g), g.pool.live_count, g.pool.free_list_slots()

        before = state()
        with pytest.raises(GlassFull):
            g.insert(key, 3)
        assert state() == before
        assert g.find(key) is None
        g.check_integrity()


class TestLazyPool:
    """A glass's pool grows with its live nodes under the cap, while its
    table is sized from the cap once and never grows."""

    @pytest.mark.parametrize("live_limit", [300, 40], ids=["at cap-True", "below cap-True"])
    def test_grows_with_live_nodes_under_cap(self, live_limit):
        g = create(20, 4, width=16, max_size=300)
        rng = random.Random(4242)
        live: list[int] = []
        for _ in range(20_000):
            if live and (len(live) >= live_limit or rng.random() < 0.45):
                k = live.pop(rng.randrange(len(live)))
                assert g.erase(k)
            else:
                k = rng.randrange(1 << 20)
                assert g.insert(k, k) == (k not in live)
                if k not in live:
                    live.append(k)
        pool = g.pool
        cap = pool.capacity
        if live_limit == 300:
            assert cap == pool.max_capacity
        else:
            assert 16 < cap < pool.max_capacity // 2
        ref = create(20, 4, width=16, max_size=300)
        for k in sorted(live):
            ref.insert(k, k)
        assert g.dump() == ref.dump()
        assert pool.live_count == ref.pool.live_count
        assert g.table.bucket_count == ref.table.bucket_count == 512
        assert len(pool.free_list_slots()) == cap - pool.live_count
        g.check_integrity(deep=True)

    def test_filling_to_max_size_keeps_the_table(self):
        g = create(16, 4, width=16, max_size=1000)
        table = g.table
        buckets, heads = table.bucket_count, table.heads
        rng = random.Random(31)
        for k in rng.sample(range(1 << 16), 1000):
            assert g.insert(k, k)
        with pytest.raises(GlassFull):
            g.insert(next(k for k in range(1 << 16) if g.find(k) is None), 0)
        assert g.pool.capacity > 16
        assert table.bucket_count == buckets
        assert table.heads is heads and g._heads is heads
        g.check_integrity(deep=True)


class TestOracleEquivalence:
    @pytest.mark.parametrize("default_table", [True, False], ids=lambda default_table: f"eager-{default_table}")
    def test_random_ops_match_sorted_dict(self, default_table):
        rng = random.Random(f"oracle-{default_table}")
        g = table_glass(default_table)
        ref: dict[int, int] = {}
        order: list[int] = []
        for step in range(20_000):
            r = rng.random()
            k = rng.randrange(1 << 16)
            if r < 0.35:
                inserted = g.insert(k, k ^ 0x5555)
                assert inserted == (k not in ref)
                if inserted:
                    ref[k] = k ^ 0x5555
            elif r < 0.6:
                if ref and rng.random() < 0.7:
                    k = rng.choice(list(ref))
                erased = g.erase(k)
                assert erased == (k in ref)
                ref.pop(k, None)
            elif r < 0.75:
                assert g.find(k) == ref.get(k)
            elif r < 0.85:
                keys = sorted(ref)
                mn = g.min()
                mx = g.max()
                assert (mn.key if mn else None) == (keys[0] if keys else None)
                assert (mx.key if mx else None) == (keys[-1] if keys else None)
            else:
                keys = sorted(ref)
                import bisect

                i = bisect.bisect_right(keys, k)
                assert g.next(k) == (keys[i] if i < len(keys) else None)
                j = bisect.bisect_left(keys, k)
                assert g.prev(k) == (keys[j - 1] if j > 0 else None)
        assert g.keys() == sorted(ref)
