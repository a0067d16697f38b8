from __future__ import annotations

import random

import pytest

from glasstrie import cachetable
from glasstrie.bitops import TrieGeometry
from glasstrie.cachetable import ABSENT, DONT_KNOW, PROBE_LIMIT, CacheTable
from glasstrie.errors import ConfigError
from glasstrie.nodepool import Pool


def make(buckets=8, cap=4096):
    pool = Pool(TrieGeometry(key_bits=16, chunk_bits=4), width=16, max_capacity=cap)
    return pool, CacheTable(pool, buckets=buckets)


def colliding_keys(table: CacheTable, count: int, bucket=None, start=0):
    """Distinct keys that all hash into one bucket."""
    out = []
    k = start
    while len(out) < count:
        b = table.bucket_of(k)
        if bucket is None:
            bucket = b
        if b == bucket:
            out.append(k)
        k += 1
    return bucket, out


class TestSizing:
    @pytest.mark.parametrize("buckets", [0, -4, 3, 12])
    def test_bucket_count_must_be_positive_power_of_two(self, buckets):
        pool, _ = make()
        with pytest.raises(ConfigError):
            CacheTable(pool, buckets=buckets)

    def test_default_buckets_come_from_the_cap(self):
        geo = TrieGeometry(key_bits=16, chunk_bits=4)
        pool = Pool(geo, width=16, max_capacity=3000)
        assert pool.capacity == 16
        assert CacheTable(pool).bucket_count == 2048

    @pytest.mark.parametrize("width, itemsize", [(16, 2), (32, 4)])
    def test_heads_are_typed_to_the_handle_width(self, width, itemsize):
        pool = Pool(TrieGeometry(key_bits=16, chunk_bits=4), width=width, max_capacity=600)
        table = CacheTable(pool)
        assert table.heads.itemsize == itemsize
        assert list(table.heads) == [pool.invalid] * 512
        table.grow()
        assert table.heads.itemsize == itemsize
        assert list(table.heads) == [pool.invalid] * 1024

    def test_heads_narrower_than_handles_refused(self, monkeypatch):
        pool = Pool(TrieGeometry(key_bits=16, chunk_bits=4), width=16, max_capacity=64)
        monkeypatch.setitem(cachetable.HEAD_TYPECODES, 16, "B")
        with pytest.raises(ConfigError):
            CacheTable(pool)


class TestChains:
    def test_insert_into_empty_bucket(self):
        pool, table = make()
        p = pool.allocate()
        table.insert(101, p)
        assert table.chain(table.bucket_of(101)) == [p]

    def test_insert_goes_to_chain_head(self):
        pool, table = make()
        bucket, (k1, k2) = colliding_keys(table, 2)
        q = pool.allocate()
        p = pool.allocate()
        table.insert(k1, q)
        table.insert(k2, p)
        assert table.chain(bucket) == [p, q]

    def test_long_chain_fully_present(self):
        pool, table = make()
        bucket, keys = colliding_keys(table, PROBE_LIMIT + 1)
        nodes = [pool.allocate() for _ in keys]
        for k, p in zip(keys, nodes):
            table.insert(k, p)
        assert table.chain(bucket) == list(reversed(nodes))

    def test_remove_middle(self):
        pool, table = make()
        bucket, keys = colliding_keys(table, 3)
        nodes = [pool.allocate() for _ in keys]
        for k, p in zip(keys, nodes):
            table.insert(k, p)
        c, b, a = table.chain(bucket)
        table.remove(b)
        assert table.chain(bucket) == [c, a]

    def test_remove_head(self):
        pool, table = make()
        bucket, keys = colliding_keys(table, 2)
        for k in keys:
            table.insert(k, pool.allocate())
        head, second = table.chain(bucket)
        table.remove(head)
        assert table.chain(bucket) == [second]

    def test_remove_sole(self):
        pool, table = make()
        p = pool.allocate()
        table.insert(42, p)
        table.remove(p)
        assert table.chain(table.bucket_of(42)) == []


class TestLookup:
    def test_empty_bucket_is_definitive(self):
        pool, table = make()
        assert table.lookup(7) == ABSENT

    def test_hit_within_probe_limit(self):
        pool, table = make()
        bucket, keys = colliding_keys(table, PROBE_LIMIT)
        nodes = [pool.allocate() for _ in keys]
        for k, p in zip(keys, nodes):
            table.insert(k, p)
        # oldest element sits at exactly the last inspectable position
        assert table.lookup(keys[0]) == nodes[0]

    def test_beyond_probe_limit_is_dont_know(self):
        pool, table = make()
        bucket, keys = colliding_keys(table, PROBE_LIMIT + 1)
        for k in keys:
            table.insert(k, pool.allocate())
        assert table.lookup(keys[0]) == DONT_KNOW

    def test_chain_exactly_probe_limit_miss_is_absent(self):
        pool, table = make()
        bucket, keys = colliding_keys(table, PROBE_LIMIT + 1)
        for k in keys[:-1]:
            table.insert(k, pool.allocate())
        missing = keys[-1]
        assert table.lookup(missing) == ABSENT

    def test_chain_one_past_probe_limit_miss_is_dont_know(self):
        # the fencepost behind criterion 3: a miss is DONT_KNOW as soon as
        # the chain holds PROBE_LIMIT + 1 elements, not PROBE_LIMIT + 2
        pool, table = make()
        bucket, keys = colliding_keys(table, PROBE_LIMIT + 2)
        for k in keys[:-1]:
            table.insert(k, pool.allocate())
        assert len(table.chain(bucket)) == PROBE_LIMIT + 1
        missing = keys[-1]
        assert table.lookup(missing) == DONT_KNOW

    def test_dont_know_only_on_long_chains(self):
        rng = random.Random(5)
        pool, table = make(buckets=16)
        keys = rng.sample(range(1 << 30), 200)
        for k in keys:
            table.insert(k, pool.allocate())
        lengths = {b: len(table.chain(b)) for b in range(table.bucket_count)}
        for probe in rng.sample(range(1 << 30), 500):
            if table.lookup(probe) == DONT_KNOW:
                assert lengths[table.bucket_of(probe)] > PROBE_LIMIT

    def test_never_wrong_handle(self):
        rng = random.Random(6)
        pool, table = make(buckets=4)
        byname = {}
        for _ in range(300):
            k = rng.randrange(1 << 20)
            if k in byname:
                continue
            p = pool.allocate()
            table.insert(k, p)
            byname[k] = p
        for k, p in byname.items():
            got = table.lookup(k)
            assert got in (p, DONT_KNOW)


def count_stores(pool: Pool, table: CacheTable) -> list[int]:
    """Swap lists that count their item stores in for the chain links and
    the bucket heads; the returned one-element list holds the count."""
    stores = [0]

    class Counting(list):
        def __setitem__(self, i, v):
            stores[0] += 1
            list.__setitem__(self, i, v)

    pool.chain_next = Counting(pool.chain_next)
    pool.chain_prev = Counting(pool.chain_prev)
    table.heads = Counting(table.heads)
    return stores


class TestBoundedWork:
    def test_insert_and_remove_touch_constant_links(self):
        pool, table = make()
        bucket, keys = colliding_keys(table, 20)
        nodes = [pool.allocate() for _ in keys]
        stores = count_stores(pool, table)
        for k, p in zip(keys, nodes):
            before = stores[0]
            table.insert(k, p)
            assert stores[0] - before <= 4
        gone = (nodes[10], nodes[-1], nodes[0])  # mid-chain, head, tail
        for p in gone:
            before = stores[0]
            table.remove(p)
            assert stores[0] - before <= 2
        kept = [p for p in reversed(nodes) if p not in gone]
        assert table.chain(bucket) == kept
        back, p = [], kept[-1]
        while p != pool.invalid:
            back.append(p)
            p = pool.chain_prev[p]
        assert back == kept[::-1]

    def test_lookup_probe_bound(self):
        pool, table = make()
        bucket, keys = colliding_keys(table, 40)
        for k in keys:
            table.insert(k, pool.allocate())
        table.lookup(keys[0])
        assert table.last_probes <= PROBE_LIMIT


class TestGrowth:
    def test_single_chain_order_preserved(self):
        pool, table = make(buckets=1, cap=4096)
        keys = [3, 11, 19]
        nodes = [pool.allocate() for _ in keys]
        for k, p in zip(keys, nodes):
            table.insert(k, p)
        before = table.chain(0)
        table.grow()
        after = {b: table.chain(b) for b in range(table.bucket_count)}
        merged_in_old_order = [p for p in before
                               for b in after if p in after[b]]
        assert merged_in_old_order == before
        for chain in after.values():
            positions = [before.index(p) for p in chain]
            assert positions == sorted(positions)

    def test_empty_table_grow(self):
        pool, table = make(buckets=4)
        table.grow()
        assert table.bucket_count == 8
        assert all(table.chain(b) == [] for b in range(8))

    def test_grow_matches_stable_partition_oracle(self):
        rng = random.Random(99)
        pool, table = make(buckets=64, cap=4096)
        keys = rng.sample(range(1 << 40), 1000)
        handle = {}
        for k in keys:
            p = pool.allocate()
            table.insert(k, p)
            handle[p] = k
        old_chains = [table.chain(b) for b in range(table.bucket_count)]
        table.grow()
        for b, chain in enumerate(old_chains):
            want = {}
            for p in chain:
                want.setdefault(table.bucket_of(handle[p]), []).append(p)
            for new_b, expect in want.items():
                got = [p for p in table.chain(new_b) if p in set(chain)]
                assert got == expect

    def test_lookup_still_correct_after_grow(self):
        rng = random.Random(3)
        pool, table = make(buckets=8, cap=4096)
        pairs = {}
        for k in rng.sample(range(1 << 30), 400):
            p = pool.allocate()
            table.insert(k, p)
            pairs[k] = p
        for _ in range(4):
            table.grow()
        for k, p in pairs.items():
            assert table.lookup(k) in (p, DONT_KNOW)

    def test_maybe_grow_trigger(self):
        pool, table = make(buckets=2, cap=4096)
        for k in [10, 20, 30]:
            table.insert(k, pool.allocate())
            table.maybe_grow()
        assert table.bucket_count >= 4


class TestReferenceEquivalence:
    def test_random_ops_match_dict(self):
        rng = random.Random(2024)
        pool, table = make(buckets=16, cap=8192)
        ref = {}
        for _ in range(5000):
            if ref and rng.random() < 0.4:
                k = rng.choice(list(ref))
                table.remove(ref.pop(k))
            else:
                k = rng.randrange(1 << 24)
                if k in ref:
                    continue
                p = pool.allocate()
                table.insert(k, p)
                ref[k] = p
        seen = {}
        for b in range(table.bucket_count):
            for p in table.chain(b):
                seen[pool.cache_key[p]] = p
        assert seen == ref
