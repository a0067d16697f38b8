"""Intrusive hash table from key-prefixes to pre-leaf handles.

This is a lookup accelerator, not a general map: chains are doubly
linked through fields embedded in pool nodes (``chain_next``,
``chain_prev``, ``cache_key``), removal by handle is hard O(1), and a
lookup inspects at most PROBE_LIMIT chain elements so it can answer
"don't know" instead of walking long chains. Only pre-leaf nodes are
ever registered; the stored key is the element key without its last
chunk.

The table is sized once, from the pool's cap ``pool.max_capacity``,
never from the nodes the pool holds now: the bucket count is the largest
power of two within the cap, so the don't-know rate is the one the
capacity model assumes however far the pool has grown. A glass never
grows its table: it binds the bucket array once and marks the table
``held``, and ``grow`` on a held table raises ConfigError. ``grow`` and
``maybe_grow`` serve a standalone table built with an explicit, smaller
``buckets``; ``maybe_grow`` doubles only while the doubled array still
fits the cap.
"""

from __future__ import annotations

from array import array

from .errors import ConfigError
from .nodepool import Pool

#: chain elements a lookup may inspect before giving up (the paper of
#: record for this structure fixes it at build time)
PROBE_LIMIT = 5

#: lookup outcomes that carry no handle
ABSENT = -1
DONT_KNOW = -2

#: array typecode of the bucket heads for each handle width
HEAD_TYPECODES = {16: "H", 32: "I"}

_HASH_MULT = 0x9E3779B97F4A7C15  # odd 64-bit Fibonacci constant
_MASK64 = (1 << 64) - 1


def _floor_pow2(n: int) -> int:
    return 1 << (n.bit_length() - 1) if n >= 1 else 1


def _blank_heads(pool: Pool, buckets: int) -> array:
    """``buckets`` invalid handles in a typed array as wide as the
    pool's handles (2 bytes a bucket at 16 bits, not a list's 8)."""
    heads = array(HEAD_TYPECODES[pool.width])
    if heads.itemsize * 8 < pool.width:
        raise ConfigError(
            f"array typecode {heads.typecode!r} holds {heads.itemsize * 8} bits, "
            f"under the {pool.width}-bit handles"
        )
    heads.append(pool.invalid)
    return heads * buckets


class CacheTable:
    """Bucket-head array, typed to the handle width; element storage
    lives inside the pool nodes."""

    def __init__(self, pool: Pool, buckets: int | None = None):
        if buckets is None:
            buckets = _floor_pow2(max(1, pool.max_capacity))
        if buckets < 1 or buckets & (buckets - 1):
            raise ConfigError(f"bucket count must be a positive power of two, got {buckets}")
        self.pool = pool
        self.bucket_count = buckets
        self.heads = _blank_heads(pool, buckets)
        self.count = 0
        self._shift = 64 - buckets.bit_length() + 1
        # set by the glass that binds ``heads`` and ``_shift``
        self.held = False
        # instrumentation: footprint of the most recent operation
        self.last_link_writes = 0
        self.last_probes = 0

    def bucket_of(self, key_hi: int) -> int:
        return ((key_hi * _HASH_MULT) & _MASK64) >> self._shift

    def insert(self, key_hi: int, node: int):
        """Chain ``node`` in at the head of its bucket."""
        pool = self.pool
        inv = pool.invalid
        h = self.bucket_of(key_hi)
        head = self.heads[h]
        pool.cache_key[node] = key_hi
        pool.chain_next[node] = head
        pool.chain_prev[node] = inv
        writes = 2
        if head != inv:
            pool.chain_prev[head] = node
            writes += 1
        self.heads[h] = node
        self.count += 1
        self.last_link_writes = writes

    def remove(self, node: int):
        """Unlink ``node`` through its own two links; no traversal."""
        pool = self.pool
        inv = pool.invalid
        nxt = pool.chain_next[node]
        prv = pool.chain_prev[node]
        writes = 0
        if prv == inv:
            self.heads[self.bucket_of(pool.cache_key[node])] = nxt
        else:
            pool.chain_next[prv] = nxt
            writes += 1
        if nxt != inv:
            pool.chain_prev[nxt] = prv
            writes += 1
        self.count -= 1
        self.last_link_writes = writes

    def lookup(self, key_hi: int) -> int:
        """Handle of the matching pre-leaf, or ABSENT / DONT_KNOW.

        ABSENT is definitive: the chain ended within PROBE_LIMIT
        elements with no match. DONT_KNOW means the chain kept going.
        """
        pool = self.pool
        inv = pool.invalid
        cache_key = pool.cache_key
        chain_next = pool.chain_next
        p = self.heads[self.bucket_of(key_hi)]
        probes = 0
        while p != inv and probes < PROBE_LIMIT:
            probes += 1
            if cache_key[p] == key_hi:
                self.last_probes = probes
                return p
            p = chain_next[p]
        self.last_probes = probes
        return ABSENT if p == inv else DONT_KNOW

    def grow(self):
        """Double the bucket array, keeping within-chain relative order.

        Every element is moved to the head of its new chain (which
        reverses chains), then each new chain is reversed back. Raises
        ConfigError on a table a glass holds, whose bound bucket array
        would go stale.
        """
        if self.held:
            raise ConfigError("a glass holds this table; it cannot grow")
        pool = self.pool
        inv = pool.invalid
        old_heads = self.heads
        self.bucket_count *= 2
        self._shift -= 1
        self.heads = _blank_heads(pool, self.bucket_count)
        for head in old_heads:
            p = head
            while p != inv:
                nxt = pool.chain_next[p]
                h = self.bucket_of(pool.cache_key[p])
                pool.chain_next[p] = self.heads[h]
                self.heads[h] = p
                p = nxt
        for h, head in enumerate(self.heads):
            prev = inv
            p = head
            while p != inv:
                nxt = pool.chain_next[p]
                pool.chain_next[p] = prev
                prev = p
                p = nxt
            self.heads[h] = prev
            # rebuild back links in the final order
            p = prev
            before = inv
            while p != inv:
                pool.chain_prev[p] = before
                before = p
                p = pool.chain_next[p]

    def maybe_grow(self):
        """Double once the load factor passes one, while the doubled
        bucket array still fits the pool's cap."""
        if self.count > self.bucket_count and self.bucket_count * 2 <= self.pool.max_capacity:
            self.grow()

    def chain(self, bucket: int) -> list[int]:
        """Full chain contents of one bucket (tests and diagnostics)."""
        out = []
        p = self.heads[bucket]
        while p != self.pool.invalid:
            out.append(p)
            p = self.pool.chain_next[p]
        return out
