"""The glass: a trie-based ordered map over fixed-width integer keys.

Supports insert / erase / find / min / max / next / prev plus iterator
stepping, with three accelerators that never change observable results:

* a cached root path to the last inserted key, so a descent can start
  at the deepest ancestor shared with the new key instead of the root,
  and a lookup in its pre-leaf needs neither probe nor descent;
* a cache table mapping key-prefixes to pre-leaf handles, giving most
  lookups a single hash probe instead of a descent;
* cached min/max iterators, kept current by every insert and erase.

Keys are consumed in chunk_bits slices from the most significant end;
nodes on the last level ("pre-leafs") hold one mask bit and one value
slot per possible final chunk, so the conceptual leaf level is never
materialized. Every node has one row of fanout slots in the pool: an
inner node's hold child handles, a pre-leaf's hold values, and a clear
slot holds None in either. An iterator is just (pre-leaf handle, full
key). The glass builds its iterators with
``tuple.__new__(Iterator, ...)``, which skips the NamedTuple's
Python-level ``__new__`` (best of 21 interleaved rounds on a shared
2-CPU Xeon, CPython 3.11.7: 381 ns through the constructor, 192 ns
through ``tuple.__new__``); the type and its constructor are unchanged
for callers.

``locate`` and ``erase`` resolve a key's pre-leaf through
``_preleaf_of``: first the pre-leaf that ends a whole cached path, when
the key differs from ``last_key`` only in its last chunk (no probe);
then the cache table; on a don't-know, the descent.
On perfbench's book-feed 73% of these lookups end at the first step,
on map-uniform under 0.1%. Every erase goes by key: nothing removes an
element through an iterator, which could be stale.
``split_off(key, above)`` removes one whole side of a key in one cut:
a walk up the key's path detaches every subtree beyond it, trims the
cut pre-leaf, frees all the nodes in one ``Pool.deallocate_many`` call
and repairs ``size``, the cached path and the edge cache once, where
erasing the same elements one by one would repeat each of those steps
per element. An order book's preemption is one such cut.
``insert_sorted(keys, value)`` is its build-side twin: it inserts a
strictly monotone run one pre-leaf at a time. The first key of each
pre-leaf goes through ``insert``; the keys after it in the same pre-leaf
only set bits of a local mask. ``size`` and the edge cache are repaired
once. It leaves the state one ``insert`` per key would, allocations and
table chains included. An order book's restructure is one such build.

Pool arrays and geometry constants are bound to instance attributes
once. Lookups and neighbour walks are built from three private
primitives: ``_jump`` (the cached-path jump), ``_descend`` (the
read-only descent from it) and ``_climb`` (scan a node's mask past the
key, climb parents until a sibling subtree exists, roll down its edge
with ``_edge_from``, which also repairs the edge cache after an erase or
a cut). ``insert`` shares ``_jump`` and keeps the one descent that
rewrites the cached path as it goes. It has two arms: a descent that
reaches the pre-leaf sets a slot there and returns; any other, an empty
glass included (a descent that stops above the root), builds the
missing suffix from one ``Pool.allocate_many`` batch in one loop. Three
copies stay inlined because routing them through a shared helper
measured slower:

* ``first_items`` walks with its own climb loop: with its climbs routed
  through ``_climb``, ``first_items(10)`` over sparse keys took 1.35-1.5x
  as long, and with every step a ``_climb`` call 2.4-3x;
* ``_preleaf_of`` probes the cache table itself: routed through
  ``CacheTable.lookup``, an absent-key ``find`` took 1.17x as long and a
  present one 1.09-1.26x. ``CacheTable.lookup`` stays the instrumented
  model of the same probe;
* ``find`` carries its own copy of that probe and reads the slot on a
  hit: routed through ``_preleaf_of`` and a mask test, its local
  find-existing ratio against the red-black tree (acceptance criterion
  9's estimator, median of 20 interleaved rounds on a shared 2-CPU
  Xeon, CPython 3.11.7) fell from 1.53 to 1.01, below 1.0 in 8 rounds
  of 20 rather than 1. On a don't-know it goes straight to
  ``_descend``, so the chain is walked once. ``locate`` and ``erase``
  keep using ``_preleaf_of``.
"""

from __future__ import annotations

from operator import gt as _gt, lt as _lt
from typing import NamedTuple

from .bitops import TrieGeometry, WORD_BITS
from .cachetable import PROBE_LIMIT, CacheTable, _HASH_MULT, _MASK64
from .errors import ConfigError, GlassFull, IntegrityError, InvalidArgument
from .nodepool import CapacityModel, Pool, capacity_bound_for_size, max_size_for_capacity


class Iterator(NamedTuple):
    """Position of one stored element: its pre-leaf and its full key."""

    preleaf: int
    key: int


class CompressedIterator(NamedTuple):
    """Iterator squeezed to a handle plus the key's final chunk; the
    rest of the key is recovered from the pre-leaf's stored prefix."""

    preleaf: int
    low_bits: int


#: builds an Iterator without the NamedTuple's Python-level ``__new__``
_new = tuple.__new__


class Glass:
    """Bounded ordered integer map backed by a pooled trie.

    Use :func:`create` unless a preconfigured pool is being injected.
    Values are opaque payloads; ``None`` is reserved to mean "absent".
    A glass instance is single-threaded.
    """

    def __init__(
        self,
        geo: TrieGeometry,
        pool: Pool,
        max_size: int,
        table: CacheTable | None = None,
    ):
        """``table`` injects a cache table over ``pool`` (tests build
        one with a single bucket to send lookups to the descent); None
        builds the default ``CacheTable(pool)``. A table over another
        pool, or one that already holds entries, raises ConfigError.
        """
        if table is None:
            table = CacheTable(pool)
        elif table.pool is not pool:
            raise ConfigError("the cache table is over another pool")
        elif table.count:
            raise ConfigError(f"the cache table already holds {table.count} entries")
        self.geo = geo
        self.pool = pool
        self.max_size = max_size
        self.size = 0
        self.root = pool.invalid
        self.table = table
        # cached path: rho[i] is the depth-i ancestor of last_key for
        # i < path_len; entries beyond that are stale, not cleared
        self.last_key = 0
        self.rho = [0] * geo.levels
        self.path_len = 0
        # edge cache: Iterator of the least and greatest key, None
        # exactly when the glass is empty
        self._first = None
        self._last = None
        # flat bindings for the hot paths (list identities are stable:
        # pool growth extends the arrays in place)
        self._cbits = geo.chunk_bits
        self._key_limit = 1 << geo.key_bits
        self._fanout = geo.fanout
        self._nmask = geo.fanout - 1
        self._levels = geo.levels
        self._lastdepth = geo.levels - 1
        self._prefix_base = geo.bias - (WORD_BITS - geo.key_bits)
        self._invalid = pool.invalid
        self._mask = pool.mask
        self._slots = pool.slots
        self._parent = pool.parent
        self._cache_key = pool.cache_key
        self._chain_next = pool.chain_next
        # bound once: the table refuses to grow under a glass
        table.held = True
        self._heads = table.heads
        self._tshift = table._shift

    # -- helpers -------------------------------------------------------

    def _jump(self, key: int) -> tuple[int, int]:
        """(depth, node) of the deepest cached ancestor shared with
        ``key``, or (0, root) when nothing is cached. ``key`` must lie
        in range."""
        path_len = self.path_len
        if path_len:
            depth = (self._prefix_base + WORD_BITS
                     - (self.last_key ^ key).bit_length()) // self._cbits
            if depth >= path_len:
                depth = path_len - 1
            return depth, self.rho[depth]
        return 0, self.root

    def _descend(self, key: int) -> tuple[int, int, int]:
        """(node, depth, offset) of the deepest existing node on
        ``key``'s path, where ``offset`` is the shift of the key's chunk
        at that depth; the node is the pre-leaf when ``depth`` is the
        last level. Starts from the cached-path jump. Read-only; the
        glass must not be empty and ``key`` must lie in range.
        """
        depth, node = self._jump(key)
        c_bits = self._cbits
        n_mask = self._nmask
        mask = self._mask
        slots = self._slots
        fanout = self._fanout
        last = self._lastdepth
        offset = c_bits * (last - depth)
        while depth < last:
            c = (key >> offset) & n_mask
            if not (mask[node] >> c) & 1:
                break
            node = slots[node * fanout + c]
            offset -= c_bits
            depth += 1
        return node, depth, offset

    def _climb(self, node: int, depth: int, offset: int, key: int, forward: bool) -> Iterator | None:
        """Strict successor (forward) or predecessor of ``key``, searched
        from ``node``, the depth-``depth`` node on ``key``'s path whose
        chunk sits at ``offset``: scan its mask beyond the key's chunk,
        climb parents until a sibling subtree exists, roll down its edge.
        """
        mask = self._mask
        parent_arr = self._parent
        n_mask = self._nmask
        c_bits = self._cbits
        while True:
            c = (key >> offset) & n_mask
            if forward:
                m = mask[node] & ((_MASK64 - 1) << c)
            else:
                m = mask[node] & ((1 << c) - 1)
            if m:
                break
            if depth == 0:
                return None
            node = parent_arr[node]
            depth -= 1
            offset += c_bits
        branch = (m & -m).bit_length() - 1 if forward else m.bit_length() - 1
        prefix = (key & ~((1 << (offset + c_bits)) - 1)) | (branch << offset)
        if depth == self._lastdepth:
            return _new(Iterator, (node, prefix))
        child = self._slots[node * self._fanout + branch]
        return self._edge_from(child, depth + 1, prefix, forward)

    def _edge_from(self, node: int, depth: int, key_prefix: int, forward: bool) -> Iterator:
        """Iterator of the least (forward) or greatest key under ``node``,
        the depth-``depth`` node whose key bits above its chunk are
        ``key_prefix``: follow the lowest or highest set bit down to the
        pre-leaf."""
        mask = self._mask
        slots = self._slots
        fanout = self._fanout
        c_bits = self._cbits
        last = self._lastdepth
        offset = c_bits * (last - depth)
        while True:
            m = mask[node]
            c = (m & -m).bit_length() - 1 if forward else m.bit_length() - 1
            key_prefix |= c << offset
            if depth == last:
                return _new(Iterator, (node, key_prefix))
            node = slots[node * fanout + c]
            offset -= c_bits
            depth += 1

    # -- core operations ----------------------------------------------

    def insert(self, key: int, value) -> bool:
        """Insert-if-absent. True if inserted, False if already present.

        Raises GlassFull when the key is absent and the map is at its
        configured maximum size, and InvalidArgument for a key outside
        ``[0, 2**key_bits)`` or a ``None`` value. Whether or not anything
        is inserted, the cached path ends up describing this key's
        location.
        """
        if not 0 <= key < self._key_limit:
            raise InvalidArgument(f"key {key} is outside [0, 2**{self.geo.key_bits})")
        if value is None:
            raise InvalidArgument("None is reserved for absent keys")
        inv = self._invalid
        fanout = self._fanout
        n_mask = self._nmask
        c_bits = self._cbits
        last = self._lastdepth
        rho = self.rho
        mask = self._mask
        slots = self._slots

        if self.root == inv:
            # an empty glass: the descent stops above the root
            depth = -1
            node = inv
            offset = c_bits * self._levels
        else:
            depth, node = self._jump(key)
            rho[depth] = node
            offset = c_bits * (last - depth)
            while depth < last:
                c = (key >> offset) & n_mask
                if not (mask[node] >> c) & 1:
                    break
                node = slots[node * fanout + c]
                offset -= c_bits
                depth += 1
                rho[depth] = node
            else:
                # reached the pre-leaf: the slot bit decides. The descent
                # overwrote rho with this key's ancestors, so the cached
                # path must follow the key even when nothing is inserted.
                self.last_key = key
                self.path_len = self._levels
                c = key & n_mask
                if (mask[node] >> c) & 1:
                    return False
                if self.size >= self.max_size:
                    raise GlassFull(f"glass is at its maximum size {self.max_size}")
                mask[node] |= 1 << c
                slots[node * fanout + c] = value
                self.size += 1
                if key < self._first[1]:
                    self._first = _new(Iterator, (node, key))
                elif key > self._last[1]:
                    self._last = _new(Iterator, (node, key))
                return True

        # the descent stopped at ``depth``; rho[0..depth] describes this key
        self.last_key = key
        self.path_len = depth + 1
        if self.size >= self.max_size:
            raise GlassFull(f"glass is at its maximum size {self.max_size}")
        # build the missing suffix, depths depth + 1 to the last, from one
        # batch; its pre-leaf's mask holds this key's one bit
        parent_arr = self._parent
        nodes = self.pool.allocate_many(last - depth)
        parent = nodes[0]
        if depth < 0:
            self.root = parent
            parent_arr[parent] = inv
        else:
            c = (key >> offset) & n_mask
            mask[node] |= 1 << c
            slots[node * fanout + c] = parent
            parent_arr[parent] = node
        depth += 1
        rho[depth] = parent
        for child in nodes[1:]:
            offset -= c_bits
            c = (key >> offset) & n_mask
            mask[parent] = 1 << c
            slots[parent * fanout + c] = child
            parent_arr[child] = parent
            depth += 1
            rho[depth] = child
            parent = child
        c = key & n_mask
        mask[parent] = 1 << c
        slots[parent * fanout + c] = value
        self.table.insert(key >> c_bits, parent)
        self.size += 1
        self.path_len = self._levels
        first = self._first
        if first is None or key < first[1]:
            self._first = _new(Iterator, (parent, key))
        lastit = self._last
        if lastit is None or key > lastit[1]:
            self._last = _new(Iterator, (parent, key))
        return True

    def insert_sorted(self, keys: list[int], value) -> int:
        """Insert-if-absent every key of a strictly ascending or strictly
        descending run, each mapped to ``value``; returns how many keys
        were inserted. A key already present is left as it is.

        The build-side twin of :meth:`split_off`, and the end state of
        one :meth:`insert` per key in run order: the same nodes from the
        same allocations, the same table chains, the same cached path and
        edges. The run is built one pre-leaf at a time. The first key
        of a pre-leaf goes through ``insert``, which jumps from the cached
        path, descends and builds any missing suffix; each later key in
        that pre-leaf only sets a bit of a local mask and its value slot,
        and the mask is stored once the run leaves the pre-leaf. ``size``
        and the edges are repaired once, at the end.

        Every check runs before the first write, so on an error the glass
        is unchanged: InvalidArgument for a ``None`` value, a key outside
        ``[0, 2**key_bits)`` or a run that is not strictly monotone, and
        GlassFull when ``size + len(keys)`` exceeds ``max_size``, present
        keys counted too. An empty run returns 0.
        """
        count = len(keys)
        if not count:
            return 0
        if value is None:
            raise InvalidArgument("None is reserved for absent keys")
        lo = keys[0]
        hi = keys[-1]
        ascending = lo < hi
        if not ascending:
            lo, hi = hi, lo
        # a strictly monotone run lies between its two ends
        for end in (lo, hi):
            if not 0 <= end < self._key_limit:
                raise InvalidArgument(f"key {end} is outside [0, 2**{self.geo.key_bits})")
        if count > 1 and not all(map(_lt if ascending else _gt, keys, keys[1:])):
            raise InvalidArgument("keys must be strictly ascending or strictly descending")
        if self.size + count > self.max_size:
            raise GlassFull(
                f"{count} keys do not fit a glass holding {self.size} of {self.max_size}"
            )
        inv = self._invalid
        fanout = self._fanout
        n_mask = self._nmask
        c_bits = self._cbits
        last = self._lastdepth
        rho = self.rho
        mask = self._mask
        slots = self._slots
        # through the class: a wrapper on the instance's ``insert`` (a
        # tracer, a spy) sees one bulk call, not one per pre-leaf
        insert = Glass.insert
        size = self.size
        # keys set in the pre-leaf in hand; ``insert`` counts its own
        added = 0
        # the pre-leaf in hand: its handle, key prefix, slot row and the
        # mask it will be given; ``start`` is the first key's pre-leaf
        preleaf = start = inv
        prefix = -1
        row = m = 0
        for key in keys:
            key_hi = key >> c_bits
            if key_hi != prefix:
                # leave the pre-leaf in hand; ``insert`` places this key
                # and ends the cached path at its pre-leaf
                if prefix >= 0:
                    mask[preleaf] = m
                prefix = key_hi
                insert(self, key, value)
                preleaf = rho[last]
                m = mask[preleaf]
                row = preleaf * fanout
                if start == inv:
                    start = preleaf
                continue
            c = key & n_mask
            if not (m >> c) & 1:
                m |= 1 << c
                slots[row + c] = value
                added += 1
        mask[preleaf] = m
        self.size += added
        self.last_key = keys[-1]
        if not ascending:
            start, preleaf = preleaf, start
        first = self._first
        if first is None or lo < first[1]:
            self._first = _new(Iterator, (start, lo))
        lastit = self._last
        if lastit is None or hi > lastit[1]:
            self._last = _new(Iterator, (preleaf, hi))
        return self.size - size

    def find(self, key: int):
        """Stored value for ``key``, or None.

        Resolution order: cache table, then, on a don't-know, a descent
        from the cached path. A definitive table answer never descends.
        The probe is ``_preleaf_of``'s, inlined (module docstring): on a
        hit, or at the pre-leaf a descent reaches, the slot is read at
        once, since a slot is None exactly when its mask bit is clear.
        """
        inv = self._invalid
        key_hi = key >> self._cbits
        p = self._heads[((key_hi * _HASH_MULT) & _MASK64) >> self._tshift]
        cache_key = self._cache_key
        chain_next = self._chain_next
        probes = 0
        while p != inv and probes < PROBE_LIMIT:
            if cache_key[p] == key_hi:
                return self._slots[p * self._fanout + (key & self._nmask)]
            p = chain_next[p]
            probes += 1
        if p == inv or not 0 <= key < self._key_limit:
            return None
        # don't-know: descend from the cached path
        node, depth, _ = self._descend(key)
        if depth == self._lastdepth:
            return self._slots[node * self._fanout + (key & self._nmask)]
        return None

    def _preleaf_of(self, key: int) -> int:
        """Pre-leaf holding ``key``'s slot, or the pool's invalid handle.

        A key in the pre-leaf that ends a whole cached path is answered
        from the path; a negative or out-of-range key differs from
        ``last_key`` above its last chunk, so the test rejects it.
        Otherwise a definitive cache-table answer decides at once, and a
        don't-know falls back to the descent. A don't-know means a chain
        of live pre-leafs, so the glass is not empty there. No stored
        prefix matches a key outside ``[0, 2**key_bits)``, so only the
        descent needs the range check. Read-only.
        """
        if self.path_len == self._levels and not (key ^ self.last_key) >> self._cbits:
            return self.rho[self._lastdepth]
        inv = self._invalid
        key_hi = key >> self._cbits
        p = self._heads[((key_hi * _HASH_MULT) & _MASK64) >> self._tshift]
        cache_key = self._cache_key
        chain_next = self._chain_next
        probes = 0
        while p != inv and probes < PROBE_LIMIT:
            if cache_key[p] == key_hi:
                return p
            p = chain_next[p]
            probes += 1
        if p == inv or not 0 <= key < self._key_limit:
            return inv
        node, depth, _ = self._descend(key)
        return node if depth == self._lastdepth else inv

    def locate(self, key: int) -> Iterator | None:
        """Iterator of the stored ``key``, or None when it is absent.

        Read-only: unlike :meth:`insert`, it leaves the cached path
        where it was.
        """
        preleaf = self._preleaf_of(key)
        if preleaf != self._invalid and (self._mask[preleaf] >> (key & self._nmask)) & 1:
            return _new(Iterator, (preleaf, key))
        return None

    def erase(self, key: int) -> bool:
        """Remove ``key``; True if it was present.

        Deallocates the chain of nodes left childless, truncates the
        cached path by the removed chain's overlap with it, and fixes
        the edge cache.
        """
        inv = self._invalid
        preleaf = self._preleaf_of(key)
        if preleaf == inv:
            return False
        mask = self._mask
        c = key & self._nmask
        m = mask[preleaf]
        if not (m >> c) & 1:
            return False
        fanout = self._fanout
        slots = self._slots
        m &= ~(1 << c)
        mask[preleaf] = m
        slots[preleaf * fanout + c] = None
        self.size -= 1

        # walk up unlinking childless nodes from their parents, then free
        # the chain in one call; the walk stops at ``parent`` (chunk at
        # ``offset``), the deepest node left with a child
        removed = 0
        if m == 0:
            parent_arr = self._parent
            c_bits = self._cbits
            n_mask = self._nmask
            self.table.remove(preleaf)
            freed = [preleaf]
            node = preleaf
            offset = 0
            while True:
                parent = parent_arr[node]
                if parent == inv:
                    self.root = inv
                    break
                offset += c_bits
                pc = (key >> offset) & n_mask
                pm = mask[parent] & ~(1 << pc)
                mask[parent] = pm
                slots[parent * fanout + pc] = None
                if pm:
                    break
                freed.append(parent)
                node = parent
            self.pool.deallocate_many(freed)
            removed = len(freed)

        # cached-path truncation: overlap of the cached path with the
        # removed chain, bounded by the depth of the deepest node the key
        # shares with last_key; that is the pre-leaf's depth at most, also
        # when the key is last_key itself, so erasing it drops exactly the
        # path entries whose nodes were freed
        path_len = self.path_len
        if path_len:
            shared = (self._prefix_base + WORD_BITS
                      - (self.last_key ^ key).bit_length()) // self._cbits
            if shared > self._lastdepth:
                shared = self._lastdepth
            if shared > path_len:
                shared = path_len
            drop = shared + removed + 1 - self._levels
            if drop > 0:
                self.path_len = path_len - drop if drop < path_len else 0

        if self.size == 0:
            self._first = None
            self._last = None
            return True
        # an erased edge's successor lives in the same pre-leaf when any
        # slot is left there, since every other pre-leaf lies wholly
        # beyond it; otherwise under the node where the unlink walk
        # stopped, since every key outside that subtree lies beyond it
        if self._first[1] == key:
            if m:
                self._first = _new(Iterator, (preleaf, key - c + ((m & -m).bit_length() - 1)))
            else:
                self._first = self._edge_from(parent, self._lastdepth - offset // c_bits,
                                              key & ~((1 << (offset + c_bits)) - 1), True)
        elif self._last[1] == key:
            if m:
                self._last = _new(Iterator, (preleaf, key - c + (m.bit_length() - 1)))
            else:
                self._last = self._edge_from(parent, self._lastdepth - offset // c_bits,
                                             key & ~((1 << (offset + c_bits)) - 1), False)
        return True

    def split_off(self, key: int, above: bool) -> int:
        """Remove every element at or above ``key`` (``above``), or at or
        below it, and return how many were removed.

        One walk up ``key``'s path from its deepest node: the cut
        pre-leaf loses its slots from ``key`` on, each subtree wholly
        beyond the path is detached and collected, and path nodes left
        empty are unlinked. Every freed node goes back blank, every slot
        None, in one ``Pool.deallocate_many`` call, and ``size``, the
        cached path and the edge cache are repaired once. ``key`` may be
        any int: past either end of ``[0, 2**key_bits)`` it cuts
        everything or nothing, as a comparison with every stored key
        would.
        """
        if self.size == 0:
            return 0
        # out-of-range keys answer as comparisons do: nothing lies at or
        # above a key past the top, and a negative key cuts what 0 cuts;
        # the mirror image for a cut below
        if above:
            if key >= self._key_limit:
                return 0
            if key < 0:
                key = 0
        else:
            if key < 0:
                return 0
            if key >= self._key_limit:
                key = self._key_limit - 1
        inv = self._invalid
        mask = self._mask
        slots = self._slots
        fanout = self._fanout
        c_bits = self._cbits
        last = self._lastdepth
        table = self.table
        blank_row = [None] * fanout
        removed = 0
        freed = []
        # (node, depth) of each subtree removed whole
        stack = []
        node, depth, offset = self._descend(key)
        parent_arr = self._parent
        n_mask = self._nmask
        emptied = False
        while True:
            c = (key >> offset) & n_mask
            m = mask[node]
            row = node * fanout
            if depth == last:
                cut = m & (-1 << c) if above else m & ((2 << c) - 1)
                removed += cut.bit_count()
                rest = cut
                while rest:
                    low = rest & -rest
                    slots[row + low.bit_length() - 1] = None
                    rest ^= low
            else:
                cut = m & (-2 << c) if above else m & ((1 << c) - 1)
                rest = cut
                while rest:
                    low = rest & -rest
                    b = low.bit_length() - 1
                    stack.append((slots[row + b], depth + 1))
                    slots[row + b] = None
                    rest ^= low
                if emptied:
                    cut |= 1 << c
                    slots[row + c] = None
            m ^= cut
            mask[node] = m
            emptied = not m
            if emptied:
                freed.append(node)
                if depth == last:
                    table.remove(node)
            if depth == 0:
                if emptied:
                    self.root = inv
                break
            node = parent_arr[node]
            depth -= 1
            offset += c_bits
        while stack:
            node, depth = stack.pop()
            freed.append(node)
            m = mask[node]
            row = node * fanout
            if depth == last:
                table.remove(node)
                removed += m.bit_count()
                # a clear slot already holds None
                slots[row:row + fanout] = blank_row
            else:
                while m:
                    low = m & -m
                    b = low.bit_length() - 1
                    stack.append((slots[row + b], depth + 1))
                    slots[row + b] = None
                    m ^= low
        if not removed:
            return 0
        self.pool.deallocate_many(freed)
        self.size -= removed
        # the cached path now ends at its first freed node: a freed node's
        # mask reads 0, a live one's never does, and every node below a
        # freed one was freed too
        rho = self.rho
        path_len = 0
        while path_len < self.path_len and mask[rho[path_len]]:
            path_len += 1
        self.path_len = path_len
        if self.size == 0:
            self._first = None
            self._last = None
        elif above:
            self._last = self._edge_from(self.root, 0, 0, False)
        else:
            self._first = self._edge_from(self.root, 0, 0, True)
        return removed

    def min(self) -> Iterator | None:
        return self._first

    def max(self) -> Iterator | None:
        return self._last

    def _neighbor(self, key: int, forward: bool) -> Iterator | None:
        """Strict successor (forward) or predecessor of ``key``; the key
        itself need not be stored, nor lie in ``[0, 2**key_bits)``."""
        if self.root == self._invalid:
            return None
        if key < 0:
            return self._first if forward else None
        if key >= self._key_limit:
            return None if forward else self._last
        node, depth, offset = self._descend(key)
        return self._climb(node, depth, offset, key, forward)

    def next(self, key: int) -> int | None:
        """Smallest stored key strictly greater than ``key``, or None."""
        it = self._neighbor(key, True)
        return None if it is None else it[1]

    def prev(self, key: int) -> int | None:
        """Largest stored key strictly less than ``key``, or None."""
        it = self._neighbor(key, False)
        return None if it is None else it[1]

    def iter_next(self, it: Iterator) -> Iterator | None:
        """Successor element of a valid iterator.

        Unlike :meth:`next`, no descent is needed: the iterator already
        holds its pre-leaf, so the step scans that node's mask and only
        climbs parents when the pre-leaf is exhausted.
        """
        return self._climb(it[0], self._lastdepth, 0, it[1], True)

    def iter_prev(self, it: Iterator) -> Iterator | None:
        return self._climb(it[0], self._lastdepth, 0, it[1], False)

    def value_at(self, it: Iterator):
        return self._slots[it[0] * self._fanout + (it[1] & self._nmask)]

    def first_items(self, count: int, descending: bool = False) -> list[tuple[int, int]]:
        """Up to ``count`` (key, value) pairs from the ordered end.

        One call walks the whole range; this is the bulk form of
        min()/iter_next(). The walk is inlined, not built on ``_climb``,
        because the calls cost more than the walk (module docstring).
        """
        if count <= 0 or self.size == 0:
            return []
        start = self._last if descending else self._first
        node, key = start
        mask = self._mask
        slots = self._slots
        parent_arr = self._parent
        fanout = self._fanout
        n_mask = self._nmask
        c_bits = self._cbits
        lastdepth = self._lastdepth
        inv = self._invalid
        word_top = _MASK64 - 1
        out = [(key, slots[node * fanout + (key & n_mask)])]
        while len(out) < count:
            c = key & n_mask
            if descending:
                m = mask[node] & ((1 << c) - 1)
            else:
                m = mask[node] & (word_top << c)
            if m:
                if descending:
                    key = key - c + (m.bit_length() - 1)
                else:
                    key = key - c + ((m & -m).bit_length() - 1)
                out.append((key, slots[node * fanout + (key & n_mask)]))
                continue
            # climb until a sibling subtree exists, then roll down its edge
            depth = lastdepth
            offset = 0
            up = node
            while True:
                par = parent_arr[up]
                if depth == 0 or par == inv:
                    return out
                up = par
                depth -= 1
                offset += c_bits
                c = (key >> offset) & n_mask
                if descending:
                    m = mask[up] & ((1 << c) - 1)
                else:
                    m = mask[up] & (word_top << c)
                if m:
                    break
            if descending:
                branch = m.bit_length() - 1
            else:
                branch = (m & -m).bit_length() - 1
            key = (key & ~((1 << (offset + c_bits)) - 1)) | (branch << offset)
            up = slots[up * fanout + branch]
            depth += 1
            offset -= c_bits
            while depth < lastdepth:
                m = mask[up]
                if descending:
                    c = m.bit_length() - 1
                else:
                    c = (m & -m).bit_length() - 1
                key |= c << offset
                up = slots[up * fanout + c]
                offset -= c_bits
                depth += 1
            m = mask[up]
            if descending:
                key |= m.bit_length() - 1
            else:
                key |= (m & -m).bit_length() - 1
            node = up
            out.append((key, slots[node * fanout + (key & n_mask)]))
        return out

    # -- compressed iterators -----------------------------------------

    def compress(self, it: Iterator) -> CompressedIterator:
        """Drop all key bits the pre-leaf can reconstruct from the key
        prefix the cache table stores in it."""
        return CompressedIterator(it.preleaf, it.key & self._nmask)

    def decompress(self, cit: CompressedIterator) -> Iterator:
        prefix = self._cache_key[cit.preleaf]
        return _new(Iterator, (cit.preleaf, (prefix << self._cbits) | cit.low_bits))

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def keys(self) -> list[int]:
        """All keys in ascending order."""
        return [k for k, _ in self.first_items(self.size)]

    def dump(self) -> str:
        """Deterministic text rendering of the trie for golden tests.

        One line per node, preorder: depth, key-prefix bits, mask, and
        child slots (pre-leafs list stored values instead).
        """
        pool = self.pool
        geo = self.geo
        lines = []

        def walk(node: int, depth: int, prefix: str):
            m = pool.mask[node]
            bits = f"{m:0{geo.fanout}b}"
            label = prefix if prefix else "root"
            if depth == geo.levels - 1:
                slots = ",".join(
                    f"{c}={pool.slots[node * geo.fanout + c]!r}"
                    for c in range(geo.fanout)
                    if (m >> c) & 1
                )
                lines.append(f"{depth} {label} mask={bits} values[{slots}]")
                return
            kids = ",".join(str(c) for c in range(geo.fanout) if (m >> c) & 1)
            lines.append(f"{depth} {label} mask={bits} children[{kids}]")
            for c in range(geo.fanout):
                if (m >> c) & 1:
                    walk(
                        pool.slots[node * geo.fanout + c],
                        depth + 1,
                        prefix + format(c, f"0{geo.chunk_bits}b"),
                    )

        if self.root != pool.invalid:
            walk(self.root, 0, "")
        return "\n".join(lines)

    def check_integrity(self, deep: bool = True):
        """Walk the whole structure and raise IntegrityError on the first
        broken invariant.

        Test harness use only. One walk from the root, O(size * fanout),
        checks the trie and collects each live pre-leaf's key prefix;
        ``deep`` adds a walk of every cache-table chain, checking that
        it holds exactly those pre-leafs under exactly those prefixes.
        The checks are plain ``if``s, so they also run under ``python -O``.
        """
        pool = self.pool
        geo = self.geo
        fanout = geo.fanout
        table = self.table
        if self._heads is not table.heads or self._tshift != table._shift:
            raise IntegrityError("the glass's bucket binding differs from its table's")
        if self.root == pool.invalid:
            if self.size != 0:
                raise IntegrityError(f"a glass with no root holds {self.size} elements")
            if pool.live_count != 0:
                raise IntegrityError(f"a glass with no root holds {pool.live_count} live nodes")
            return
        seen = set()
        elements = 0
        prefixes = {}  # live pre-leaf -> its true key prefix
        stack = [(self.root, 0, 0)]
        while stack:
            node, depth, prefix = stack.pop()
            if node in seen:
                raise IntegrityError("cycle in trie")
            seen.add(node)
            m = pool.mask[node]
            if m == 0:
                raise IntegrityError(f"childless interior node {node} at depth {depth}")
            preleaf = depth == geo.levels - 1
            if preleaf:
                prefixes[node] = prefix
                elements += m.bit_count()
            for c in range(fanout):
                slot = pool.slots[node * fanout + c]
                if not (m >> c) & 1:
                    if slot is not None:
                        raise IntegrityError(f"clear slot {c} of node {node} holds {slot!r}")
                elif slot is None:
                    raise IntegrityError(f"set slot {c} of node {node} holds None")
                elif not preleaf:
                    if not 0 <= slot < pool.capacity:
                        raise IntegrityError(f"set bit {c} of node {node} has no child")
                    if pool.parent[slot] != node:
                        raise IntegrityError(f"child {slot} of node {node} names another parent")
                    stack.append((slot, depth + 1, (prefix << geo.chunk_bits) | c))
        if elements != self.size:
            raise IntegrityError(f"{elements} set slots, size says {self.size}")
        if len(seen) != pool.live_count:
            raise IntegrityError(f"{len(seen)} reachable nodes, pool says {pool.live_count} live")
        # cached path: every valid entry is the true ancestor of last_key
        if self.path_len:
            node = self.root
            if self.rho[0] != node:
                raise IntegrityError("cached path does not start at the root")
            offset = geo.chunk_bits * (geo.levels - 1)
            for i in range(1, self.path_len):
                c = (self.last_key >> offset) & (fanout - 1)
                if not (pool.mask[node] >> c) & 1:
                    raise IntegrityError(f"cached path broken at depth {i}")
                node = pool.slots[node * fanout + c]
                if self.rho[i] != node:
                    raise IntegrityError(f"cached path names a wrong node at depth {i}")
                offset -= geo.chunk_bits
        # cache table: one entry per live pre-leaf, under its true prefix
        if table.count != len(prefixes):
            raise IntegrityError(
                f"table counts {table.count} entries for {len(prefixes)} pre-leafs"
            )
        if deep:
            chained = {}
            for b in range(table.bucket_count):
                for p in table.chain(b):
                    chained[p] = pool.cache_key[p]
            if set(chained) != set(prefixes):
                raise IntegrityError("table chains do not hold exactly the live pre-leafs")
            for p, key_hi in chained.items():
                if key_hi != prefixes[p]:
                    raise IntegrityError(f"pre-leaf {p} chained under a wrong prefix")

def create(
    key_bits: int,
    chunk_bits: int,
    width: int = 32,
    max_size: int = 0,
) -> Glass:
    """Build a glass with a freshly sized pool.

    The pool is capped at the node bound for ``max_size``; it starts at
    16 nodes and doubles with the live nodes under that cap, while the
    cache table is sized from the cap at once. Raises
    ``ConfigError`` when that bound exceeds what the handle width can
    address, that is when ``max_size`` is above
    ``max_size_for_capacity(model.addressable, model)`` (9211 for 50-bit
    keys in 5-bit chunks at width 16).
    """
    geo = TrieGeometry(key_bits=key_bits, chunk_bits=chunk_bits)
    model = CapacityModel(geo, width=width)
    limit = max_size_for_capacity(model.addressable, model)
    if max_size > limit:
        raise ConfigError(
            f"max_size {max_size} cannot fit {width}-bit handles (at most {limit})"
        )
    pool = Pool(geo, width=width, max_capacity=capacity_bound_for_size(max_size, model))
    return Glass(geo, pool, max_size)
