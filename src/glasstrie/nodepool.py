"""Fixed-layout trie node pool with a free-list slot allocator.

Nodes live in parallel arrays indexed by integer handles rather than
machine pointers; a handle fits 16 or 32 bits. Each node owns one row
of ``fanout`` slots: an inner node's slots hold child handles and a
pre-leaf's hold values, so no node needs two rows. A blank slot, in
either kind of node, is None. The top two values of the handle range
stay reserved, as in the paper's layout: INVALID for "end / not
found", and one the paper gives to spoiled cached iterators. The glass
keeps its edge iterators current and never spoils one, but the second
value stays reserved all the same, because the capacity arithmetic
(acceptance criteria 1 and 2) is pinned to 2**width - 2 nodes.

Free slots form a singly-linked list threaded through the ``free_link``
field, trash-encoded: the field is stored so that all-zero memory reads
as "next slot in the array", which keeps the never-touched tail of the
pool, fresh or just grown, all zero, with every slot None.
``trash_decode`` and ``trash_encode`` are the codec; the pop loop in
``allocate_many`` and the push loop in ``deallocate_many`` write the
same arithmetic out, because a call per node cost more than the loop
around it: best of 30
interleaved rounds on a shared 2-CPU Xeon (CPython 3.11.7), popping 7
nodes took 1,199 ns written out against 1,565 ns with a decode call per
node, and freeing them in one batch 1,201 ns against 2,146 ns for seven
``deallocate`` calls that each called the encoder.

A pool starts at ``min(max_capacity, 16)`` nodes and doubles, up to its
cap, whenever the free list runs dry. Every node leaves the pool through
one pop loop, in ``allocate_many``, which does that growing, and comes
back through one push loop, in ``deallocate_many``. Growth is
all or nothing: a request the pool cannot cover raises ``PoolExhausted``
before any node is taken or any array grows. A growth step extends each
array in place, so list identities stay stable and no transient list of
the added size is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .bitops import TrieGeometry
from .errors import ConfigError, IntegrityError, InvalidArgument, PoolExhausted

#: bytes per node for each supported handle width
NODE_BYTES = {16: 48, 32: 80}


def invalid_handle(width: int) -> int:
    return (1 << width) - 1


def trash_decode(stored: int, slot: int) -> int | None:
    """Decode a free node's next-free field.

    0 means "the next slot in the array", 1 means "no next node",
    anything else is a handle biased by two.
    """
    if stored == 0:
        return slot + 1
    if stored == 1:
        return None
    return stored - 2


def trash_encode(target: int | None, slot: int) -> int:
    """Inverse of :func:`trash_decode`; never overflows the handle width
    because capacity is capped two below the width's range."""
    if target is None:
        return 1
    if target == slot + 1:
        return 0
    return target + 2


class Pool:
    """Growable array of trie nodes with O(1) allocate/deallocate.

    Storage is struct-of-arrays: ``mask``, ``parent``, ``chain_next``,
    ``chain_prev``, ``cache_key`` and ``free_link`` hold one int per
    node; ``slots`` is flat, ``fanout`` entries per node, holding child
    handles in an inner node and values in a pre-leaf, never both. A
    blank slot is None. Memory handed out is always mask-zeroed with
    every slot None, mirroring a zeroing allocator, so a fresh node
    needs no initialization.
    """

    def __init__(
        self,
        geo: TrieGeometry,
        width: int = 32,
        max_capacity: int | None = None,
        debug: bool = False,
    ):
        if width not in NODE_BYTES:
            raise ConfigError(f"handle width must be 16 or 32, got {width}")
        limit = (1 << width) - 2
        if max_capacity is None:
            max_capacity = limit
        if not 0 <= max_capacity <= limit:
            raise ConfigError(
                f"max capacity {max_capacity} not addressable by {width}-bit handles"
            )
        self.geo = geo
        self.width = width
        self.invalid = invalid_handle(width)
        self.max_capacity = max_capacity
        self.debug = debug  # double-free tracking (IntegrityError on one)
        self.live_count = 0
        self.capacity = 0
        self.mask, self.parent, self.chain_next, self.chain_prev = [], [], [], []
        self.cache_key, self.free_link, self.slots = [], [], []
        self.children = self.values = self.slots  # perfbench's array_bytes reads both names
        self._free_set = set()
        self._grow(min(max_capacity, 16))

    def _grow(self, new_cap: int):
        """Extend every array in place to ``new_cap`` nodes, zeroed, with
        every slot None; the caller has checked that the free list is dry
        and that ``new_cap`` is within ``max_capacity``. The new nodes
        already read as a trash-encoded free list in array order."""
        added = new_cap - self.capacity
        for arr in (self.mask, self.parent, self.chain_next, self.chain_prev,
                    self.cache_key, self.free_link):
            arr.extend(repeat(0, added))
        self.slots.extend(repeat(None, added * self.geo.fanout))
        if self.debug:
            self._free_set.update(range(self.capacity, new_cap))
        self.first_free = self.capacity
        self.capacity = new_cap

    def allocate(self) -> int:
        """Pop one node; see :meth:`allocate_many`."""
        return self.allocate_many(1)[0]

    def deallocate(self, p: int):
        """Push ``p`` onto the free-list head; see :meth:`deallocate_many`."""
        self.deallocate_many((p,))

    def deallocate_many(self, nodes):
        """Push ``nodes`` onto the free-list head in order, the same as
        one :meth:`deallocate` each: the last node ends up at the head.
        O(1) per node, no traversal.

        Node fields are re-zeroed so each node reads as blank memory
        when it is allocated again; its slots must already be None,
        which the glass sees to as it unlinks.
        """
        if self.debug:
            for p in nodes:
                if p in self._free_set:
                    raise IntegrityError(f"double free of node {p}")
                self._free_set.add(p)
        mask, parent, chain_next = self.mask, self.parent, self.chain_next
        chain_prev, cache_key, link = self.chain_prev, self.cache_key, self.free_link
        head = self.first_free
        cap = self.capacity
        for p in nodes:
            mask[p] = parent[p] = chain_next[p] = chain_prev[p] = cache_key[p] = 0
            # trash_encode written out; a head at or past the capacity
            # (the invalid handle included) means the list was dry
            if head >= cap:
                link[p] = 1
            elif head == p + 1:
                link[p] = 0
            else:
                link[p] = head + 2
            head = p
        self.first_free = head
        self.live_count -= len(nodes)

    def allocate_many(self, count: int) -> list[int]:
        """Pop ``count`` nodes off the free list, growing the arrays
        whenever it runs dry; the same nodes as ``count`` single pops.

        All or nothing: when growth cannot cover what is still missing,
        PoolExhausted is raised before any node is taken, and the pool
        is left as it was. Every node handed out must arrive blank, or
        IntegrityError is raised, also under ``python -O``.
        """
        out = []
        p = self.first_free
        inv = self.invalid
        mask = self.mask
        link = self.free_link
        while len(out) < count:
            if p == inv or p >= self.capacity:
                missing = count - len(out)
                if self.max_capacity - self.capacity < missing:
                    raise PoolExhausted(
                        f"{missing} more nodes needed, pool capped at {self.max_capacity}"
                    )
                self._grow(min(self.max_capacity, self.capacity * 2))
                p = self.first_free
            if mask[p]:
                raise IntegrityError("allocated node must arrive blank")
            out.append(p)
            # trash_decode written out: 0 is the next slot, 1 the end
            s = link[p]
            p = p + 1 if s == 0 else (inv if s == 1 else s - 2)
        self.first_free = p
        self.live_count += count
        if self.debug:
            self._free_set.difference_update(out)
        return out

    def free_list_slots(self) -> list[int]:
        """Free slots in list order (diagnostics and tests)."""
        out = []
        p = self.first_free
        while p != self.invalid and p < self.capacity:
            out.append(p)
            nxt = trash_decode(self.free_link[p], p)
            p = self.invalid if nxt is None else nxt
        return out


@dataclass(frozen=True)
class CapacityModel:
    """Worst-case node-count and memory model for a trie shape."""

    geo: TrieGeometry
    width: int = 32

    @property
    def node_size_bytes(self) -> int:
        return NODE_BYTES[self.width]

    @property
    def addressable(self) -> int:
        return (1 << self.width) - 2


def capacity_bound_for_size(size: int, model: CapacityModel) -> int:
    """Upper bound on nodes needed to hold ``size`` elements.

    Level 0 holds at most one node (the root), level 1 at most
    2**root_bits, and each further level at most fanout times the level
    above; no level can exceed ``size`` nodes.
    """
    if size < 0:
        raise InvalidArgument(f"element count must not be negative, got {size}")
    geo = model.geo
    total = 0
    level = min(size, 1)
    for depth in range(geo.levels):
        if depth == 1:
            level = min(size, 1 << geo.root_bits)
        elif depth >= 2:
            level = min(size, level * geo.fanout)
        total += level
    return total


def max_size_for_capacity(capacity: int, model: CapacityModel) -> int:
    """Largest element count whose node bound fits ``capacity``.

    Binary search over the monotone bound; the answer never exceeds the
    full key space.
    """
    if capacity < 0:
        raise InvalidArgument(f"capacity must not be negative, got {capacity}")
    lo, hi = 0, 1 << model.geo.key_bits
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if capacity_bound_for_size(mid, model) <= capacity:
            lo = mid
        else:
            hi = mid - 1
    return lo
