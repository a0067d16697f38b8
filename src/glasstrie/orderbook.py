"""One side of a limit order book over a bounded glass.

The glass holds only the best prices. Inserts that would overflow it
are preempted into a plain hash map, guarded by a threshold price: a
price goes to (and is looked up in) the glass exactly when it is
strictly better than the threshold. A preemption sets the threshold to
the new price and moves every glass level not strictly better than it
out with one trie cut (``Glass.split_off``). When a best/next query
runs off the end of the glass while the overflow map is nonempty, a
restructure ranks the overflow map with one sort, moves the best levels
that fit back into the glass and makes the best one left the threshold.
Queries never range past the configured best-price window, so a
restructure always finds room; a full glass at that point means the
caller broke the window contract and gets an error.

A price outside ``[0, 2**key_bits)`` is refused by ``insert``, the one
door every new level passes, with the book unchanged. Without that check,
whether such a price was accepted would depend on how full the glass
is: below ``max_size`` the glass refuses it, while a full glass would
preempt it into the overflow map, where it would become the threshold
and every later restructure would fail to move it back.

The glass's pool is capped at the node bound for ``max_size`` and grows
with the live levels (see ``nodepool``), so a side sized for the worst
case holds memory only for the levels it has.
"""

from __future__ import annotations

from .errors import ConfigError, InvalidArgument, NegativeAmount, PriceTooFar
from .glass import Glass, create

MIN_SIDE = "min"
MAX_SIDE = "max"


class OrderBook:
    """Aggregated price levels for one book side.

    side MIN_SIDE: best price is the lowest (asks);
    side MAX_SIDE: best price is the highest (bids).
    Amounts are positive ints; a level whose amount reaches zero is
    deleted. Single-threaded.
    """

    def __init__(
        self,
        side: str,
        max_size: int = 9000,
        best_window: int = 25,
        key_bits: int = 50,
        chunk_bits: int = 5,
        width: int = 16,
    ):
        if side not in (MIN_SIDE, MAX_SIDE):
            raise ConfigError(f"side must be {MIN_SIDE!r} or {MAX_SIDE!r}")
        if not 1 <= best_window < max_size:
            raise ConfigError(
                f"best window {best_window} must be positive and below max size {max_size}"
            )
        self.side = side
        self.max_size = max_size
        self.best_window = best_window
        self._price_limit = 1 << key_bits
        self.glass: Glass = create(
            key_bits=key_bits,
            chunk_bits=chunk_bits,
            width=width,
            max_size=max_size,
        )
        self.overflow: dict[int, int] = {}
        #: None plays "worse than any real price"
        self.threshold: int | None = None

    # -- side-dependent primitives --------------------------------------

    def better(self, a: int, b: int) -> bool:
        return a < b if self.side == MIN_SIDE else a > b

    def _better_than_threshold(self, price: int) -> bool:
        return self.threshold is None or self.better(price, self.threshold)

    def _glass_best(self) -> int | None:
        it = self.glass.min() if self.side == MIN_SIDE else self.glass.max()
        return None if it is None else it.key

    def _glass_next_worse(self, price: int) -> int | None:
        if self.side == MIN_SIDE:
            return self.glass.next(price)
        return self.glass.prev(price)

    # -- book operations -------------------------------------------------

    def adjust(self, price: int, delta: int):
        """Add ``delta`` to the level at ``price`` (creating or deleting
        the level as needed).

        The level is routed once and looked up once. A glass level is
        then changed or erased at the iterator found, with no second
        lookup. Only a new level goes through :meth:`insert`, where
        preemption lives, and only an emptied overflow level through
        :meth:`erase`, which resets the threshold. A price outside
        ``[0, 2**key_bits)`` is never held, so it reaches :meth:`insert`,
        which refuses it (a negative delta raises NegativeAmount first);
        the level updates that make up most of a feed pay no range check.
        """
        if delta == 0:
            raise InvalidArgument(f"zero delta for level {price}")
        glass = self.glass
        if self._better_than_threshold(price):
            it = glass.locate(price)
            held = 0 if it is None else glass.value_at(it)
        else:
            it = None
            held = self.overflow.get(price, 0)
        amount = held + delta
        if amount < 0:
            raise NegativeAmount(f"level {price} would go to {amount} (corrupt feed)")
        if not held:
            self.insert(price, amount)
        elif it is not None:
            if amount:
                glass.set_value(it, amount)
            else:
                glass.erase_at(it)
        elif amount:
            self.overflow[price] = amount
        else:
            self.erase(price)

    def insert(self, price: int, amount: int):
        """Place a level not currently in the book; a price outside
        ``[0, 2**key_bits)`` raises InvalidArgument."""
        if not 0 <= price < self._price_limit:
            raise InvalidArgument(f"price {price} is outside [0, {self._price_limit})")
        if self._better_than_threshold(price):
            if self.glass.size < self.max_size:
                self.glass.insert(price, amount)
            else:
                # preemption: the glass is full, so the new level goes to
                # the overflow map and the threshold drops to its price.
                # Every glass level no longer strictly better than the new
                # threshold must follow it out, or later lookups of those
                # prices would be routed to the overflow map and miss. One
                # trie cut at the price removes them all: every level at
                # or above it on a min side, at or below it on a max side.
                self.overflow[price] = amount
                self.threshold = price
                self.overflow.update(self.glass.split_off(price, self.side == MIN_SIDE))
        else:
            self.overflow[price] = amount

    def erase(self, price: int):
        if self._better_than_threshold(price):
            self.glass.erase(price)
        else:
            self.overflow.pop(price, None)
            if not self.overflow:
                # keep "overflow nonempty iff threshold set" true, so a
                # later miss against a drained overflow cannot trip a
                # pointless restructure
                self.threshold = None

    def find(self, price: int) -> int | None:
        if self._better_than_threshold(price):
            return self.glass.find(price)
        return self.overflow.get(price)

    def best(self) -> int | None:
        """Best price of the whole book, or None when it is empty."""
        if self.glass.size == 0 and self.threshold is not None:
            self.restructure()
        return self._glass_best()

    def next_best_after(self, price: int) -> int | None:
        """Next worse price after ``price``; only supported within the
        configured best-price window."""
        result = self._glass_next_worse(price)
        if result is None and self.threshold is not None:
            self.restructure()
            result = self._glass_next_worse(price)
        return result

    def restructure(self):
        """Move the best overflow levels into the glass and advance the
        threshold to the best price left behind (or clear it).

        One sort ranks the whole overflow map; the levels that fit move
        best first, and the rank just past them is the new threshold.
        """
        available = self.max_size - self.glass.size
        if available == 0:
            raise PriceTooFar(
                "next-best query beyond the reachable window: glass already full"
            )
        overflow = self.overflow
        ranked = sorted(overflow, reverse=self.side == MAX_SIDE)
        insert = self.glass.insert
        for price in ranked[:available]:
            insert(price, overflow[price])
            del overflow[price]
        self.threshold = ranked[available] if available < len(ranked) else None

    def iterate_best(self, depth: int) -> list[tuple[int, int]]:
        """Best ``depth`` levels, best first, as (price, amount) pairs.

        Walks the glass with its own iterators (amounts read straight
        from the iterator slots); a restructure in the middle of the
        walk leaves existing iterators valid, since it only adds levels.
        """
        if depth > self.best_window:
            raise ConfigError(
                f"iteration depth {depth} exceeds best window {self.best_window}"
            )
        if self.best() is None:
            return []
        descending = self.side == MAX_SIDE
        items = self.glass.first_items(depth, descending)
        if len(items) < depth and self.threshold is not None:
            # the glass ran dry mid-window: pull levels back and rewalk
            self.restructure()
            items = self.glass.first_items(depth, descending)
        return items

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return self.glass.size + len(self.overflow)

    def levels(self) -> list[tuple[int, int]]:
        """Every level, best first (test helper; walks everything)."""
        descending = self.side == MAX_SIDE
        rest = sorted(self.overflow.items(), reverse=descending)
        return self.glass.first_items(self.glass.size, descending) + rest

    def check_invariants(self):
        """Assert the glass/overflow partition; test harness use."""
        assert self.glass.size <= self.max_size
        assert bool(self.overflow) == (self.threshold is not None)
        glass_keys = self.glass.keys()
        if self.threshold is not None:
            for price in glass_keys:
                assert self.better(price, self.threshold)
            for price in self.overflow:
                assert not self.better(price, self.threshold)
        if glass_keys and self.overflow:
            worst_glass = glass_keys[-1] if self.side == MIN_SIDE else glass_keys[0]
            for price in self.overflow:
                assert self.better(worst_glass, price)
