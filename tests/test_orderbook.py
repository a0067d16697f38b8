from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from glasstrie.errors import (
    ConfigError,
    IntegrityError,
    InvalidArgument,
    NegativeAmount,
    PriceTooFar,
)
from glasstrie.glass import Glass, create
from glasstrie.oracle import OracleBook, fuzz_orderbook, gen_book_ops
from glasstrie.orderbook import MAX_SIDE, MIN_SIDE, OrderBook


def make(side=MIN_SIDE, max_size=4, window=None, key_bits=16, cls=OrderBook):
    window = window or min(25, max_size - 1)
    return cls(side, max_size=max_size, best_window=window,
               key_bits=key_bits, chunk_bits=4, width=16)


class TestInit:
    def test_empty_book(self):
        book = make()
        assert book.best() is None
        assert len(book) == 0

    def test_min_side_orders_ascending(self):
        book = make(MIN_SIDE, max_size=8)
        for p in (30, 10, 20):
            book.adjust(p, 5)
        assert book.best() == 10
        assert book.better(10, 20)

    def test_max_side_orders_descending(self):
        book = make(MAX_SIDE, max_size=8)
        for p in (30, 10, 20):
            book.adjust(p, 5)
        assert book.best() == 30
        assert book.better(30, 20)

    def test_window_must_fit(self):
        with pytest.raises(ConfigError):
            OrderBook(MIN_SIDE, max_size=4, best_window=4, key_bits=16,
                      chunk_bits=4, width=16)


class TestLazyPool:
    def test_default_side_starts_small_with_full_table(self):
        glass = OrderBook(MIN_SIDE).glass
        assert glass.pool.capacity == 16
        assert glass.pool.max_capacity == 64057
        assert glass.table.bucket_count == 32768

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    def test_filled_past_max_size_grows_under_cap(self, side):
        book = make(side, max_size=64, key_bits=20)
        rng = random.Random(97)
        held: dict[int, int] = {}
        for _ in range(3000):
            if held and rng.random() < 0.3:
                price = rng.choice(list(held))
                delta = -held[price] if rng.random() < 0.5 else 1
            else:
                price, delta = rng.randrange(1 << 20), rng.randint(1, 9)
            held[price] = held.get(price, 0) + delta
            if not held[price]:
                del held[price]
            book.adjust(price, delta)
            if rng.random() < 0.05:
                best = sorted(held.items(), reverse=side == MAX_SIDE)[:25]
                assert book.iterate_best(25) == best
        pool = book.glass.pool
        assert 16 < pool.capacity <= pool.max_capacity
        assert book.overflow and book.threshold is not None
        assert book.levels() == sorted(held.items(), reverse=side == MAX_SIDE)
        ref = create(20, 4, width=16, max_size=64)
        for price, amount in book.glass.first_items(book.glass.size):
            ref.insert(price, amount)
        assert book.glass.dump() == ref.dump()
        book.check_invariants()
        book.glass.check_integrity(deep=True)


class TestAdjust:
    def test_creates_level(self):
        book = make(max_size=8)
        book.adjust(100, 5)
        assert book.find(100) == 5

    def test_zero_amount_deletes(self):
        book = make(max_size=8)
        book.adjust(100, 5)
        book.adjust(100, -5)
        assert book.find(100) is None
        assert len(book) == 0

    def test_accumulates(self):
        book = make(max_size=8)
        book.adjust(100, 5)
        book.adjust(100, 3)
        assert book.find(100) == 8

    def test_negative_amount_rejected(self):
        book = make(max_size=8)
        book.adjust(100, 5)
        with pytest.raises(NegativeAmount):
            book.adjust(100, -6)
        assert book.find(100) == 5  # state preserved
        with pytest.raises(NegativeAmount):
            book.adjust(200, -1)  # absent level
        assert book.levels() == [(100, 5)]

    def test_zero_delta_rejected(self):
        book = make(max_size=8)
        book.adjust(100, 5)
        for price in (100, 200):
            with pytest.raises(InvalidArgument):
                book.adjust(price, 0)
        assert book.levels() == [(100, 5)]

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    def test_insert_refuses_non_positive_amount(self, side):
        book = make(side, max_size=4)
        for price, amount in ((100, 0), (101, -5)):
            with pytest.raises(InvalidArgument):
                book.insert(price, amount)
        assert len(book) == 0 and book.iterate_best(3) == []
        # at a full glass a better price would preempt; it must not
        for p in (10, 11, 12, 13, 20):
            book.adjust(p, 1)
        state = (book.levels(), book.threshold, book.glass.dump())
        for price in (5, 15, 30):
            for amount in (0, -5):
                with pytest.raises(InvalidArgument):
                    book.insert(price, amount)
        assert (book.levels(), book.threshold, book.glass.dump()) == state
        book.check_invariants()

    def test_non_positive_amount_refused_under_optimize(self, run_optimized):
        # asserts vanish under python -O; the check must not
        code = (
            "from glasstrie import InvalidArgument, OrderBook\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "book = OrderBook('min', max_size=4, best_window=3, key_bits=16,\n"
            "                 chunk_bits=4, width=16)\n"
            "for price, amount in ((100, 0), (101, -5)):\n"
            "    try:\n"
            "        book.insert(price, amount)\n"
            "    except InvalidArgument:\n"
            "        continue\n"
            "    raise SystemExit(f'amount {amount} stored at {price}')\n"
            "if len(book) or book.iterate_best(3):\n"
            "    raise SystemExit(f'book changed: {book.levels()}')\n"
            "book.check_invariants()\n"
        )
        run_optimized(code)

    def test_out_of_range_price_refused_under_optimize(self, run_optimized):
        # asserts vanish under python -O; the check must not
        code = (
            "from glasstrie import InvalidArgument, OrderBook\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "book = OrderBook('min', max_size=4, best_window=3, key_bits=16,\n"
            "                 chunk_bits=4, width=16)\n"
            "for p in (10, 11, 12, 13):\n"
            "    book.adjust(p, 1)\n"
            "for price in (-5, 1 << 16):\n"
            "    try:\n"
            "        book.adjust(price, 3)\n"
            "    except InvalidArgument:\n"
            "        continue\n"
            "    raise SystemExit(f'price {price} accepted')\n"
            "if book.levels() != [(p, 1) for p in (10, 11, 12, 13)] or book.best() != 10:\n"
            "    raise SystemExit(f'book changed: {book.levels()}')\n"
        )
        run_optimized(code)

    def test_change_updates_glass_level_in_place(self):
        book = make(max_size=8)
        for p in (100, 300, 200):
            book.adjust(p, 5)
        g = book.glass
        state = (g.pool.live_count, g.last_key, g.path_len, g.size)
        book.adjust(300, 4)
        book.adjust(100, -2)
        assert (g.pool.live_count, g.last_key, g.path_len, g.size) == state
        assert book.levels() == [(100, 3), (200, 5), (300, 9)]

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    def test_update_that_keeps_its_level_makes_no_glass_call(self, side):
        book = make(side, max_size=4)
        prices = (0x120, 0x123, 0x4000, 0x4001, 0x9000, 0x9001)
        for p in prices:
            book.adjust(p, 5)
        g = book.glass
        # the updates below hit glass levels and spilled ones alike
        assert g.size and book.overflow

        def state():
            return (g.dump(), g.pool.live_count, g.last_key, g.path_len,
                    g.table.count, book.threshold)

        before = state()
        calls = []

        def recording(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        for name in dir(Glass):
            if not name.startswith("__") and callable(getattr(Glass, name)):
                setattr(g, name, recording(name, getattr(g, name)))
        for p in prices:
            book.adjust(p, 4)
            book.adjust(p, -7)
        assert calls == []
        assert state() == before
        assert [book.find(p) for p in prices] == [2] * 6
        book.check_invariants()

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    def test_levels_best_first_across_glass_and_overflow(self, side):
        book = make(side, max_size=4)
        prices = [5, 1, 9, 3, 7, 2, 8]
        for p in prices:
            book.adjust(p, p * 10)
        assert book.overflow
        assert book.levels() == sorted(((p, p * 10) for p in prices),
                                       reverse=side == MAX_SIDE)


class TestPreemption:
    def test_ascending_overflow_sets_threshold(self):
        book = make(MIN_SIDE, max_size=4)
        for p in (1, 2, 3, 4, 5):
            book.adjust(p, 10)
        assert sorted(book.glass.keys()) == [1, 2, 3, 4]
        assert dict(book.overflow) == {5: 10}
        assert book.threshold == 5
        book.check_invariants()

    def test_better_price_when_full_preempts_itself(self):
        book = make(MIN_SIDE, max_size=4)
        for p in (10, 20, 30, 40):
            book.adjust(p, 1)
        book.adjust(5, 1)  # better than all, but the glass is full
        assert 5 in book.overflow
        assert book.threshold == 5
        book.check_invariants()

    def test_worse_price_goes_to_overflow(self):
        book = make(MIN_SIDE, max_size=4)
        for p in (1, 2, 3, 4, 50):
            book.adjust(p, 1)
        before = book.threshold
        book.adjust(60, 1)
        assert 60 in book.overflow
        assert book.threshold == before

    def test_find_and_erase_route_to_overflow(self):
        book = make(MIN_SIDE, max_size=4)
        for p in (1, 2, 3, 4, 5, 6):
            book.adjust(p, p * 10)
        assert book.find(5) == 50
        book.adjust(5, -50)
        assert book.find(5) is None
        assert book.find(6) == 60
        book.check_invariants()

    def test_overflow_level_changes_in_place(self):
        book = make(MIN_SIDE, max_size=4)
        for p in (1, 2, 3, 4, 5, 6):
            book.adjust(p, 10)
        book.adjust(6, 5)
        assert book.overflow == {5: 10, 6: 15} and book.threshold == 5
        before = (book.levels(), book.threshold)
        with pytest.raises(NegativeAmount):
            book.adjust(6, -16)
        assert (book.levels(), book.threshold) == before
        book.check_invariants()

    def test_draining_overflow_clears_threshold(self):
        book = make(MIN_SIDE, max_size=4)
        for p in (1, 2, 3, 4, 5):
            book.adjust(p, 1)
        book.adjust(5, -1)
        assert book.threshold is None
        assert not book.overflow
        book.check_invariants()


class TestRestructure:
    def test_best_triggers_when_glass_drains(self):
        book = make(MIN_SIDE, max_size=4)
        for p in (1, 2, 3, 4, 5, 6):
            book.adjust(p, 1)
        for p in (1, 2, 3, 4):
            book.adjust(p, -1)
        assert book.glass.size == 0 and book.overflow
        assert book.best() == 5
        assert book.glass.size == 2  # both former-overflow levels moved
        assert book.threshold is None
        book.check_invariants()

    def test_partial_move_keeps_best_remaining_as_threshold(self):
        book = make(MIN_SIDE, max_size=4)
        for p in range(1, 41):
            book.adjust(p, 1)
        for p in (1, 2, 3):
            book.adjust(p, -1)
        assert book.best() == 4
        assert book.next_best_after(4) == 5  # restructure refilled
        book.check_invariants()
        assert book.glass.size == 4
        assert book.threshold == min(book.overflow)

    def test_full_glass_rejects_far_query(self):
        book = make(MIN_SIDE, max_size=4)
        for p in (1, 2, 3, 4, 5):
            book.adjust(p, 1)
        with pytest.raises(PriceTooFar):
            book.next_best_after(4)  # sought rank equals capacity

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    def test_nothing_spilled_returns_at_once(self, side):
        book = make(side, max_size=4)
        for p in (1, 2, 3, 4):
            book.adjust(p, p)
        assert book.glass.size == book.max_size and book.threshold is None
        before = (book.levels(), book.glass.dump(), book.threshold)
        book.restructure()
        assert (book.levels(), book.glass.dump(), book.threshold) == before
        book.check_invariants()

    def test_restructure_moves_all_when_room(self):
        book = make(MIN_SIDE, max_size=4)
        book.threshold = 100
        book.amounts.update({100: 1, 101: 1, 102: 1})
        book.restructure()
        assert sorted(book.glass.keys()) == [100, 101, 102]
        assert book.threshold is None and not book.overflow
        book.check_invariants()

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    def test_refill_is_one_bulk_build(self, side):
        book = make(side, max_size=8, window=4)
        prices = [0x120 + 3 * i for i in range(12)] + [0x4000 + i for i in range(12)]
        for p in prices:
            book.adjust(p, 1)
        ranked = sorted(prices, reverse=side == MAX_SIDE)
        for p in ranked[:8]:
            book.adjust(p, -1)
        assert book.glass.size == 0 and len(book.overflow) == 16
        g = book.glass
        calls = []
        for name in ("insert", "insert_sorted"):
            method = getattr(g, name)
            setattr(g, name, lambda *args, name=name, method=method:
                    calls.append((name, args)) or method(*args))
        book.restructure()
        assert calls == [("insert_sorted", (ranked[8:16], True))]
        assert g.keys() == sorted(ranked[8:16])
        assert book.threshold == ranked[16]
        book.check_invariants()
        g.check_integrity(deep=True)


def comprehension_rank(book) -> tuple[list[int], int | None]:
    """The run and the new threshold as a filter over every amount, then
    a sort of the spilled prices, would choose them."""
    available = book.max_size - book.glass.size
    t = book.threshold
    if book.side == MIN_SIDE:
        ranked = sorted([p for p in book.amounts if p >= t])
    else:
        ranked = sorted([p for p in book.amounts if p <= t], reverse=True)
    return ranked[:available], ranked[available] if available < len(ranked) else None


class TestRestructureRanking:
    """One sort of every price and a bisection at the threshold choose
    the run and the threshold the filter-and-sort reference does."""

    @settings(max_examples=300, deadline=None)
    @given(side=st.sampled_from([MIN_SIDE, MAX_SIDE]),
           prices=st.sets(st.integers(0, 0xFFFF), min_size=1, max_size=40),
           data=st.data())
    def test_run_and_threshold_match_the_reference(self, side, prices, data):
        best_first = sorted(prices, reverse=side == MAX_SIDE)
        held = data.draw(st.integers(0, len(prices) - 1), "glass levels")
        spilled = best_first[held:]
        available = data.draw(st.integers(1, len(spilled) + 1), "free glass slots")
        assume(held + available >= 2)
        # the threshold is the best spilled price, or a price between it
        # and the worst glass price: a spilled level that died
        step = 1 if side == MIN_SIDE else -1
        bound = best_first[held - 1] + step if held else spilled[0] - 8 * step
        t = data.draw(st.integers(min(bound, spilled[0]), max(bound, spilled[0])), "threshold")
        assume(0 <= t <= 0xFFFF)
        book = make(side, max_size=held + available, window=1)
        book.glass.insert_sorted(best_first[:held], True)
        book.amounts.update((p, 1) for p in prices)
        book.threshold = t
        book.check_invariants()
        run, threshold = comprehension_rank(book)
        calls = []
        real = book.glass.insert_sorted
        book.glass.insert_sorted = lambda keys, value: calls.append(list(keys)) or real(keys, value)
        book.restructure()
        assert calls == [run]
        assert book.threshold == threshold
        book.check_invariants()


def _corrupt_amount(book):
    book.amounts[2] = 0


def _drop_glass_amount(book):
    del book.amounts[1]


def _spill_a_better_price(book):
    book.amounts[0] = 1


def _clear_threshold(book):
    book.threshold = None


def _set_threshold_with_nothing_spilled(book):
    for p in (5, 6):
        book.adjust(p, -p)
    book.threshold = 9


def _overfill_the_glass(book):
    book.max_size = 3


class TestCheckInvariants:
    @staticmethod
    def spilled_book():
        book = make(MIN_SIDE, max_size=4)
        for p in (1, 2, 3, 4, 5, 6):
            book.adjust(p, p)
        book.check_invariants()
        return book

    @pytest.mark.parametrize("corrupt", [
        _corrupt_amount, _drop_glass_amount, _spill_a_better_price, _clear_threshold,
        _set_threshold_with_nothing_spilled, _overfill_the_glass,
    ])
    def test_each_break_raises(self, corrupt):
        book = self.spilled_book()
        corrupt(book)
        with pytest.raises(IntegrityError):
            book.check_invariants()

    def test_corrupt_amount_caught_under_optimize(self, run_optimized):
        # asserts vanish under python -O; the integrity walk must not
        code = (
            "from glasstrie import IntegrityError, OrderBook\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "book = OrderBook('max', max_size=4, best_window=3, key_bits=16,\n"
            "                 chunk_bits=4, width=16)\n"
            "for p in (10, 11, 12, 13, 14):\n"
            "    book.adjust(p, 2)\n"
            "book.check_invariants()\n"
            "book.amounts[12] = -2\n"
            "try:\n"
            "    book.check_invariants()\n"
            "except IntegrityError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('corrupt amount passed')\n"
        )
        run_optimized(code)


def in_glass_range(book, price):
    """Whether ``book`` routes a new level at ``price`` to its glass:
    strictly better than the threshold, or no threshold set."""
    return book.threshold is None or book.better(price, book.threshold)


class PerLevelBook(OrderBook):
    """The spill path before the bulk cut: preemption evicts the worst
    glass level one at a time, and restructure ranks the spilled levels
    with ``heapq``. The partition it keeps is the reference for the real
    one.
    """

    def insert(self, price, amount):
        if not (in_glass_range(self, price) and self.glass.size >= self.max_size):
            return super().insert(price, amount)
        self.amounts[price] = amount
        self.threshold = price
        glass = self.glass
        while True:
            worst = glass.max() if self.side == MIN_SIDE else glass.min()
            if worst is None or self.better(worst, price):
                break
            glass.erase(worst)

    def restructure(self):
        available = self.max_size - self.glass.size
        if available == 0:
            raise PriceTooFar("glass already full")
        spilled = self.overflow
        pick = heapq.nsmallest if self.side == MIN_SIDE else heapq.nlargest
        moved = pick(min(available, len(spilled)), spilled)
        for price in moved:
            self.glass.insert(price, True)
            del spilled[price]
        self.threshold = pick(1, spilled)[0] if spilled else None


def run_op(book, op):
    """Apply one ``gen_book_ops`` op; the answer, or the error type."""
    try:
        if op[0] == "A":
            return book.adjust(op[1], op[2])
        if op[0] == "B":
            return book.best()
        if op[0] == "T":
            return book.iterate_best(min(op[1], book.best_window))
        return book.next_best_after(op[1])
    except PriceTooFar as e:
        return type(e)


def assert_same_partition(book, ref):
    assert book.glass.keys() == ref.glass.keys()
    assert book.overflow == ref.overflow
    assert book.threshold == ref.threshold
    assert book.amounts == ref.amounts


class TestPartitionEquivalence:
    """The bulk spill path puts every level where the per-level one did."""

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    @pytest.mark.parametrize("max_size", [4, 64])
    def test_lockstep_with_per_level_book(self, side, max_size):
        book = make(side, max_size=max_size, key_bits=20)
        ref = make(side, max_size=max_size, key_bits=20, cls=PerLevelBook)
        preemptions = 0
        for op in gen_book_ops(seed=4100 + max_size, length=6000,
                               max_depth=book.best_window):
            if op[0] == "A" and book.glass.size == max_size and book.find(op[1]) is None:
                preemptions += in_glass_range(book, op[1])
            assert run_op(book, op) == run_op(ref, op)
            assert_same_partition(book, ref)
        assert preemptions > 10
        book.glass.check_integrity(deep=True)

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    @pytest.mark.parametrize("price", [-5, -(1 << 40), 1 << 16, (1 << 16) + 0x123])
    def test_out_of_range_price_at_a_full_glass(self, side, price):
        # a full glass would send the price through preemption; the book
        # refuses it instead, as it does below max_size, and keeps the
        # partition of a book that never saw it
        book, ref = make(side), make(side, cls=PerLevelBook)
        for b in (book, ref):
            for p in (0x1230, 0x1235, 0x4000, 0xFFFF):
                b.adjust(p, 7)
        for place in (book.adjust, book.insert):
            with pytest.raises(InvalidArgument):
                place(price, 3)
        assert_same_partition(book, ref)
        assert book.find(price) is None
        # accepted, such a price could evict the whole glass and become a
        # threshold restructure cannot move back, so best() would raise
        assert book.best() == (0x1230 if side == MIN_SIDE else 0xFFFF)
        book.check_invariants()
        book.glass.check_integrity(deep=True)


class TestQueries:
    def test_next_best_after(self):
        book = make(MIN_SIDE, max_size=8)
        for p in (1, 5, 9):
            book.adjust(p, 1)
        assert book.next_best_after(1) == 5
        assert book.next_best_after(9) is None

    def test_iterate_small_book(self):
        book = make(MIN_SIDE, max_size=32, window=25)
        for p in (7, 3, 11):
            book.adjust(p, p)
        assert book.iterate_best(25) == [(3, 3), (7, 7), (11, 11)]

    def test_iterate_depth_capped_by_window(self):
        book = make(MIN_SIDE, max_size=8, window=3)
        with pytest.raises(ConfigError):
            book.iterate_best(4)

    def test_iterate_across_restructure(self):
        book = make(MIN_SIDE, max_size=4, window=3)
        for p in range(1, 12):
            book.adjust(p, 1)
        for p in (1, 2, 3, 4):
            book.adjust(p, -1)
        assert book.iterate_best(3) == [(5, 1), (6, 1), (7, 1)]
        book.check_invariants()


class TestSideSymmetry:
    def test_mirrored_books_agree(self):
        big = (1 << 16) - 1
        lo = OrderBook(MIN_SIDE, max_size=8, best_window=5, key_bits=16,
                       chunk_bits=4, width=16)
        hi = OrderBook(MAX_SIDE, max_size=8, best_window=5, key_bits=16,
                       chunk_bits=4, width=16)
        rng = random.Random(21)
        prices = {}
        for _ in range(3000):
            p = rng.randrange(1, big)
            if p in prices and rng.random() < 0.5:
                delta = -prices.pop(p)
            else:
                delta = rng.randint(1, 9)
                prices[p] = prices.get(p, 0) + delta
            lo.adjust(p, delta)
            hi.adjust(big - p, delta)
            lo_best, hi_best = lo.best(), hi.best()
            assert (lo_best is None) == (hi_best is None)
            if lo_best is not None:
                assert hi_best == big - lo_best
        lo_levels = lo.iterate_best(5)
        hi_levels = hi.iterate_best(5)
        assert [(big - p, a) for p, a in lo_levels] == hi_levels


class SevenBlindBook(OrderBook):
    """A wrong book: ``best()`` answers None for prices divisible by 7."""

    def best(self):
        price = super().best()
        return None if price is not None and price % 7 == 0 else price


#: runs the book fuzz on a ``SevenBlindBook`` of side ``side`` (set by
#: the caller); exits 0 only when reported
SEVEN_BLIND_RUN = """
from glasstrie.errors import IntegrityError
from glasstrie.oracle import fuzz_orderbook, gen_book_ops
from glasstrie.orderbook import OrderBook

class SevenBlindBook(OrderBook):
    def best(self):
        price = super().best()
        return None if price is not None and price % 7 == 0 else price

book = SevenBlindBook(side, max_size=64, best_window=25, key_bits=20, chunk_bits=4, width=16)
try:
    fuzz_orderbook(book, gen_book_ops(seed=3, length=5000))
except IntegrityError:
    pass
else:
    raise SystemExit("a wrong best() went unreported")
"""


class TestOracleFuzz:
    #: one literal seed per (side, max_size) case, so a failure replays
    STREAM_SEEDS = {(MIN_SIDE, 4): 4096, (MAX_SIDE, 4): 8192,
                    (MIN_SIDE, 64): 12288, (MAX_SIDE, 64): 16384}

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    @pytest.mark.parametrize("max_size", [4, 64])
    def test_stream_matches_oracle(self, side, max_size):
        book = make(side, max_size=max_size, key_bits=20)
        ops = gen_book_ops(seed=self.STREAM_SEEDS[side, max_size], length=8000)
        trips = fuzz_orderbook(book, ops, check_every=1)
        if max_size == 4:
            assert trips > 0  # tiny glass must exercise the guard

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    def test_wrong_best_is_reported(self, side):
        book = make(side, max_size=64, key_bits=20, cls=SevenBlindBook)
        with pytest.raises(IntegrityError):
            fuzz_orderbook(book, gen_book_ops(seed=3, length=5000))

    @pytest.mark.parametrize("side", [MIN_SIDE, MAX_SIDE])
    def test_wrong_best_is_reported_under_optimize(self, side, run_optimized):
        run_optimized("if __debug__:\n    raise SystemExit('asserts are on')\n"
                      f"side = {side!r}\n" + SEVEN_BLIND_RUN)

    def test_oracle_book_self_check(self):
        ob = OracleBook("min")
        ob.adjust(5, 2)
        ob.adjust(3, 1)
        assert ob.best() == 3
        assert ob.rank(5) == 1
        assert ob.iterate_best(2) == [(3, 1), (5, 2)]
        ob.adjust(3, -1)
        assert ob.best() == 5

    def test_oracle_book_checks_survive_optimize(self, run_optimized):
        # asserts vanish under python -O; the oracle's checks must not
        code = (
            "from glasstrie.errors import ConfigError, NegativeAmount\n"
            "from glasstrie.oracle import OracleBook\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "try:\n"
            "    OracleBook('bid')\n"
            "except ConfigError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('side accepted')\n"
            "ob = OracleBook('max')\n"
            "ob.adjust(7, 3)\n"
            "try:\n"
            "    ob.adjust(7, -4)\n"
            "except NegativeAmount:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('negative amount accepted')\n"
            "if ob.find(7) != 3 or ob.best() != 7:\n"
            "    raise SystemExit(f'level 7 holds {ob.find(7)}')\n"
        )
        run_optimized(code)
