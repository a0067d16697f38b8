"""The generators are seeded, and every event they make is valid."""

from glasstrie.oracle import OracleBook, RefMap

from perfbench.feed import ADJUST, ERASE, INSERT, BookFeed, MapFeed
from perfbench.workloads import BOOK_DEFAULTS, MAP_KEY_BITS, WORKLOADS, replay

BITS = BOOK_DEFAULTS["key_bits"]


def test_book_feed_repeats_per_seed():
    assert BookFeed(7, BITS).take(20_000) == BookFeed(7, BITS).take(20_000)
    assert BookFeed(7, BITS).take(2_000) != BookFeed(8, BITS).take(2_000)


def test_map_feed_repeats_per_seed():
    a, b, c = (MapFeed(seed, MAP_KEY_BITS, 500) for seed in (7, 7, 8))
    keys = a.fill_keys()
    assert keys == b.fill_keys()
    assert a.take(5_000) == b.take(5_000)
    assert c.fill_keys() != keys


def test_book_adjusts_stay_valid_and_sides_never_cross():
    books = (OracleBook("max"), OracleBook("min"))
    for slot, args in BookFeed(3, BITS).take(30_000):
        side, op = divmod(slot, 4)
        if op == ADJUST:
            assert args[1] != 0
            books[side].adjust(*args)  # asserts the amount stays >= 0
            bid, ask = books[0].best(), books[1].best()
            assert bid is None or ask is None or bid < ask
    assert all(len(book) > 0 for book in books)


def test_map_feed_keeps_its_size_and_erases_present_keys():
    feed = MapFeed(5, MAP_KEY_BITS, 300)
    ref = RefMap()
    for key in feed.fill_keys():
        ref.insert(key, MapFeed.value_of(key))
    for slot, args in feed.take(10_000):
        if slot == ERASE:
            assert ref.erase(*args)
        elif slot == INSERT:
            assert ref.insert(*args)
        assert len(ref) in (299, 300)
    assert len(ref) == 300


def test_map_oracle_first_items_matches_the_glass():
    wl = WORKLOADS["map-uniform"]
    feed = MapFeed(9, MAP_KEY_BITS, 200)
    fill = feed.fill_keys()
    events = feed.take(3_000)
    glass, oracle = wl.methods(wl.build(fill)), wl.methods(wl.oracle(fill))
    assert replay(glass, events) == replay(oracle, events)
