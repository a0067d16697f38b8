"""Preemption and restructure: a whole book on a tiny glass.

Every level's amount lives in one dict; the glass holds only the best
few prices, and worse levels are preempted out of it behind a threshold
price. ``book.overflow`` lists the spilled levels. Queries that run off
the glass trigger a restructure that pulls the best spilled levels
back. A deliberately tiny capacity makes all of it visible.

Run:  python3 demos/04_order_book.py
"""

from glasstrie import MIN_SIDE, OrderBook, PriceTooFar


def show(book, label):
    print(f"{label}:")
    print(f"  glass: {sorted(book.glass.keys())}")
    print(f"  overflow: {sorted(book.overflow)}  threshold: {book.threshold}")


book = OrderBook(MIN_SIDE, max_size=4, best_window=3, key_bits=16,
                 chunk_bits=4, width=16)

print("== filling an ask book of capacity 4 with six levels ==")
for price in (105, 101, 103, 102, 104, 106):
    book.adjust(price, 10)
show(book, "after six inserts")

print("\n== lookups read one dict, in the glass or spilled ==")
print("  find(101) [glass]:", book.find(101))
print("  find(106) [spilled]:", book.find(106))

print("\n== the best side of the book drains, a query restructures ==")
for price in (101, 102, 103, 104):
    book.adjust(price, -10)
show(book, "after erasing the four best")
print("  best():", book.best(), " <- restructure pulled the spilled levels back")
show(book, "after the query")

print("\n== iteration within the supported window ==")
for price in (200, 201, 202, 203, 204):
    book.adjust(price, 5)
print("  top 3 levels:", book.iterate_best(3))

print("\n== a better-priced insert at capacity preempts and evicts ==")
book.adjust(90, 1)  # better than everything, but the glass is full
show(book, "after adjust(90)")
print("  (levels no longer better than the new threshold moved out with it)")

print("\n== asking beyond the window is refused, not wrong ==")
for price in (91, 92, 93):
    book.adjust(price, 1)
print("  best():", book.best(), " <- restructure refills the glass")
show(book, "saturated, with more levels spilled")
try:
    book.next_best_after(93)
except PriceTooFar as e:
    print("  next_best_after(93) ->", type(e).__name__, "-", e)
