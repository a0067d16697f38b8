"""Tour of the glass: a bounded ordered map over integer keys.

Run:  python3 demos/01_ordered_map.py
"""

from glasstrie import create

# Keys are 50-bit integers consumed five bits per tree level; handles are
# 16-bit, so the node pool is sized for at most 9000 elements up front.
g = create(key_bits=50, chunk_bits=5, width=16, max_size=9000)

print("== basic map operations ==")
for price, amount in [(100_000, 7), (100_003, 2), (99_998, 11)]:
    g.insert(price, amount)
print("size:", len(g))
print("find(100_003):", g.find(100_003))
print("find(123):", g.find(123))
print("min:", g.min(), " max:", g.max())
print("next(100_000):", g.next(100_000), " prev(100_000):", g.prev(100_000))

print("\n== ordered walks ==")
# first_items walks from either end in one call; next steps by key
print("first two:", g.first_items(2), " last two:", g.first_items(2, descending=True))
key = g.min()
while key is not None:
    print(f"  {key} -> {g.find(key)}")
    key = g.next(key)

print("\n== the cached path at work ==")
g2 = create(key_bits=50, chunk_bits=5, width=16, max_size=9000)
g2.insert(500_000, 1)
depths = []
key = 500_000
for i in range(1, 1000):
    key += 1 + (i % 4)  # sequentially local stream
    depths.append(g2._jump(key)[0])  # where this insert's descent starts
    g2.insert(key, i)
depth = sum(depths) / len(depths)
print(f"mean descent start depth over 999 local inserts: {depth:.2f} "
      f"(of {g2.geo.levels} levels; higher = less walking)")

print("\n== structure dump (small example) ==")
tiny = create(key_bits=4, chunk_bits=2, width=16, max_size=16)
for k in (0b0110, 0b0111, 0b1100):
    tiny.insert(k, k)
print(tiny.dump())
