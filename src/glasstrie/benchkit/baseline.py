"""Baseline ordered maps the glass is benchmarked against.

Python ships no ordered map, so the comparison target is the classic
red-black tree, ``RBMap``, which allocates a node object per insert
(the everyday approach) and exposes the same ADT surface as the glass.
"""

from __future__ import annotations

from ..errors import ConfigError, NegativeAmount

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "left", "right", "parent", "red")

    def __init__(self, key=0, value=None):
        self.key = key
        self.value = value
        self.left = self
        self.right = self
        self.parent = self
        self.red = BLACK


class RBMap:
    """Red-black tree with per-node objects."""

    def __init__(self):
        self.nil = _Node()
        self.root = self.nil
        self.count = 0

    def __len__(self):
        return self.count

    def find(self, key):
        nil = self.nil
        x = self.root
        while x is not nil:
            k = x.key
            if key < k:
                x = x.left
            elif key > k:
                x = x.right
            else:
                return x.value
        return None

    def min(self):
        if self.root is self.nil:
            return None
        x = self.root
        while x.left is not self.nil:
            x = x.left
        return x.key

    def max(self):
        if self.root is self.nil:
            return None
        x = self.root
        while x.right is not self.nil:
            x = x.right
        return x.key

    def next(self, key):
        nil = self.nil
        x = self.root
        best = None
        while x is not nil:
            if x.key > key:
                best = x.key
                x = x.left
            else:
                x = x.right
        return best

    def prev(self, key):
        nil = self.nil
        x = self.root
        best = None
        while x is not nil:
            if x.key < key:
                best = x.key
                x = x.right
            else:
                x = x.left
        return best

    def keys(self):
        out = []
        stack = []
        x = self.root
        while stack or x is not self.nil:
            while x is not self.nil:
                stack.append(x)
                x = x.left
            x = stack.pop()
            out.append(x.key)
            x = x.right
        return out

    def first_items(self, count, descending=False):
        """Up to ``count`` (key, value) pairs from the ordered end,
        walked with parent-pointer successor steps (O(1) amortized,
        the way language-runtime map iterators move)."""
        nil = self.nil
        x = self.root
        if x is nil:
            return []
        out = []
        if not descending:
            while x.left is not nil:
                x = x.left
            while x is not nil and len(out) < count:
                out.append((x.key, x.value))
                if x.right is not nil:
                    x = x.right
                    while x.left is not nil:
                        x = x.left
                else:
                    child = x
                    x = x.parent
                    while x is not nil and child is x.right:
                        child = x
                        x = x.parent
        else:
            while x.right is not nil:
                x = x.right
            while x is not nil and len(out) < count:
                out.append((x.key, x.value))
                if x.left is not nil:
                    x = x.left
                    while x.right is not nil:
                        x = x.right
                else:
                    child = x
                    x = x.parent
                    while x is not nil and child is x.left:
                        child = x
                        x = x.parent
        return out

    def _rotate_left(self, x):
        y = x.right
        x.right = y.left
        if y.left is not self.nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x):
        y = x.left
        x.left = y.right
        if y.right is not self.nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def insert(self, key, value) -> bool:
        nil = self.nil
        y = nil
        x = self.root
        while x is not nil:
            y = x
            if key < x.key:
                x = x.left
            elif key > x.key:
                x = x.right
            else:
                return False
        z = _Node(key, value)
        z.left = nil
        z.right = nil
        z.parent = y
        z.red = RED
        if y is nil:
            self.root = z
        elif key < y.key:
            y.left = z
        else:
            y.right = z
        self.count += 1
        while z.parent.red:
            zp = z.parent
            zpp = zp.parent
            if zp is zpp.left:
                y = zpp.right
                if y.red:
                    zp.red = BLACK
                    y.red = BLACK
                    zpp.red = RED
                    z = zpp
                else:
                    if z is zp.right:
                        z = zp
                        self._rotate_left(z)
                        zp = z.parent
                        zpp = zp.parent
                    zp.red = BLACK
                    zpp.red = RED
                    self._rotate_right(zpp)
            else:
                y = zpp.left
                if y.red:
                    zp.red = BLACK
                    y.red = BLACK
                    zpp.red = RED
                    z = zpp
                else:
                    if z is zp.left:
                        z = zp
                        self._rotate_right(z)
                        zp = z.parent
                        zpp = zp.parent
                    zp.red = BLACK
                    zpp.red = RED
                    self._rotate_left(zpp)
        self.root.red = BLACK
        return True

    def _transplant(self, u, v):
        if u.parent is self.nil:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def erase(self, key) -> bool:
        nil = self.nil
        z = self.root
        while z is not nil:
            if key < z.key:
                z = z.left
            elif key > z.key:
                z = z.right
            else:
                break
        if z is nil:
            return False
        y = z
        y_was_red = y.red
        if z.left is nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = z.right
            while y.left is not nil:
                y = y.left
            y_was_red = y.red
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.red = z.red
        self.count -= 1
        if not y_was_red:
            # delete fixup
            while x is not self.root and not x.red:
                xp = x.parent
                if x is xp.left:
                    w = xp.right
                    if w.red:
                        w.red = BLACK
                        xp.red = RED
                        self._rotate_left(xp)
                        w = xp.right
                    if not w.left.red and not w.right.red:
                        w.red = RED
                        x = xp
                    else:
                        if not w.right.red:
                            w.left.red = BLACK
                            w.red = RED
                            self._rotate_right(w)
                            w = xp.right
                        w.red = xp.red
                        xp.red = BLACK
                        w.right.red = BLACK
                        self._rotate_left(xp)
                        x = self.root
                else:
                    w = xp.left
                    if w.red:
                        w.red = BLACK
                        xp.red = RED
                        self._rotate_right(xp)
                        w = xp.left
                    if not w.right.red and not w.left.red:
                        w.red = RED
                        x = xp
                    else:
                        if not w.left.red:
                            w.right.red = BLACK
                            w.red = RED
                            self._rotate_left(w)
                            w = xp.left
                        w.red = xp.red
                        xp.red = BLACK
                        w.left.red = BLACK
                        self._rotate_right(xp)
                        x = self.root
            x.red = BLACK
        return True


class BaselineBook:
    """Order-book side over a baseline map: the unbounded way a book is
    kept on top of an ordinary ordered map. Over ``oracle.RefMap`` it is
    the reference book, ``oracle.OracleBook``."""

    def __init__(self, side: str, map_factory=RBMap):
        if side not in ("min", "max"):
            raise ConfigError(f"side must be 'min' or 'max', got {side!r}")
        self.side = side
        self.levels_map = map_factory()

    def __len__(self):
        return len(self.levels_map)

    def adjust(self, price: int, delta: int):
        m = self.levels_map
        amount = m.find(price) or 0
        new_amount = amount + delta
        if new_amount < 0:
            raise NegativeAmount(f"level {price} would go to {new_amount}")
        if amount:
            m.erase(price)
        if new_amount:
            m.insert(price, new_amount)

    def find(self, price: int):
        return self.levels_map.find(price)

    def best(self):
        return self.levels_map.min() if self.side == "min" else self.levels_map.max()

    def next_best_after(self, price: int):
        if self.side == "min":
            return self.levels_map.next(price)
        return self.levels_map.prev(price)

    def iterate_best(self, depth: int):
        return self.levels_map.first_items(depth, descending=self.side == "max")
