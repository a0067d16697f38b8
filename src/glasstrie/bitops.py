"""Pure bit-manipulation and integer-arithmetic kernels.

Everything here is stateless and operates on plain Python ints that are
treated as fixed-width machine words (64-bit unless stated otherwise).
These functions are the hot primitives under the trie: chunk extraction,
next/previous set bit in a child mask, shared-prefix length of two keys,
and exact division of a bit offset by the chunk width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, InvalidArgument

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1

#: No next/previous set bit.
NO_BIT = -1


@dataclass(frozen=True)
class TrieGeometry:
    """Shape parameters of a trie over fixed-width integer keys.

    key_bits:    number of significant bits in a key (K).
    chunk_bits:  bits consumed per tree level (C); each node has
                 2**chunk_bits children at most.

    Derived:
    fanout:      2**chunk_bits, the mask width (N).
    levels:      ceil(key_bits / chunk_bits), root-to-post-leaf distance (L).
    root_bits:   bits that actually discriminate root children (r):
                 key_bits % chunk_bits, or chunk_bits when divisible.
    bias:        (-key_bits) mod chunk_bits; pads the key to a whole
                 number of chunks for prefix-length arithmetic.
    """

    key_bits: int
    chunk_bits: int
    fanout: int = field(init=False)
    levels: int = field(init=False)
    root_bits: int = field(init=False)
    bias: int = field(init=False)

    def __post_init__(self):
        if not 1 <= self.chunk_bits <= 6:
            raise ConfigError(f"chunk_bits must be in 1..6, got {self.chunk_bits}")
        if not 1 <= self.key_bits <= WORD_BITS:
            raise ConfigError(f"key_bits must be in 1..{WORD_BITS}, got {self.key_bits}")
        object.__setattr__(self, "fanout", 1 << self.chunk_bits)
        object.__setattr__(self, "levels", -(-self.key_bits // self.chunk_bits))
        rem = self.key_bits % self.chunk_bits
        object.__setattr__(self, "root_bits", rem if rem else self.chunk_bits)
        object.__setattr__(self, "bias", (-self.key_bits) % self.chunk_bits)


@dataclass(frozen=True)
class DivisionPlan:
    """Shift-and-multiply plan for exact division by the chunk width.

    chunk_bits is decomposed as 2**shift * odd, and odd_inverse is the
    multiplicative inverse of odd modulo 2**WORD_BITS, so that an exact
    division reduces to a right shift and one modular multiplication.
    """

    chunk_bits: int
    shift: int = field(init=False)
    odd: int = field(init=False)
    odd_inverse: int = field(init=False)

    def __post_init__(self):
        if self.chunk_bits < 1:
            raise ConfigError(f"chunk_bits must be positive, got {self.chunk_bits}")
        shift = (self.chunk_bits & -self.chunk_bits).bit_length() - 1
        odd = self.chunk_bits >> shift
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "odd", odd)
        object.__setattr__(self, "odd_inverse", pow(odd, -1, 1 << WORD_BITS))


def clz(x: int, width: int = WORD_BITS) -> int:
    """Count leading zero bits of ``x`` within ``width`` bits.

    Returns ``width`` when ``x`` is zero; raises InvalidArgument for an
    ``x`` outside ``[0, 2**width)``.
    """
    if not 0 <= x < (1 << width):
        raise InvalidArgument(f"{x} is outside [0, 2**{width})")
    return width - x.bit_length()


def common_prefix_chunks(k1: int, k2: int, geo: TrieGeometry) -> int:
    """Number of leading chunk_bits-wide chunks shared by two keys.

    Both keys must fit in geo.key_bits. Returns geo.levels for equal keys.
    """
    lead = clz(k1 ^ k2, WORD_BITS)
    return (geo.bias - (WORD_BITS - geo.key_bits) + lead) // geo.chunk_bits


def next_set_bit(mask: int, i: int) -> int:
    """Smallest set-bit index strictly greater than ``i``, or NO_BIT.

    Works by clearing bit ``i`` and everything below it with the
    all-ones-shifted mask ((-2) << i mod 2**WORD_BITS); the naive
    shift-right-then-left trick is wrong at the word-width boundary.
    """
    m = mask & ((WORD_MASK - 1) << i) & WORD_MASK
    if m == 0:
        return NO_BIT
    return (m & -m).bit_length() - 1


def prev_set_bit(mask: int, i: int) -> int:
    """Largest set-bit index strictly less than ``i``, or NO_BIT.

    Clears bit ``i`` and everything above it ((1 << i) - 1, the
    portable equivalent of a zero-high-bits instruction).
    """
    m = mask & ((1 << i) - 1)
    if m == 0:
        return NO_BIT
    return m.bit_length() - 1


def exact_div_by_chunk(offset: int, plan: DivisionPlan) -> int:
    """offset / chunk_bits, assuming the division is exact.

    Reduced to ``((offset >> shift) * odd_inverse) mod 2**WORD_BITS``.
    Exactness is the caller's responsibility; violating it is a
    programming error (checked only in debug runs).
    """
    assert offset >= 0 and offset % plan.chunk_bits == 0
    return ((offset >> plan.shift) * plan.odd_inverse) & WORD_MASK


def depth_from_offset(offset: int, geo: TrieGeometry, plan: DivisionPlan) -> int:
    """Map a node's key bit offset back to its depth.

    A depth-``t`` node sits at offset chunk_bits * (levels - 1 - t): the
    root at chunk_bits * (levels - 1), a pre-leaf at 0.
    """
    return geo.levels - 1 - exact_div_by_chunk(offset, plan)


def cached_path_truncation(shared: int, removed: int, levels: int) -> int:
    """Entries to drop from a cached root path after a subtree removal.

    ``shared`` is the depth bound of the lowest node common to the cached
    path and the removed chain, ``removed`` the removed chain's length in
    edges, ``levels`` the root-to-leaf distance. The overlap of the two
    paths is max(0, shared + removed + 1 - levels) nodes.
    """
    return max(0, shared + removed + 1 - levels)
