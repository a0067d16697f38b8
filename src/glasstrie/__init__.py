"""Trie-based ordered integer map for sequentially-local market data.

The core structure (:class:`~glasstrie.glass.Glass`) is an ordered map
over fixed-width integer keys with a cached root path, an intrusive
bounded-probe cache table, min/max edges kept current by every update,
and a trash-encoded node pool. On top of it,
:class:`~glasstrie.orderbook.OrderBook` keeps one book side within a
fixed memory budget via preemption and restructuring. The ``benchkit``
subpackage measures all of it against red-black-tree baselines.
"""

from .bitops import DivisionPlan, TrieGeometry
from .errors import (
    ConfigError,
    GlassError,
    GlassFull,
    IntegrityError,
    InvalidArgument,
    MalformedEvent,
    NegativeAmount,
    PoolExhausted,
    PriceTooFar,
)
from .glass import Glass, create
from .nodepool import CapacityModel, Pool, capacity_bound_for_size, max_size_for_capacity
from .orderbook import MAX_SIDE, MIN_SIDE, OrderBook

__version__ = "0.1.0"

__all__ = [
    "CapacityModel",
    "ConfigError",
    "DivisionPlan",
    "Glass",
    "GlassError",
    "GlassFull",
    "IntegrityError",
    "InvalidArgument",
    "MalformedEvent",
    "MAX_SIDE",
    "MIN_SIDE",
    "NegativeAmount",
    "OrderBook",
    "Pool",
    "PoolExhausted",
    "PriceTooFar",
    "TrieGeometry",
    "capacity_bound_for_size",
    "create",
    "max_size_for_capacity",
]
