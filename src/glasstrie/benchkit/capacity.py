"""Worst-case memory tables for tree sizes and handle widths."""

from __future__ import annotations

from dataclasses import dataclass

from ..bitops import TrieGeometry
from ..nodepool import CapacityModel, capacity_bound_for_size

NOT_ADDRESSABLE = "N/A"
#: the paper's geometry: 50-bit prices in 5-bit chunks
GEOMETRY = TrieGeometry(key_bits=50, chunk_bits=5)


def format_bytes(count: int) -> str:
    """Two-decimal binary-prefixed size with the short Kb/Mb/Gb labels."""
    if count < 1 << 20:
        return f"{count / (1 << 10):.2f} Kb"
    if count < 1 << 30:
        return f"{count / (1 << 20):.2f} Mb"
    return f"{count / (1 << 30):.2f} Gb"


@dataclass(frozen=True)
class CapacityRow:
    size: int
    node_bound: int
    bytes: int
    memory: str  # formatted, or "N/A" when handles cannot address the bound


def capacity_report(sizes: list[int], width: int = 16) -> list[CapacityRow]:
    model = CapacityModel(GEOMETRY, width=width)
    rows = []
    for size in sizes:
        bound = capacity_bound_for_size(size, model)
        total = bound * model.node_size_bytes
        if bound > model.addressable:
            rows.append(CapacityRow(size, bound, total, NOT_ADDRESSABLE))
        else:
            rows.append(CapacityRow(size, bound, total, format_bytes(total)))
    return rows
