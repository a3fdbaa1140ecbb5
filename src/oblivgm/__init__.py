"""Oblivious attributed subgraph matching over three-party replicated secret sharing."""

from .bits import BitVector
from .rss import MatchTable, ZeroShareContext, reconstruct, share

__all__ = [
    "BitVector",
    "MatchTable",
    "ZeroShareContext",
    "reconstruct",
    "share",
]

__version__ = "0.1.0"
