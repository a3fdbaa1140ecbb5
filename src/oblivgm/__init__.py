"""Oblivious attributed subgraph matching over three-party replicated secret sharing."""

from .rss import MatchTable, ZeroShareContext, share

__all__ = [
    "MatchTable",
    "ZeroShareContext",
    "share",
]

__version__ = "0.1.0"
