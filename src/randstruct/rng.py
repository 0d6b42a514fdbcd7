"""Seeded randomness substrate: deterministic, independently addressable streams.

Streams are counter-based (Philox keyed by ``(master_seed, stream_index)``),
so deriving stream ``i`` is O(1) and distinct indices never overlap.  Parallel
experiments give stream ``i`` to replicate ``i``; results are then identical
regardless of how replicates are scheduled.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1


class RngStream:
    """Deterministic random stream addressed by (master_seed, stream_index).

    Single-owner: a stream must not be shared between concurrent tasks.
    The underlying numpy ``Generator`` is exposed as ``gen``.
    """

    __slots__ = ("master_seed", "stream_index", "gen")

    def __init__(self, master_seed: int, stream_index: int):
        if stream_index < 0:
            raise InvalidParameterError("stream_index must be >= 0")
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        key = np.array([self.master_seed & _MASK64, self.stream_index & _MASK64],
                       dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def make_stream(master_seed: int, stream_index: int = 0) -> RngStream:
    """Create the deterministic stream for the given seed and index."""
    return RngStream(master_seed, stream_index)
