"""Seeded randomness substrate: deterministic, independently addressable streams.

Streams are counter-based (Philox keyed by ``(master_seed, stream_index)``),
so deriving stream ``i`` is O(1) and distinct indices never overlap.  Parallel
experiments give stream ``i`` to replicate ``i``; results are then identical
regardless of how replicates are scheduled.  Seeds and indices lie in
[0, 2^64).  The batch samplers draw in blocks of at most ``_BLOCK_VALUES``
values (8 MiB of doubles); only the size-conditioned trees, which shuffle
between blocks, and the Feller coupling, which draws round by round across
the rows of a block, depend on the block size.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

_BLOCK_VALUES = 1 << 20


class RngStream:
    """Deterministic random stream addressed by (master_seed, stream_index).

    Single-owner: a stream must not be shared between concurrent tasks.
    The underlying numpy ``Generator`` is exposed as ``gen``.
    """

    __slots__ = ("master_seed", "stream_index", "gen")

    def __init__(self, master_seed: int, stream_index: int):
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        if not (0 <= self.master_seed < 1 << 64 and 0 <= self.stream_index < 1 << 64):
            raise InvalidParameterError(
                "master_seed and stream_index must be in [0, 2^64)")
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def make_stream(master_seed: int, stream_index: int = 0) -> RngStream:
    """Create the deterministic stream for the given seed and index."""
    return RngStream(master_seed, stream_index)


def _block_rows(width: int, steps: int) -> int:
    """Rows in one block of draws of ``width`` values each: at most ``steps``,
    and at most what fits the draw budget, but always one."""
    return min(steps, max(1, _BLOCK_VALUES // width))


def _block_buffer(width: int, steps: int) -> np.ndarray:
    """Room for the largest block of rows of at most ``width`` values, when at
    most ``steps`` rows are left: min(steps, budget // m) rows of m values."""
    return np.empty(min(width * steps, max(_BLOCK_VALUES, width)))


def _uniform_block(rng: RngStream, buf: np.ndarray, width: int,
                   steps: int) -> np.ndarray:
    """The next uniforms for ``width`` columns and at most ``steps`` rows, one
    block drawn into ``buf`` (reused across blocks): the same doubles, row by
    row, as one ``gen.random(width)`` call per row."""
    block = buf[:_block_rows(width, steps) * width].reshape(-1, width)
    rng.gen.random(out=block)
    return block
