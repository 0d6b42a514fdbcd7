"""Skip-free walks and the identities built on them: the good-shift count of
the cycle lemma, the first-passage identity by enumeration, ballot
estimates, argmax times, and the parking sampler."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError
from .exact import OffspringLaw
from .rng import RngStream, _block_rows

_ENUMERATION_CAP = 10_000_000


class LatticePath:
    """Integer path stored by its increments; skip-free (all increments >= -1).

    Prefix sums exclude the starting 0 and are computed lazily and cached,
    so cyclic shifts stay O(n) array surgery.
    """

    __slots__ = ("increments", "_prefix")

    def __init__(self, increments):
        inc = np.asarray(increments, dtype=np.int64)
        if inc.ndim != 1:
            raise InvalidParameterError("increments must be one-dimensional")
        if inc.size and inc.min() < -1:
            raise InvalidParameterError("skip-free walks have no jump below -1")
        self.increments = inc
        self._prefix = None

    @property
    def n(self) -> int:
        return int(self.increments.size)

    def prefix_sums(self) -> np.ndarray:
        """S_1, ..., S_n (the walk starts at S_0 = 0, not stored)."""
        if self._prefix is None:
            self._prefix = np.cumsum(self.increments)
        return self._prefix

    def __eq__(self, other):
        return isinstance(other, LatticePath) and \
            np.array_equal(self.increments, other.increments)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"LatticePath({self.increments.tolist()})"


def sample_path(law: OffspringLaw, n: int, rng: RngStream) -> LatticePath:
    """Walk of n i.i.d. increments, each an offspring count of ``law`` minus
    one (the Lukasiewicz step); the +-1 walk is the law {0: 1/2, 2: 1/2}."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    return LatticePath(law.sample(rng, size=n) - 1)


def good_shift_count(paths) -> np.ndarray:
    """Number of cyclic shifts of a walk with total -k (k >= 1) whose hitting
    time of -k is exactly the walk length; always k (counting shifts with
    multiplicity).  ``paths`` is a 2-D array of increments with one walk per
    row, counted row by row."""
    batch = np.asarray(paths)
    m, n = batch.shape
    k = -batch.sum(axis=1)
    if m and k.min() < 1:
        raise InvalidParameterError("walk total must be -k for some k >= 1")
    doubled = np.concatenate([batch, batch], axis=1)
    csum = np.cumsum(doubled, axis=1)
    base = np.concatenate([np.zeros((m, 1), dtype=csum.dtype), csum[:, :-1]], axis=1)
    # windows[r, s, i] = prefix sum after i+1 steps of shift s of row r
    windows = (np.lib.stride_tricks.sliding_window_view(csum, n, axis=1)[:, :n, :]
               - base[:, :n, None])
    good = windows[:, :, -1] == -k[:, None]
    if n > 1:
        good &= windows[:, :, :-1].min(axis=2) > -k[:, None]
    return good.sum(axis=1)


def kemperman_check(law: OffspringLaw, n: int, k: int):
    """Evaluate (1/n) P(S_n = -k) and (1/k) P(first passage to -k at n) for the
    walk with steps offspring - 1, by exhaustive enumeration over the finite
    pmf of ``law``; returns the exact pair."""
    if n < 1 or k < 1:
        raise InvalidParameterError("need n >= 1 and k >= 1")
    if law.kind != "pmf":
        raise InvalidParameterError("support enumeration needs a finite pmf")
    values = tuple(j - 1 for j, _ in law.pmf_pairs)
    probs = tuple(p for _, p in law.pmf_pairs)
    if len(values) ** n > _ENUMERATION_CAP:
        raise ResourceLimitError("enumeration too large")
    p_end = 0
    p_first = 0
    for steps in itertools.product(range(len(values)), repeat=n):
        weight = math.prod(probs[i] for i in steps)
        s = 0
        hit = None
        for t, i in enumerate(steps, start=1):
            s += values[i]
            if hit is None and s == -k:
                hit = t
        if s == -k:
            p_end += weight
        if hit == n:
            p_first += weight
    return p_end / n, p_first / k


def ballot_prob(a: int, b: int) -> Fraction:
    """Chance the winner leads throughout the count of a + b shuffled votes."""
    if not a > b >= 0:
        raise InvalidParameterError("need a > b >= 0")
    return Fraction(a - b, a + b)


def ballot_mc(a: int, b: int, reps: int, rng: RngStream) -> float:
    """Monte Carlo frequency of the always-strictly-ahead event."""
    if not a > b >= 0:
        raise InvalidParameterError("need a > b >= 0")
    if reps < 1:
        raise InvalidParameterError("reps must be >= 1")
    votes = np.concatenate([np.ones(a, dtype=np.int64), -np.ones(b, dtype=np.int64)])
    wins = 0
    for _ in range(reps):
        order = rng.gen.permutation(votes)
        if np.cumsum(order).min() > 0:
            wins += 1
    return wins / reps


def parking_success_batch(n: int, m: int, reps: int, rng: RngStream) -> np.ndarray:
    """Boolean vector of full-parking outcomes over independent arrival draws:
    each replicate parks m cars at i.i.d. uniform spots of 1..n.  Cars drive
    left and leave past spot 1, so all park iff at most j arrive at spots
    <= j, for every j: rows are decided by those prefix counts, in row
    blocks of the shared draw budget."""
    if n < 1 or m < 1:
        raise InvalidParameterError("need n >= 1 and m >= 1")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    arrivals = rng.gen.integers(1, n + 1, size=(reps, m))
    success = np.empty(reps, dtype=bool)
    rows = _block_rows(max(n, m) + 1, max(reps, 1))
    for lo in range(0, reps, rows):
        block = arrivals[lo:lo + rows]
        keys = block + (n + 1) * np.arange(block.shape[0])[:, None]
        prefix = np.bincount(keys.ravel(), minlength=block.shape[0] * (n + 1))
        prefix = np.cumsum(prefix.reshape(-1, n + 1), axis=1)
        success[lo:lo + rows] = np.all(prefix <= np.arange(n + 1), axis=1)
    return success


def argmax_time(path: LatticePath) -> int:
    """First index (0..n) at which the walk attains its running maximum."""
    full = np.concatenate([[0], path.prefix_sums()])
    return int(np.argmax(full))
