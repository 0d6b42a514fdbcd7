"""Uniform permutations and their cycle structure: direct sampling as a
batch of one-line rows with a one-row view, the Feller coupling for the
cycle lengths (its spacings drawn by integer stick breaking), batched cycle
types, and Monte Carlo helpers for long- and short-cycle laws."""

from __future__ import annotations

import numpy as np

from .errors import FormatError, InvalidParameterError
from .rng import RngStream, _block_rows


def sample_perm(n: int, rng: RngStream) -> np.ndarray:
    """Uniform permutation of {1..n} as its int64 one-line row, images[i] =
    sigma(i + 1).  The one-row view of ``sample_perm_batch``."""
    return sample_perm_batch(n, 1, rng)[0]


def sample_perm_batch(n: int, reps: int, rng: RngStream) -> np.ndarray:
    """``reps`` uniform permutations of {1..n} in one-line notation, one row
    each, from one ``permuted`` call over the rows 1..n: the same draws as
    one ``permutation(n)`` call per row."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    rows = np.tile(np.arange(1, n + 1), (reps, 1))
    return rng.gen.permuted(rows, axis=1, out=rows)


# ---------------------------------------------------------------------------
# Batched cycle statistics (law-level helpers used by experiments and tests)


def feller_spacings(n: int, reps: int, rng: RngStream):
    """The Feller coupling for ``reps`` uniform permutations of {1..n}.

    Row r runs n independent Bernoulli trials, trial j = 0..n-1 succeeding
    with probability 1/(n - j), so the last one always succeeds; the spacings
    between successes (the first counted from -1) have the joint law of the
    min-ranked cycle lengths of a uniform permutation.  With m trials left,
    the next spacing is uniform on 1..m, since prod (1 - 1/j) telescopes; so
    each row breaks its n trials as an integer stick, one ``integers(1, m +
    1)`` draw per cycle, H_n draws on average, exact with no float rounding.

    Yields one (rows, lengths) pair per block of rows: the replicate index and
    the length of every cycle, rows ascending, cycles in order within a row.
    Every unfinished row of a block draws once per round, in row order.  A
    row draws H_n < bit_length(n) times on average and a draw keeps about
    three values (the spacing, its row and its slot), so a block of at most
    budget // (4 bit_length(n)) rows keeps under one draw budget in memory.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if reps < 0:
        raise InvalidParameterError("reps must be >= 0")
    return _feller_blocks(n, reps, rng)  # checked here, not at the first block


def _feller_blocks(n: int, reps: int, rng: RngStream):
    done = 0
    while done < reps:
        b = _block_rows(4 * n.bit_length(), reps - done)
        # a call per block, so the block's rounds are freed before the yield
        rows, lengths = _feller_block(n, b, rng)
        rows += done
        yield rows, lengths
        done += b


def _feller_block(n: int, b: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Rows 0..b-1 of ``feller_spacings``: the round-k spacings of the rows
    still unfinished, then each scattered to slot k of its row."""
    counts = np.zeros(b, dtype=np.int64)
    active = np.arange(b)
    left = np.full(b, n, dtype=np.int64)
    rounds = []
    while active.size:
        gap = rng.gen.integers(1, left + 1)
        counts[active] += 1
        left -= gap
        going = left > 0
        rounds.append((gap, going))
        active, left = active[going], left[going]
    pos = np.cumsum(counts) - counts
    lengths = np.empty(pos[-1] + counts[-1], dtype=np.int64)
    for gap, going in rounds:
        lengths[pos] = gap
        pos = pos[going] + 1
    return np.repeat(np.arange(b), counts), lengths


def longest_cycle_stats(n: int, reps: int, rng: RngStream) -> np.ndarray:
    """Renormalized longest cycle length over ``reps`` uniform permutations,
    sampled through the Feller coupling."""
    if n < 10:
        raise InvalidParameterError("n must be >= 10")
    blocks = feller_spacings(n, reps, rng)
    longest = np.empty(reps, dtype=np.int64)
    for rows, lengths in blocks:
        starts = np.flatnonzero(np.concatenate([[True], np.diff(rows) != 0]))
        longest[rows[starts]] = np.maximum.reduceat(lengths, starts)
    return longest / n


def small_cycle_counts(n: int, i_max: int, reps: int, rng: RngStream) -> np.ndarray:
    """Matrix of counts of cycles of each length 1..i_max per replicate;
    i_max = n gives whole cycle types."""
    if not 1 <= i_max <= n:
        raise InvalidParameterError("i_max must be in 1..n")
    blocks = feller_spacings(n, reps, rng)
    out = np.zeros((reps, i_max), dtype=np.int64)
    for rows, lengths in blocks:
        small = lengths <= i_max
        np.add.at(out, (rows[small], lengths[small] - 1), 1)
    return out


def cycle_type_batch(images_batch: np.ndarray) -> np.ndarray:
    """Cycle-length count vectors for a batch of one-line permutations.

    Uses fixed-point counts of iterated powers, so the cost is n * n per row
    but fully vectorized across rows; meant for small n.  A row needs about
    eight n-wide temporaries, so rows go in blocks of budget // (8 n): the
    memory beyond the output stays within one draw budget.
    """
    reps, n = images_batch.shape
    counts = np.empty((reps, n), dtype=np.int64)
    done = 0
    while done < reps:
        b = _block_rows(8 * n, reps - done)
        counts[done:done + b] = _cycle_types(images_batch[done:done + b])
        done += b
    return counts


def _cycle_types(images_batch: np.ndarray) -> np.ndarray:
    reps, n = images_batch.shape
    zero_based = images_batch - 1
    fixed = np.empty((n, reps), dtype=np.int64)
    power = zero_based
    idx = np.arange(n)
    rows = np.arange(reps)[:, None]
    fixed[0] = np.sum(power == idx, axis=1)
    for j in range(1, n):
        power = zero_based[rows, power]
        fixed[j] = np.sum(power == idx, axis=1)
    weighted = np.zeros((n + 1, reps), dtype=np.int64)  # weighted[d] = d * N_d
    for j in range(1, n + 1):
        acc = np.zeros(reps, dtype=np.int64)
        for d in range(1, j):
            if j % d == 0:
                acc += weighted[d]
        weighted[j] = fixed[j - 1] - acc
    return (weighted[1:] // np.arange(1, n + 1)[:, None]).T


def perm_to_line(images: np.ndarray) -> str:
    """One-line dump: space-separated 1-based images."""
    return " ".join(map(str, images.tolist()))


def perm_from_line(line: str) -> np.ndarray:
    """The int64 one-line row of a dumped permutation, checked to be a
    bijection of {1..n}, n >= 1."""
    try:
        images = np.array([int(tok) for tok in line.split()], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"bad permutation line: {line!r}") from exc
    if images.size == 0 or not np.array_equal(np.sort(images),
                                              np.arange(1, images.size + 1)):
        raise FormatError("not a bijection of {1..n}")
    return images
