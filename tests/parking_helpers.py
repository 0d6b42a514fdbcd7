"""Test-only parking replay: cars park one by one, each driving left from its
arrival spot to the first free spot and leaving past spot 1.  It is the
reference that ``walks.parking_success_batch`` decides by prefix counts, and
it enumerates the exact law of ``exact.parking_full_prob``."""

from dataclasses import dataclass

import numpy as np

from randstruct.errors import InvalidParameterError


@dataclass(frozen=True)
class ParkingResult:
    success: bool
    occupancy: np.ndarray
    exited: int


def parking_simulate(n: int, arrivals) -> ParkingResult:
    """Replay the given arrival spots in order on a line of n spots."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    # next_free[s] = largest free spot <= s, found by path-compressed jumps
    next_free = list(range(n + 1))  # spot 0 is the "exit" sentinel

    def find(s: int) -> int:
        root = s
        while next_free[root] != root:
            root = next_free[root]
        while next_free[s] != root:
            next_free[s], s = root, next_free[s]
        return root

    occupancy = np.zeros(n + 1, dtype=bool)
    exited = 0
    for spot in arrivals:
        spot = int(spot)
        if not 1 <= spot <= n:
            raise InvalidParameterError(f"arrival spot {spot} outside 1..{n}")
        free = find(spot)
        if free == 0:
            exited += 1
        else:
            occupancy[free] = True
            next_free[free] = free - 1
    return ParkingResult(exited == 0, occupancy[1:], exited)
