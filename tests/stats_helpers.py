"""Test-only statistics: the two-sample chi-square that ties a sampler to a
reference loop drawn on another stream, where no exact law is written out,
and the goodness-of-fit test with a pmf callback that ``stats.chi_square_gof``
replaced, kept as its reference."""

import numpy as np
from scipy import stats as sps

from randstruct import stats
from randstruct.errors import InvalidParameterError, InvalidTestError
from randstruct.stats import MIN_EXPECTED, TestReport


def ref_chi_square_gof(samples, pmf, alpha_level: float = 0.01) -> TestReport:
    """``chi_square_gof`` with ``pmf`` a callback on one value, as it was
    before it took a pmf array: the left-end cell is summed down from lo - 1
    until a term expects less than 1e-12 or the sum reaches the mass left
    out, so the pmf must have no zero mass below lo."""
    values, counts = np.unique(np.asarray(samples), return_counts=True)
    total = int(counts.sum())
    if total <= 0:
        raise InvalidTestError("empty empirical distribution")
    lo, hi = int(values.min()), int(values.max())
    grid = np.arange(lo, hi + 1)
    observed = np.zeros(grid.size, dtype=float)
    observed[values - lo] = counts
    probs = np.array([float(pmf(v)) for v in grid])
    if np.any(probs < 0.0):
        raise InvalidParameterError("pmf returned a negative probability")
    if np.any((probs == 0.0) & (observed > 0)):
        return stats._impossible(probs, alpha_level, total)
    expected = total * probs
    outside = max(0.0, 1.0 - probs.sum())
    left = 0.0
    for k in range(lo - 1, -1, -1):
        term = float(pmf(k))
        if term < 0.0:
            raise InvalidParameterError("pmf returned a negative probability")
        left += term
        if total * term < 1e-12 or left >= outside:
            break
    if total * left > 1e-9:
        observed = np.insert(observed, 0, 0.0)
        expected = np.insert(expected, 0, total * left)
    if total * (outside - left) > 1e-9:
        observed = np.append(observed, 0.0)
        expected = np.append(expected, total * (outside - left))
    obs, exp = stats._merge_right_tail(observed, expected)
    return stats._pearson_report(obs, exp, alpha_level, total)


def pmf_callback(pmf):
    """The one-value callback of a pmf array: pmf[k], and 0 off the array."""
    pmf = np.asarray(pmf, dtype=float)
    return lambda k: float(pmf[k]) if 0 <= k < pmf.size else 0.0


def chi_square_two_sample(counts_a, counts_b, alpha_level: float = 0.01) -> TestReport:
    """Homogeneity test for two samplers binned over the same categories."""
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape:
        raise InvalidTestError("count vectors must align")
    na, nb = a.sum(), b.sum()
    pooled = (a + b) / (na + nb)
    keep = (na * pooled >= MIN_EXPECTED) & (nb * pooled >= MIN_EXPECTED)
    a = np.append(a[keep], a[~keep].sum())
    b = np.append(b[keep], b[~keep].sum())
    if a[-1] + b[-1] == 0:
        a, b = a[:-1], b[:-1]
    if len(a) < 2:
        raise InvalidTestError("fewer than two usable categories")
    statistic = 0.0
    pooled = (a + b) / (na + nb)
    for obs, n in ((a, na), (b, nb)):
        exp = n * pooled
        statistic += float(np.sum((obs - exp) ** 2 / exp))
    df = len(a) - 1
    threshold = float(sps.chi2.ppf(1.0 - alpha_level, df))
    return TestReport(statistic, threshold, df, statistic <= threshold, int(na + nb))
