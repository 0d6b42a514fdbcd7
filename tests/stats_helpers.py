"""Test-only statistics: the two-sample chi-square that ties a sampler to a
reference loop drawn on another stream, where no exact law is written out."""

import numpy as np
from scipy import stats as sps

from randstruct.errors import InvalidTestError
from randstruct.stats import MIN_EXPECTED, TestReport


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
