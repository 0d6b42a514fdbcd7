"""Statistical test harness: chi-square, Kolmogorov-Smirnov, confidence intervals.

``chi_square_gof`` is goodness of fit of integer samples to a pmf array,
pmf[k] = P(X = k), 0 past its end; ``chi_square_counts`` tests categorical
counts.  KS is reserved for continuous laws; discrete data must go through
the chi-square tests (the KS critical values assume a continuous cdf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidParameterError, InvalidTestError

MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class TestReport:
    statistic: float
    threshold: float
    df: int | None
    passed: bool
    sample_size: int

    def __bool__(self) -> bool:
        return self.passed


def _merge_right_tail(observed, expected):
    """Merge cells right-to-left until every merged cell expects >= MIN_EXPECTED."""
    merged: list[tuple[float, float]] = []
    acc_o = acc_e = 0.0
    for o, e in zip(reversed(observed), reversed(expected)):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED:
            merged.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if not merged:
            raise InvalidTestError("support degenerates to a single cell after merging")
        o, e = merged[-1]
        merged[-1] = (o + acc_o, e + acc_e)
    merged.reverse()
    return np.array([o for o, _ in merged]), np.array([e for _, e in merged])


def _chi2_threshold(alpha_level: float, df: int) -> float:
    """The upper alpha_level quantile of chi-square with df degrees of freedom;
    scipy.stats.chi2.ppf(1 - alpha_level, df) makes this same call."""
    return float(2.0 * special.gammaincinv(df / 2.0, 1.0 - alpha_level))


def _impossible(probs, alpha_level, total) -> TestReport:
    """The failed verdict, at statistic inf, of observations in a cell of
    probability 0: no pooling may hide them."""
    df = max(1, int(np.count_nonzero(probs)) - 1)
    return TestReport(np.inf, _chi2_threshold(alpha_level, df), df, False, int(total))


def _pearson_report(obs, exp, alpha_level, total) -> TestReport:
    if len(obs) < 2:
        raise InvalidTestError("chi-square needs at least two cells")
    if np.any(exp < MIN_EXPECTED):
        raise InvalidTestError(
            "expected count below %g in a non-tail cell" % MIN_EXPECTED)
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    df = len(obs) - 1
    threshold = _chi2_threshold(alpha_level, df)
    return TestReport(statistic, threshold, df, statistic <= threshold, total)


def chi_square_gof(samples, pmf, alpha_level: float = 0.01) -> TestReport:
    """Pearson goodness of fit of integer samples to a pmf array,
    pmf[k] = P(X = k), 0 past its end.

    The cells cover every integer of the observed range lo..hi (holes count
    as zero observations).  The mass below lo, pmf[:lo].sum(), forms one cell
    at the left end, and the mass the other cells leave out one cell at the
    right end.  Cells are then merged right-to-left until every cell expects
    at least 5; a left-end cell expecting less joins its right neighbour.
    """
    x = np.asarray(samples).ravel()
    if x.size == 0:
        raise InvalidTestError("empty sample")
    if not np.issubdtype(x.dtype, np.integer) or x.min() < 0:
        raise InvalidParameterError("samples must be integers >= 0")
    pmf = np.asarray(pmf, dtype=float)
    if np.any(pmf < 0.0):
        raise InvalidParameterError("pmf has a negative probability")
    total = x.size
    lo, hi = int(x.min()), int(x.max())
    observed = np.bincount(x - lo).astype(float)
    probs = np.zeros(hi - lo + 1)
    grid = pmf[lo:hi + 1]
    probs[:grid.size] = grid
    if np.any((probs == 0.0) & (observed > 0)):
        return _impossible(probs, alpha_level, total)
    expected = total * probs
    outside = max(0.0, 1.0 - probs.sum())
    left = float(pmf[:lo].sum())
    if total * left > 1e-9:
        observed = np.insert(observed, 0, 0.0)
        expected = np.insert(expected, 0, total * left)
    if total * (outside - left) > 1e-9:
        observed = np.append(observed, 0.0)
        expected = np.append(expected, total * (outside - left))
    obs, exp = _merge_right_tail(observed, expected)
    return _pearson_report(obs, exp, alpha_level, total)


def chi_square_counts(observed, probs, alpha_level: float = 0.01) -> TestReport:
    """Pearson test for categorical counts; sparse cells are pooled into one.
    Missing cells count as 0; an observation of probability 0 fails."""
    observed, probs = np.asarray(observed, float), np.asarray(probs, float)
    cells = max(observed.size, probs.size)
    observed, probs = (np.pad(a, (0, cells - a.size)) for a in (observed, probs))
    total = observed.sum()
    if np.any((probs == 0.0) & (observed > 0)):
        return _impossible(probs, alpha_level, total)
    expected = total * probs
    residual = total * max(0.0, 1.0 - probs.sum())
    big = expected >= MIN_EXPECTED
    obs = list(observed[big])
    exp = list(expected[big])
    pool_o = observed[~big].sum()
    pool_e = expected[~big].sum() + residual
    if pool_e > 0.0:
        obs.append(pool_o)
        exp.append(pool_e)
    if len(exp) >= 2 and exp[-1] < MIN_EXPECTED:  # the pool joins the last big cell
        e, o = exp.pop(), obs.pop()
        exp[-1] += e
        obs[-1] += o
    return _pearson_report(np.array(obs), np.array(exp), alpha_level, int(total))


def ks_test(samples, cdf, alpha_level: float = 0.01) -> TestReport:
    """One-sample KS test against ``cdf`` at the asymptotic critical value."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 50:
        raise InvalidTestError(f"KS needs at least 50 samples, got {n}")
    if np.any(np.diff(x) < 0):
        x = np.sort(x)
    f = np.asarray(cdf(x), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise InvalidParameterError("cdf must be nondecreasing")
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))
    threshold = float(special.kolmogi(alpha_level)) / np.sqrt(n)
    return TestReport(d, threshold, None, bool(d <= threshold), n)


def mean_ci(samples, level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation confidence interval: (mean, half-width)."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise InvalidTestError("mean_ci needs at least 2 samples")
    if not 0.0 < level < 1.0:
        raise InvalidParameterError("confidence level must be in (0, 1)")
    z = float(special.ndtri(0.5 + level / 2.0))  # scipy.stats.norm.ppf
    return float(x.mean()), z * float(x.std(ddof=1)) / float(np.sqrt(x.size))
