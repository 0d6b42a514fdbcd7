import math

import numpy as np
import pytest

from randstruct import rng as R
from randstruct import walks
from randstruct.errors import InvalidParameterError
from randstruct.exact import OffspringLaw


def test_same_seed_same_stream():
    a = R.make_stream(42, 0).gen.random(10_000)
    b = R.make_stream(42, 0).gen.random(10_000)
    assert np.array_equal(a, b)


def test_distinct_stream_index_differs():
    a = R.make_stream(42, 0).gen.random(1_000)
    b = R.make_stream(42, 1).gen.random(1_000)
    assert not np.array_equal(a, b)


def test_distinct_seed_differs():
    a = R.make_stream(42, 0).gen.random(1_000)
    b = R.make_stream(43, 0).gen.random(1_000)
    assert not np.array_equal(a, b)


def test_negative_stream_index_rejected():
    with pytest.raises(InvalidParameterError):
        R.make_stream(1, -1)


def test_keys_outside_64_bits_rejected():
    # masking would alias seed -1 onto 2^64 - 1 and index 2^64 + 3 onto 3
    for seed, index in ((-1, 0), (1 << 64, 0), (0, 1 << 64), (5, (1 << 64) + 3)):
        with pytest.raises(InvalidParameterError):
            R.make_stream(seed, index)


def test_in_range_keys_are_the_philox_key():
    top = (1 << 64) - 1
    for seed, index in ((0, 0), (top, 3), (20260810, top)):
        want = np.random.Generator(np.random.Philox(
            key=np.array([seed, index], dtype=np.uint64))).random(8)
        assert np.array_equal(R.make_stream(seed, index).gen.random(8), want)


def test_streams_pairwise_uncorrelated():
    n = 50_000
    a = R.make_stream(9, 0).gen.random(n)
    b = R.make_stream(9, 1).gen.random(n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / math.sqrt(n)


def test_poisson_zero_degenerate():
    s = R.make_stream(1, 1)
    assert OffspringLaw.poisson(0.0).sample(s, size=1_000).max() == 0


@pytest.mark.parametrize("n,p", [(10, 0.3), (100, 0.01)])
def test_binomial_moments(n, p):
    s = R.make_stream(2, n)
    x = OffspringLaw.binomial(n, p).sample(s, size=1_000_000).astype(float)
    mean, var = n * p, n * p * (1 - p)
    se_mean = x.std() / math.sqrt(x.size)
    # variance standard error from the exact fourth central moment
    q = 1 - p
    mu4 = n * p * q * (1 + 3 * p * q * (n - 2) - 3 * p * q)
    se_var = math.sqrt(max(mu4 - var ** 2 * (x.size - 3) / (x.size - 1), var ** 2)
                       / x.size)
    assert abs(x.mean() - mean) < 4 * se_mean
    assert abs(x.var(ddof=1) - var) < 4 * se_var


@pytest.mark.parametrize("lam", [0.5, 1.0, 10.0])
def test_poisson_mean_equals_variance(lam):
    s = R.make_stream(3, int(lam * 10))
    x = OffspringLaw.poisson(lam).sample(s, size=1_000_000).astype(float)
    se_mean = x.std() / math.sqrt(x.size)
    mu4 = lam * (1 + 3 * lam)  # fourth central moment of the Poisson law
    se_var = math.sqrt((mu4 - lam ** 2 + 2 * lam ** 2 / (x.size - 1)) / x.size)
    assert abs(x.mean() - lam) < 4 * se_mean
    assert abs(x.var(ddof=1) - lam) < 4 * se_var


def test_geometric_supports():
    # failures before the first success start at 0; walk steps at -1
    s = R.make_stream(4, 0)
    law = OffspringLaw.geometric(0.4)
    assert law.sample(s, size=10_000).min() == 0
    assert walks.sample_path(law, 10_000, s).increments.min() == -1


@pytest.mark.parametrize("factory,args", [
    (OffspringLaw.from_pmf, ({0: 0.5, 2: 0.4},)),
    (OffspringLaw.binomial, (-1, 0.5)),
    (OffspringLaw.geometric, (0.0,)),
    (OffspringLaw.poisson, (-0.1,)),
])
def test_invalid_parameters_rejected(factory, args):
    with pytest.raises(InvalidParameterError):
        factory(*args)
