import sys

import pytest

from deltasimplex import BoxPoint, Simplex


def pytest_configure(config):
    if sys.flags.optimize:
        raise pytest.UsageError(
            "python -O strips the asserts of every test, so this run would check nothing. "
            "Run the suite without -O; the -O behaviour of the package's checks is tested "
            "in python -O subprocesses by tests/test_optimize.py."
        )


def random_simplex(rng, max_dim=4, entry=4, max_volume=None):
    """Rejection-sample a full-dimensional simplex with small integer vertices."""
    while True:
        d = rng.randint(1, max_dim)
        verts = tuple(
            tuple(rng.randint(-entry, entry) for _ in range(d)) for _ in range(d + 1)
        )
        try:
            s = Simplex(verts)
        except ValueError:
            continue
        if max_volume is None or s.normalized_volume <= max_volume:
            return s


def box_add(a, b):
    """Group law on the points of `enumerate_box`: coefficients add mod 1."""
    den = a.denominator
    return _box_point(tuple((x + y) % den for x, y in zip(a.numerators, b.numerators)), den)


def box_inverse(a):
    """Group inverse: each coefficient r maps to the fractional part of 1 - r."""
    den = a.denominator
    return _box_point(tuple(-x % den for x in a.numerators), den)


def _box_point(nums, den):
    assert sum(nums) % den == 0, (nums, den)
    return BoxPoint(nums, den, sum(nums) // den)


def stanley_exponents(e):
    """Reference exponent form of Stanley's bound: the j with i_j + i_{m-1-j} < i_{m-1}, 1 <= j <= m-2."""
    vals, m = e.values, e.m
    return tuple(j for j in range(1, m - 1) if vals[j - 1] + vals[m - j - 2] < vals[m - 2])


def hibi_exponents(e):
    """Reference exponent form of Hibi's bound: the j with i_j + i_{m-j} > dim + 1, 1 <= j <= m-1."""
    vals, m = e.values, e.m
    return tuple(j for j in range(1, m) if vals[j - 1] + vals[m - j - 1] > e.dim + 1)
