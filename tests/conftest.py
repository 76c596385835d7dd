import sys

import pytest

from deltasimplex import Simplex


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
