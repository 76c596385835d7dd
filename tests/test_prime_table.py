"""The character sweep at prime volume, held to a table built by the closed form alone.

At prime p the row Hermite form of a lattice d-simplex's edge matrix has
diagonal entries 1, ..., 1 and one p. An entry left of a diagonal 1 lies in
[0, 1), so it is 0: one row is nontrivial, and after a permutation of
coordinates the simplex is the one-row member HNFSpec(p, coeffs, d), where
coeffs counts the residues 1..p-1 among that row's d-1 other entries. So
`closed_form_delta` over every multiset of d-1 residues in [0, p) lists every
delta-vector at (d, p), sharing no code with `groups` or `lanes`.

Larger pairs, which take seconds each, run with
`PYTHONPATH=src python tests/test_prime_table.py`.
"""

import time
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from deltasimplex import HNFSpec, build_simplex, closed_form_delta, delta_from_box, exhaustive_search

# (d, p, number of delta-vectors)
PAIRS = [(7, 11, 42), (6, 13, 31), (3, 79, 22), (4, 41, 24)]
LARGER = [(11, 11, 173), (4, 61, 32), (9, 17, 214)]


def closed_form_table(d, p):
    """Every delta-vector at (d, p), each with the first one-row spec that gives it, in walk order."""
    table = {}
    for residues in combinations_with_replacement(range(p), d - 1):
        counts = Counter(residues)
        spec = HNFSpec(p, tuple(counts[j] for j in range(1, p)), d)
        table.setdefault(closed_form_delta(spec), spec)
    return table


@pytest.mark.parametrize("d, p, vectors", PAIRS)
def test_sweep_equals_the_closed_form_table(d, p, vectors):
    table = closed_form_table(d, p)
    assert len(table) == vectors
    assert exhaustive_search(d, p) == tuple(sorted(table))
    for delta, witness in table.items():
        assert delta_from_box(build_simplex(witness)) == delta


if __name__ == "__main__":
    for d, p, vectors in LARGER:
        start = time.perf_counter()
        table = closed_form_table(d, p)
        built = time.perf_counter()
        swept = exhaustive_search(d, p, budget=10**9)
        done = time.perf_counter()
        verdict = "match" if swept == tuple(sorted(table)) and len(table) == vectors else "MISMATCH"
        print(f"(d, p) = {(d, p)}: {len(table)} vectors, {verdict}; "
              f"table {built - start:.2f} s, sweep {done - built:.2f} s")
        if verdict != "match":
            raise SystemExit(1)
