"""Delta-vectors from finite abelian groups and their characters.

A lattice d-simplex of normalized volume N is, up to unimodular equivalence,
a finite abelian group A of order N with d+1 characters chi_0, ..., chi_d of
A that sum to zero and separate A: only the identity has every chi_l(g) = 0.
The age of g is the sum of the chi_l(g), each read in [0, 1), and delta_i
counts the g of age i (Batyrev and Hofscheier, "Lattice polytopes, finite
abelian subgroups in SL(n, C) and coding theory"). This is the
parallelepiped group seen from its dual, so nothing here comes from the
three delta-vector routes.
"""

from array import array
from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb

from .lattice import DEFAULT_BUDGET, _as_int, within_budget


def _invariant_factors(n: int, most: int, least: int = 1):
    """Every chain n_1 | n_2 | ... | n_r with product n, r <= most, n_1 > 1 and least | n_1."""
    if n == 1:
        yield ()
        return
    if most == 0:
        return
    for f in range(max(least, 2), n + 1, least):
        if n % f == 0:
            for rest in _invariant_factors(n // f, most - 1, f):
                yield (f,) + rest


def _row(a, factors, exponent: int):
    """Character a on every element of Z/n_1 x ... x Z/n_r, in `product` order.

    Entry g is the numerator over the exponent n_r of sum_i a_i g_i / n_i, read
    in [0, 1). The row is built one factor at a time, in passes of n_1,
    n_1 n_2, ..., N values: fewer than 2N in all. Two bytes an entry wherever
    the values fit, since a table holds N rows.
    """
    row = [0]
    for a_i, n in zip(a, factors):
        step = a_i * (exponent // n)
        row = [(x + step * g) % exponent for x in row for g in range(n)]
    return array("H" if exponent <= 1 << 16 else "Q", row)


def exhaustive_search(d: int, vol: int, budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], ...]:
    """Ground truth: every delta-vector of a lattice d-simplex of normalized volume vol, sorted.

    It shares no code with the closed form behind `enumerate_admissible`, and
    the tests hold it to the vertex matrices of `iter_hnf_simplices`.

    The group A has at most d invariant factors, since the characters generate
    its dual exactly when they separate A, and d of them determine the last.
    For each such type, every multiset of d+1 characters with zero sum is
    visited once: d characters in sorted order, then the one that completes
    the zero sum, kept only if it sorts last. Its ages are histogrammed, and
    the histogram is kept iff delta_0 == 1, that is iff the characters
    separate A.

    The budget counts character values: for each type, at most 2 vol**2 for
    its table and (d+1) vol for each of its C(vol+d-1, d) sorted d-tuples.
    The cyclic type alone is gated first, so a huge volume is refused before
    it is factored.
    """
    if min(_as_int(d), _as_int(vol)) < 1:
        raise ValueError("need d >= 1 and vol >= 1")
    per_type = comb(vol + d - 1, d) * (d + 1) * vol + 2 * vol * vol
    within_budget(per_type, budget, "character values")
    types = list(_invariant_factors(vol, d))
    within_budget(len(types) * per_type, budget, "character values")
    found = set()
    for factors in types:
        exponent = factors[-1] if factors else 1
        chars = list(product(*map(range, factors)))
        index = {a: k for k, a in enumerate(chars)}
        table = [_row(a, factors, exponent) for a in chars]
        for first in combinations_with_replacement(range(vol), d):
            total = map(sum, zip(*(chars[k] for k in first)))
            last = index[tuple(-t % n for t, n in zip(total, factors))]
            if last < first[-1]:
                continue
            ages = Counter(map(sum, zip(*(table[k] for k in first), table[last])))
            if ages[0] == 1:
                found.add(tuple(ages[i * exponent] for i in range(d + 1)))
    return tuple(sorted(found))
