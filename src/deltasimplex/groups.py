"""Delta-vectors from finite abelian groups and their characters.

A lattice d-simplex of normalized volume N is, up to unimodular equivalence,
a finite abelian group A of order N with d+1 characters chi_0, ..., chi_d of
A that sum to zero and separate A: only the identity has every chi_l(g) = 0.
The age of g is the sum of the chi_l(g), each read in [0, 1), and delta_i
counts the g of age i (Batyrev and Hofscheier, "Lattice polytopes, finite
abelian subgroups in SL(n, C) and coding theory"). This is the
parallelepiped group seen from its dual, computed by none of the three
delta-vector routes; only the row format of `lanes` is shared with the box.

A character's values on the N elements of A are packed into one row of N
lanes (modulus the exponent e of A; d+1 terms), lane g holding the
numerator of chi(g) over e, so adding d+1 characters is one big-int
addition per row and no lane ever carries into the next.
"""

from itertools import combinations_with_replacement
from math import comb

from .lanes import RowFormat
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


def _table(factors, lanes: RowFormat) -> list:
    """The packed row of every character of Z/n_1 x ... x Z/n_r, in `product` order.

    Only the unit characters are built by `RowFormat.row`: entry g of unit i
    is the numerator over the exponent n_r of g_i / n_i, read in [0, 1).
    Character a + e_i is character a plus unit e_i, so the rows for factors
    i+1..r repeat n_i times, each copy one unit further on, one lane-wise add
    mod e each.
    """
    rows = [0]
    for i in reversed(range(len(factors))):
        unit = lanes.row([lanes.modulus // n * (j == i) for j, n in enumerate(factors)], factors)
        block = len(rows)
        for _ in range(factors[i] - 1):
            rows += [lanes.add(x, unit) for x in rows[-block:]]
    return rows


def exhaustive_search(d: int, vol: int, budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], ...]:
    """Ground truth: every delta-vector of a lattice d-simplex of normalized volume vol, sorted.

    It shares no code with the closed form behind `enumerate_admissible`, and
    the tests hold it to the vertex matrices of `iter_hnf_simplices`.

    The group A has at most d invariant factors, since the characters generate
    its dual exactly when they separate A, and d of them determine the last.
    For each such type, every multiset of d+1 characters with zero sum is
    visited once: d characters in sorted order, then the one that completes
    the zero sum, kept only if it sorts last. The completing character is read
    from the packed sum of the d rows: at the unit element of factor i the
    lane holds digit_i * (e / n_i) with no reduction, and the completing digit
    is -digit_i mod n_i. Every lane of the d+1 rows' sum is a multiple of e
    in [0, d e], and `RowFormat.multiples` counts the lanes equal to each, so
    the counts add up to vol, which is checked: the multiset separates A iff
    only the identity has age 0, and then delta_i is the number of lanes
    equal to i * e.

    The budget counts character values: for each type, at most 2 vol**2 for
    its table and (d+1) vol for each of its C(vol+d-1, d) sorted d-tuples.
    The table holds vol rows of vol lanes; it takes fewer than 2 vol values
    for each of its r unit rows and one lane-wise add for each other row, and
    2r <= vol + 1 since 2**r <= vol. A d-tuple reads r lanes to find its
    completing character. A histogram is charged vol values for each of its
    d+1 counts, the separation test and the d ages; it makes 2d+1 passes of a
    subtraction, a mask and a popcount. A sorted (d-1)-tuple costs d-1
    big-int additions, shared by the one or more d-tuples that extend it,
    and each d-tuple adds one row for its last entry and one for the
    completing row: at most d+1 additions per d-tuple. These additions and
    passes work on whole machine words in C, several lanes at a time. The
    cyclic type alone is gated first, so a huge volume is refused before it
    is factored.
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
        lanes = RowFormat(vol, exponent, d + 1, f"character group of exponent {exponent} in dimension {d}")
        rows = _table(factors, lanes)
        units, stride = [], vol
        for n in factors:
            stride //= n
            units.append((lanes.offset(stride), exponent // n, n, stride))
        mask = (1 << lanes.bits) - 1
        for head in combinations_with_replacement(range(vol), d - 1):
            prefix = sum(map(rows.__getitem__, head))
            for k in range(head[-1] if head else 0, vol):
                total = prefix + rows[k]
                last = 0
                for shift, scale, n, stride in units:
                    last += -(total >> shift & mask) // scale % n * stride
                if last >= k:
                    ages = lanes.multiples(total + rows[last], vol)
                    if sum(ages) != vol:
                        raise AssertionError(
                            f"characters {head + (k, last)} of group type {factors} give age counts "
                            f"summing to {sum(ages)}, not {vol}"
                        )
                    if ages[0] == 1:
                        found.add(tuple(ages))
    return tuple(sorted(found))
