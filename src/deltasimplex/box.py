"""Lattice points of the half-open parallelepiped over a simplex's homogenized vertices.

These points form a finite abelian group under coordinate-wise fractional
addition of their coefficient vectors; counting them by degree yields the
delta-vector.

The group is walked in pieces of at most `PIECE` elements. For each
coordinate, a piece is one packed row of `lanes` (modulus den, the largest
invariant factor; d+1 terms), lane k holding that coordinate's numerator of
the piece's k-th element. Adding a piece's d+1 rows gives per-element totals
that no lane carries out of.
"""

from collections import namedtuple
from itertools import product
from math import prod

from .lanes import RowFormat
from .lattice import Simplex, smith_normal_form

PIECE = 512  # most group elements in one piece: the lanes of one packed row


class BoxPoint(namedtuple("BoxPoint", "numerators denominator degree")):
    """One parallelepiped point, written as coefficients over the group denominator.

    The coefficient of vertex i is numerators[i] / denominator, in [0, 1).
    The degree is the (integral) sum of the coefficients.
    """

    __slots__ = ()


def _box_pieces(s: Simplex):
    """Group denominator, row format, and a generator of the group in pieces.

    The coefficient vectors r with sum_i r_i (v_i, 1) integral form a lattice
    between Z^(d+1) and its rational superlattice; the Smith normal form of
    the transposed homogenized vertex matrix gives generators g_j of the
    quotient (column j of its right transform over s_j, which its membership
    check puts in the lattice), of orders o_j whose product is the normalized
    volume. The elements are the sums sum_j k_j g_j mod den, k_j in [0, o_j).

    The lanes of a piece span the generators from the largest order down:
    each in full while the product `inner` of their orders fits in `PIECE`,
    then the first `PIECE // inner` multiples of the next one, the split
    generator. Each piece is that base block plus one offset, added mod den
    lane by lane: a start on the split generator plus a coset, a sum of
    multiples of the remaining generators. The generator yields (width, rows):
    the number of elements in the piece and one list holding, for each
    coordinate, the packed row of their numerators, refilled for the next
    piece. Only the last piece along the split generator is narrower than the
    rows; its spare lanes hold elements of other pieces.
    """
    d = s.dim
    snf = smith_normal_form(tuple(zip(*s.homogeneous_matrix())))
    den = snf.diagonal[-1]

    generators = []
    for j, order in enumerate(snf.diagonal):
        if order == 1:
            continue
        scale = den // order
        column = tuple(snf.right[i][j] * scale % den for i in range(d + 1))
        generators.append((column, order))
    if prod(order for _, order in generators) != s.normalized_volume:
        raise AssertionError("box group order differs from the normalized volume")

    rest = generators[::-1]
    block, inner = [], 1
    while rest and inner * rest[0][1] <= PIECE:
        block.append(rest.pop(0))
        inner *= block[-1][1]
    split, order, chunk = (0,) * (d + 1), 1, 1
    if rest:
        (split, order), chunk = rest.pop(0), PIECE // inner
        block.append((split, chunk))
    # past 8-byte lanes the group has more than 2**63 / (d+1) elements: no walk of them would finish
    lanes = RowFormat(inner * chunk, den, d + 1, f"box group of exponent {den} in dimension {d}")
    # in `product` order the last generator of the block varies slowest: the split one, if any
    orders = [multiples for _, multiples in reversed(block)]
    bases = [lanes.row([column[i] for column, _ in reversed(block)], orders) for i in range(d + 1)]

    def pieces():
        rows = bases[:]  # refilled in place, so one piece's rows are alive at a time
        for ks in product(*(range(o) for _, o in rest)):
            coset = [sum(k * column[i] for k, (column, _) in zip(ks, rest)) for i in range(d + 1)]
            for start in range(0, order, chunk):
                for i, base in enumerate(bases):
                    offset = (coset[i] + start * split[i]) % den
                    rows[i] = lanes.add(base, lanes.ones * offset) if offset else base
                yield inner * min(chunk, order - start), rows

    return den, lanes, pieces()


def _check_degree(total: int, den: int, dim: int) -> int:
    """Degree of a point whose numerators over den sum to total: an integer in [0, dim]."""
    if total % den:
        raise AssertionError(f"box point coefficients sum to {total}/{den}, not an integer")
    degree = total // den
    if not 0 <= degree <= dim:
        raise AssertionError(f"box point degree {degree} outside [0, {dim}]")
    return degree


def _check_group(delta0: int, count: int, s: Simplex) -> None:
    # k -> sum_j k_j g_j mod den is a homomorphism, since o_j g_j = 0 mod den by
    # construction; only the identity has degree 0, so exactly one element of
    # degree 0 means the kernel is trivial: the elements are distinct, and the
    # product of the orders, the volume, counts the whole group, so the walk must meet that many.
    if delta0 != 1:
        raise AssertionError(f"{delta0} box points of degree 0; the generators are not independent")
    if count != s.normalized_volume:
        raise AssertionError("box degree counts do not sum to the normalized volume")


def enumerate_box(s: Simplex) -> tuple[BoxPoint, ...]:
    """All parallelepiped points of a simplex, in canonical (lexicographic) order, identity first.

    Each piece's rows are unpacked lane by lane and zipped into numerator tuples.
    """
    den, lanes, pieces = _box_pieces(s)
    numerators = []
    for width, rows in pieces:
        numerators += zip(*(lanes.unpack(row)[:width] for row in rows))
    points = tuple(BoxPoint(nums, den, _check_degree(sum(nums), den, s.dim)) for nums in sorted(numerators))
    _check_group(sum(1 for p in points if p.degree == 0), len(points), s)
    return points


def delta_from_box(s: Simplex) -> tuple[int, ...]:
    """Delta-vector of a simplex: entry i counts parallelepiped points of degree i.

    A piece's d+1 rows are added into one int of per-element totals, which is
    never unpacked: `RowFormat.multiples` counts its lanes equal to j den for
    each degree j <= d. A total is a multiple of den in [0, d den] exactly when
    it is one of these, so the piece is valid iff the counts add up to its
    width; if not, its totals are unpacked to name the first bad one. Memory is
    O(PIECE (d+1)) lanes for every group type.
    """
    den, lanes, pieces = _box_pieces(s)
    d = s.dim
    delta = [0] * (d + 1)
    for width, rows in pieces:
        total = sum(rows)
        exact = lanes.multiples(total, width)
        if sum(exact) != width:
            for value in lanes.unpack(total)[:width]:
                _check_degree(value, den, d)
        for j, count in enumerate(exact):
            delta[j] += count
    _check_group(delta[0], sum(delta), s)
    return tuple(delta)
