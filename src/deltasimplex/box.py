"""Lattice points of the half-open parallelepiped over a simplex's homogenized vertices.

These points form a finite abelian group under coordinate-wise fractional
addition of their coefficient vectors; counting them by degree yields the
delta-vector.
"""

from collections import Counter, namedtuple
from itertools import chain, cycle, repeat
from math import prod
from operator import add, mod

from .lattice import Simplex, smith_normal_form


class BoxPoint(namedtuple("BoxPoint", "numerators denominator degree")):
    """One parallelepiped point, written as coefficients over the group denominator.

    The coefficient of vertex i is numerators[i] / denominator, in [0, 1).
    The degree is the (integral) sum of the coefficients.
    """

    __slots__ = ()


def _box_coordinates(s: Simplex):
    """Group denominator and, one coordinate at a time, the numerators of every group element.

    The coefficient vectors r with sum_i r_i (v_i, 1) integral form a lattice
    between Z^(d+1) and its rational superlattice; the Smith normal form of
    the transposed homogenized vertex matrix gives generators g_j of the
    quotient (column j of its right transform over s_j, which its membership
    check puts in the lattice), of orders o_j whose product is the normalized
    volume. Element k of the product of the ranges [0, o_j) is
    sum_j k_j g_j mod den. The returned generator yields, for each coordinate
    i, a lazy iterator over the coordinate-i numerators of all elements, in
    the same element order for every i. Adding generator j buffers the
    o_1 ... o_(j-1) earlier values in a `cycle`, so an iterator holds no value
    when the group is cyclic and fewer than 2V/s_n values otherwise, where V
    is the volume and s_n = den the largest order.
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

    def coordinates():
        for i in range(d + 1):
            values, size = (0,), 1
            for column, order in generators:
                step = column[i]
                multiples = range(0, step * order, step) if step else repeat(0, order)
                # element e + size * k_j, e indexing the earlier generators: the earlier
                # values cycle while each multiple of g_j repeats size times; adding the
                # first generator's multiples to (0,) would only copy them
                values = multiples if size == 1 else map(
                    add, cycle(values), chain.from_iterable(map(repeat, multiples, repeat(size)))
                )
                size *= order
            yield map(mod, values, repeat(den))

    return den, coordinates()


def _check_degree(total: int, den: int, dim: int) -> int:
    """Degree of a point whose numerators over den sum to total: an integer in [0, dim]."""
    if total % den:
        raise AssertionError(f"box point coefficients sum to {total}/{den}, not an integer")
    degree = total // den
    if not 0 <= degree <= dim:
        raise AssertionError(f"box point degree {degree} outside [0, {dim}]")
    return degree


def _check_identity(delta0: int) -> None:
    # k -> sum_j k_j g_j mod den is a homomorphism, since o_j g_j = 0 mod den by
    # construction; only the identity has degree 0, so exactly one element of
    # degree 0 means the kernel is trivial: the elements are distinct, and the
    # product of the orders, the volume, counts the whole group.
    if delta0 != 1:
        raise AssertionError(f"{delta0} box points of degree 0; the generators are not independent")


def enumerate_box(s: Simplex) -> tuple[BoxPoint, ...]:
    """All parallelepiped points of a simplex, in canonical (lexicographic) order, identity first."""
    den, coordinates = _box_coordinates(s)
    points = tuple(
        BoxPoint(nums, den, _check_degree(sum(nums), den, s.dim))
        for nums in sorted(zip(*coordinates))
    )
    _check_identity(sum(1 for p in points if p.degree == 0))
    return points


def delta_from_box(s: Simplex) -> tuple[int, ...]:
    """Delta-vector of a simplex: entry i counts parallelepiped points of degree i.

    The coordinate streams are added into one stream of per-element totals
    that the degree count consumes, so no per-element tuple and no list of
    volume length is built: memory is O(d) for a cyclic group and fewer
    than 2(d+1)V/s_n values otherwise (see `_box_coordinates`).
    """
    den, coordinates = _box_coordinates(s)
    totals = next(coordinates)
    for values in coordinates:
        totals = map(add, totals, values)
    delta = [0] * (s.dim + 1)
    for total, count in Counter(totals).items():
        delta[_check_degree(total, den, s.dim)] += count
    _check_identity(delta[0])
    if sum(delta) != s.normalized_volume:
        raise AssertionError("box degree counts do not sum to the normalized volume")
    return tuple(delta)
