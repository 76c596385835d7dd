"""Lattice points of the half-open parallelepiped over a simplex's homogenized vertices.

These points form a finite abelian group under coordinate-wise fractional
addition of their coefficient vectors; counting them by degree yields the
delta-vector.
"""

from collections import Counter
from dataclasses import dataclass, field
from math import prod
from operator import add

from .lattice import Simplex, smith_normal_form


@dataclass(frozen=True)
class BoxPoint:
    """One parallelepiped point, written as coefficients over the group denominator.

    The coefficient of vertex i is numerators[i] / denominator, in [0, 1).
    The degree is the (integral) sum of the coefficients.
    """

    simplex: Simplex = field(repr=False)
    numerators: tuple[int, ...]
    denominator: int
    degree: int

    def is_identity(self) -> bool:
        return all(n == 0 for n in self.numerators)


@dataclass(frozen=True)
class BoxGroup:
    """All parallelepiped points of one simplex, in canonical (lexicographic) order."""

    simplex: Simplex
    denominator: int
    points: tuple[BoxPoint, ...]

    @property
    def identity(self) -> BoxPoint:
        return self.points[0]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _box_coordinates(s: Simplex):
    """Group denominator and, one coordinate at a time, the numerators of every group element.

    The coefficient vectors r with sum_i r_i (v_i, 1) integral form a lattice
    between Z^(d+1) and its rational superlattice; the Smith normal form of
    the transposed homogenized vertex matrix gives generators g_j of the
    quotient (column j of its right transform over s_j, which its membership
    check puts in the lattice), of orders o_j whose product is the normalized
    volume. Element k of the product of the ranges [0, o_j) is
    sum_j k_j g_j mod den. The returned generator yields, for each coordinate
    i, the list of coordinate-i numerators of all elements, in the same
    element order for every i.
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
            values = [0]
            for column, order in generators:
                multiples = [k * column[i] % den for k in range(order)]
                # adding the first generator's multiples to [0] would only copy them
                values = multiples if len(values) == 1 else [
                    (x + y) % den for y in multiples for x in values
                ]
            yield values

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


def enumerate_box(s: Simplex) -> BoxGroup:
    """Enumerate the parallelepiped group of a simplex, in canonical order."""
    den, coordinates = _box_coordinates(s)
    points = tuple(
        BoxPoint(s, nums, den, _check_degree(sum(nums), den, s.dim))
        for nums in sorted(zip(*coordinates))
    )
    _check_identity(sum(1 for p in points if p.degree == 0))
    return BoxGroup(s, den, points)


def box_add(a: BoxPoint, b: BoxPoint) -> BoxPoint:
    """Group operation: coordinate-wise fractional addition of coefficients."""
    if a.simplex != b.simplex or a.denominator != b.denominator:
        raise ValueError("box points belong to different groups")
    den = a.denominator
    nums = tuple((x + y) % den for x, y in zip(a.numerators, b.numerators))
    return BoxPoint(a.simplex, nums, den, _check_degree(sum(nums), den, a.simplex.dim))


def box_inverse(a: BoxPoint) -> BoxPoint:
    """Group inverse: each coefficient r maps to the fractional part of 1 - r."""
    den = a.denominator
    nums = tuple(-x % den for x in a.numerators)
    return BoxPoint(a.simplex, nums, den, _check_degree(sum(nums), den, a.simplex.dim))


def delta_from_box(s: Simplex) -> tuple[int, ...]:
    """Delta-vector of a simplex: entry i counts parallelepiped points of degree i.

    Coordinate lists are added into per-element totals one at a time, so no
    per-element tuple is built and at most three lists of volume length are
    held at once.
    """
    den, coordinates = _box_coordinates(s)
    totals = next(coordinates)
    for values in coordinates:
        totals = list(map(add, totals, values))
    delta = [0] * (s.dim + 1)
    for total, count in Counter(totals).items():
        delta[_check_degree(total, den, s.dim)] += count
    _check_identity(delta[0])
    if sum(delta) != s.normalized_volume:
        raise AssertionError("box degree counts do not sum to the normalized volume")
    return tuple(delta)
