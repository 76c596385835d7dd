"""Lattice points of the half-open parallelepiped over a simplex's homogenized vertices.

These points form a finite abelian group under coordinate-wise fractional
addition of their coefficient vectors; counting them by degree yields the
delta-vector.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

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

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

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


def _box_numerators(s: Simplex):
    """Group denominator and the numerator tuples of all parallelepiped points.

    The coefficient vectors r with sum_i r_i (v_i, 1) integral form a lattice
    between Z^(d+1) and its rational superlattice; the Smith normal form of
    the transposed homogenized vertex matrix gives generators of the quotient,
    whose order equals the normalized volume.
    """
    d = s.dim
    hom = s.homogeneous_matrix()
    transposed = tuple(tuple(hom[i][j] for i in range(d + 1)) for j in range(d + 1))
    snf = smith_normal_form(transposed)
    den = snf.diagonal[-1]

    generators = []
    for j, order in enumerate(snf.diagonal):
        if order == 1:
            continue
        scale = den // order
        column = tuple(snf.right[i][j] * scale % den for i in range(d + 1))
        generators.append((column, order))

    seen = set()
    for combo in product(*(range(order) for _, order in generators)):
        nums = [0] * (d + 1)
        for (column, _), k in zip(generators, combo):
            if k:
                for i in range(d + 1):
                    nums[i] = (nums[i] + k * column[i]) % den
        seen.add(tuple(nums))
    assert len(seen) == s.normalized_volume  # group order must equal the normalized volume
    return den, seen


def _degree(nums, den: int) -> int:
    """Degree of the point with coefficients nums/den: their sum, an integer below len(nums)."""
    total = sum(nums)
    assert total % den == 0
    degree = total // den
    assert 0 <= degree < len(nums)
    return degree


def enumerate_box(s: Simplex) -> BoxGroup:
    """Enumerate the parallelepiped group of a simplex, in canonical order."""
    den, seen = _box_numerators(s)
    points = tuple(BoxPoint(s, nums, den, _degree(nums, den)) for nums in sorted(seen))
    assert points[0].is_identity() and points[0].degree == 0
    return BoxGroup(s, den, points)


def box_add(a: BoxPoint, b: BoxPoint) -> BoxPoint:
    """Group operation: coordinate-wise fractional addition of coefficients."""
    if a.simplex != b.simplex or a.denominator != b.denominator:
        raise ValueError("box points belong to different groups")
    den = a.denominator
    nums = tuple((x + y) % den for x, y in zip(a.numerators, b.numerators))
    return BoxPoint(a.simplex, nums, den, _degree(nums, den))


def box_inverse(a: BoxPoint) -> BoxPoint:
    """Group inverse: each coefficient r maps to the fractional part of 1 - r."""
    den = a.denominator
    nums = tuple(-x % den for x in a.numerators)
    return BoxPoint(a.simplex, nums, den, _degree(nums, den))


def delta_from_box(s: Simplex) -> tuple[int, ...]:
    """Delta-vector of a simplex: entry i counts parallelepiped points of degree i."""
    den, seen = _box_numerators(s)
    delta = [0] * (s.dim + 1)
    for nums in seen:
        delta[_degree(nums, den)] += 1
    assert delta[0] == 1 and sum(delta) == s.normalized_volume
    return tuple(delta)
