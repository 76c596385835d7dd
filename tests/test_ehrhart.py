import random
import time
from itertools import permutations, product
from math import comb

import pytest

import deltasimplex.ehrhart
from deltasimplex import (
    BudgetExceededError,
    Simplex,
    cell_estimate,
    count_lattice_points,
    delta_from_box,
    ehrhart_delta,
    ehrhart_table,
)
from deltasimplex.lattice import _edge_matrix, row_hermite_form
from conftest import random_simplex

SEGMENT5 = Simplex(((0,), (5,)))
TRIANGLE235 = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 5)))


def unit_simplex(d):
    rows = [tuple([0] * d)] + [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    return Simplex(tuple(rows))


class TestCounting:
    def test_segment_dilate(self):
        assert count_lattice_points(SEGMENT5, 2) == (11, 9)

    def test_unit_simplex_counts_are_binomials(self):
        for d in (1, 2, 3, 4):
            s = unit_simplex(d)
            for n in (1, 2, 3):
                assert count_lattice_points(s, n) == (comb(n + d, d), comb(n - 1, d))

    def test_triangle_has_no_extra_points(self):
        assert count_lattice_points(TRIANGLE235, 1) == (4, 0)

    def test_interior_counts(self):
        assert count_lattice_points(SEGMENT5, 1)[1] == 4
        assert count_lattice_points(unit_simplex(2), 1)[1] == 0

    def test_rejects_zero_dilation(self):
        with pytest.raises(ValueError):
            count_lattice_points(SEGMENT5, 0)

    def test_translation_invariance(self):
        rng = random.Random(31)
        for _ in range(30):
            s = random_simplex(rng, max_dim=3, max_volume=30)
            shift = tuple(rng.randint(-5, 5) for _ in range(s.dim))
            moved = Simplex(tuple(tuple(x + t for x, t in zip(v, shift)) for v in s.vertices))
            for n in (1, 2):
                assert count_lattice_points(s, n) == count_lattice_points(moved, n)


def naive_counts(s, n):
    """Closed and interior lattice points of the n-th dilate, by scanning its bounding box.

    Shares nothing with the Hermite frame: a point x lies in n*S iff its scaled
    barycentric coordinates b = adj(E) @ (x - n*v_0), by Cramer's rule on the
    edge matrix E, satisfy b >= 0 and sum(b) <= n*|det E| (strictly for the interior).
    """
    d, v0 = s.dim, s.vertices[0]
    edges = [[v[k] - v0[k] for v in s.vertices[1:]] for k in range(d)]

    def det(m):
        total = 0
        for perm in permutations(range(d)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
            term = sign
            for row, col in zip(range(d), perm):
                term *= m[row][col]
            total += term
        return total

    volume = det(edges)
    sign, volume = (1, volume) if volume > 0 else (-1, -volume)
    # adj[i][j] = det(E with column i replaced by the unit vector e_j)
    adj = [
        [det([[int(k == j) if c == i else edges[k][c] for c in range(d)] for k in range(d)])
         for j in range(d)]
        for i in range(d)
    ]
    ranges = [
        range(n * min(v[k] for v in s.vertices), n * max(v[k] for v in s.vertices) + 1)
        for k in range(d)
    ]
    closed = interior = 0
    for x in product(*ranges):
        w = [x[k] - n * v0[k] for k in range(d)]
        b = [sign * sum(a * t for a, t in zip(row, w)) for row in adj]
        rest = n * volume - sum(b)
        if min(b) >= 0 and rest >= 0:
            closed += 1
            interior += min(b) > 0 and rest > 0
    return closed, interior


def reference_cases():
    rng = random.Random(20261018)
    cases = [random_simplex(rng, max_dim=3, entry=2) for _ in range(40)]
    return cases + [
        SEGMENT5,
        unit_simplex(3),
        Simplex(((0, 0, 0), (2, 2, 0), (0, 1, 0), (1, 0, 3))),  # h[0][0] = 2
    ]


class TestNaiveReference:
    CASES = reference_cases()

    def test_fixed_cases(self):
        segment, unimodular, pivot_two = self.CASES[-3:]
        assert segment.dim == 1 and unimodular.normalized_volume == 1
        assert row_hermite_form(_edge_matrix(pivot_two.vertices))[0][0] == 2

    @pytest.mark.parametrize("index", range(len(CASES)))
    def test_every_route_matches_the_box_scan(self, index):
        s = self.CASES[index]
        d = s.dim
        naive = [naive_counts(s, n) for n in range(1, d + 2)]
        closed = tuple(c for c, _ in naive)
        interior = tuple(i for _, i in naive)
        table = ehrhart_table(s, budget=10**12)
        assert table.counts == (1,) + closed
        assert table.interior_counts == interior
        assert ehrhart_delta(s, budget=10**12) == table.delta
        for n, (c, i) in enumerate(naive, start=1):
            assert count_lattice_points(s, n, budget=10**12) == (c, i)


class TestLargeDilate:
    """One walk of the n-th dilate, evaluated at n alone: a large n costs no loop over 1..n."""

    def test_segment(self):
        start = time.perf_counter()
        assert count_lattice_points(SEGMENT5, 10**5, budget=10**7) == (500001, 499999)
        assert time.perf_counter() - start < 0.5

    def test_triangle_matches_the_closed_polynomial(self):
        triangle = Simplex(((0, 0), (2, 0), (1, 3)))
        delta, n, d = delta_from_box(triangle), 200, 2
        start = time.perf_counter()
        counted, _ = count_lattice_points(triangle, n, budget=10**7)
        assert time.perf_counter() - start < 0.5
        assert counted == sum(x * comb(n - i + d, d) for i, x in enumerate(delta))


class TestBudget:
    def test_estimate_is_box_cells(self):
        assert cell_estimate(SEGMENT5, 2) == 11
        assert cell_estimate(TRIANGLE235, 1) == 3 * 4 * 6

    @pytest.mark.parametrize("n", [0, -1])
    def test_estimate_refuses_a_dilate_below_one(self, n):
        """As `count_lattice_points` does: there is no n-th dilate to estimate for n < 1."""
        with pytest.raises(ValueError, match="dilation factor must be >= 1"):
            cell_estimate(Simplex(((0, 0), (1, 0), (2, 5))), n)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError) as info:
            count_lattice_points(SEGMENT5, 2, budget=10)
        assert info.value.estimate == 11

    def test_delta_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            ehrhart_delta(TRIANGLE235, budget=5)


class TestDelta:
    def test_segment(self):
        assert ehrhart_delta(SEGMENT5) == (1, 4)

    def test_unit_simplex(self):
        assert ehrhart_delta(unit_simplex(3)) == (1, 0, 0, 0)

    def test_triangle(self):
        assert ehrhart_delta(TRIANGLE235) == (1, 0, 4, 0)

    def test_matches_box_on_random_simplices(self):
        rng = random.Random(20260809)
        for _ in range(200):
            s = random_simplex(rng, max_dim=4, max_volume=40)
            assert ehrhart_delta(s, budget=10**12) == delta_from_box(s)

    def test_boundary_identities(self):
        # delta_d = interior(1), delta_1 = count(1) - (d+1), delta_1 >= delta_d
        rng = random.Random(8)
        for _ in range(60):
            s = random_simplex(rng, max_dim=4, max_volume=40)
            delta = ehrhart_delta(s, budget=10**12)
            d = s.dim
            closed, interior = count_lattice_points(s, 1, budget=10**12)
            assert delta[d] == interior
            assert delta[1] == closed - (d + 1)
            assert delta[1] >= delta[d]


class TestTable:
    def test_segment_table(self):
        table = ehrhart_table(SEGMENT5)
        assert table.counts == (1, 6, 11)
        assert table.interior_counts == (4, 9)
        assert table.delta == (1, 4)


class TestReciprocity:
    """`ehrhart_table` builds only when every interior count agrees with reciprocity."""

    def test_segment(self):
        assert ehrhart_table(SEGMENT5).interior_counts == (4, 9)

    def test_unit_simplex(self):
        assert ehrhart_table(unit_simplex(2)).interior_counts == (0, 0, 1)

    def test_triangle(self):
        assert ehrhart_table(TRIANGLE235).delta == (1, 0, 4, 0)

    def test_random_simplices(self):
        rng = random.Random(14)
        for _ in range(40):
            s = random_simplex(rng, max_dim=4, max_volume=30)
            assert ehrhart_table(s, budget=10**12).delta == delta_from_box(s)

    def test_miscounted_interior_is_a_mismatch(self, monkeypatch):
        predicted = ehrhart_table(TRIANGLE235).interior_counts[0]
        real = deltasimplex.ehrhart._count_dilates

        def one_more_interior_point(*args):
            closed, interior = real(*args)
            return closed, tuple(x + 1 for x in interior)

        monkeypatch.setattr(deltasimplex.ehrhart, "_count_dilates", one_more_interior_point)
        for route in (ehrhart_table, ehrhart_delta):
            with pytest.raises(AssertionError) as info:
                route(TRIANGLE235)
            assert str(info.value) == f"reciprocity fails at (n, counted, predicted) = {(1, predicted + 1, predicted)}"
