import random
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
    reciprocity_check,
)
from conftest import random_simplex

SEGMENT5 = Simplex(((0,), (5,)))
TRIANGLE235 = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 5)))


def unit_simplex(d):
    rows = [tuple([0] * d)] + [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    return Simplex(tuple(rows))


class TestCounting:
    def test_segment_dilate(self):
        assert count_lattice_points(SEGMENT5, 2) == 11

    def test_unit_simplex_counts_are_binomials(self):
        for d in (1, 2, 3, 4):
            s = unit_simplex(d)
            for n in (1, 2, 3):
                assert count_lattice_points(s, n) == comb(n + d, d)

    def test_triangle_has_no_extra_points(self):
        assert count_lattice_points(TRIANGLE235, 1) == 4

    def test_interior_counts(self):
        assert count_lattice_points(SEGMENT5, 1, interior=True) == 4
        assert count_lattice_points(unit_simplex(2), 1, interior=True) == 0

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


class TestBudget:
    def test_estimate_is_box_cells(self):
        assert cell_estimate(SEGMENT5, 2) == 11
        assert cell_estimate(TRIANGLE235, 1) == 3 * 4 * 6

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
            assert delta[d] == count_lattice_points(s, 1, interior=True, budget=10**12)
            assert delta[1] == count_lattice_points(s, 1, budget=10**12) - (d + 1)
            assert delta[1] >= delta[d]


class TestTable:
    def test_segment_table(self):
        table = ehrhart_table(SEGMENT5)
        assert table.counts == (1, 6, 11)
        assert table.interior_counts == (4, 9)
        assert table.delta == (1, 4)


class TestReciprocity:
    def test_segment(self):
        assert reciprocity_check(SEGMENT5).ok

    def test_unit_simplex(self):
        assert reciprocity_check(unit_simplex(2)).ok

    def test_triangle(self):
        assert reciprocity_check(TRIANGLE235).ok

    def test_random_simplices(self):
        rng = random.Random(14)
        for _ in range(40):
            s = random_simplex(rng, max_dim=4, max_volume=30)
            report = reciprocity_check(s, budget=10**12)
            assert report.ok, report.first_mismatch

    def test_miscounted_interior_is_a_mismatch(self, monkeypatch):
        predicted = ehrhart_table(TRIANGLE235).interior_counts[0]
        real = deltasimplex.ehrhart._count_dilate
        monkeypatch.setattr(
            deltasimplex.ehrhart, "_count_dilate",
            lambda frame, n, interior: real(frame, n, interior) + interior,
        )
        report = reciprocity_check(TRIANGLE235)
        assert report.ok is False
        assert report.first_mismatch == (1, predicted + 1, predicted)
