import random
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest

from deltasimplex import (
    HNFSpec,
    Simplex,
    build_simplex,
    closed_form_delta,
    delta_from_box,
    ehrhart_delta,
    enumerate_box,
    is_prime,
    iter_hnf_simplices,
)
import deltasimplex.box
from conftest import box_add, box_inverse, random_simplex

SEGMENT5 = Simplex(((0,), (5,)))


def doubled_standard_simplex(d):
    """2 Delta_d: vertices 0 and 2 e_i. Its group is (Z/2)^d, and delta_i = C(d+1, 2i)."""
    return Simplex(tuple([(0,) * d] + [tuple(2 * (j == i) for j in range(d)) for i in range(d)]))
TRIANGLE235 = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 5)))


class TestEnumerate:
    def test_unit_simplex_trivial_group(self):
        s = Simplex(tuple([tuple([0] * 4)] + [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]))
        group = enumerate_box(s)
        assert len(group) == 1
        assert group[0].degree == 0

    def test_segment_points(self):
        group = enumerate_box(SEGMENT5)
        assert group[0].denominator == 5
        # the vertex-1 coefficients run over k/5, k = 0..4
        assert sorted(p.numerators[1] for p in group) == list(range(5))
        assert sorted(p.degree for p in group) == [0, 1, 1, 1, 1]

    def test_triangle_degrees(self):
        group = enumerate_box(TRIANGLE235)
        assert sorted(p.degree for p in group) == [0, 2, 2, 2, 2]

    def test_canonical_order(self):
        group = enumerate_box(TRIANGLE235)
        nums = [p.numerators for p in group]
        assert nums == sorted(nums)
        assert group[0].degree == 0

    def test_order_equals_volume_on_random_simplices(self):
        rng = random.Random(42)
        for _ in range(500):
            s = random_simplex(rng, max_dim=5, entry=4, max_volume=60)
            assert len(enumerate_box(s)) == s.normalized_volume

    def test_denominator_divides_volume(self):
        rng = random.Random(51)
        for _ in range(100):
            s = random_simplex(rng, max_dim=4, max_volume=60)
            group = enumerate_box(s)
            assert s.normalized_volume % group[0].denominator == 0
            assert all(p.denominator == group[0].denominator for p in group)

    def test_coefficient_membership(self):
        # sum of r_i * (v_i, 1) must be integral for every point
        rng = random.Random(13)
        for _ in range(50):
            s = random_simplex(rng, max_dim=3, max_volume=40)
            hom = s.homogeneous_matrix()
            for p in enumerate_box(s):
                for j in range(s.dim + 1):
                    total = sum(n * hom[i][j] for i, n in enumerate(p.numerators))
                    assert total % p.denominator == 0


class TestGroupLaw:
    def test_identity_law(self):
        group = enumerate_box(SEGMENT5)
        for p in group:
            assert box_add(p, group[0]) == p

    def test_segment_addition(self):
        group = enumerate_box(SEGMENT5)
        by_num = {p.numerators[1]: p for p in group}
        total = box_add(by_num[2], by_num[4])
        assert (total.numerators[1], total.denominator) == (1, 5)

    def test_inverse_law(self):
        rng = random.Random(77)
        for _ in range(40):
            s = random_simplex(rng, max_dim=3, max_volume=30)
            group = enumerate_box(s)
            for p in group:
                assert box_add(p, box_inverse(p)) == group[0]

    def test_segment_inverse(self):
        group = enumerate_box(SEGMENT5)
        by_num = {p.numerators[1]: p for p in group}
        inverse = box_inverse(by_num[2])
        assert (inverse.numerators[1], inverse.denominator) == (3, 5)
        assert box_inverse(group[0]) == group[0]

    def test_closure_and_degree_bound(self):
        # deg(a + b) <= deg(a) + deg(b), and sums stay in the group
        rng = random.Random(5)
        for _ in range(25):
            s = random_simplex(rng, max_dim=3, max_volume=20)
            group = enumerate_box(s)
            members = set(group)
            for a, b in combinations_with_replacement(group, 2):
                c = box_add(a, b)
                assert c in members
                assert c.degree <= a.degree + b.degree

    def test_inverse_degree_bound(self):
        rng = random.Random(6)
        for _ in range(40):
            s = random_simplex(rng, max_dim=4, max_volume=30)
            for p in enumerate_box(s):
                if p.degree != 0:
                    assert p.degree + box_inverse(p).degree <= s.dim + 1

    def test_prime_volume_is_cyclic(self):
        rng = random.Random(21)
        seen = 0
        while seen < 40:
            s = random_simplex(rng, max_dim=4, max_volume=23)
            p = s.normalized_volume
            if not is_prime(p):
                continue
            group = enumerate_box(s)
            for g in group:
                if g.degree == 0:
                    continue
                visited = {group[0]}
                walk = g
                while walk != group[0]:
                    visited.add(walk)
                    walk = box_add(walk, g)
                assert len(visited) == p
            seen += 1

    def test_prime_volume_pairing_constant(self):
        rng = random.Random(22)
        seen = 0
        while seen < 60:
            s = random_simplex(rng, max_dim=4, max_volume=23)
            p = s.normalized_volume
            if not is_prime(p) or p == 2:
                continue
            group = enumerate_box(s)
            degrees = sorted(g.degree for g in group if g.degree != 0)
            constant = degrees[0] + degrees[-1]
            assert constant <= s.dim + 1
            for g in group:
                if g.degree != 0:
                    assert g.degree + box_inverse(g).degree == constant
            seen += 1


class TestDelta:
    def test_unit_simplex(self):
        s = Simplex(tuple([tuple([0] * 4)] + [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]))
        assert delta_from_box(s) == (1, 0, 0, 0, 0)

    def test_segment(self):
        assert delta_from_box(SEGMENT5) == (1, 4)

    def test_triangle(self):
        assert delta_from_box(TRIANGLE235) == (1, 0, 4, 0)

    @pytest.mark.parametrize("dim, volume", [(3, 8), (3, 12), (2, 16), (4, 4)])
    def test_routes_agree_on_every_hnf_simplex(self, dim, volume):
        # these volumes have non-cyclic groups, with up to three SNF generators
        for s in iter_hnf_simplices(dim, volume):
            delta = delta_from_box(s)
            counts = Counter(p.degree for p in enumerate_box(s))
            assert delta == tuple(counts[i] for i in range(dim + 1))
            assert delta == ehrhart_delta(s, budget=10**9)

    def test_zero_step_coordinates(self):
        # e_2 and e_3 get coefficient 0 in every element, so their multiples are all 0
        spec = HNFSpec(5, (1, 0, 0, 0), 4)
        s = build_simplex(spec)
        assert {p.numerators[2:4] for p in enumerate_box(s)} == {(0, 0)}
        assert delta_from_box(s) == closed_form_delta(spec)

    def test_cyclic_group_in_constant_memory(self):
        # volume 10007 is prime, so the group is cyclic and no value is buffered;
        # a list of one coordinate's numerators alone would take over 64 KiB
        spec = HNFSpec(10007, tuple(int(j in (3, 17, 5000)) for j in range(1, 10007)), 5)
        s = build_simplex(spec)
        tracemalloc.start()
        try:
            delta = delta_from_box(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert delta == closed_form_delta(spec)

    def test_noncyclic_group_in_constant_memory(self):
        # (Z/2)^14 has 16384 elements and fourteen generators: most of them offset whole pieces
        tracemalloc.start()
        try:
            delta = delta_from_box(doubled_standard_simplex(14))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert delta == tuple(comb(15, 2 * i) for i in range(15))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_doubled_standard_simplex(self, d):
        # past d = 9 the group outgrows one piece, so the last generators offset whole pieces
        s = doubled_standard_simplex(d)
        assert delta_from_box(s) == tuple(comb(d + 1, 2 * i) for i in range(d + 1))
        assert Counter(p.degree for p in enumerate_box(s)) == {i: comb(d + 1, 2 * i) for i in range((d + 1) // 2 + 1)}

    # A piece's rows are summed and compared lane by lane, so a lane must hold
    # 2(d+1) den: 1 byte up to 2**8, 2 bytes up to 2**16. At d = 3, m = 31, 32, 33
    # and 8191, 8192, 8193 put 2(d+1) den just below, at and just above these
    # limits; m = 63, 64, 65 and 16383, 16384, 16385 put (d+1) den there, where a
    # lane without the headroom for the compare would carry into its neighbour.
    @pytest.mark.parametrize("m", [31, 32, 33, 63, 64, 65, 8191, 8192, 8193, 16383, 16384, 16385])
    def test_lane_width_boundaries_on_the_family(self, m):
        spec = HNFSpec(m, tuple(int(j in (1, m - 2)) for j in range(1, m)), 3)
        assert delta_from_box(build_simplex(spec)) == closed_form_delta(spec)

    @pytest.mark.parametrize("m", [63, 64, 65, 16383, 16384, 16385])
    def test_lane_width_boundaries_on_segments(self, m):
        s = Simplex(((0,), (m,)))
        assert delta_from_box(s) == ehrhart_delta(s)

    @pytest.mark.parametrize("route", [delta_from_box, enumerate_box])
    def test_group_too_large_for_8_byte_lanes(self, route):
        # 2 (d+1) den = 2**65: refused before any element is built
        with pytest.raises(ValueError, match="needs lanes wider than 8 bytes"):
            route(Simplex(((0,), (2**63,))))


class TestPieces:
    """Pieces narrower than the group: partial last pieces, split generators and coset offsets."""

    @pytest.mark.parametrize("width", [1, 2, 3, 7])
    @pytest.mark.parametrize("dim, volume", [(3, 8), (3, 12), (2, 16), (4, 4), (3, 11)])
    def test_any_piece_width_gives_the_same_group(self, monkeypatch, width, dim, volume):
        # every group here fits in one default piece, which the routes test holds to ehrhart_delta
        for s in iter_hnf_simplices(dim, volume):
            points, delta = enumerate_box(s), delta_from_box(s)
            with monkeypatch.context() as patch:
                patch.setattr(deltasimplex.box, "PIECE", width)
                assert enumerate_box(s) == points
                assert delta_from_box(s) == delta


# The simplex has group Z/4; doubling the generator column makes it generate
# only a subgroup of order 2, which an unchecked count would report as (1, 1, 0).
BROKEN_SNF_SIMPLEX = ((0, 0), (1, 0), (1, 4))


class TestBrokenSNF:
    @pytest.fixture
    def broken_snf(self, monkeypatch):
        real = deltasimplex.box.smith_normal_form

        def doubled_last_column(matrix):
            snf = real(matrix)
            return snf._replace(right=tuple(row[:-1] + (2 * row[-1],) for row in snf.right))

        monkeypatch.setattr(deltasimplex.box, "smith_normal_form", doubled_last_column)

    @pytest.mark.parametrize("route", [delta_from_box, enumerate_box])
    def test_raises_in_process(self, broken_snf, route):
        with pytest.raises(AssertionError):
            route(Simplex(BROKEN_SNF_SIMPLEX))


class TestOffLatticeColumn:
    """A generator column off the lattice gives points whose coefficients sum to a fraction."""

    @pytest.fixture
    def off_lattice(self, monkeypatch):
        real = deltasimplex.box.smith_normal_form

        def shifted_last_column(matrix):
            snf = real(matrix)
            return snf._replace(right=(snf.right[0][:-1] + (snf.right[0][-1] + 1,),) + snf.right[1:])

        monkeypatch.setattr(deltasimplex.box, "smith_normal_form", shifted_last_column)

    @pytest.mark.parametrize("route", [delta_from_box, enumerate_box])
    def test_raises_in_process(self, off_lattice, route):
        with pytest.raises(AssertionError, match="not an integer"):
            route(TRIANGLE235)
