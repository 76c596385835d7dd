import random

import pytest

from deltasimplex import (
    HNFSpec,
    Simplex,
    build_simplex,
    check_superadditive,
    closed_form_delta,
    delta_from_box,
    ehrhart_delta,
    exponents,
    least_prime_divisor,
    nonprime_family,
)


class TestSpecValidation:
    def test_coefficient_count(self):
        with pytest.raises(ValueError):
            HNFSpec(5, (0, 1, 1), 3)

    def test_coefficients_must_fit(self):
        with pytest.raises(ValueError):
            HNFSpec(5, (0, 2, 2, 0), 3)

    def test_negative_coefficient(self):
        with pytest.raises(ValueError):
            HNFSpec(5, (0, -1, 0, 0), 3)

    def test_volume_lower_bound(self):
        with pytest.raises(ValueError):
            HNFSpec(1, (), 3)


class TestBuild:
    def test_trivial_is_segment(self):
        s = build_simplex(HNFSpec(5, (0, 0, 0, 0), 1))
        assert s == Simplex(((0,), (5,)))

    def test_known_three_dimensional_member(self):
        s = build_simplex(HNFSpec(5, (0, 1, 1, 0), 3))
        assert s.vertices == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 5))

    def test_composite_member_vertices(self):
        s = build_simplex(HNFSpec(4, (0, 4, 0), 5))
        assert s.vertices[-1] == (2, 2, 2, 2, 4)
        assert s.normalized_volume == 4

    def test_volume_always_m(self):
        rng = random.Random(2)
        for _ in range(100):
            spec = _random_spec(rng)
            assert build_simplex(spec).normalized_volume == spec.m


class TestClosedForm:
    def test_single_block(self):
        assert closed_form_delta(HNFSpec(5, (0, 1, 1, 0), 3)) == (1, 0, 4, 0)

    def test_two_blocks(self):
        assert closed_form_delta(HNFSpec(5, (0, 2, 1, 0), 4)) == (1, 0, 2, 2, 0)

    def test_composite_example(self):
        assert closed_form_delta(HNFSpec(4, (0, 4, 0), 5)) == (1, 1, 0, 2, 0, 0)

    def test_cross_check_against_box_and_oracle(self):
        # the acceptance gate for this module, on a seeded corpus
        rng = random.Random(99)
        for _ in range(80):
            spec = _random_spec(rng)
            closed = closed_form_delta(spec)
            simplex = build_simplex(spec)
            assert delta_from_box(simplex) == closed
            if spec.dim <= 4:
                assert ehrhart_delta(simplex, budget=10**12) == closed

    def test_equals_dense_sum_over_all_residues(self):
        def dense(spec):
            m, d = spec.m, spec.dim
            delta = [0] * (d + 1)
            delta[0] = 1
            for i in range(1, m):
                t = sum((i * j) % m * mult for j, mult in enumerate(spec.coeffs, start=1))
                delta[1 - (i - t) // m] += 1
            return tuple(delta)

        rng = random.Random(2024)
        specs = [HNFSpec(m, (0,) * (m - 1), dim) for m, dim in ((2, 1), (7, 3), (300, 6))]
        for _ in range(240):
            m = rng.randint(2, 300)
            dim = rng.randint(1, 8)
            coeffs = [0] * (m - 1)
            for _ in range(rng.randint(0, dim - 1)):
                coeffs[rng.randrange(m - 1)] += 1
            specs.append(HNFSpec(m, tuple(coeffs), dim))
        for spec in specs:
            assert closed_form_delta(spec) == dense(spec)


class TestNonprimeFamily:
    def test_smallest_composite(self):
        spec, delta = nonprime_family(4)
        assert spec == HNFSpec(4, (0, 4, 0), 5)
        assert delta == (1, 1, 0, 2, 0, 0)

    def test_six(self):
        spec, delta = nonprime_family(6)
        assert spec.dim == 7
        assert delta == (1, 1, 0, 2, 0, 2, 0, 0)

    def test_nine(self):
        spec, delta = nonprime_family(9)
        assert spec.dim == 10
        assert delta[1] == 2 and delta[4] == 3 and delta[7] == 3

    def test_rejects_primes(self):
        with pytest.raises(ValueError):
            nonprime_family(7)

    @pytest.mark.parametrize("m", [4, 6, 8, 9, 10])
    def test_family_breaks_prime_constraints_but_not_composite_ones(self, m):
        _, delta = nonprime_family(m)
        e = exponents(delta)
        g = least_prime_divisor(m)
        q = m // g
        vals = e.values
        # pairing-style equality across opposite blocks fails
        assert vals[0] + vals[g * q - 2] != vals[g - 1] + vals[(q - 1) * g - 1]
        # the first superadditivity constraint at index g fails
        assert vals[0] + vals[g - 2] < vals[g - 1]
        # but the restricted composite-volume constraints hold
        assert not check_superadditive(e)


def _random_spec(rng):
    m = rng.randint(2, 12)
    dim = rng.randint(1, 8)
    coeffs = [0] * (m - 1)
    room = dim - 1
    while room > 0 and rng.random() < 0.8:
        coeffs[rng.randrange(m - 1)] += 1
        room -= 1
    return HNFSpec(m, tuple(coeffs), dim)
