import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasimplex import (
    ExponentList,
    HNFSpec,
    Simplex,
    admissible,
    check_hibi,
    check_hibi_exponents,
    check_nonprime,
    check_pairing,
    check_stanley,
    check_stanley_exponents,
    check_superadditive,
    classify_case,
    count_lattice_points,
    delta_from_exponents,
    enumerate_admissible,
    exact_det,
    exhaustive_search,
    exponents,
    is_prime,
    least_prime_divisor,
    reduced_pairs,
    run_all_checks,
    witness,
)
from deltasimplex.lattice import row_hermite_form


@st.composite
def exponent_lists(draw, max_m=12, max_d=12, min_m=1):
    d = draw(st.integers(1, max_d))
    count = draw(st.integers(min_m - 1, max_m - 1))
    values = tuple(sorted(draw(st.lists(st.integers(1, d), min_size=count, max_size=count))))
    return ExponentList(values, d)


class TestPrimes:
    def test_least_prime_divisor(self):
        assert least_prime_divisor(4) == 2
        assert least_prime_divisor(35) == 5
        assert least_prime_divisor(7) == 7

    def test_least_prime_divisor_rejects_small(self):
        with pytest.raises(ValueError):
            least_prime_divisor(1)

    def test_is_prime(self):
        assert [n for n in range(-3, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestExponents:
    def test_single_block(self):
        e = exponents((1, 0, 4, 0))
        assert e.values == (2, 2, 2, 2) and e.dim == 3

    def test_composite_example(self):
        e = exponents((1, 1, 0, 2, 0, 0))
        assert e.values == (1, 3, 3) and e.dim == 5

    def test_read_off_positions(self):
        e = exponents((1, 0, 2, 0, 1, 1, 0, 2, 0))
        assert e.values == (2, 2, 4, 5, 7, 7) and e.dim == 8

    def test_leading_entry_must_be_one(self):
        with pytest.raises(ValueError):
            exponents((2, 0, 4))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            exponents((1, -1, 4))

    def test_unsorted_exponent_list_rejected(self):
        with pytest.raises(ValueError):
            ExponentList((3, 2), 4)

    @settings(max_examples=200, deadline=None)
    @given(exponent_lists())
    def test_roundtrip_identity(self, e):
        assert exponents(delta_from_exponents(e)) == e


@pytest.mark.parametrize(
    "call",
    [
        lambda: witness((1, 0, 4.9, 0), 5),
        lambda: run_all_checks((1, 1.9, 2.5)),
        lambda: exponents((1, "2", 0)),
        lambda: exponents((1, True, 3)),
        lambda: ExponentList((2, 2), 3.0),
        lambda: HNFSpec(5, (0, 1.7, 1, 0), 3),
        lambda: HNFSpec(5.0, (0, 1, 1, 0), 3),
        lambda: HNFSpec(5, (0, 1, 1, 0), 3.0),
        lambda: HNFSpec(True, (), 3),
        lambda: exhaustive_search(True, 5),
        lambda: exhaustive_search(2.0, 4),
        lambda: exhaustive_search(2, 4.0),
        lambda: count_lattice_points(Simplex(((0, 0), (1, 0), (2, 5))), True),
        lambda: enumerate_admissible(5.0, 3),
        lambda: enumerate_admissible(5, 3.0),
        lambda: admissible((1, 0, 4, 0), 5.0),
    ],
    ids=[
        "witness-float", "checks-float", "exponents-str", "exponents-bool", "exponent-dim-float",
        "spec-coeff-float", "spec-m-float", "spec-dim-float", "spec-m-bool", "search-dim-bool",
        "search-dim-float", "search-volume-float", "count-dilate-bool", "enumerate-volume-float",
        "enumerate-dim-float", "admissible-volume-float",
    ],
)
def test_library_inputs_are_integers_only(call):
    """Bools, floats and strings are refused, not truncated or parsed."""
    with pytest.raises(ValueError, match="integer required"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classify_case(ExponentList(tuple(range(1, 11)), 10)), "covers volumes 5 and 7 only"),
        (lambda: classify_case(ExponentList((1, 2, 3, 3), 3)), r"no case matches multiplicity pattern \(1, 1, 2\)"),
        (lambda: enumerate_admissible(11, 3), "covers volumes 5 and 7 only"),
        (lambda: exact_det([]), "matrix must be nonempty"),
        (lambda: row_hermite_form([[0, 0], [0, 0]]), "matrix is singular"),
        (lambda: HNFSpec(5, (0, 0, 0, 0), 0), "dimension must be >= 1"),
        (lambda: ExponentList((0,), 1), r"exponents must lie in \[1, dim\]"),
    ],
    ids=["case-volume-11", "case-pattern-112", "enumerate-volume-11", "det-empty", "hermite-singular",
         "spec-dim-0", "exponent-0"],
)
def test_library_refuses_values_outside_its_contract(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestPairing:
    def test_constant_within_bound(self):
        assert not check_pairing(ExponentList((2, 2, 2, 2), 3))

    def test_equal_sums_at_the_bound(self):
        assert not check_pairing(ExponentList((2, 2, 4, 5, 7, 7), 8))

    def test_unequal_sums(self):
        report = check_pairing(ExponentList((1, 2, 2, 4), 4))
        assert report
        assert (2, 3) in report

    def test_bound_violation_reported_on_outer_pair(self):
        report = check_pairing(ExponentList((2, 2, 2, 2), 2))
        assert report == ((1, 4),)

    def test_requires_odd_prime(self):
        with pytest.raises(ValueError):
            check_pairing(ExponentList((1, 1, 1), 3))


class TestSuperadditive:
    def test_additive_case(self):
        assert not check_superadditive(ExponentList((1, 2, 3, 4), 4))

    def test_known_violator(self):
        report = check_superadditive(ExponentList((2, 2, 4, 5, 7, 7), 8))
        assert report
        assert (2, 2) in report

    def test_flat_case(self):
        assert not check_superadditive(ExponentList((2, 2, 2, 2), 3))

    def test_requires_odd_prime(self):
        with pytest.raises(ValueError):
            check_superadditive(ExponentList((1, 1, 1), 4))


class TestReducedPairs:
    def test_small_primes(self):
        assert reduced_pairs(5) == ((1, 1), (1, 2))
        assert reduced_pairs(7) == ((1, 1), (1, 2), (1, 3), (2, 2))
        assert reduced_pairs(3) == ()

    def test_rejects_non_primes(self):
        with pytest.raises(ValueError):
            reduced_pairs(9)

    def test_reduction_soundness(self):
        # once the pair sums are constant, the reduced set decides the full set
        rng = random.Random(17)
        for p in (5, 7, 11, 13):
            pairs = reduced_pairs(p)
            found_reject = 0
            trials = 0
            while trials < 400:
                d = rng.randint(2, 12)
                constant = rng.randint(2, d + 1)
                half = sorted(
                    rng.randint(max(1, constant - d), constant // 2)
                    for _ in range((p - 1) // 2)
                )
                vals = half + [constant - v for v in reversed(half)]
                e = ExponentList(tuple(vals), d)
                assert not check_pairing(e)
                full = not check_superadditive(e)
                reduced = not check_superadditive(e, pairs=pairs)
                assert full == reduced
                found_reject += not full
                trials += 1
            assert found_reject  # the sample must exercise both verdicts


class TestCumulativeChecks:
    def test_stanley_passes(self):
        assert not check_stanley((1, 4, 0))
        assert not check_stanley((1, 0, 4, 0))
        assert not check_stanley((1, 3, 1))

    def test_stanley_fails(self):
        report = check_stanley((1, 2, 0, 1))
        assert 1 in report

    def test_hibi_passes(self):
        assert not check_hibi((1, 0, 4, 0))
        assert not check_hibi((1, 4, 0))

    def test_hibi_fails(self):
        report = check_hibi((1, 0, 0, 1))
        assert 0 in report

    @settings(max_examples=300, deadline=None)
    @given(exponent_lists())
    def test_stanley_equivalence(self, e):
        delta = delta_from_exponents(e)
        assert bool(check_stanley(delta)) == bool(check_stanley_exponents(e))

    @settings(max_examples=300, deadline=None)
    @given(exponent_lists())
    def test_hibi_equivalence(self, e):
        delta = delta_from_exponents(e)
        assert bool(check_hibi(delta)) == bool(check_hibi_exponents(e))

    def test_running_sums_match_the_slice_sum_definition(self):
        def stanley(delta):
            s = max(i for i, x in enumerate(delta) if x != 0)
            return tuple(i for i in range(s // 2 + 1) if sum(delta[: i + 1]) > sum(delta[s - i : s + 1]))

        def hibi(delta):
            d = len(delta) - 1
            return tuple(i for i in range((d - 1) // 2 + 1) if sum(delta[d - i :]) > sum(delta[1 : i + 2]))

        rng = random.Random(20261018)
        for _ in range(2000):
            delta = (1,) + tuple(rng.choice((0, 0, 0, 1, 1, 2, 3, 5)) for _ in range(rng.randint(1, 14)))
            assert check_stanley(delta) == stanley(delta)
            assert check_hibi(delta) == hibi(delta)

    def test_exponent_forms_on_examples(self):
        e = exponents((1, 0, 2, 0, 1, 1, 0, 2, 0))
        assert not check_stanley_exponents(e)
        assert not check_hibi_exponents(e)
        e = ExponentList((1, 3, 3), 5)
        assert not check_stanley_exponents(e)
        assert not check_hibi_exponents(e)
        additive = ExponentList(tuple(range(1, 7)), 6)
        assert not check_stanley_exponents(additive)
        assert not check_hibi_exponents(additive)


class TestNonprime:
    def test_vacuous_for_even_volume(self):
        assert not check_nonprime(ExponentList((1, 2, 3), 4))

    def test_single_pair_for_nine(self):
        bad = ExponentList((1, 3, 3, 3, 3, 3, 3, 3), 4)
        report = check_nonprime(bad)
        assert report == ((1, 1),)
        good = ExponentList((2, 3, 3, 3, 3, 3, 3, 3), 4)
        assert not check_nonprime(good)

    def test_family_exponents_pass(self):
        assert not check_nonprime(ExponentList((1, 3, 3, 5, 5), 7))

    def test_rejects_prime_volume(self):
        with pytest.raises(ValueError):
            check_nonprime(ExponentList((1, 2, 2, 4), 4))


class TestRunAllChecks:
    def test_prime_volume_report(self):
        report = run_all_checks((1, 0, 4, 0))
        assert report["volume"] == 5 and report["dim"] == 3
        assert set(report["checks"]) == {
            "stanley",
            "hibi",
            "stanley_exponents",
            "hibi_exponents",
            "pairing",
            "superadditive",
        }
        assert report["all_pass"]

    def test_composite_volume_report(self):
        report = run_all_checks((1, 1, 0, 2, 0, 0))
        assert "nonprime" in report["checks"]
        assert "pairing" not in report["checks"]

    def test_volume_two_report(self):
        report = run_all_checks((1, 0, 1))
        assert set(report["checks"]) == {
            "stanley",
            "hibi",
            "stanley_exponents",
            "hibi_exponents",
        }
