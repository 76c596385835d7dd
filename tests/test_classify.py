from itertools import combinations_with_replacement
from math import comb

import pytest

from deltasimplex import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CaseId,
    ExponentList,
    HNFSpec,
    Witness,
    build_simplex,
    check_pairing,
    check_superadditive,
    classify_delta,
    closed_form_delta,
    counterexample_family,
    delta_from_box,
    delta_from_exponents,
    enumerate_admissible,
    exhaustive_search,
    exponents,
    is_prime,
    iter_hnf_simplices,
)


class TestAdmissible:
    def test_single_block_is_admissible(self):
        assert not classify_delta((1, 0, 4, 0))[0]

    def test_remark_vector_rejected_with_witness_pair(self):
        report = classify_delta((1, 0, 2, 0, 1, 1, 0, 2, 0))[0]
        assert report
        assert report == ((2, 2),)

    def test_two_block_admissible(self):
        assert not classify_delta((1, 2, 2))[0]

    def test_wrong_sum_is_an_error(self):
        with pytest.raises(ValueError):
            classify_delta((1, 1, 1))

    def test_unsupported_volume(self):
        with pytest.raises(ValueError):
            classify_delta((1, 1, 0, 2, 0, 0))


def case(values, dim):
    """Case of the witness of the delta-vector with these exponents."""
    return classify_delta(delta_from_exponents(ExponentList(values, dim)))[1].case


class TestClassifyCase:
    def test_patterns_volume_five(self):
        assert case((2, 2, 2, 2), 3).label == "i"
        assert case((1, 1, 2, 2), 2).label == "ii"
        assert case((1, 2, 2, 3), 3).label == "iii"
        assert case((1, 2, 3, 4), 4).label == "iv"

    def test_patterns_volume_seven(self):
        assert case((2, 3, 3, 3, 3, 4), 5).label == "iii"
        assert case((1, 1, 2, 2, 3, 3), 3).label == "iv"
        assert case((1, 2, 2, 3, 3, 4), 4).label == "v"
        assert case((2, 2, 3, 4, 5, 5), 6).label == "vi"
        assert case((1, 2, 3, 3, 4, 5), 5).label == "vii"

    def test_distinct_case_branches(self):
        zero = case((1, 2, 3, 4, 5, 6), 6)
        assert zero.label == "viii" and zero.branch == 0
        plus = case((2, 3, 5, 6, 8, 9), 10)
        assert plus.label == "viii" and plus.branch == 1
        minus = case((2, 4, 5, 6, 7, 9), 10)
        assert minus.label == "viii" and minus.branch == -1


# one delta-vector per case, with the exact witness it has always had: another valid witness passes
# every other test, yet changes `classify`/`enumerate` output
PINNED_WITNESSES = [
    (5, (1, 0, 4, 0), (0, 1, 1, 0), "i", None),
    (5, (1, 0, 0, 2, 0, 2, 0, 0), (0, 3, 1, 2), "ii", None),
    (5, (1, 0, 0, 1, 2, 1, 0, 0), (0, 2, 3, 1), "iii", None),
    (5, (1, 0, 0, 1, 1, 0, 1, 1, 0, 0), (0, 2, 1, 5), "iv", None),
    (7, (1, 0, 6, 0), (0, 0, 1, 1, 0, 0), "i", None),
    (7, (1, 0, 0, 0, 3, 0, 0, 3, 0, 0, 0), (0, 3, 1, 1, 0, 4), "ii", None),
    (7, (1, 0, 0, 1, 0, 4, 0, 1, 0, 0), (1, 2, 3, 0, 0, 2), "iii", None),
    (7, (1, 0, 0, 2, 0, 2, 0, 2, 0, 0), (0, 0, 2, 1, 0, 5), "iv", None),
    (7, (1, 0, 0, 0, 1, 2, 0, 2, 1, 0, 0, 0), (0, 3, 0, 1, 2, 4), "v", None),
    (7, (1, 0, 0, 0, 0, 2, 1, 0, 1, 2, 0, 0, 0, 0), (0, 1, 3, 2, 0, 6), "vi", None),
    (7, (1, 0, 0, 0, 1, 1, 0, 2, 0, 1, 1, 0, 0, 0), (0, 0, 3, 2, 1, 6), "vii", None),
    (7, (1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0), (0, 2, 0, 1, 3, 7), "viii", -1),
    (7, (1, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0), (0, 2, 0, 0, 1, 7), "viii", 0),
    (7, (1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0), (0, 2, 1, 0, 2, 8), "viii", 1),
]


@pytest.mark.parametrize(
    "p, delta, coeffs, label, branch",
    PINNED_WITNESSES,
    ids=[f"{p}-{label}" + ("" if b is None else f"{b:+d}") for p, _, _, label, b in PINNED_WITNESSES],
)
def test_pinned_witness_of_every_case(p, delta, coeffs, label, branch):
    spec = HNFSpec(p, coeffs, len(delta) - 1)
    assert classify_delta(delta)[1] == Witness(spec, CaseId(label, branch), delta)


class TestWitness:
    def test_single_block_witness(self):
        found = classify_delta((1, 0, 4, 0))[1]
        assert found.spec == HNFSpec(5, (0, 1, 1, 0), 3)
        assert found.case.label == "i"

    def test_low_dimension_witness(self):
        found = classify_delta((1, 2, 2))[1]
        assert found.spec == HNFSpec(5, (0, 1, 0, 0), 2)

    def test_rejects_inadmissible(self):
        assert classify_delta((1, 0, 2, 0, 1, 1, 0, 2, 0)) == (((2, 2),), None)

    def test_rejects_composite_volume(self):
        with pytest.raises(ValueError):
            classify_delta((1, 1, 0, 2, 0, 0))

    def test_every_witness_verifies_by_box(self):
        for p, dmax in ((5, 7), (7, 6)):
            for d in range(1, dmax + 1):
                for w in enumerate_admissible(p, d):
                    assert closed_form_delta(w.spec) == w.delta
                    assert delta_from_box(build_simplex(w.spec)) == w.delta
                    assert sum(w.spec.coeffs) <= d - 1


class TestEnumerate:
    def test_line_segment_only(self):
        assert [w.delta for w in enumerate_admissible(5, 1)] == [(1, 4)]
        assert [w.delta for w in enumerate_admissible(7, 1)] == [(1, 6)]

    def test_dimension_two(self):
        assert [w.delta for w in enumerate_admissible(5, 2)] == [(1, 2, 2), (1, 4, 0)]

    @staticmethod
    def sorted_lists(p, d):
        return [ExponentList(v, d) for v in combinations_with_replacement(range(1, d + 1), p - 1)]

    @pytest.mark.parametrize("p", [5, 7])
    def test_equals_brute_force_filter(self, p):
        for d in range(1, 13):
            deltas = [delta_from_exponents(e) for e in self.sorted_lists(p, d)]
            expected = sorted(delta for delta in deltas if not classify_delta(delta)[0])
            assert [w.delta for w in enumerate_admissible(p, d)] == expected

    @pytest.mark.parametrize("p", [5, 7])
    def test_budget_is_the_exact_count_of_paired_lists(self, p):
        # counted in delta entries: each paired list is a candidate of d+1 entries
        for d in range(1, 13):
            paired = sum(not check_pairing(e) for e in self.sorted_lists(p, d))
            with pytest.raises(BudgetExceededError) as info:
                enumerate_admissible(p, d, budget=0)
            assert info.value.estimate == paired * (d + 1)
            assert len(enumerate_admissible(p, d, budget=paired * (d + 1))) <= paired
        # the default budget admits d up to 219 at p = 5 and 111 at p = 7
        largest = {5: 219, 7: 111}[p]
        for d, fits in ((largest, True), (largest + 1, False)):
            with pytest.raises(BudgetExceededError) as info:
                enumerate_admissible(p, d, budget=0)
            assert (info.value.estimate <= DEFAULT_BUDGET) == fits

    def test_output_is_sorted_and_admissible(self):
        witnesses = enumerate_admissible(7, 5)
        deltas = [w.delta for w in witnesses]
        assert deltas == sorted(deltas)
        for w in witnesses:
            assert not classify_delta(w.delta)[0]


class TestCounterexampleFamily:
    def test_smallest_instance(self):
        assert counterexample_family(7, 2) == (1, 0, 2, 0, 1, 1, 0, 2, 0)

    def test_longer_instance(self):
        assert counterexample_family(11, 3) == (1, 0, 3, 0, 1, 1, 1, 1, 0, 3, 0)

    def test_degenerate_middle_block(self):
        assert counterexample_family(7, 3) == (1, 0, 3, 0, 0, 3, 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            counterexample_family(9, 2)
        with pytest.raises(ValueError):
            counterexample_family(5, 1)
        with pytest.raises(ValueError):
            counterexample_family(7, 4)

    @pytest.mark.parametrize("p,ell", [(7, 2), (11, 2), (11, 3), (13, 2), (7, 3)])
    def test_guaranteed_verdicts(self, p, ell):
        delta = counterexample_family(p, ell)
        assert sum(delta) == p and len(delta) == p - 2 * ell + 6
        e = exponents(delta)
        assert not check_pairing(e)
        assert check_superadditive(e)


class TestExhaustiveSearch:
    def test_segments(self):
        for m in (2, 5, 9):
            assert exhaustive_search(1, m) == ((1, m - 1),)

    def test_two_dimensional_volume_five(self):
        assert exhaustive_search(2, 5) == ((1, 2, 2), (1, 4, 0))

    def test_matrix_count_matches_sublattice_count(self):
        # for d = 2 there are sigma(vol) triangular matrices
        assert len(list(iter_hnf_simplices(2, 5))) == 6
        assert len(list(iter_hnf_simplices(2, 6))) == 12

    def test_matrices_have_requested_determinant(self):
        for s in iter_hnf_simplices(3, 8):
            origin, *rows = s.vertices
            assert origin == (0, 0, 0)
            assert all(rows[i][j] == 0 for i in range(3) for j in range(i + 1, 3))
            assert rows[0][0] * rows[1][1] * rows[2][2] == s.normalized_volume == 8

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            exhaustive_search(5, 11, budget=100)

    def test_budget_counts_character_values(self):
        # (2, 180): four types with at most two invariant factors, 180 characters each
        per_type = comb(181, 2) * 3 * 180 + 2 * 180**2
        with pytest.raises(BudgetExceededError) as info:
            exhaustive_search(2, 180, budget=per_type)
        assert info.value.estimate == 4 * per_type
        assert str(info.value) == f"estimated {4 * per_type} character values exceeds budget {per_type}"

    def test_budget_estimate_at_sizes_too_large_to_list(self):
        # the cyclic type alone is counted before the volume is factored, so a volume of
        # 10**30 is refused at once, and (30, 2**6) before its 11 types are listed
        with pytest.raises(BudgetExceededError) as info:
            exhaustive_search(30, 2**6)
        assert info.value.estimate == comb(93, 30) * 31 * 64 + 2 * 64**2
        with pytest.raises(BudgetExceededError) as info:
            exhaustive_search(2, 10**30)
        assert info.value.estimate == comb(10**30 + 1, 2) * 3 * 10**30 + 2 * 10**60

    def test_matches_admissible_enumeration(self):
        for d in (1, 2, 3):
            assert set(exhaustive_search(d, 5)) == {w.delta for w in enumerate_admissible(5, d)}
        assert set(exhaustive_search(2, 7)) == {w.delta for w in enumerate_admissible(7, 2)}


class TestInteriorPointLimit:
    def test_checker_passes_for_all_small_primes(self):
        # (1, 1, p-3, 1) satisfies every prime-volume constraint at dimension 3
        for p in range(5, 98, 2):
            if is_prime(p):
                e = exponents((1, 1, p - 3, 1))
                assert not check_pairing(e)
                assert not check_superadditive(e)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
    def test_small_primes_are_still_realizable(self, p):
        # ground truth from the exhaustive search: realizability breaks down
        # at p = 23 (tests/test_groups.py, UNREALIZED)
        assert (1, 1, p - 3, 1) in exhaustive_search(3, p)
