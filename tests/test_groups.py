"""The character sweep of `groups`, held to the vertex matrices of `classify` as its geometric reference."""

import sys
import time
from math import comb

import pytest

import deltasimplex.groups as groups
from deltasimplex import (
    BudgetExceededError, delta_from_box, ehrhart_delta, exhaustive_search, iter_hnf_simplices, run_all_checks,
)
from deltasimplex.cli import main
from deltasimplex.lanes import RowFormat

# non-cyclic groups among them have two, three and four invariant factors: Z/2 x Z/6 (2, 12),
# Z/3 x Z/3 (3, 9), Z/2 x Z/2 x Z/2 (3, 8), Z/2 x Z/2 x Z/4 (3, 16), Z/6 x Z/6 (3, 36), Z/2^4 (4, 16)
SEARCHED = [
    (1, 2), (1, 5), (1, 7), (1, 9), (2, 5), (2, 7), (2, 12), (2, 180), (3, 5), (3, 7),
    (3, 8), (3, 11), (3, 30), (4, 5), (4, 6), (3, 9), (3, 12), (5, 5),
    (3, 16), (2, 24), (3, 24), (4, 8), (5, 7), (4, 11), (3, 36), (4, 16), (2, 1), (3, 1),
    # (d+1)(vol-1) = 254, 256, 255, 258: lane sums on either side of 2**8, in 2-byte lanes
    (1, 128), (1, 129), (2, 86), (2, 87),
    # (d+1) vol = 128, 130, 128, 132: the cyclic type on either side of the switch from 1-byte to 2-byte lanes
    (1, 64), (1, 65), (3, 32), (3, 33),
]
# (1, 1, 1, p-5, 1, 1) at p = 11, 13 and (1, 1, p-3, 1) at p = 23: pairing and superadditivity
# admit them, no simplex realizes them
UNREALIZED = [(1, 1, 1, 6, 1, 1), (1, 1, 1, 8, 1, 1), (1, 1, 20, 1)]
# (d, vol, budget) refused before any character value is computed
REFUSED = [(5, 11, 100), (6, 13, 10), (30, 2**6, 10**8), (1, 3000000, 10)]


def refusal(d, vol, budget):
    with pytest.raises(BudgetExceededError) as info:
        exhaustive_search(d, vol, budget=budget)
    return info.value.estimate


@pytest.mark.parametrize("d, vol", SEARCHED)
def test_sweep_equals_the_hnf_simplices(d, vol):
    assert exhaustive_search(d, vol) == tuple(sorted({delta_from_box(s) for s in iter_hnf_simplices(d, vol)}))


@pytest.mark.parametrize("d, vol", [(3, 8), (3, 12), (2, 16), (4, 4)])
def test_sweep_equals_dilate_counting_on_non_cyclic_groups(d, vol):
    """`delta_from_box` shares the lane format with the sweep; counting the dilates shares nothing."""
    assert exhaustive_search(d, vol) == tuple(sorted({ehrhart_delta(s) for s in iter_hnf_simplices(d, vol)}))


@pytest.mark.parametrize("d, vol, budget", REFUSED)
def test_refused_before_any_work(monkeypatch, d, vol, budget):
    def no_table(*args):
        raise AssertionError("a character table was built")

    monkeypatch.setattr(groups, "_table", no_table)
    assert refusal(d, vol, budget) > budget


@pytest.mark.parametrize("d, vol", [(1, 12), (2, 24), (3, 8), (3, 16), (3, 36), (4, 12), (5, 7)])
def test_estimate_bounds_the_work_done(monkeypatch, d, vol):
    """Counted work: 2 vol values per table row (`_table`), (d+1) vol per histogram (`RowFormat.multiples`)."""
    rows, histograms = [], []
    real_table, real_multiples = groups._table, RowFormat.multiples

    def table(*args):
        built = real_table(*args)
        rows.append(len(built))
        return built

    monkeypatch.setattr(groups, "_table", table)
    monkeypatch.setattr(RowFormat, "multiples", lambda *args: histograms.append(1) or real_multiples(*args))
    found = exhaustive_search(d, vol)
    done = sum(rows) * 2 * vol + len(histograms) * (d + 1) * vol
    cyclic = refusal(d, vol, 0)  # the first gate counts the cyclic type alone
    several = len(list(groups._invariant_factors(vol, d))) > 1
    estimate = refusal(d, vol, cyclic) if several else cyclic
    assert estimate >= done
    assert refusal(d, vol, estimate - 1) == estimate
    assert exhaustive_search(d, vol, budget=estimate) == found


def test_dimension_is_not_bounded_by_the_recursion_limit():
    """At volume 2 the one nonzero element has age k when 2k of the d+1 characters are nonzero."""
    d = sys.getrecursionlimit() + 10
    deltas = {(1,) + (0,) * (k - 1) + (1,) + (0,) * (d - k) for k in range(1, (d + 3) // 2)}
    assert exhaustive_search(d, 2) == tuple(sorted(deltas))


def test_types_are_the_invariant_factor_chains_of_bounded_length():
    assert list(groups._invariant_factors(36, 2)) == [(2, 18), (3, 12), (6, 6), (36,)]
    assert list(groups._invariant_factors(16, 4)) == [(2, 2, 2, 2), (2, 2, 4), (2, 8), (4, 4), (16,)]
    assert list(groups._invariant_factors(16, 1)) == [(16,)]
    assert list(groups._invariant_factors(1, 3)) == [()]


def test_huge_volume_is_refused_before_it_is_factored(capsys):
    start = time.perf_counter()
    code = main(["--budget", "10", "search", "--dim", "2", "--volume", str(10**30)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert str(comb(10**30 + 1, 2) * 3 * 10**30 + 2 * 10**60) in captured.err


@pytest.mark.parametrize("delta", UNREALIZED, ids=["p11", "p13", "p23"])
def test_admitted_but_unrealized(capsys, delta):
    """`check` passes these vectors (exit 0 is not "realizable"), yet the sweep never finds them."""
    assert run_all_checks(delta)["all_pass"]
    assert main(["check", "--delta", ",".join(map(str, delta))]) == 0
    assert capsys.readouterr().err == ""
    assert delta not in exhaustive_search(len(delta) - 1, sum(delta))


def test_unrealized_at_volume_11_by_the_vertex_matrices():
    deltas = [delta_from_box(s) for s in iter_hnf_simplices(5, 11)]
    assert len(deltas) == 16105
    assert UNREALIZED[0] not in deltas
