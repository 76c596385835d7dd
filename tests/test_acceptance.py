"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Random
corpora are seeded, so every run exercises the same cases. Oracle calls get
an explicit large budget: the budget guards runtime surprises in interactive
use and is not a correctness tolerance.
"""

import random
from math import comb

from deltasimplex import (
    HNFSpec,
    box_inverse,
    build_simplex,
    check_hibi,
    check_hibi_exponents,
    check_pairing,
    check_stanley,
    check_stanley_exponents,
    check_superadditive,
    closed_form_delta,
    counterexample_family,
    delta_from_box,
    delta_from_exponents,
    ehrhart_delta,
    ehrhart_table,
    enumerate_admissible,
    enumerate_box,
    exhaustive_search,
    exponents,
    iter_hnf_simplices,
    least_prime_divisor,
    nonprime_family,
    admissible,
    ExponentList,
)
from conftest import random_simplex

BIG_BUDGET = 10**12


def random_hnf_spec(rng):
    m = rng.randint(2, 12)
    dim = rng.randint(1, 8)
    coeffs = [0] * (m - 1)
    room = dim - 1
    while room > 0 and rng.random() < 0.8:
        coeffs[rng.randrange(m - 1)] += 1
        room -= 1
    return HNFSpec(m, tuple(coeffs), dim)


def test_criterion_1_triple_agreement():
    rng = random.Random(101)
    oracle_runs = 0
    for _ in range(200):
        spec = random_hnf_spec(rng)
        closed = closed_form_delta(spec)
        simplex = build_simplex(spec)
        assert delta_from_box(simplex) == closed, spec
        if spec.dim <= 5 and spec.m <= 40:
            assert ehrhart_delta(simplex, budget=BIG_BUDGET) == closed, spec
            oracle_runs += 1
    assert oracle_runs >= 50
    print(f"PASS criterion 1: closed form = box = oracle on 200 random specs "
          f"({oracle_runs} with oracle)")


def test_criterion_2_single_block_family():
    for i in range(1, 6):
        dim = 2 * i - 1
        spec = HNFSpec(5, (0, i - 1, i - 1, 0), dim)
        expected = tuple(4 if k == i else 1 if k == 0 else 0 for k in range(dim + 1))
        assert closed_form_delta(spec) == expected
        assert delta_from_box(build_simplex(spec)) == expected
    print("PASS criterion 2: single-block family places 4 at position i for i = 1..5")


def test_criterion_3_composite_family():
    spec, delta = nonprime_family(4)
    assert spec.dim == 5 and spec.coeffs[1] == 4
    assert delta == (1, 1, 0, 2, 0, 0)
    for m in (4, 6, 8, 9, 10):
        spec, delta = nonprime_family(m)
        g = least_prime_divisor(m)
        q = m // g
        expected = [0] * (m + 2)
        expected[0] = 1
        expected[1] = g - 1
        for j in range(1, q):
            expected[j * g + 1] = g
        assert delta == tuple(expected)
        assert closed_form_delta(spec) == delta
        assert delta_from_box(build_simplex(spec)) == delta
    print("PASS criterion 3: composite family matches the predicted pattern for m in {4,6,8,9,10}")


def test_criterion_4_classification_completeness():
    for d in range(1, 5):
        searched = set(exhaustive_search(d, 5, budget=BIG_BUDGET))
        admitted = {w.delta for w in enumerate_admissible(5, d)}
        assert searched == admitted, (5, d)
    for d in range(1, 4):
        searched = set(exhaustive_search(d, 7, budget=BIG_BUDGET))
        admitted = {w.delta for w in enumerate_admissible(7, d)}
        assert searched == admitted, (7, d)
    print("PASS criterion 4: exhaustive search equals admissible enumeration "
          "(volume 5: d = 1..4, volume 7: d = 1..3)")


def test_criterion_5_witness_soundness():
    checked = 0
    for p, dmax in ((5, 10), (7, 8)):
        for d in range(1, dmax + 1):
            for w in enumerate_admissible(p, d):
                assert closed_form_delta(w.spec) == w.delta
                assert delta_from_box(build_simplex(w.spec)) == w.delta
                checked += 1
    print(f"PASS criterion 5: {checked} witnesses verified by closed form and box enumeration")


def test_criterion_6_negative_vectors():
    report = admissible((1, 0, 2, 0, 1, 1, 0, 2, 0), 7)
    assert report == ((2, 2),)
    for p, ell in ((7, 2), (11, 2), (11, 3), (13, 2)):
        delta = counterexample_family(p, ell)
        e = exponents(delta)
        assert not check_pairing(e)
        assert not check_stanley_exponents(e)
        assert not check_hibi_exponents(e)
        assert check_superadditive(e)
    print("PASS criterion 6: known impossible vectors rejected exactly as predicted")


def test_criterion_7_prime_volume_properties():
    rng = random.Random(107)
    pool = []
    for vol in (3, 5, 7, 11, 13):
        for d in range(1, 5):
            pool.extend(iter_hnf_simplices(d, vol))
    sample = rng.sample(pool, 600)
    for s in sample:
        group = enumerate_box(s)
        delta = [0] * (s.dim + 1)
        for g in group:
            delta[g.degree] += 1
        e = exponents(delta)
        assert not check_pairing(e), s
        assert not check_superadditive(e), s
        constant = e.values[0] + e.values[-1]
        assert constant <= s.dim + 1
        for g in group:
            if g.degree != 0:
                assert g.degree + box_inverse(g).degree == constant, s
    print(f"PASS criterion 7: {len(sample)} prime-volume simplices satisfy pairing, "
          "superadditivity and inverse-degree sums")


def test_criterion_8_exponent_form_equivalences():
    rng = random.Random(108)
    for _ in range(10_000):
        d = rng.randint(1, 12)
        m = rng.randint(1, 12)
        e = ExponentList(tuple(sorted(rng.randint(1, d) for _ in range(m - 1))), d)
        delta = delta_from_exponents(e)
        assert bool(check_stanley_exponents(e)) == bool(check_stanley(delta)), delta
        assert bool(check_hibi_exponents(e)) == bool(check_hibi(delta)), delta
    print("PASS criterion 8: exponent-form checks match cumulative-form checks "
          "on 10000 random vectors")


def test_criterion_9_reciprocity():
    rng = random.Random(109)
    for _ in range(100):
        s = random_simplex(rng, max_dim=4, entry=4, max_volume=30)
        table = ehrhart_table(s, budget=BIG_BUDGET)  # raises unless reciprocity holds at n = 1..d+1
        delta, d = delta_from_box(s), s.dim
        predicted = tuple(sum(x * comb(n + i - 1, d) for i, x in enumerate(delta)) for n in range(1, d + 2))
        assert table.interior_counts == predicted, s
    print("PASS criterion 9: reciprocity holds on 100 random simplices")
