"""Classification of delta-vectors with normalized volume 5 or 7.

Admissibility is the pairing constraint plus superadditivity of the
exponents; for these two volumes every admissible vector is realized by an
explicit member of the one-row Hermite family, constructed case by case from
the multiplicity pattern of the exponents. One table, `_PATTERN_CASES`, maps
each volume and pattern to its case label and its witness formula. The
ground truth is an exhaustive search over the characters of finite abelian
groups (`groups`); the triangular vertex matrices kept here are its
geometric reference.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby, product
from math import comb

from .constraints import (
    ExponentList,
    _validated_delta,
    check_pairing,
    check_superadditive,
    delta_from_exponents,
    exponents,
    is_prime,
    reduced_pairs,
)
from .hnf import HNFSpec, closed_form_delta
from .lattice import DEFAULT_BUDGET, Simplex, _as_int, within_budget


def _viii_sign(i1, i2, i3, *_):
    """Branch of the all-distinct volume-7 case: the sign of i1 + i3 - 2*i2."""
    diff = i1 + i3 - 2 * i2
    return (diff > 0) - (diff < 0)


def _viii(i1, i2, i3, i4, *_):
    """Witness coefficients of case viii, one formula per sign of i1 + i3 - 2*i2; they agree where it is 0."""
    tail = i3 + 2 * i4 - 2 * i1 - i2 - 2
    if _viii_sign(i1, i2, i3) >= 0:
        return (0, i1 + i2 - i3, i1 + i3 - 2 * i2, 0, 2 * i2 - i4, tail)
    return (0, 2 * i1 - i2, 0, 2 * i2 - i1 - i3, i1 + i3 - i4, tail)


# volume -> multiplicity pattern of the sorted exponents i1 <= i2 <= ... -> (case label, the witness
# coefficients d_1..d_{p-1} as a function of the exponents)
_PATTERN_CASES = {
    5: {
        (4,): ("i", lambda i1, *_: (0, i1 - 1, i1 - 1, 0)),
        (2, 2): ("ii", lambda i1, i2, i3, i4: (0, i1, 2 * i1 - i3, 2 * i3 - 2 * i1 - 2)),
        (1, 2, 1): ("iii", lambda i1, i2, i3, i4: (0, 2 * i1 - i2, i1, 3 * i2 - 3 * i1 - 2)),
        (1, 1, 1, 1): ("iv", lambda i1, i2, i3, i4: (0, 2 * i1 - i2, i1 + i2 - i3, i2 + 2 * i3 - 3 * i1 - 2)),
    },
    7: {
        (6,): ("i", lambda i1, *_: (0, 0, i1 - 1, i1 - 1, 0, 0)),
        (3, 3): ("ii", lambda i1, i2, i3, i4, *_: (
            0, i4 - i1, 2 * i1 - i4, 2 * i1 - i4, 0, 2 * i4 - 2 * i1 - 2)),
        (1, 4, 1): ("iii", lambda i1, i2, i3, i4, i5, i6: (i1 + i2 - i6, i6 - i2, i6 - i1 - 1, 0, 0, i1 - 1)),
        (2, 2, 2): ("iv", lambda i1, i2, i3, i4, i5, i6: (0, 0, i1 - 1, i1 + i3 - i5, 0, 3 * i5 - 3 * i3 - 1)),
        (1, 2, 2, 1): ("v", lambda i1, i2, i3, i4, *_: (
            0, 2 * i1 - i2, 0, i2 - i1, i1 + i2 - i4, 2 * i4 - 2 * i1 - 2)),
        (2, 1, 1, 2): ("vi", lambda i1, i2, i3, i4, *_: (
            0, i4 - i3 - 1, i1 + i3 - i4, 2 * i1 - i4, 0, i3 + 2 * i4 - 3 * i1 - 1)),
        (1, 1, 2, 1, 1): ("vii", lambda i1, i2, i3, *_: (
            0, 0, 2 * i1 - i2, i1 + i2 - i3, i2 - i1, 3 * i3 - 2 * i1 - i2 - 2)),
        (1, 1, 1, 1, 1, 1): ("viii", _viii),
    },
}


def _cases(p: int) -> dict:
    """The pattern table of volume p."""
    cases = _PATTERN_CASES.get(_as_int(p))
    if cases is None:
        raise ValueError("classification covers volumes 5 and 7 only")
    return cases


@dataclass(frozen=True)
class CaseId:
    """Which multiplicity-pattern case an exponent list falls into.

    `branch` is only set for the all-distinct volume-7 case: the sign of
    i_1 + i_3 - 2*i_2, which selects between the two witness formulas.
    """

    label: str
    branch: int | None = None


@dataclass(frozen=True)
class Witness:
    """A family spec whose closed-form delta-vector equals the requested one."""

    spec: HNFSpec
    case: CaseId
    delta: tuple[int, ...]


def admissible(delta, p: int) -> tuple:
    """Violations of pairing + superadditivity for volume 5 or 7; empty means admissible.

    Superadditivity is checked on the reduced pair set, which is equivalent
    to the full set once the pairing equalities hold. Violations merge both
    sub-checks' index pairs.
    """
    return _exponents_and_violations(delta, p)[1]


def _exponents_and_violations(delta, p: int) -> tuple[ExponentList, tuple]:
    """The exponent list of `delta`, built once, and its `admissible` violations."""
    _cases(p)
    m = sum(_validated_delta(delta))  # before building the list of m - 1 exponents
    if m != p:
        raise ValueError(f"delta-vector sums to {m}, expected {p}")
    e = exponents(delta)
    return e, check_pairing(e) + check_superadditive(e, pairs=reduced_pairs(p))


def _case(e: ExponentList):
    """Case of an exponent list and its coefficient formula, from one lookup of its multiplicity pattern."""
    pattern = tuple(len(list(run)) for _, run in groupby(e.values))
    found = _cases(e.m).get(pattern)
    if found is None:
        raise ValueError(f"no case matches multiplicity pattern {pattern}")
    label, formula = found
    return CaseId(label, _viii_sign(*e.values) if label == "viii" else None), formula


def classify_case(e: ExponentList) -> CaseId:
    """Case of an admissible exponent list, from its multiplicity pattern."""
    return _case(e)[0]


def witness(delta, p: int) -> Witness:
    """Construct a family member realizing an admissible delta-vector.

    The construction self-verifies: its coefficients must be nonnegative and fit
    the carried dimension, and the closed form must reproduce the requested vector.
    """
    e, violations = _exponents_and_violations(delta, p)
    if violations:
        raise ValueError(f"delta-vector is not admissible: violations {violations}")
    return _witness(e)


def _witness(e: ExponentList) -> Witness:
    """Witness of an exponent list already known to be admissible."""
    case, formula = _case(e)
    coeffs = formula(*e.values)
    if any(c < 0 for c in coeffs) or sum(coeffs) > e.dim - 1:
        raise AssertionError(f"case {case.label} gave coefficients {coeffs} that are negative or sum past {e.dim - 1}")
    spec = HNFSpec(e.m, coeffs, e.dim)
    produced = closed_form_delta(spec)
    if produced != delta_from_exponents(e):
        raise AssertionError(f"witness {spec} has delta-vector {produced}, not the requested one")
    return Witness(spec, case, produced)


def enumerate_admissible(p: int, d: int, budget: int = DEFAULT_BUDGET) -> list[Witness]:
    """All admissible delta-vectors with volume p and dimension d, each with a witness.

    Visits only the lists the pairing allows, each checked once for superadditivity: per pair
    sum c in [2, d+1], h = (p-1)/2 sorted values from [1, c//2], then c minus them reversed.
    The budget bounds what the result can hold: their number, C(k-1+h, h) for each of
    c = 2k and 2k+1 summed over k, times the d+1 entries of each delta-vector.
    """
    _cases(p)
    if _as_int(d) < 1:
        raise ValueError("dimension must be >= 1")
    h = (p - 1) // 2
    candidates = comb((d + 1) // 2 + h, h + 1) + comb(d // 2 + h, h + 1)
    within_budget(candidates * (d + 1), budget, "candidate delta entries")
    pairs = reduced_pairs(p)
    results = []
    for c in range(2, d + 2):
        for lower in combinations_with_replacement(range(1, c // 2 + 1), h):
            e = ExponentList(lower + tuple(c - x for x in reversed(lower)), d)
            if not check_superadditive(e, pairs):
                results.append(_witness(e))
    return sorted(results, key=lambda w: w.delta)


def counterexample_family(p: int, ell: int) -> tuple[int, ...]:
    """Vector (1, 0, ell, 0, 1...1, 0, ell, 0) of volume p and dimension p - 2*ell + 5.

    Passes the pairing and both exponent-form bounds, yet fails
    superadditivity, so the latter is genuinely needed.
    """
    if not is_prime(p) or p < 7:
        raise ValueError("need a prime p >= 7")
    middle = p - 2 * ell - 1
    if ell < 1 or middle < 0:
        raise ValueError("need 1 <= ell <= (p - 1) / 2")
    return (1, 0, ell, 0) + (1,) * middle + (0, ell, 0)


def _ordered_factorizations(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for divisor in range(1, n + 1):
        if n % divisor == 0:
            for rest in _ordered_factorizations(n // divisor, parts - 1):
                yield (divisor,) + rest


def iter_hnf_matrices(d: int, vol: int):
    """All d x d lower-triangular vertex matrices of determinant vol, one per class.

    Diagonal entries are positive with product vol; the entries left of each
    diagonal entry run over [0, that diagonal entry). Every full-dimensional
    lattice simplex with a vertex at the origin is equivalent, under a
    unimodular change of ambient coordinates, to the hull of the origin and
    the rows of exactly one such matrix.
    """
    for diag in _ordered_factorizations(vol, d):
        ranges = [range(diag[i]) for i in range(d) for _ in range(i)]
        for flat in product(*ranges):
            rows = []
            pos = 0
            for i in range(d):
                row = list(flat[pos : pos + i]) + [diag[i]] + [0] * (d - i - 1)
                pos += i
                rows.append(tuple(row))
            yield tuple(rows)


def iter_hnf_simplices(d: int, vol: int):
    origin = tuple([0] * d)
    for rows in iter_hnf_matrices(d, vol):
        yield Simplex((origin,) + rows)

