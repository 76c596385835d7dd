"""Constraint checkers on candidate delta-vectors.

A delta-vector is a tuple (delta_0, ..., delta_d) of nonnegative integers
with delta_0 = 1; trailing zeros are significant because they encode the
dimension d, which enters several of the bounds. Equivalently, a vector is
the multiset of exponents i_1 <= ... <= i_{m-1} of its nonzero positions,
with m the normalized volume.

Each checker returns its violations as a tuple, empty exactly when the check
passes, so a failure carries its witnesses.
"""

from collections import namedtuple
from itertools import accumulate

from .lattice import _as_int


def least_prime_divisor(m: int) -> int:
    """Smallest prime dividing m (trial division)."""
    if _as_int(m) < 2:
        raise ValueError("need an integer >= 2")
    f = 2
    while f * f <= m:
        if m % f == 0:
            return f
        f += 1
    return m


def is_prime(m: int) -> bool:
    return _as_int(m) >= 2 and least_prime_divisor(m) == m


class ExponentList(namedtuple("ExponentList", "values dim")):
    """Sorted exponents i_1 <= ... <= i_{m-1} in [1, dim], with dim carried along."""

    __slots__ = ()

    def __new__(cls, values, dim):
        values = tuple(map(_as_int, values))
        if _as_int(dim) < 1:
            raise ValueError("dimension must be >= 1")
        if any(not 1 <= v <= dim for v in values):
            raise ValueError("exponents must lie in [1, dim]")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError("exponents must be sorted")
        return super().__new__(cls, values, dim)

    @property
    def m(self) -> int:
        """Normalized volume: one more than the number of exponents."""
        return len(self.values) + 1


def _validated_delta(delta) -> tuple[int, ...]:
    entries = tuple(map(_as_int, delta))
    if len(entries) < 2:
        raise ValueError("delta-vector needs length >= 2")
    if entries[0] != 1:
        raise ValueError("delta_0 must be 1")
    if any(x < 0 for x in entries):
        raise ValueError("delta entries must be nonnegative")
    return entries


def exponents(delta) -> ExponentList:
    """Multiset of nonzero positions of a delta-vector, as a sorted exponent list."""
    entries = _validated_delta(delta)
    values = []
    for position, count in enumerate(entries[1:], start=1):
        values.extend([position] * count)
    return ExponentList(tuple(values), len(entries) - 1)


def delta_from_exponents(e: ExponentList) -> tuple[int, ...]:
    """Inverse of `exponents`: rebuild the delta-vector of length dim+1."""
    delta = [0] * (e.dim + 1)
    delta[0] = 1
    for v in e.values:
        delta[v] += 1
    return tuple(delta)


def _odd_prime(m: int, what: str) -> int:
    """m itself, after checking the odd prime volume that `what` requires."""
    if m % 2 == 0 or not is_prime(m):
        raise ValueError(f"{what} requires an odd prime volume, got {m}")
    return m


def check_pairing(e: ExponentList) -> tuple:
    """For odd prime volume: opposite exponents must share one sum, at most dim+1.

    Violations are index pairs (k, m-k) whose sum differs from the first
    pair's, or the outer pair (1, m-1) itself when the shared sum exceeds
    dim+1.
    """
    m = _odd_prime(e.m, "pairing check")
    vals = e.values
    constant = vals[0] + vals[m - 2]
    violations = []
    for k in range(2, (m - 1) // 2 + 1):
        if vals[k - 1] + vals[m - k - 1] != constant:
            violations.append((k, m - k))
    if not violations and constant > e.dim + 1:
        violations.append((1, m - 1))
    return tuple(violations)


def _pairs_below(g: int):
    """Index pairs (k, l) with k <= l and k + l <= g - 1, in lexicographic order."""
    return ((k, l) for k in range(1, g) for l in range(k, g - k))


def _superadditive(vals, pairs) -> tuple:
    """i_k + i_l >= i_{k+l} over `pairs`; the violations are the failing pairs, in order.

    Takes the sorted exponents as a plain tuple, so that `enumerate_admissible`
    tests a candidate before it builds the candidate's `ExponentList`.
    """
    return tuple((k, l) for k, l in pairs if vals[k - 1] + vals[l - 1] < vals[k + l - 1])


def check_superadditive(e: ExponentList) -> tuple:
    """i_k + i_l >= i_{k+l} whenever k <= l and k+l <= g-1, g the least prime divisor of m.

    At prime volume g is m itself, so every pair is checked; at even volume
    the check is vacuous.
    """
    return _superadditive(e.values, _pairs_below(least_prime_divisor(e.m)))


def reduced_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """The index pairs that suffice for the superadditivity check at odd prime p."""
    _odd_prime(p, "reduced pair set")
    return tuple(
        (k, l)
        for k in range(1, (p - 1) // 3 + 1)
        for l in range(k, (p - k) // 2 + 1)
    )


def check_stanley(delta) -> tuple:
    """Stanley's lower bound (JPAA 1991): the first i+1 entries never outweigh
    entries s-i..s, for i up to half the degree s; violations are those i.

    This is also the exponent form i_j + i_{m-1-j} >= s for all j, with
    i_0 = 0 put before the exponents. Let S(t) count i_0..i_{m-1} in [0, t]
    and T(t) count those >= s-t. For two sorted lists, a_j <= b_j for every
    j exactly when a has at least as many entries <= t as b for every t;
    with b_j = s - i_{m-1-j}, the exponent form says S(t) <= T(t) for all t.
    Since S(t) = m - T(s-1-t), the condition at t is the one at s-1-t, so
    t <= (s-1)/2 suffices, and t runs up to s // 2 here.
    """
    entries = _validated_delta(delta)
    s = max(i for i, x in enumerate(entries) if x != 0)
    total = list(accumulate(entries, initial=0))  # total[k] = sum(entries[:k])
    return tuple(i for i in range(s // 2 + 1) if total[i + 1] > total[s + 1] - total[s - i])


def check_hibi(delta) -> tuple:
    """Hibi's tail bound (Adv. Math. 1994): entries d-i..d never outweigh
    entries 1..i+1, for i up to half of d-1; violations are those i.

    This is also the exponent form i_j + i_{m-j} <= d+1 for all j. Let S(t)
    count exponents in [1, t] and T(t) count exponents >= d+1-t, so the
    bound at i is T(i+1) <= S(i+1). For two sorted lists, a_j <= b_j for
    every j exactly when a has at least as many entries <= t as b for every
    t; with b_j = d+1 - i_{m-j}, the exponent form says T(t) <= S(t) for
    all t. Since S(t) = m-1 - T(d-t), the condition at t is the one at d-t,
    so t <= d/2 suffices, and t runs up to (d+1) // 2 here.
    """
    entries = _validated_delta(delta)
    d = len(entries) - 1
    total = list(accumulate(entries, initial=0))  # total[k] = sum(entries[:k])
    return tuple(
        i for i in range((d - 1) // 2 + 1) if total[d + 1] - total[d - i] > total[i + 2] - total[1]
    )


def run_all_checks(delta) -> dict:
    """Every checker applicable to the vector's volume, each mapped to its violations, in a report dict."""
    entries = _validated_delta(delta)
    e = exponents(entries)
    m = e.m
    checks = {
        "stanley": check_stanley(entries),
        "hibi": check_hibi(entries),
    }
    if m >= 3:
        prime = is_prime(m)
        if prime:
            checks["pairing"] = check_pairing(e)
        checks["superadditive" if prime else "nonprime"] = check_superadditive(e)
    return {
        "delta": list(entries),
        "dim": e.dim,
        "volume": m,
        "exponents": list(e.values),
        "checks": checks,
        "all_pass": not any(checks.values()),
    }
