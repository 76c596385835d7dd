"""Constraint checkers on candidate delta-vectors.

A delta-vector is a tuple (delta_0, ..., delta_d) of nonnegative integers
with delta_0 = 1; trailing zeros are significant because they encode the
dimension d, which enters several of the bounds. Equivalently, a vector is
the multiset of exponents i_1 <= ... <= i_{m-1} of its nonzero positions,
with m the normalized volume.

Each checker returns its violations as a tuple, empty exactly when the check
passes, so a failure carries its witnesses.
"""

from dataclasses import dataclass
from itertools import accumulate

from .lattice import _as_int


def least_prime_divisor(m: int) -> int:
    """Smallest prime dividing m (trial division)."""
    if m < 2:
        raise ValueError("need an integer >= 2")
    f = 2
    while f * f <= m:
        if m % f == 0:
            return f
        f += 1
    return m


def is_prime(m: int) -> bool:
    return m >= 2 and least_prime_divisor(m) == m


@dataclass(frozen=True)
class ExponentList:
    """Sorted exponents i_1 <= ... <= i_{m-1} in [1, dim], with dim carried along."""

    values: tuple[int, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(_as_int, self.values)))
        if _as_int(self.dim) < 1:
            raise ValueError("dimension must be >= 1")
        if any(not 1 <= v <= self.dim for v in self.values):
            raise ValueError("exponents must lie in [1, dim]")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("exponents must be sorted")

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


def _superadditive(e: ExponentList, pairs) -> tuple:
    """i_k + i_l >= i_{k+l} over `pairs`; the violations are the failing pairs, in order."""
    vals = e.values
    return tuple((k, l) for k, l in pairs if vals[k - 1] + vals[l - 1] < vals[k + l - 1])


def check_superadditive(e: ExponentList, pairs=None) -> tuple:
    """For odd prime volume: i_k + i_l >= i_{k+l} whenever k <= l and k+l <= m-1.

    An explicit `pairs` iterable restricts the check (used with
    `reduced_pairs`, which is equivalent once the pairing equalities hold).
    """
    m = _odd_prime(e.m, "superadditivity check")
    if pairs is None:
        pairs = _pairs_below(m)
    return _superadditive(e, pairs)


def reduced_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """The index pairs that suffice for the superadditivity check at odd prime p."""
    _odd_prime(p, "reduced pair set")
    return tuple(
        (k, l)
        for k in range(1, (p - 1) // 3 + 1)
        for l in range(k, (p - k) // 2 + 1)
    )


def check_stanley(delta) -> tuple:
    """Cumulative lower bound: the first i+1 entries never outweigh the last i+1
    nonzero-leading ones, for i up to half the degree."""
    entries = _validated_delta(delta)
    s = max(i for i, x in enumerate(entries) if x != 0)
    total = list(accumulate(entries, initial=0))  # total[k] = sum(entries[:k])
    return tuple(i for i in range(s // 2 + 1) if total[i + 1] > total[s + 1] - total[s - i])


def check_hibi(delta) -> tuple:
    """Tail bound: the top i+1 entries never outweigh entries 1..i+1,
    for i up to half of d-1."""
    entries = _validated_delta(delta)
    d = len(entries) - 1
    total = list(accumulate(entries, initial=0))  # total[k] = sum(entries[:k])
    return tuple(
        i for i in range((d - 1) // 2 + 1) if total[d + 1] - total[d - i] > total[i + 2] - total[1]
    )


def check_stanley_exponents(e: ExponentList) -> tuple:
    """Exponent form of the cumulative lower bound: i_j + i_{m-j-1} >= i_{m-1}."""
    vals = e.values
    m = e.m
    top = vals[m - 2] if m >= 2 else 0
    return tuple(j for j in range(1, m - 1) if vals[j - 1] + vals[m - j - 2] < top)


def check_hibi_exponents(e: ExponentList) -> tuple:
    """Exponent form of the tail bound: i_j + i_{m-j} <= dim + 1."""
    vals = e.values
    m = e.m
    bound = e.dim + 1
    return tuple(j for j in range(1, m) if vals[j - 1] + vals[m - j - 1] > bound)


def check_nonprime(e: ExponentList) -> tuple:
    """For composite volume: superadditivity restricted below the least prime divisor.

    With g the least prime divisor of m, checks i_k + i_l >= i_{k+l} for
    k <= l and k + l <= g - 1 (vacuous when g = 2).
    """
    m = e.m
    if is_prime(m):
        raise ValueError(f"volume {m} is prime; use the full superadditivity check")
    return _superadditive(e, _pairs_below(least_prime_divisor(m)))


def run_all_checks(delta) -> dict:
    """Every checker applicable to the vector's volume, each mapped to its violations, in a report dict."""
    entries = _validated_delta(delta)
    e = exponents(entries)
    m = e.m
    checks = {
        "stanley": check_stanley(entries),
        "hibi": check_hibi(entries),
        "stanley_exponents": check_stanley_exponents(e),
        "hibi_exponents": check_hibi_exponents(e),
    }
    if m >= 3 and is_prime(m):
        checks["pairing"] = check_pairing(e)
        checks["superadditive"] = check_superadditive(e)
    elif m >= 4:
        checks["nonprime"] = check_nonprime(e)
    return {
        "delta": list(entries),
        "dim": e.dim,
        "volume": m,
        "exponents": list(e.values),
        "checks": checks,
        "all_pass": not any(checks.values()),
    }
