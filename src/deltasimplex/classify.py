"""Classification of delta-vectors with normalized volume 5 or 7.

Admissibility is the pairing constraint plus superadditivity of the
exponents; for these two volumes every admissible vector is realized by an
explicit member of the one-row Hermite family, constructed case by case from
the multiplicity pattern of the exponents. An exhaustive search over
triangular vertex matrices provides the ground truth at small dimension.
"""

import marshal
import os
import signal
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby, islice, product
from math import comb, isqrt

from .box import delta_from_box
from .constraints import (
    CheckReport,
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
from .lattice import DEFAULT_BUDGET, Simplex, within_budget

_PATTERN_CASES = {
    5: {
        (4,): "i",
        (2, 2): "ii",
        (1, 2, 1): "iii",
        (1, 1, 1, 1): "iv",
    },
    7: {
        (6,): "i",
        (3, 3): "ii",
        (1, 4, 1): "iii",
        (2, 2, 2): "iv",
        (1, 2, 2, 1): "v",
        (2, 1, 1, 2): "vi",
        (1, 1, 2, 1, 1): "vii",
        (1, 1, 1, 1, 1, 1): "viii",
    },
}


@dataclass(frozen=True)
class CaseId:
    """Which multiplicity-pattern case an exponent list falls into.

    `branch` is only set for the all-distinct volume-7 case: the sign of
    i_1 + i_3 - 2*i_2, which selects between the two witness formulas.
    """

    p: int
    label: str
    branch: int | None = None


@dataclass(frozen=True)
class Witness:
    """A family spec whose closed-form delta-vector equals the requested one."""

    spec: HNFSpec
    case: CaseId
    delta: tuple[int, ...]


def admissible(delta, p: int) -> CheckReport:
    """Combined pairing + superadditivity verdict for volume 5 or 7.

    Superadditivity is checked on the reduced pair set, which is equivalent
    to the full set once the pairing equalities hold. Violations merge both
    sub-checks' index pairs.
    """
    if p not in (5, 7):
        raise ValueError("classification covers volumes 5 and 7 only")
    m = sum(_validated_delta(delta))  # before building the list of m - 1 exponents
    if m != p:
        raise ValueError(f"delta-vector sums to {m}, expected {p}")
    e = exponents(delta)
    violations = check_pairing(e).violations
    violations += check_superadditive(e, pairs=reduced_pairs(p)).violations
    return CheckReport("admissible", violations)


def classify_case(e: ExponentList) -> CaseId:
    """Case of an admissible exponent list, from its multiplicity pattern."""
    p = e.m
    if p not in _PATTERN_CASES:
        raise ValueError("classification covers volumes 5 and 7 only")
    pattern = tuple(len(list(run)) for _, run in groupby(e.values))
    label = _PATTERN_CASES[p].get(pattern)
    if label is None:
        raise ValueError(f"no case matches multiplicity pattern {pattern}")
    branch = None
    if label == "viii":
        i1, i2, i3 = e.values[0], e.values[1], e.values[2]
        diff = i1 + i3 - 2 * i2
        branch = (diff > 0) - (diff < 0)
    return CaseId(p, label, branch)


def _coefficients_vol5(label: str, vals) -> tuple[int, ...]:
    i1, i2, i3, i4 = vals
    if label == "i":
        return (0, i1 - 1, i1 - 1, 0)
    if label == "ii":
        i, j = i1, i3
        return (0, i, 2 * i - j, 2 * j - 2 * i - 2)
    if label == "iii":
        i, j = i1, i2
        return (0, 2 * i - j, i, 3 * j - 3 * i - 2)
    return (0, 2 * i1 - i2, i1 + i2 - i3, i2 + 2 * i3 - 3 * i1 - 2)


def _coefficients_vol7(label: str, vals, branch) -> tuple[int, ...]:
    i1, i2, i3, i4, i5, i6 = vals
    if label == "i":
        return (0, 0, i1 - 1, i1 - 1, 0, 0)
    if label == "ii":
        i, j = i1, i4
        return (0, j - i, 2 * i - j, 2 * i - j, 0, 2 * j - 2 * i - 2)
    if label == "iii":
        i, j, k = i1, i2, i6
        return (i + j - k, k - j, k - i - 1, 0, 0, i - 1)
    if label == "iv":
        i, j, k = i1, i3, i5
        return (0, 0, i - 1, i + j - k, 0, 3 * k - 3 * j - 1)
    if label == "v":
        k1, k2, k3 = i1, i2, i4
        return (0, 2 * k1 - k2, 0, k2 - k1, k1 + k2 - k3, 2 * k3 - 2 * k1 - 2)
    if label == "vi":
        k1, k2, k3 = i1, i3, i4
        return (0, k3 - k2 - 1, k1 + k2 - k3, 2 * k1 - k3, 0, k2 + 2 * k3 - 3 * k1 - 1)
    if label == "vii":
        k1, k2, k3 = i1, i2, i3
        return (0, 0, 2 * k1 - k2, k1 + k2 - k3, k2 - k1, 3 * k3 - 2 * k1 - k2 - 2)
    if branch >= 0:
        return (
            0,
            i1 + i2 - i3,
            i1 + i3 - 2 * i2,
            0,
            2 * i2 - i4,
            i3 + 2 * i4 - 2 * i1 - i2 - 2,
        )
    return (
        0,
        2 * i1 - i2,
        0,
        2 * i2 - i1 - i3,
        i1 + i3 - i4,
        i3 + 2 * i4 - 2 * i1 - i2 - 2,
    )


def witness(delta, p: int) -> Witness:
    """Construct a family member realizing an admissible delta-vector.

    The construction self-verifies: its coefficients must be nonnegative and fit
    the carried dimension, and the closed form must reproduce the requested vector.
    """
    verdict = admissible(delta, p)
    if not verdict.ok:
        raise ValueError(f"delta-vector is not admissible: violations {verdict.violations}")
    return _witness(exponents(delta))


def _witness(e: ExponentList) -> Witness:
    """Witness of an exponent list already known to be admissible."""
    case = classify_case(e)
    if e.m == 5:
        coeffs = _coefficients_vol5(case.label, e.values)
    else:
        coeffs = _coefficients_vol7(case.label, e.values, case.branch)
    if any(c < 0 for c in coeffs):
        raise AssertionError(f"case {case.label} gave negative coefficients {coeffs}")
    spec = HNFSpec(e.m, coeffs, e.dim)
    produced = closed_form_delta(spec)
    if produced != delta_from_exponents(e):
        raise AssertionError(f"witness {spec} has delta-vector {produced}, not the requested one")
    return Witness(spec, case, produced)


def enumerate_admissible(p: int, d: int, budget: int = DEFAULT_BUDGET) -> list[Witness]:
    """All admissible delta-vectors with volume p and dimension d, each with a witness.

    Visits only the lists the pairing allows, each checked once for superadditivity: per pair
    sum c in [2, d+1], h = (p-1)/2 sorted values from [1, c//2], then c minus them reversed.
    The budget bounds their number, C(k-1+h, h) for each of c = 2k and 2k+1, summed over k.
    """
    if p not in (5, 7):
        raise ValueError("classification covers volumes 5 and 7 only")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    h = (p - 1) // 2
    within_budget(comb((d + 1) // 2 + h, h + 1) + comb(d // 2 + h, h + 1), budget, "candidates")
    pairs = reduced_pairs(p)
    results = []
    for c in range(2, d + 2):
        for lower in combinations_with_replacement(range(1, c // 2 + 1), h):
            e = ExponentList(lower + tuple(c - x for x in reversed(lower)), d)
            if check_superadditive(e, pairs).ok:
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


def _matrix_count(d: int, vol: int) -> int:
    """How many matrices `iter_hnf_matrices(d, vol)` yields, without building them.

    Diagonal position i contributes diag[i]**i choices for the entries left of
    it, so the count is the sum of prod(diag[i]**i) over the ordered
    factorizations of vol. It is summed one position at a time over the
    divisors of vol, because the factorizations themselves can be too many to
    list before a budget refusal.
    """
    small = [k for k in range(1, isqrt(vol) + 1) if vol % k == 0]
    divisors = sorted(set(small + [vol // k for k in small]))
    # tail[n]: the sum over factorizations of n into the positions from i on
    tail = {n: n ** (d - 1) for n in divisors}
    for i in range(d - 2, -1, -1):
        tail = {n: sum(k**i * tail[n // k] for k in divisors if n % k == 0) for n in divisors}
    return tail[vol]


def _stride(d: int, vol: int, k: int, workers: int) -> set:
    """Delta-vectors of matrices k, k + workers, k + 2*workers, ... of `iter_hnf_matrices`."""
    origin = (0,) * d
    return {
        delta_from_box(Simplex((origin,) + rows))
        for rows in islice(iter_hnf_matrices(d, vol), k, None, workers)
    }


def _worker(d: int, vol: int, k: int, workers: int, write_fd: int):
    """Forked child: send stride k's sorted delta-vectors, or the message of its failed check.

    Never returns, so the child cannot run on in its parent's frames or flush its parent's
    stdio. It exits 0 only once the whole reply is written.
    """
    status = 1
    try:
        try:
            reply = sorted(_stride(d, vol, k, workers))
        except AssertionError as exc:
            reply = str(exc)
        with os.fdopen(write_fd, "wb") as pipe:
            marshal.dump(reply, pipe)
        status = 0
    finally:
        os._exit(status)


def exhaustive_search(d: int, vol: int, budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], ...]:
    """Ground truth: the set of delta-vectors over all matrices from `iter_hnf_matrices`.

    Returned sorted. The budget bounds the exact number of matrices, then the
    vol points of each one's box group (more than the matrices only at d = 1).
    The matrices are split into one stride per CPU this process may run on,
    at most one per matrix: this process takes stride 0 and a forked child
    each other one. A check failing in a child raises here with its message.
    """
    if d < 1 or vol < 1:
        raise ValueError("need d >= 1 and vol >= 1")
    count = _matrix_count(d, vol)
    within_budget(count, budget, "matrices")
    within_budget(vol, budget, "box points")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, count)
    children = []  # (stride, pid, read end of its pipe) of every child not yet reaped
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(d, vol, k, workers, write_fd)
            os.close(write_fd)
            children.append((k, pid, os.fdopen(read_fd, "rb")))
        found = _stride(d, vol, 0, workers)
        while children:
            k, pid, pipe = children[0]
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
            if code:
                raise AssertionError(f"search worker {k} exited with code {code} before sending its deltas")
            reply = marshal.loads(data)
            if isinstance(reply, str):
                raise AssertionError(reply)
            found.update(reply)
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return tuple(sorted(found))
