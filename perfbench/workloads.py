"""Seeded job generators and output checks for the five benchmark workloads.

Each workload is a list of slots. A round runs every slot once, in a seeded
order, with parameters drawn from the slot's narrow band; the measured run
always ends on a round boundary, so every run sees the same mix of job sizes
and only the drawn parameters differ between seeds. A narrow band keeps the
median job and the throughput of a run close across seeds. Each check
compares a job's output against a route other than the one the job times:
the bench's own sparse closed form, dilate counting, the box group, or a
stored reference (see `make_reference.py`).
"""

import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# The CLI's default work budget; jobs whose estimate exceeds it pass --budget.
DEFAULT_BUDGET = 10**8


@dataclass
class Job:
    """One CLI invocation: `deltasimplex <args>`, with the simplex it reads."""

    slot: str
    args: list
    work: int
    expected: object
    check: object  # check(job, payload) -> error string or None
    simplex: list = None  # vertices, written to the file that "{simplex}" in args names


# --- independent routes used by the checks -------------------------------


def sparse_closed_form(m, mults, dim):
    """Delta-vector of the one-row family member (m, multiplicities, dim).

    Same formula as the package's closed form, but summed over the nonzero
    multiplicities only, so it costs O(m * k) instead of O(m^2).
    """
    items = [(j, c) for j, c in mults.items() if c]
    delta = [0] * (dim + 1)
    delta[0] = 1
    for i in range(1, m):
        t = sum((i * j) % m * c for j, c in items)
        delta[1 - (i - t) // m] += 1
    return delta


def dilate_counts(delta):
    """Closed counts L(0..d+1) and interior counts L°(1..d+1) from a delta-vector."""
    d = len(delta) - 1
    closed = [sum(x * comb(n - i + d, d) for i, x in enumerate(delta)) for n in range(d + 2)]
    interior = [sum(x * comb(n + i - 1, d) for i, x in enumerate(delta)) for n in range(1, d + 2)]
    return closed, interior


def admissible_exponents(vals, p, d):
    """Pairing (i_k + i_{p-k} constant, at most d+1) and full superadditivity."""
    if len(vals) != p - 1:
        return False
    c = vals[0] + vals[-1]
    if c > d + 1 or any(vals[k] + vals[p - 2 - k] != c for k in range(p - 1)):
        return False
    return all(
        vals[k - 1] + vals[l - 1] >= vals[k + l - 1]
        for k in range(1, p) for l in range(k, p) if k + l <= p - 1
    )


def exponents_of(delta):
    return [i for i, x in enumerate(delta) if i for _ in range(x)]


def prime_sweep(d, p):
    """Delta set of all simplices of prime volume p: the closed form over every
    multiset of at most d-1 nonzero residues."""
    found = set()
    for size in range(d):
        for multiset in combinations_with_replacement(range(1, p), size):
            mults = {}
            for j in multiset:
                mults[j] = mults.get(j, 0) + 1
            found.add(tuple(sparse_closed_form(p, mults, d)))
    return sorted(list(x) for x in found)


def hnf_matrix_count(d, vol):
    """Matrices the search visits: sum over ordered factorizations of prod diag_i^i."""

    def walk(n, parts, i):
        if parts == 1:
            return n**i
        return sum(
            f**i * walk(n // f, parts - 1, i + 1) for f in range(1, n + 1) if n % f == 0
        )

    return walk(vol, d, 0)


def is_prime(n):
    return n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))


def prime_in(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def _family_vertices(m, mults, d):
    tail = [j for j in sorted(mults) for _ in range(mults[j])]
    tail += [0] * (d - 1 - len(tail)) + [m]
    rows = [[0] * d] + [[int(i == k) for k in range(d)] for i in range(d - 1)]
    return rows + [tail]


def _unimodular(rng, d):
    """Random unimodular matrix: a signed permutation times elementary row operations."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in u]


def _cells(vertices, n):
    cells = 1
    for k in range(len(vertices[0])):
        coords = [v[k] for v in vertices]
        cells *= n * (max(coords) - min(coords)) + 1
    return cells


def _random_mults(rng, m, count):
    mults = {}
    for _ in range(count):
        j = rng.randrange(1, m)
        mults[j] = mults.get(j, 0) + 1
    return mults


# --- checks -----------------------------------------------------------------


def _check_search(job, out):
    deltas = out["deltas"]
    if deltas != sorted(deltas) or len(set(map(tuple, deltas))) != len(deltas):
        return "deltas not sorted and unique"
    if out["count"] != len(deltas) or deltas != job.expected:
        return f"delta set differs from the reference ({out['count']} vs {len(job.expected)})"
    return None


def _check_oracle(job, out):
    closed, interior = dilate_counts(job.expected)
    got = (out["delta"], out["counts"], out["interior_counts"])
    if got != (job.expected, closed, interior):
        return "counts or delta differ from the box-group delta-vector"
    return None


def _check_delta(job, out):
    return None if out == job.expected else f"delta {out} != closed form {job.expected}"


def _check_verify(job, out):
    methods = out["methods"]
    if not out["agree"] or methods["oracle"] is not None:
        return "expected agree=true with the oracle skipped"
    if methods["box"] != job.expected or methods["closed_form"] != job.expected:
        return "box or closed-form delta differs from the sparse closed form"
    return None


def _check_enumerate(job, out):
    count, sample, p, d = job.expected
    entries = out["entries"]
    deltas = [e["delta"] for e in entries]
    if out["count"] != count or len(entries) != count:
        return f"count {out['count']} != reference {count}"
    if any(a >= b for a, b in zip(deltas, deltas[1:])):
        return "entries not sorted and unique"
    for delta in deltas:
        if len(delta) != d + 1 or not admissible_exponents(exponents_of(delta), p, d):
            return f"entry {delta} is not admissible"
    from deltasimplex.box import delta_from_box
    from deltasimplex.hnf import HNFSpec, build_simplex

    for k in sample:
        w = entries[k % count]["witness"]
        built = delta_from_box(build_simplex(HNFSpec(w["m"], w["coeffs"], w["dim"])))
        if w["m"] != p or list(built) != entries[k % count]["delta"]:
            return f"witness of entry {k % count} does not rebuild its delta-vector"
    return None


# --- generators -------------------------------------------------------------


def _search_slot(d, vol):
    def make(rng):
        if is_prime(vol):
            expected = prime_sweep(d, vol)
        else:
            expected = REFERENCE["search"][f"{d},{vol}"]
        args = ["search", "--dim", str(d), "--volume", str(vol)]
        return Job(f"search-{d}-{vol}", args, hnf_matrix_count(d, vol), expected, _check_search)

    return make


def _oracle_slot(d, lo, hi, c):
    def make(rng):
        from deltasimplex.box import delta_from_box
        from deltasimplex.lattice import Simplex, exact_det

        while True:
            verts = [[0] * d] + [[rng.randint(-c, c) for _ in range(d)] for _ in range(d)]
            if lo <= abs(exact_det(list(zip(*verts[1:])))) <= hi:
                break
        shift = [rng.randint(-3, 3) for _ in range(d)]
        verts = [[x + s for x, s in zip(v, shift)] for v in verts]
        expected = list(delta_from_box(Simplex(tuple(map(tuple, verts)))))
        closed, interior = dilate_counts(expected)
        budget = max(DEFAULT_BUDGET, _cells(verts, d + 1))
        args = ["oracle", "--simplex", "{simplex}", "--budget", str(budget)]
        work = sum(closed[1:]) + sum(interior)
        return Job(f"oracle-{d}-{lo}", args, work, expected, _check_oracle, verts)

    return make


def _bigbox_slot(d, lo, hi):
    def make(rng):
        m = prime_in(rng, lo, hi)
        mults = _random_mults(rng, m, rng.randint(1, d - 1))
        u = _unimodular(rng, d)
        shift = [rng.randint(-50, 50) for _ in range(d)]
        verts = [
            [sum(a * b for a, b in zip(row, v)) + s for row, s in zip(u, shift)]
            for v in _family_vertices(m, mults, d)
        ]
        expected = sparse_closed_form(m, mults, d)
        args = ["delta", "--simplex", "{simplex}"]
        return Job(f"bigbox-{d}-{lo}", args, m, expected, _check_delta, verts)

    return make


def _closedform_slot(lo, hi):
    def make(rng):
        m = prime_in(rng, lo, hi)
        d = rng.randint(4, 6)
        while True:
            mults = _random_mults(rng, m, rng.randint(2, d - 1))
            if _cells(_family_vertices(m, mults, d), d) > DEFAULT_BUDGET:
                break  # the oracle must be skipped by the default budget
        coeffs = ",".join(str(mults.get(j, 0)) for j in range(1, m))
        args = ["verify", "--m", str(m), "--coeffs", coeffs, "--dim", str(d)]
        expected = sparse_closed_form(m, mults, d)
        return Job(f"closedform-{lo}", args, m - 1, expected, _check_verify)

    return make


def _enumerate_slot(p, dims):
    def make(rng):
        d = rng.choice(dims)
        count = REFERENCE["enumerate"][f"{p},{d}"]
        sample = [rng.randrange(count) for _ in range(3)]
        args = ["enumerate", "--volume", str(p), "--dim", str(d)]
        work = comb(d + p - 2, p - 1)
        return Job(f"enumerate-{p}-{dims[0]}", args, work, (count, sample, p, d), _check_enumerate)

    return make


WORKLOADS = {
    # Thousands of tiny groups per job: prime volume at higher dimension
    # (SNF-heavy) and composite volume at low dimension (box-heavy). The
    # input of a search is just (d, vol), and swapping one pair for another
    # changes the cost per matrix by up to a factor of two, so every round
    # runs the same pairs and the seed only orders them.
    "search": [
        _search_slot(5, 7),
        _search_slot(6, 5),
        _search_slot(4, 11),
        _search_slot(4, 12),
        _search_slot(3, 30),
        _search_slot(3, 36),
    ],
    # Dilate counting: random simplices, small coordinates, volume ~10^2-10^3.
    "oracle": [
        _oracle_slot(3, 800, 1000, 10),
        _oracle_slot(4, 700, 900, 5),
        _oracle_slot(5, 250, 320, 3),
        _oracle_slot(6, 150, 190, 2),
    ],
    # One huge cyclic group per job; the last slot sets peak memory.
    "bigbox": [
        _bigbox_slot(4, 10000, 11000),
        _bigbox_slot(5, 40000, 42000),
        _bigbox_slot(5, 70000, 72000),
        _bigbox_slot(6, 100000, 103000),
        _bigbox_slot(4, 198000, 200000),
    ],
    # verify on one-row members with prime m: the O(m^2) closed form dominates.
    "closedform": [
        _closedform_slot(1000, 1050),
        _closedform_slot(2000, 2080),
        _closedform_slot(3400, 3500),
    ],
    # The admissibility filter over millions of candidates; no lattice work.
    "enumerate": [
        _enumerate_slot(7, (26, 27)),
        _enumerate_slot(5, (71, 72)),
        _enumerate_slot(7, (31, 32)),
    ],
}


def rounds(workload, seed):
    """Endless seeded stream of rounds; each round runs every slot once."""
    rng = random.Random(f"{workload}:{seed}")
    slots = WORKLOADS[workload]
    while True:
        order = list(range(len(slots)))
        rng.shuffle(order)
        yield [slots[i](rng) for i in order]


def corrupt(job):
    """Alter a job's expected value so that a correct output must fail its check."""
    if job.check is _check_enumerate:
        count, sample, p, d = job.expected
        job.expected = (count + 1, sample, p, d)
    elif job.check is _check_search:
        job.expected = job.expected[1:]
    else:
        job.expected = [job.expected[0] + 1] + job.expected[1:]
