"""Exact integer linear algebra, the full-dimensional lattice simplex type and the work budget.

Everything here runs on Python's arbitrary-precision integers, so all results
are exact and overflow cannot happen silently. Text formats live in `cli`.
"""

from collections import namedtuple
from operator import mul, sub

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Estimated work exceeds the caller's budget; carries the estimate and what it counted."""

    def __init__(self, estimate: int, budget: int, unit: str):
        super().__init__(f"estimated {estimate} {unit} exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


def within_budget(estimate: int, budget: int, unit: str) -> None:
    """The one budget gate: refuse work whose estimate, counted in `unit`, exceeds the budget."""
    if estimate > budget:
        raise BudgetExceededError(estimate, budget, unit)


class DegenerateSimplexError(ValueError):
    """The given vertices do not span a full-dimensional simplex."""


def _as_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"integer required, got {x!r}")
    return x


def _int_matrix(matrix):
    """Mutable copy of a nonempty square matrix; ValueError on any entry `_as_int` rejects."""
    n = len(matrix)
    if n == 0:
        raise ValueError("matrix must be nonempty")
    a = [list(row) for row in matrix]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for x in row:
            _as_int(x)
    return a


def exact_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    a = _int_matrix(matrix)
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: the division is exact
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


class SNFResult(namedtuple("SNFResult", "diagonal right")):
    """Smith form diagonal s_1 | s_2 | ... | s_n with a unimodular column transform.

    The entries are positive with product |det| of the input, and column j of
    matrix @ right is divisible by s_j: right[:, j] / s_j lies in the lattice
    {x : matrix @ x integral}. The box route needs no more. It takes those
    columns mod 1 as generators of orders s_j; its own checks (the order
    product equals the volume, exactly one element has degree 0) certify
    that they list the whole group without repeats.
    """


def _least_entry(a, t):
    """Row-major first position (i, j), i, j >= t, of the least nonzero |a[i][j]|.

    No nonzero entry is smaller than 1, so the scan stops at the first unit.
    """
    least = None
    for i in range(t, len(a)):
        for j, x in enumerate(a[i][t:], t):
            if x and (least is None or abs(x) < least[0]):
                least = abs(x), i, j
                if x in (1, -1):
                    return i, j
    if least is None:
        raise ValueError("matrix is singular")
    return least[1:]


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form of a nonsingular square integer matrix; only `right` is tracked.

    Before returning, also under `python -O`, it checks that the diagonal is a
    divisibility chain and that column j of matrix @ right is divisible by s_j
    (membership). A column with s_j = 1 cannot fail that, so only the r <=
    log2 |det| columns with s_j > 1 are multiplied out: r n^2 products, not n^3.
    """
    a = _int_matrix(matrix)
    n = len(a)
    right = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_sub(j, k, q):
        for i in range(n):
            a[i][j] -= q * a[i][k]
            right[i][j] -= q * right[i][k]

    for t in range(n):
        while True:
            bi, bj = _least_entry(a, t)
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
                for row in right:
                    row[t], row[bj] = row[bj], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            pivot = a[t][t]
            clean = True
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // pivot
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // pivot)
                    if a[t][j]:
                        clean = False
            if not clean:
                continue
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pull a non-multiple into the pivot row so the next pass shrinks the pivot
            a[t] = [x + y for x, y in zip(a[t], a[offender])]

    diagonal = tuple(a[i][i] for i in range(n))
    for j, s in enumerate(diagonal):
        if s > 1:
            column = [row[j] for row in right]
            if any(sum(map(mul, row, column)) % s for row in matrix):
                raise AssertionError(f"Smith form column {j} of matrix @ right is not a multiple of {s}")
    if any(diagonal[i + 1] % diagonal[i] for i in range(n - 1)):
        raise AssertionError(f"Smith form diagonal {diagonal} is not a divisibility chain")
    return SNFResult(diagonal, tuple(tuple(r) for r in right))


# The pivot loop repeats the one in smith_normal_form on purpose: this routine
# feeds the dilate-counting oracle, which must share no code with the box
# route it checks.
def row_hermite_form(matrix):
    """Row Hermite form H of a nonsingular integer matrix, H = W @ matrix for some unimodular W.

    H is upper triangular with positive diagonal and entries above each pivot
    reduced into [0, pivot); W itself is not kept.
    """
    a = _int_matrix(matrix)
    n = len(a)
    for col in range(n):
        while True:
            best = None
            for i in range(col, n):
                v = abs(a[i][col])
                if v and (best is None or v < best[0]):
                    best = (v, i)
            if best is None:
                raise ValueError("matrix is singular")
            _, bi = best
            if bi != col:
                a[col], a[bi] = a[bi], a[col]
            if a[col][col] < 0:
                a[col] = [-x for x in a[col]]
            pivot = a[col][col]
            clean = True
            for i in range(col + 1, n):
                if a[i][col]:
                    q = a[i][col] // pivot
                    a[i] = [x - q * y for x, y in zip(a[i], a[col])]
                    if a[i][col]:
                        clean = False
            if clean:
                break
        for i in range(col):
            q = a[i][col] // a[col][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[col])]

    return tuple(tuple(r) for r in a)


def _edge_matrix(vertices):
    """Columns v_i - v_0 for i = 1..d."""
    v0 = vertices[0]
    return tuple(zip(*(map(sub, v, v0) for v in vertices[1:])))


class Simplex(namedtuple("Simplex", "vertices normalized_volume")):
    """Lattice simplex with d+1 integer vertices spanning all of d-space.

    Immutable; degenerate vertex sets are rejected at construction time, which
    takes the vertices alone. `normalized_volume` is |det| of the edge matrix,
    derived there; it equals the sum of the delta-vector entries.
    """

    __slots__ = ()

    def __new__(cls, vertices):
        verts = tuple(tuple(map(_as_int, v)) for v in vertices)
        if len(verts) < 2:
            raise ValueError("a simplex needs at least two vertices")
        d = len(verts) - 1
        if any(len(v) != d for v in verts):
            raise ValueError(f"expected {d + 1} vertices of length {d}")
        det = exact_det(_edge_matrix(verts))
        if det == 0:
            raise DegenerateSimplexError("vertices do not span a full-dimensional simplex")
        return super().__new__(cls, verts, abs(det))

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__, which takes the vertices alone
        return (self.vertices,)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1
