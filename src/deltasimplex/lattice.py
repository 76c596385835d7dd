"""Exact integer linear algebra, the full-dimensional lattice simplex type and the work budget.

Everything here runs on Python's arbitrary-precision integers, so all results
are exact and overflow cannot happen silently.
"""

import re
from dataclasses import dataclass, field

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


def _check_square(matrix):
    n = len(matrix)
    if n == 0:
        raise ValueError("matrix must be nonempty")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    return n


def exact_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    n = _check_square(matrix)
    a = [[int(x) for x in row] for row in matrix]
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


def adjugate(matrix):
    """Adjugate matrix, satisfying adjugate(M) @ M = det(M) * I exactly."""
    n = _check_square(matrix)
    if n == 1:
        return ((1,),)
    rows = [tuple(row) for row in matrix]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
            c = exact_det(minor)
            adj[j][i] = -c if (i + j) % 2 else c
    return tuple(tuple(row) for row in adj)


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


@dataclass(frozen=True)
class SNFResult:
    """Smith form diagonal s_1 | s_2 | ... | s_n with a unimodular column transform.

    The entries are positive with product |det| of the input, and column j of
    matrix @ right is divisible by s_j: right[:, j] / s_j lies in the lattice
    {x : matrix @ x integral}. The box route needs no more. It takes those
    columns mod 1 as generators of orders s_j; its own checks (the order
    product equals the volume, exactly one element has degree 0) certify
    that they list the whole group without repeats.
    """

    diagonal: tuple[int, ...]
    right: tuple[tuple[int, ...], ...]


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form of a nonsingular square integer matrix; only `right` is tracked.

    The membership and divisibility-chain properties are checked before
    returning, also under `python -O`.
    """
    n = _check_square(matrix)
    a = [[int(x) for x in row] for row in matrix]
    right = identity_matrix(n)

    def col_sub(j, k, q):
        for i in range(n):
            a[i][j] -= q * a[i][k]
            right[i][j] -= q * right[i][k]

    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    v = abs(a[i][j])
                    if v and (best is None or v < best[0]):
                        best = (v, i, j)
            if best is None:
                raise ValueError("matrix is singular")
            _, bi, bj = best
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
    image = mat_mul([list(r) for r in matrix], right)
    for j, s in enumerate(diagonal):
        if any(row[j] % s for row in image):
            raise AssertionError(f"Smith form column {j} of matrix @ right is not a multiple of {s}")
    if any(diagonal[i + 1] % diagonal[i] for i in range(n - 1)):
        raise AssertionError(f"Smith form diagonal {diagonal} is not a divisibility chain")
    return SNFResult(diagonal, tuple(tuple(r) for r in right))


# The pivot loop repeats the one in smith_normal_form on purpose: this routine
# feeds the dilate-counting oracle, which must share no code with the box
# route it checks.
def row_hermite_form(matrix):
    """Row-reduce a nonsingular integer matrix: returns (W, H) with H = W @ matrix.

    W is unimodular; H is upper triangular with positive diagonal and entries
    above each pivot reduced into [0, pivot).
    """
    n = _check_square(matrix)
    a = [[int(x) for x in row] for row in matrix]
    w = identity_matrix(n)

    def row_sub(i, k, q):
        for j in range(n):
            a[i][j] -= q * a[k][j]
            w[i][j] -= q * w[k][j]

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
                w[col], w[bi] = w[bi], w[col]
            if a[col][col] < 0:
                for j in range(n):
                    a[col][j] = -a[col][j]
                    w[col][j] = -w[col][j]
            pivot = a[col][col]
            clean = True
            for i in range(col + 1, n):
                if a[i][col]:
                    row_sub(i, col, a[i][col] // pivot)
                    if a[i][col]:
                        clean = False
            if clean:
                break
        for i in range(col):
            q = a[i][col] // a[col][col]
            if q:
                row_sub(i, col, q)

    return tuple(tuple(r) for r in w), tuple(tuple(r) for r in a)


def _as_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"integer required, got {x!r}")
    return x


@dataclass(frozen=True)
class Simplex:
    """Lattice simplex with d+1 integer vertices spanning all of d-space.

    Immutable; degenerate vertex sets are rejected at construction time.
    """

    vertices: tuple[tuple[int, ...], ...]
    _edge_det: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        verts = tuple(tuple(_as_int(x) for x in v) for v in self.vertices)
        if len(verts) < 2:
            raise ValueError("a simplex needs at least two vertices")
        d = len(verts) - 1
        if any(len(v) != d for v in verts):
            raise ValueError(f"expected {d + 1} vertices of length {d}")
        object.__setattr__(self, "vertices", verts)
        det = exact_det(self.edge_matrix())
        if det == 0:
            raise DegenerateSimplexError("vertices do not span a full-dimensional simplex")
        object.__setattr__(self, "_edge_det", det)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def normalized_volume(self) -> int:
        """|det| of the edge matrix; equals the sum of the delta-vector entries."""
        return abs(self._edge_det)

    def edge_matrix(self):
        """Columns v_i - v_0 for i = 1..d."""
        v0 = self.vertices[0]
        d = self.dim
        return tuple(
            tuple(self.vertices[j + 1][i] - v0[i] for j in range(d)) for i in range(d)
        )

    def homogeneous_matrix(self):
        """Rows (v_i, 1) for i = 0..d."""
        return tuple(v + (1,) for v in self.vertices)

    def to_json_dict(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices]}

    @classmethod
    def from_json_dict(cls, obj) -> "Simplex":
        """Strict parse of {"vertices": [[int, ...], ...]}; floats are rejected."""
        if not isinstance(obj, dict) or set(obj) != {"vertices"}:
            raise ValueError('expected a JSON object with a single "vertices" key')
        rows = obj["vertices"]
        if not isinstance(rows, list) or not rows:
            raise ValueError('"vertices" must be a nonempty list of integer rows')
        verts = []
        for row in rows:
            if not isinstance(row, list):
                raise ValueError("each vertex must be a list of integers")
            # decimal strings are accepted so outputs stringified beyond 2**53 round-trip
            verts.append(tuple(ascii_int(x) if isinstance(x, str) else x for x in row))
        return cls(tuple(verts))


def ascii_int(text: str) -> int:
    """Integer written -?[0-9]+; unlike int(), refuses '_', '+', spaces and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"integer required, got {text!r}")
    return int(text)
