"""Brute-force lattice-point counting in dilates of a simplex.

This is the independent ground truth for delta-vectors: count points of the
dilates, extract the delta-vector by the alternating binomial transform, and
check the interior/closed count reciprocity. Nothing here shares code with
the parallelepiped-group path.
"""

from dataclasses import dataclass
from math import comb

from .lattice import DEFAULT_BUDGET, Simplex, row_hermite_form, within_budget
from .lattice import BudgetExceededError  # unused here; kept importable from this module


def cell_estimate(s: Simplex, n: int) -> int:
    """Bounding-box cell count of the n-th dilate (the budgeted work estimate)."""
    cells = 1
    for k in range(s.dim):
        coords = [v[k] for v in s.vertices]
        cells *= n * (max(coords) - min(coords)) + 1
    return cells


class _CountingFrame:
    """Per-simplex data for membership counting.

    Lattice-point counts do not change under the integer translation by n*v_0,
    so the n-th dilate is counted with v_0 at the origin. A unimodular change
    of coordinates z = W @ x makes the edge matrix its row Hermite form H, upper
    triangular, so the scaled barycentric coordinates y = det * H^-1 @ z resolve
    one coordinate at a time; membership needs y >= 0 with sum(y) <= n*det.
    Only H is kept: W permutes the lattice, so the count over z needs no W.
    """

    def __init__(self, s: Simplex):
        self.h = row_hermite_form(s.edge_matrix())
        self.dim = s.dim
        self.det = s.normalized_volume  # the product of H's positive diagonal
        self.pivots = [self.det // self.h[k][k] for k in range(s.dim)]


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _count_level(frame, level, partial, used, total_budget, q):
    """Count integer points below `level` given fixed outer coordinates.

    `partial[k]` holds -sum(h[k][j] * y_j) over the levels j > k fixed so far,
    and `used` is the sum of those y_j. Levels run from dim-1 down to 0, back-
    substituting in H @ y = det * z: y_k = (det * z_k + partial[k]) / h[k][k].
    """
    h = frame.h
    pivot = frame.pivots[level]
    # exact: y = adj(H) @ z is integral and h[k][k] divides det, so it divides partial[k]
    affine = partial[level] // h[level][level]
    low = _ceil_div(q - affine, pivot)
    high = (total_budget - used - level * q - affine) // pivot
    if level == 0:
        return high - low + 1 if high >= low else 0
    count = 0
    for z in range(low, high + 1):
        y = affine + pivot * z
        inner = [partial[i] - h[i][level] * y for i in range(level)]
        count += _count_level(frame, level - 1, inner, used + y, total_budget, q)
    return count


def _budgeted_frame(s: Simplex, n: int, budget: int) -> _CountingFrame:
    """Counting frame of s, refused when the n-th dilate's cell estimate exceeds the budget."""
    within_budget(cell_estimate(s, n), budget, "bounding-box cells")
    return _CountingFrame(s)


def count_lattice_points(
    s: Simplex, n: int, interior: bool = False, budget: int = DEFAULT_BUDGET
) -> int:
    """Exact number of lattice points in the n-th dilate (interior points if asked)."""
    if n < 1:
        raise ValueError("dilation factor must be >= 1")
    return _count_dilate(_budgeted_frame(s, n, budget), n, interior)


def _count_dilate(frame, n, interior):
    d = frame.dim
    q = 1 if interior else 0
    return _count_level(frame, d - 1, [0] * d, 0, n * frame.det - q, q)


def _delta_from_counts(counts, volume: int) -> tuple[int, ...]:
    """Delta-vector from the closed counts of dilates 0..d (alternating binomial transform)."""
    d = len(counts) - 1
    delta = tuple(
        sum((-1) ** j * comb(d + 1, j) * counts[i - j] for j in range(i + 1))
        for i in range(d + 1)
    )
    if delta[0] != 1 or min(delta) < 0 or sum(delta) != volume:
        raise AssertionError(f"dilate counts give delta-vector {delta}, volume {volume}")
    return delta


@dataclass(frozen=True)
class EhrhartTable:
    """Counts of the dilates: closed for n = 0..d+1, interior for n = 1..d+1."""

    simplex: Simplex
    counts: tuple[int, ...]
    interior_counts: tuple[int, ...]

    def __post_init__(self):
        d = self.simplex.dim
        counts, interior = self.counts, self.interior_counts
        if len(counts) != d + 2 or len(interior) != d + 1:
            raise AssertionError(f"{d}-simplex table of lengths {len(counts)}, {len(interior)}")
        if counts[0] != 1:
            raise AssertionError(f"the 0-th dilate counts {counts[0]} points, not 1")
        if any(counts[i] >= counts[i + 1] for i in range(d + 1)):
            raise AssertionError(f"closed counts {counts} do not increase")
        if any(interior[i] > counts[i + 1] for i in range(d + 1)):
            raise AssertionError(f"interior counts {interior} exceed closed counts {counts[1:]}")

    @property
    def delta(self) -> tuple[int, ...]:
        """Delta-vector from the closed counts of dilates 0..d."""
        return _delta_from_counts(
            self.counts[: self.simplex.dim + 1], self.simplex.normalized_volume
        )


def ehrhart_table(s: Simplex, budget: int = DEFAULT_BUDGET) -> EhrhartTable:
    """Count closed and interior lattice points of the dilates n = 0..d+1."""
    d = s.dim
    frame = _budgeted_frame(s, d + 1, budget)
    counts = (1,) + tuple(_count_dilate(frame, n, False) for n in range(1, d + 2))
    interior = tuple(_count_dilate(frame, n, True) for n in range(1, d + 2))
    return EhrhartTable(s, counts, interior)


def ehrhart_delta(s: Simplex, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Delta-vector from dilate counts via the alternating binomial transform."""
    d = s.dim
    frame = _budgeted_frame(s, d, budget)
    counts = [1] + [_count_dilate(frame, n, False) for n in range(1, d + 1)]
    return _delta_from_counts(counts, s.normalized_volume)


@dataclass(frozen=True)
class ReciprocityReport:
    """Verdict for interior(n) == (-1)^d closed(-n) over n = 1..d+1."""

    first_mismatch: tuple[int, int, int] | None
    table: EhrhartTable

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def reciprocity_check(s: Simplex, budget: int = DEFAULT_BUDGET) -> ReciprocityReport:
    """Compare directly counted interior points against the negated polynomial values.

    With the table's delta-vector, closed(n) = sum_i delta_i C(n - i + d, d), so
    (-1)^d closed(-n) = sum_i delta_i C(n + i - 1, d). A mismatch is (n, counted, predicted).
    """
    d = s.dim
    table = ehrhart_table(s, budget=budget)
    delta = table.delta
    for n in range(1, d + 2):
        predicted = sum(x * comb(n + i - 1, d) for i, x in enumerate(delta))
        counted = table.interior_counts[n - 1]
        if counted != predicted:
            return ReciprocityReport((n, counted, predicted), table)
    return ReciprocityReport(None, table)
