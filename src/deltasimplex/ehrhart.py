"""Brute-force lattice-point counting in dilates of a simplex.

This is the independent ground truth for delta-vectors: count points of the
dilates, extract the delta-vector by the alternating binomial transform, and
check every closed and interior count against it, the latter by reciprocity.
One walk of the largest dilate asked for gives the closed and interior counts
of every smaller one. Nothing here shares code with the parallelepiped-group path.
"""

from dataclasses import dataclass, field
from math import comb

from .lattice import DEFAULT_BUDGET, Simplex, _as_int, row_hermite_form, within_budget


def cell_estimate(s: Simplex, n: int) -> int:
    """Bounding-box cell count of the n-th dilate (the budgeted work estimate)."""
    cells = 1
    for k in range(s.dim):
        coords = [v[k] for v in s.vertices]
        cells *= n * (max(coords) - min(coords)) + 1
    return cells


def count_lattice_points(
    s: Simplex, n: int, interior: bool = False, budget: int = DEFAULT_BUDGET
) -> int:
    """Exact number of lattice points in the n-th dilate (interior points if asked)."""
    if _as_int(n) < 1:
        raise ValueError("dilation factor must be >= 1")
    return _count_dilates(s, (n,), budget)[interior][0]


def _count_dilates(s, dilates, budget):
    """Closed and interior counts of each dilate in `dilates`, from one walk of the largest.

    Counts do not change under the integer translation by m*v_0, so the m-th
    dilate is counted with v_0 at the origin. A unimodular change of coordinates
    z = W @ x makes the edge matrix its row Hermite form H, upper triangular, so
    the scaled barycentric coordinates y = det * H^-1 @ z resolve one at a time,
    from level dim-1 down to 0: y_k = (det * z_k + partial[k]) / h[k][k], where
    `partial[k]` is -sum(h[k][j] * y_j) over the levels j > k fixed so far and
    `used` is their sum. Membership needs y >= 0 with sum(y) <= m*det. Only H is
    kept: W permutes the lattice. At level 0 the pivot det / h[0][0] divides m*det,
    so the fibre of y_0 holds max(0, m*h[0][0] + r) points with r free of m, and
    each leaf adds one to a histogram of r. The interior (every y >= 1, sum(y) <=
    m*det - 1) fills a second histogram at the leaves whose outer y are all >= 1.
    The outer levels and the budget's cell estimate cover the largest dilate; a
    leaf that a smaller one cannot reach adds 0 to its count.
    """
    within_budget(cell_estimate(s, max(dilates)), budget, "bounding-box cells")
    h = row_hermite_form(s.edge_matrix())
    det = s.normalized_volume  # the product of H's positive diagonal
    pivots = [det // h[k][k] for k in range(s.dim)]
    h00, pivot0, total = h[0][0], pivots[0], max(dilates) * det
    closed, interior = {}, {}

    def leaf(partial0, used, inside):
        affine = partial0 // h00
        r = (-used - affine) // pivot0 + affine // pivot0 + 1
        closed[r] = closed.get(r, 0) + 1
        if inside:
            r = (-1 - used - affine) // pivot0 + (affine - 1) // pivot0 + 1
            interior[r] = interior.get(r, 0) + 1

    def walk(k, partial, used, inside):
        # exact: y = adj(H) @ z is integral and h[k][k] divides det, so it divides partial[k]
        affine, pivot = partial[k] // h[k][k], pivots[k]
        for y in range(affine % pivot, total - used + 1, pivot):
            if k > 1:
                walk(k - 1, [partial[i] - h[i][k] * y for i in range(k)], used + y, inside and y > 0)
            else:
                leaf(partial[0] - h[0][1] * y, used + y, inside and y > 0)

    if s.dim == 1:
        leaf(0, 0, True)
    else:
        walk(s.dim - 1, [0] * s.dim, 0, True)
    return tuple(
        tuple(sum(c * max(0, m * h00 + r) for r, c in hist.items()) for m in dilates)
        for hist in (closed, interior)
    )


def _delta_from_counts(s: Simplex, counts, interior) -> tuple[int, ...]:
    """Delta-vector from the closed counts of dilates 0..d, checked against every count.

    The alternating binomial transform gives the delta-vector. It predicts the closed
    count of dilate n = 1, 2, ... as L(n) = sum_i delta_i C(n - i + d, d), a check
    only counts past d can fail, and by reciprocity the interior count as (-1)^d L(-n) =
    sum_i delta_i C(n + i - 1, d); a disagreement names (n, counted, predicted).
    """
    d = s.dim
    delta = tuple(
        sum((-1) ** j * comb(d + 1, j) * counts[i - j] for j in range(i + 1))
        for i in range(d + 1)
    )
    if delta[0] != 1 or min(delta) < 0 or sum(delta) != s.normalized_volume:
        raise AssertionError(f"dilate counts give delta-vector {delta}, volume {s.normalized_volume}")
    for n, (closed, counted) in enumerate(zip(counts[1:], interior), start=1):
        predicted = sum(x * comb(n - i + d, d) for i, x in enumerate(delta))
        if closed != predicted:
            raise AssertionError(f"closed count fails at (n, counted, predicted) = {(n, closed, predicted)}")
        predicted = sum(x * comb(n + i - 1, d) for i, x in enumerate(delta))
        if counted != predicted:
            raise AssertionError(f"reciprocity fails at (n, counted, predicted) = {(n, counted, predicted)}")
    return delta


@dataclass(frozen=True)
class EhrhartTable:
    """Counts of the dilates: closed for n = 0..d+1, interior for n = 1..d+1; `delta` is derived."""

    simplex: Simplex
    counts: tuple[int, ...]
    interior_counts: tuple[int, ...]
    delta: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        d = self.simplex.dim
        counts, interior = self.counts, self.interior_counts
        if len(counts) != d + 2 or len(interior) != d + 1:
            raise AssertionError(f"{d}-simplex table of lengths {len(counts)}, {len(interior)}")
        if any(interior[i] > counts[i + 1] for i in range(d + 1)):
            raise AssertionError(f"interior counts {interior} exceed closed counts {counts[1:]}")
        delta = _delta_from_counts(self.simplex, counts, interior)
        object.__setattr__(self, "delta", delta)


def ehrhart_table(s: Simplex, budget: int = DEFAULT_BUDGET) -> EhrhartTable:
    """Count closed and interior lattice points of the dilates n = 0..d+1."""
    closed, interior = _count_dilates(s, range(1, s.dim + 2), budget)
    return EhrhartTable(s, (1,) + closed, interior)


def ehrhart_delta(s: Simplex, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Delta-vector from dilate counts via the alternating binomial transform, checked by reciprocity."""
    closed, interior = _count_dilates(s, range(1, s.dim + 1), budget)
    return _delta_from_counts(s, (1,) + closed, interior)
