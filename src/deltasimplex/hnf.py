"""Simplices spanned by a Hermite-style vertex matrix with one nontrivial row.

The family is parametrized by the normalized volume m, multiplicities
d_1, ..., d_{m-1}, and the ambient dimension: vertices are the origin, the
first dim-1 unit vectors, and one extra vertex whose coordinates list the
value j with multiplicity d_j, closing with m. Its delta-vector has the
closed form implemented by `closed_form_delta`, which makes the family the
workhorse for constructing witnesses with a prescribed delta-vector.
"""

from dataclasses import dataclass

from .constraints import least_prime_divisor
from .lattice import Simplex, _as_int


@dataclass(frozen=True)
class HNFSpec:
    """Parameters (m, d_1..d_{m-1}, dim); the multiplicities must fit in dim-1 slots."""

    m: int
    coeffs: tuple[int, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(_as_int, self.coeffs)))
        if _as_int(self.m) < 2:
            raise ValueError("volume m must be >= 2")
        if _as_int(self.dim) < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.coeffs) != self.m - 1:
            raise ValueError(f"expected {self.m - 1} coefficients, got {len(self.coeffs)}")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")
        if sum(self.coeffs) > self.dim - 1:
            raise ValueError("coefficient sum must be at most dim - 1")


def build_simplex(spec: HNFSpec) -> Simplex:
    """Vertices: origin, e_1..e_{dim-1}, and the coefficient-encoded last vertex."""
    d = spec.dim
    tail = []
    for j, mult in enumerate(spec.coeffs, start=1):
        tail.extend([j] * mult)
    tail.extend([0] * (d - 1 - len(tail)))
    tail.append(spec.m)
    vertices = [tuple([0] * d)]
    for i in range(d - 1):
        vertices.append(tuple(1 if k == i else 0 for k in range(d)))
    vertices.append(tuple(tail))
    simplex = Simplex(tuple(vertices))
    if simplex.normalized_volume != spec.m:
        raise AssertionError(f"{spec} built a simplex of volume {simplex.normalized_volume}")
    return simplex


def closed_form_delta(spec: HNFSpec) -> tuple[int, ...]:
    """Delta-vector of the family member, by the closed form.

    For i = 1..m-1 the exponent contributed is 1 - floor((i - t_i)/m), where
    t_i sums (i*j mod m) * d_j over j; the delta-vector is the multiset of
    these exponents, padded to length dim+1. At most dim-1 of the d_j are
    nonzero, so t_i sums over those only.
    """
    m, d = spec.m, spec.dim
    nonzero = [(j, mult) for j, mult in enumerate(spec.coeffs, start=1) if mult]
    delta = [0] * (d + 1)
    delta[0] = 1
    for i in range(1, m):
        t = sum((i * j) % m * mult for j, mult in nonzero)
        exponent = 1 - (i - t) // m
        if not 1 <= exponent <= d:
            raise ValueError(f"exponent {exponent} outside [1, {d}] for {spec}")
        delta[exponent] += 1
    return tuple(delta)


def nonprime_family(m: int) -> tuple[HNFSpec, tuple[int, ...]]:
    """Composite-volume member whose delta-vector breaks the prime-volume constraints.

    For composite m with least prime divisor g and q = m/g, dimension m+1 and
    a single multiplicity d_g = m produce delta_1 = g-1 and delta_i = g at
    i = g+1, 2g+1, ..., (q-1)g+1.
    """
    g = least_prime_divisor(m)
    if g == m:
        raise ValueError(f"{m} is prime; the family needs a composite volume")
    q = m // g
    dim = m + 1
    coeffs = tuple(m if j == g else 0 for j in range(1, m))
    spec = HNFSpec(m, coeffs, dim)

    predicted = [0] * (dim + 1)
    predicted[0] = 1
    predicted[1] = g - 1
    for j in range(1, q):
        predicted[j * g + 1] = g
    predicted = tuple(predicted)
    produced = closed_form_delta(spec)
    if produced != predicted:
        raise AssertionError(f"{spec} has delta-vector {produced}, not the predicted {predicted}")
    return spec, predicted
