"""Wreath-product structure of centralizers in S_n and their abelianizations.

The centralizer of a permutation with λ_i cycles of length i is the direct
product over i of the wreath products C_i wr S_{λ_i}.  Its abelianization is
a product of small cyclic groups whose order γ depends only on the cycle
type; γ is the number of one-dimensional characters of the centralizer.
The cyclic factors come from ``perm.class_invariants``, the one place that
states their rule; ``abelianization_invariants`` and ``gamma`` read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .perm import (
    CycleType,
    Permutation,
    class_invariants,
    compose,
    cycle_decomposition,
    inverse,
)


@dataclass(frozen=True)
class WreathElement:
    """An element of C_l wr S_m in additive coordinates.

    ``base[i - 1]`` is the residue mod ``base_order`` carried by coordinate i
    (the cyclic factor written additively); ``top`` permutes the m coordinates.
    """

    base_order: int
    degree: int
    base: tuple[int, ...]
    top: Permutation

    def __post_init__(self) -> None:
        if self.base_order < 1 or self.degree < 1:
            raise ValueError("base_order and degree must be positive")
        if len(self.base) != self.degree or self.top.n != self.degree:
            raise ValueError(f"need {self.degree} base residues and a top permutation of 1..{self.degree}")
        if any(not 0 <= b < self.base_order for b in self.base):
            raise ValueError(f"base residues must lie in [0, {self.base_order})")


def wreath_identity(base_order: int, degree: int) -> WreathElement:
    return WreathElement(base_order, degree, (0,) * degree, Permutation.identity(degree))


def wreath_multiply(a: WreathElement, b: WreathElement) -> WreathElement:
    """(f, θ)·(f', θ') = ((f_i + f'_{θ⁻¹(i)})_i, θθ')."""
    if (a.base_order, a.degree) != (b.base_order, b.degree):
        raise ValueError("wreath parameters differ")
    theta_inv = inverse(a.top)
    base = tuple(
        (a.base[i] + b.base[theta_inv(i + 1) - 1]) % a.base_order
        for i in range(a.degree)
    )
    return WreathElement(a.base_order, a.degree, base, compose(a.top, b.top))


def wreath_inverse(a: WreathElement) -> WreathElement:
    """(f, θ)⁻¹ = ((-f_{θ(i)})_i, θ⁻¹)."""
    base = tuple((-a.base[a.top(i + 1) - 1]) % a.base_order for i in range(a.degree))
    return WreathElement(a.base_order, a.degree, base, inverse(a.top))


def _cycle_grid(tau: Permutation) -> tuple[list[tuple[int, ...]], int]:
    """Anchored point grid of tau: row i lists tau^j(anchor_i) for j = 0..l-1.

    tau must be a product of disjoint cycles of one common length l >= 2;
    anchors are the smallest points per cycle, rows ordered by anchor.
    """
    rows = [c for c in cycle_decomposition(tau) if len(c) > 1]
    if not rows:
        raise ValueError("tau has empty support; wreath coordinates are undefined")
    lengths = {len(row) for row in rows}
    if len(lengths) != 1:
        raise ValueError(f"tau must have cycles of a single length, found lengths {sorted(lengths)}")
    return rows, lengths.pop()


def wreath_decompose(rho: Permutation, tau: Permutation) -> WreathElement:
    """Coordinates of rho under the isomorphism Z_tau ≅ C_l wr S_m.

    tau must be a product of m disjoint l-cycles and rho a centralizing
    permutation supported on tau's support (the identity elsewhere).  With
    the anchored labelling a(i, j) = tau^j(anchor_i), the coordinates are
    read off from rho⁻¹(a(i, 0)) = a(θ⁻¹(i), f_i).
    """
    if rho.n != tau.n:
        raise ValueError(f"size mismatch: {rho.n} vs {tau.n}")
    if compose(rho, tau) != compose(tau, rho):
        raise ValueError("rho does not centralize tau")
    grid, base_order = _cycle_grid(tau)
    degree = len(grid)
    label: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(grid):
        for j, point in enumerate(row):
            label[point] = (i, j)
    for point in range(1, rho.n + 1):
        if point not in label and rho(point) != point:
            raise ValueError(f"rho moves point {point} outside tau's support")
    rho_inv = inverse(rho)
    base = [0] * degree
    top_inv_images = [0] * degree
    for i, row in enumerate(grid):
        j, k = label[rho_inv(row[0])]
        top_inv_images[i] = j + 1
        base[i] = k
    top = inverse(Permutation(tuple(top_inv_images)))
    return WreathElement(base_order, degree, tuple(base), top)


def wreath_compose(w: WreathElement, tau: Permutation) -> Permutation:
    """Two-sided inverse of wreath_decompose: the centralizing permutation
    with the given coordinates, fixing every point outside tau's support."""
    grid, base_order = _cycle_grid(tau)
    if (w.base_order, w.degree) != (base_order, len(grid)):
        raise ValueError(
            f"wreath parameters ({w.base_order}, {w.degree}) do not match tau's ({base_order}, {len(grid)})"
        )
    images = list(range(1, tau.n + 1))
    for j in range(w.degree):
        i = w.top(j + 1) - 1
        shift = w.base[i]
        for r in range(base_order):
            images[grid[j][(shift + r) % base_order] - 1] = grid[i][r]
    return Permutation(tuple(images))


@dataclass(frozen=True)
class AbelianInvariants:
    """Cyclic factors of the abelianized centralizer, in the order
    ``perm.class_invariants`` gives them; the product of the factors is γ."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.factors and min(self.factors) < 2:
            raise ValueError("factors must all be >= 2")

    def order(self) -> int:
        return prod(self.factors)

    def __str__(self) -> str:
        return "x".join(map(str, self.factors)) if self.factors else "1"


def abelianization_invariants(lam: CycleType) -> AbelianInvariants:
    return AbelianInvariants(class_invariants(lam)[1])


@lru_cache(maxsize=None)
def gamma(lam: CycleType) -> int:
    """Number of one-dimensional characters of the centralizer of the class:
    the order of its abelianization, the product of the factors that
    ``perm.class_invariants`` gives."""
    return prod(class_invariants(lam)[1])
