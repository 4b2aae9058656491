"""Finite Hermite coefficient tensors and the transforms to/from samples.

A HermiteSeries is a sparse map from multi-indices alpha (|alpha| <= M) to
complex coefficients; absent indices are zero.  ``analyze`` projects a
callable onto the basis by tensor Gauss-Hermite quadrature and ``synthesize``
evaluates the series pointwise.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy.special import gammaln

from .hermite import hermite_matrix
from .quadrature import gauss_hermite_rule

__all__ = ["MultiIndex", "HermiteSeries", "analyze", "synthesize", "synthesize_many",
           "default_quad_order"]


class MultiIndex(tuple):
    """A d-tuple of nonnegative integers; hashes/compares like a plain tuple."""

    def __new__(cls, entries: Iterable[int]):
        vals = tuple(int(e) for e in entries)
        if not vals:
            raise ValueError("a multi-index needs at least one entry")
        if any(e < 0 for e in vals):
            raise ValueError(f"entries must be nonnegative, got {vals}")
        return super().__new__(cls, vals)

    @property
    def order(self) -> int:
        """|alpha| = sum of the entries."""
        return sum(self)

    @property
    def log_factorial(self) -> float:
        """log(alpha!) = sum_i log(entries_i!); finite and >= 0."""
        return float(sum(gammaln(e + 1) for e in self))

    @property
    def dimension(self) -> int:
        return len(self)


def _as_index(alpha, dimension: int) -> MultiIndex:
    idx = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha if hasattr(alpha, "__iter__") else (alpha,))
    if len(idx) != dimension:
        raise ValueError(f"index {tuple(idx)} does not have dimension {dimension}")
    return idx


@dataclass(frozen=True)
class HermiteSeries:
    """Finite tensor of Hermite coefficients.

    ``truncation_tag`` records how the series was produced ("exact" for
    synthetic coefficient data, "quadrature(n=...)" for analyzed samples).
    """

    dimension: int
    max_degree: int
    coefficients: Mapping
    truncation_tag: str = "exact"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        clean = {}
        for alpha, c in self.coefficients.items():
            idx = _as_index(alpha, self.dimension)
            if idx.order > self.max_degree:
                raise ValueError(f"index {tuple(idx)} exceeds max degree {self.max_degree}")
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at index {tuple(idx)} is not finite")
            clean[idx] = c
        object.__setattr__(self, "coefficients", MappingProxyType(clean))

    def coefficient(self, alpha) -> complex:
        """Stored coefficient, zero for absent indices."""
        return self.coefficients.get(_as_index(alpha, self.dimension), 0.0 + 0.0j)

    def items(self):
        return self.coefficients.items()

    def __len__(self) -> int:
        return len(self.coefficients)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients.values())

    def scaled(self, factor: complex) -> "HermiteSeries":
        return HermiteSeries(
            dimension=self.dimension,
            max_degree=self.max_degree,
            coefficients={a: c * factor for a, c in self.items()},
            truncation_tag=self.truncation_tag,
        )

    def parseval_sum(self) -> float:
        """Sum |c_alpha|^2 over stored indices (plain float; may underflow)."""
        return float(sum(abs(c) ** 2 for c in self.coefficients.values()))

    def degrees_per_axis(self) -> tuple:
        """Largest entry per coordinate among stored indices."""
        if not self.coefficients:
            return (0,) * self.dimension
        return tuple(max(a[i] for a in self.coefficients) for i in range(self.dimension))


def default_quad_order(max_degree: int) -> int:
    """Rule-of-thumb quadrature order when the caller does not pick one."""
    return max_degree + 8


def analyze(f: Callable, dimension: int, max_degree: int,
            quad_order: int | None = None) -> HermiteSeries:
    """Project a callable on R^d onto Hermite coefficients c_alpha, |alpha| <= M.

    ``f`` receives a flat array of points for dimension 1, or an array of
    shape (npoints, d) otherwise, and must return the matching array of
    (possibly complex) values.  The tensor Gauss-Hermite rule is applied to
    f * h_alpha with the exp(+x^2) reweighting folded into the weights.
    Tensor cost grows as n^d; dimensions above 3 are refused.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if dimension > 3:
        raise ValueError("tensor quadrature is limited to dimension <= 3")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    n = default_quad_order(max_degree) if quad_order is None else int(quad_order)
    if n < max_degree + 1:
        raise ValueError(f"quadrature order {n} < max_degree + 1 = {max_degree + 1}")
    rule = gauss_hermite_rule(n)
    hmat = hermite_matrix(max_degree, rule.nodes)      # (M+1, n)
    wmod = rule.modified_weights

    axes = [rule.nodes] * dimension
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)  # (n^d, d)
    vals = np.asarray(f(pts[:, 0] if dimension == 1 else pts))
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"f returned shape {vals.shape}, expected ({pts.shape[0]},)")
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        bad = int(np.nonzero(~(np.isfinite(vals.real) & np.isfinite(vals.imag)))[0][0])
        raise ValueError(f"non-finite sample value at node {tuple(pts[bad])}")
    vals = vals.astype(complex).reshape([n] * dimension)

    weighted = vals
    for axis in range(dimension):
        shape = [1] * dimension
        shape[axis] = n
        weighted = weighted * wmod.reshape(shape)

    # contract each axis with the Hermite matrix: C[k1..kd] = sum_q H[k,q] ...
    tensor = weighted
    for axis in range(dimension):
        tensor = np.tensordot(hmat, tensor, axes=([1], [dimension - 1]))
        # tensordot moves the contracted axis to the front; after d rounds
        # the axes are back in order
    coeffs = {}
    for alpha in product(range(max_degree + 1), repeat=dimension):
        if sum(alpha) <= max_degree:
            c = complex(tensor[alpha])
            if c != 0:  # absent indices are implicitly zero; f = 0 gives {}
                coeffs[MultiIndex(alpha)] = c
    return HermiteSeries(dimension=dimension, max_degree=max_degree,
                         coefficients=coeffs, truncation_tag=f"quadrature(n={n})")


def synthesize(series: HermiteSeries, x) -> complex:
    """Evaluate sum_alpha c_alpha h_alpha at one point of R^d."""
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.size != series.dimension:
        raise ValueError(f"point has length {pt.size}, series dimension is {series.dimension}")
    return complex(synthesize_many(series, pt.reshape(1, -1))[0])


def synthesize_many(series: HermiteSeries, points) -> np.ndarray:
    """Vectorized synthesis at many points.

    ``points`` is a flat array for dimension 1 or shape (npoints, d) in
    general; returns a complex array of length npoints.
    """
    d = series.dimension
    pts = np.asarray(points, dtype=float)
    if d == 1 and pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must have shape (n, {d}), got {pts.shape}")
    if not series.coefficients:
        return np.zeros(pts.shape[0], dtype=complex)
    degs = series.degrees_per_axis()
    mats = [hermite_matrix(degs[i], pts[:, i]) for i in range(d)]
    out = np.zeros(pts.shape[0], dtype=complex)
    for alpha, c in series.items():
        term = mats[0][alpha[0]]
        for i in range(1, d):
            term = term * mats[i][alpha[i]]
        out += c * term
    return out
