"""Finite Hermite coefficient tensors and the transforms to/from samples.

A HermiteSeries is a sparse map from multi-indices alpha (|alpha| <= M) to
complex coefficients, stored as one index array and one value array; absent
indices are zero.  ``analyze`` projects a callable onto the basis by tensor
Gauss-Hermite quadrature and ``synthesize`` evaluates the series pointwise.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable

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


class _Coefficients(Mapping):
    """Read-only alpha -> c view of an index array and a value array."""

    def __init__(self, indices, values):
        self._idx, self._vals, self._rows = indices, values, None

    def __getitem__(self, alpha):
        if np.shape(alpha) == self._idx.shape[1:]:
            if self._rows is None:  # row -> position, built on the first lookup
                self._rows = {row: i for i, row in enumerate(map(tuple, self._idx.tolist()))}
            i = self._rows.get(tuple(np.asarray(alpha).tolist()))
            if i is not None:
                return self._vals.item(i)
        raise KeyError(alpha)

    def __iter__(self):  # rows are validated, so MultiIndex's checks are skipped
        return map(tuple.__new__, repeat(MultiIndex), self._idx.tolist())

    def __len__(self) -> int:
        return len(self._vals)

    def items(self):  # one pass over the arrays instead of a lookup per key
        return list(zip(self, self._vals.tolist()))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class HermiteSeries:
    """Finite tensor of Hermite coefficients.

    Entries are kept in the order given, as a read-only (n, d) int64 array
    ``indices`` and a read-only (n,) complex array ``values``;
    ``coefficients`` is a read-only mapping view of the two.
    ``truncation_tag`` records how the series was produced ("exact" for
    synthetic coefficient data, "quadrature(n=...)" for analyzed samples).
    """

    dimension: int
    max_degree: int
    coefficients: Mapping
    truncation_tag: str = "exact"

    def __post_init__(self):
        d, M = self.dimension, self.max_degree
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if M < 0:
            raise ValueError("max_degree must be >= 0")
        entries = self.coefficients
        if isinstance(entries, _Coefficients):
            idx, vals = entries._idx, entries._vals
        else:
            idx, vals = [_as_index(alpha, d) for alpha in entries], list(entries.values())
        # copies: the arrays of a series are its own
        idx = np.array(idx, dtype=np.int64).reshape(-1, d)
        vals = np.array(vals, dtype=complex)
        if vals.shape != idx.shape[:1]:
            raise ValueError(f"{idx.shape[0]} indices of dimension {d} do not match "
                             f"values of shape {vals.shape}")
        for bad, message in (((idx < 0).any(axis=1), "entries must be nonnegative, got {}"),
                             (idx.sum(axis=1) > M, f"index {{}} exceeds max degree {M}"),
                             (~np.isfinite(vals), "coefficient at index {} is not finite")):
            if bad.any():
                raise ValueError(message.format(tuple(idx[np.argmax(bad)].tolist())))
        order = np.lexsort(idx.T[::-1])
        repeats = (idx[order[1:]] == idx[order[:-1]]).all(axis=1)
        if repeats.any():
            # the sort is stable: each repeat lands after the entry it repeats
            later = int(order[1:][repeats].min())
            raise ValueError(f"entry {later} repeats alpha {idx[later].tolist()}")
        idx.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "coefficients", _Coefficients(idx, vals))

    @classmethod
    def from_arrays(cls, dimension: int, max_degree: int, indices, values,
                    truncation_tag: str = "exact") -> "HermiteSeries":
        """Series of the entries indices[i] -> values[i], shapes (n, d) and (n,)."""
        return cls(dimension, max_degree, _Coefficients(indices, values), truncation_tag)

    @property
    def indices(self) -> np.ndarray:
        return self.coefficients._idx

    @property
    def values(self) -> np.ndarray:
        return self.coefficients._vals

    def coefficient(self, alpha) -> complex:
        """Stored coefficient, zero for absent indices."""
        return self.coefficients.get(_as_index(alpha, self.dimension), 0.0 + 0.0j)

    def items(self):
        return self.coefficients.items()

    def __len__(self) -> int:
        return len(self.coefficients)

    @property
    def is_zero(self) -> bool:
        return not self.values.any()

    def scaled(self, factor: complex) -> "HermiteSeries":
        return HermiteSeries.from_arrays(self.dimension, self.max_degree, self.indices,
                                         self.values * factor, self.truncation_tag)

    def degrees_per_axis(self) -> tuple:
        """Largest entry per coordinate among stored indices (0 when none)."""
        return tuple(self.indices.max(axis=0, initial=0).tolist())

    def dense(self) -> np.ndarray:
        """Coefficients as a dense complex array of shape (deg_i + 1 for each axis)."""
        out = np.zeros(tuple(k + 1 for k in self.degrees_per_axis()), dtype=complex)
        out[tuple(self.indices.T)] = self.values
        return out


def _degree_mask(max_degree: int, dimension: int) -> np.ndarray:
    """|alpha| <= max_degree on the cube {0..max_degree}^dimension."""
    return np.indices((max_degree + 1,) * dimension).sum(axis=0) <= max_degree


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
    keep = _degree_mask(max_degree, dimension) & (tensor != 0)  # f = 0 gives no entries
    return HermiteSeries.from_arrays(dimension, max_degree, np.argwhere(keep), tensor[keep],
                                     f"quadrature(n={n})")


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
    dense = series.dense()
    rows = [hermite_matrix(k - 1, pts[:, i]) for i, k in enumerate(dense.shape)]
    # out[p] = sum_alpha dense[alpha] prod_i rows[i][alpha_i, p], one pass per
    # point with no intermediate array
    operands = [dense, list(range(d))]
    for i, r in enumerate(rows):
        operands += [r, [i, d]]
    return np.einsum(*operands, [d])
