"""Gauss-Hermite quadrature for the weight exp(-x^2).

Nodes are the roots of the degree-n physicists' Hermite polynomial, computed
as eigenvalues of the symmetric Jacobi matrix and polished by Newton steps on
the orthonormal recurrence.  Weights come from the Christoffel formula

    w_i = exp(-x_i^2) / sum_{k<n} h_k(x_i)^2

with the denominator accumulated in the log domain, so rules stay usable up
to n = 2000 where the raw edge weights dip far below float range (the stored
``log_weights`` remain finite there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .hermite import _recurrence, log_abs_hermite_sumsq

__all__ = ["QuadratureRule", "gauss_hermite_rule", "QuadratureError"]

_MAX_ORDER = 2000
_NEWTON_MAX_ITER = 60
# rules kept by gauss_hermite_rule; one of order 2000 holds about 50 kB
_RULE_CACHE_SIZE = 64


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    """An n-point rule: integral f(x) exp(-x^2) dx ~ sum w_i f(x_i).

    ``weights`` are the raw weights (they may underflow to 0.0 at edge nodes
    of very large rules); ``log_weights`` always hold the exact log values.
    ``modified_weights`` fold the exp(+x^2) reweighting in, which is the
    well-conditioned form used by the coefficient transforms.
    """

    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray
    order: int

    def __post_init__(self):
        for name in ("nodes", "weights", "log_weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            getattr(self, name).setflags(write=False)

    @property
    def modified_weights(self) -> np.ndarray:
        """w_i * exp(x_i^2); O(1)-scaled for every node."""
        return np.exp(self.log_weights + self.nodes**2)


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def gauss_hermite_rule(n: int) -> QuadratureRule:
    """The n-point Gauss-Hermite rule, 1 <= n <= 2000, built once per order
    (rules are immutable) and shared by every caller.

    Raises QuadratureError naming the node index if a root fails to settle
    within the iteration budget.
    """
    if not 1 <= n <= _MAX_ORDER:
        raise ValueError(f"order must be in [1, {_MAX_ORDER}], got {n}")
    if n == 1:
        nodes = np.array([0.0])
    else:
        off = np.sqrt(np.arange(1, n) / 2.0)
        nodes = eigh_tridiagonal(np.zeros(n), off, eigvals_only=True)
        nodes = _polish(n, np.sort(nodes))
    # enforce exact symmetry about 0 (the set equals its negation)
    nodes = 0.5 * (nodes - nodes[::-1])
    if n % 2 == 1:
        nodes[n // 2] = 0.0
    log_w = -nodes**2 - log_abs_hermite_sumsq(n, nodes)
    log_w = 0.5 * (log_w + log_w[::-1])
    with np.errstate(under="ignore"):
        weights = np.exp(log_w)
    return QuadratureRule(nodes=nodes, weights=weights, log_weights=log_w, order=n)


def _polish(n: int, nodes: np.ndarray) -> np.ndarray:
    """Newton-polish eigenvalue roots of the orthonormal Hermite polynomial.

    The step is u_n / (sqrt(2n) u_{n-1}) where u follows the normalized
    recurrence; the common scale factor cancels in the ratio.
    """
    x = nodes.copy()
    active = np.ones(n, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        for u_last, u_prev, _ in _recurrence(n, x):
            pass
        with np.errstate(divide="ignore", invalid="ignore"):
            step = u_last / (math.sqrt(2.0 * n) * u_prev)
        step = np.where(np.isfinite(step), step, 0.0)
        x[active] -= step[active]
        active &= np.abs(step) > 1e-15 * np.maximum(1.0, np.abs(x))
        if not active.any():
            return x
    bad = int(np.nonzero(active)[0][0])
    raise QuadratureError(f"node {bad} of the {n}-point rule did not converge")
