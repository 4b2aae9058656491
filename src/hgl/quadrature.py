"""Gauss-Hermite quadrature for the weight exp(-x^2).

Nodes are the roots of the degree-n physicists' Hermite polynomial.  They are
the eigenvalues of the Jacobi matrix J, zero on the diagonal with
J_{i,i+1} = sqrt((i+1)/2), so they come in pairs +-x.  J^2 splits into its
even- and odd-index blocks, and the odd-index block, tridiagonal of size n//2,
has exactly the squares of the positive nodes as eigenvalues:

    diagonal      (2i+1)/2 for odd rows i of J, except (n-1)/2 in row n-1
    off-diagonal  sqrt((i+1)(i+2))/2

So one eigenproblem of half the size gives the positive half, one Newton
pass over the orthonormal recurrence polishes it to float resolution (odd n
adds the exact root x = 0), and the negative half is its mirror image, which
makes every rule exactly symmetric.

Weights come from the Christoffel-Darboux identity: at a root of h_n,
sum_{k<n} h_k(x)^2 = n h_{n-1}(x)^2, so

    log w_i = -x_i^2 - log n - 2 log|h_{n-1}(x_i)|

with h_{n-1} read off the last Newton pass in the log domain.  Rules stay
usable up to n = 2000, where the raw edge weights dip far below float range
(the stored ``log_weights`` remain finite there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .hermite import _recurrence

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
    half = n // 2
    x = np.zeros(n - half)  # odd n: x[0] = 0 is the middle root
    if half:
        rows = np.arange(1.0, 2 * half, 2.0)  # the odd rows of J
        diag = (2.0 * rows + 1.0) / 2.0
        if n % 2 == 0:
            diag[-1] = (n - 1) / 2.0
        off = np.sqrt((rows[:-1] + 1.0) * (rows[:-1] + 2.0)) / 2.0
        x[n % 2:] = np.sqrt(eigh_tridiagonal(diag, off, eigvals_only=True))
    x, log_h = _polish(n, x)
    log_w = -x * x - math.log(n) - 2.0 * log_h
    nodes = np.concatenate((-x[::-1][:half], x))
    log_w = np.concatenate((log_w[::-1][:half], log_w))
    with np.errstate(under="ignore"):
        weights = np.exp(log_w)
    return QuadratureRule(nodes=nodes, weights=weights, log_weights=log_w, order=n)


def _polish(n: int, x: np.ndarray):
    """Newton-polish the nonnegative roots x of h_n; return them with
    log|h_{n-1}| at each polished root.

    The step is u_n / (sqrt(2n) u_{n-1}) where u follows the normalized
    recurrence; the common scale factor cancels in the ratio.  It is Newton's
    step H_n / H_n' on the polynomial, and H_n'' = 2x H_n' at a root, so the
    error left after a step is about |x| step^2 <= sqrt(2n) step^2 (every
    root has |x| < sqrt(2n)).  A root is accepted once that bound is at most
    2^-53 max(1, |x|), under one ulp of max(1, |x|).  From the eigenvalue
    starts the first steps are below 2e-12 max(1, |x|), so every order takes
    one pass.  Each pass runs the recurrence on the roots still moving.  A
    root's h_{n-1} comes from its last pass and is carried across that
    pass's step to first order, with
    h'_{n-1} = x h_{n-1} - sqrt(2n) h_n (the ladder relation, h_{n-2} taken
    from the recurrence).
    """
    x = x.copy()
    log_h = np.empty_like(x)
    active = np.arange(x.size)
    root_2n = math.sqrt(2.0 * n)
    for _ in range(_NEWTON_MAX_ITER):
        xa = x[active]
        for u_last, u_prev, log_scale, _ in _recurrence(n, xa):
            pass
        with np.errstate(divide="ignore", invalid="ignore"):
            step = u_last / (root_2n * u_prev)
        step = np.where(np.isfinite(step), step, 0.0)
        x[active] = xa - step
        moving = root_2n * step * step > 2.0**-53 * np.maximum(1.0, np.abs(x[active]))
        done = ~moving
        d = step[done]
        log_h[active[done]] = (log_scale[done] + np.log(np.abs(u_prev[done]))
                               + np.log1p(-d * (xa[done] - 2.0 * n * d)))
        active = active[moving]
        if not active.size:
            return x, log_h
    # the failing set is symmetric; name its first node in the full rule
    bad = x.size - 1 - int(active[-1])
    raise QuadratureError(f"node {bad} of the {n}-point rule did not converge")
