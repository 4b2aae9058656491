"""Stable evaluation of L2-orthonormal Hermite functions.

The functions h_k are normalized so that {h_k} is orthonormal in L2(R) and
(x^2 - d^2/dx^2) h_k = (2k + 1) h_k.  Evaluation uses the three-term
recurrence

    h_{k+1}(x) = x sqrt(2/(k+1)) h_k(x) - sqrt(k/(k+1)) h_{k-1}(x)

seeded with h_0(x) = pi^{-1/4} exp(-x^2/2).  A running rescale keeps the
recurrence meaningful even where the seed underflows float64 (large |x|,
large k), so values are accurate for k up to 10^4 and |x| up to 50.

One kernel, ``_recurrence``, holds the recurrence and its rescale; point
values, basis rows, Christoffel sums and the Newton steps and weights of the
Gauss-Hermite rules are all read off it.  It runs each step in place on
three buffers and checks for a rescale only once a scalar bound on the values
passes half the threshold, so most steps cost four array operations.  The
arrays it yields are overwritten by later steps, and a flag tells consumers
when the log scale changed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["hermite_eval", "hermite_eval_multi", "hermite_matrix", "hermite_derivative_rows"]

_LOG_PI_QUARTER = 0.25 * math.log(math.pi)
_RESCALE_AT = 1e120


def _recurrence(kmax: int, x: np.ndarray):
    """Yield (u_k, u_{k-1}, log_scale, rescaled) for k = 0..kmax, with
    h_k = u_k exp(log_scale); ``rescaled`` says that log_scale changed at
    this step (always at k = 0).

    Whenever |u_k| passes _RESCALE_AT the pair is divided by |u_k| and the
    factor moves into log_scale.  The exact check costs two array passes, so
    it is gated: ``top`` bounds max|u_k| through the recurrence itself,
    |u_{k+1}| <= max|x| a_k top_k + b_k top_{k-1}, and the check runs only
    once that bound passes _RESCALE_AT / 2.  Rounding is monotone, so the
    bound computed in the same operation order holds in floating point too;
    the factor 2 is spare margin.  NaN points are never rescaled and a NaN
    bound always runs the check.

    Each step runs in place on three buffers: u_{k+1} is written over
    u_{k-1}, the two value buffers swap roles, and the third holds the
    intermediate products.  So the yielded arrays are overwritten by later
    steps: read them before advancing.
    """
    log_scale = -0.5 * x * x - _LOG_PI_QUARTER
    u_prev = np.zeros_like(x)
    u = np.ones_like(x)
    t = np.empty_like(x)
    xmax = float(np.fmax.reduce(np.abs(x), initial=0.0))
    top, top_prev = 1.0, 0.0  # bounds on max|u|, max|u_prev|
    yield u, u_prev, log_scale, True
    for k in range(kmax):
        a, b = math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))
        # u_{k+1} = (x a) u_k - b u_{k-1}, written over u_{k-1}
        np.multiply(x, a, out=t)
        np.multiply(t, u, out=t)
        np.multiply(u_prev, b, out=u_prev)
        np.subtract(t, u_prev, out=u_prev)
        u_prev, u = u, u_prev
        top, top_prev = xmax * a * top + b * top_prev, top
        rescaled = False
        if not top <= 0.5 * _RESCALE_AT:
            np.abs(u, out=t)
            top = float(np.fmax.reduce(t, initial=0.0))
            if top > _RESCALE_AT:
                big = t > _RESCALE_AT
                s = t[big]
                log_scale[big] += np.log(s)
                u[big] /= s
                u_prev[big] /= s
                rescaled = True
                top = _RESCALE_AT  # entries left alone are <= it, the rest are 1
        yield u, u_prev, log_scale, rescaled


def hermite_eval(k: int, x: float) -> float:
    """Value of the orthonormal Hermite function h_k at a real point: the last
    entry of ``hermite_matrix(k, [x])`` (0.0 where h_k(x) underflows float64)."""
    return float(hermite_matrix(k, [x])[k, 0])


def hermite_eval_multi(alpha, x) -> float:
    """Tensor-product Hermite function: prod_i h_{alpha_i}(x_i)."""
    alpha = tuple(int(a) for a in alpha)
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if len(alpha) != pt.size:
        raise ValueError(f"index has length {len(alpha)} but point has length {pt.size}")
    return math.prod((hermite_eval(a, xi) for a, xi in zip(alpha, pt.tolist())), start=1.0)


def hermite_matrix(kmax: int, x) -> np.ndarray:
    """All h_k(x) for k = 0..kmax at the points x, shape (kmax+1, len(x)).

    The workhorse behind the transforms and the grid norms.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points must be finite")
    out = np.empty((kmax + 1, pts.size))
    for k, (u, _, log_scale, rescaled) in enumerate(_recurrence(kmax, pts)):
        if rescaled:
            scale = np.exp(log_scale)
        np.multiply(u, scale, out=out[k])
    return out


def hermite_derivative_rows(kmax: int, x):
    """(h_k, h_k', h_k'') for k = 0..kmax at the points x, each (kmax+1, len(x)).

    Exact, from one recurrence pass to kmax + 1:

        h_k'  = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}
        h_k'' = (x^2 - 2k - 1) h_k

    (the ladder relations and the eigen-equation of the oscillator).
    """
    full = hermite_matrix(kmax + 1, x)
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(kmax + 1, dtype=float)[:, None]
    vals = full[:-1]
    first = -np.sqrt((k + 1.0) / 2.0) * full[1:]
    first[1:] += np.sqrt(k[1:] / 2.0) * full[:-2]
    second = (pts * pts - 2.0 * k - 1.0) * vals
    return vals, first, second


def log_abs_hermite_sumsq(n: int, x) -> np.ndarray:
    """log( sum_{k<n} h_k(x)^2 ) per point, fully in the log domain.

    The inverse Christoffel function at any x.  The sum spans hundreds of
    orders of magnitude at large |x| and n, so it is accumulated as a running
    log-sum-exp alongside the rescaled recurrence.  Gauss-Hermite rules do
    not call it: at their nodes the Christoffel-Darboux identity reduces the
    sum to n h_{n-1}(x)^2 (see quadrature.py).
    """
    if n < 1:
        raise ValueError(f"need at least one term, got n={n}")
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    terms = _recurrence(n - 1, pts)
    _, _, log_scale, _ = next(terms)
    # running log of sum h_k^2; term k contributes 2*(log_scale + log|u|)
    acc = 2.0 * log_scale  # k = 0 term, u = 1
    for u, _, log_scale, _ in terms:
        with np.errstate(divide="ignore"):
            term = 2.0 * (log_scale + np.log(np.abs(u)))
        hi = np.maximum(acc, term)
        lo = np.minimum(acc, term)
        acc = hi + np.log1p(np.exp(lo - hi))
    return acc
