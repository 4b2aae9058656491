"""Spectral calculus for the harmonic oscillator |x|^2 - Laplacian.

The oscillator is diagonal in the Hermite basis with eigenvalue 2|alpha| + d,
so powers act coefficientwise.  L2 norms are Parseval sums accumulated in the
log domain.  L^p and sup norms of H^N f are norms of Phi diag(lambda^N) c on a
grid: the basis rows Phi are built once per grid and each power is a
log-scaled contraction with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import hermite_derivative_rows, hermite_matrix
from .series import HermiteSeries, MultiIndex
from .quadrature import gauss_hermite_rule

__all__ = ["NormSequence", "GridSpec", "GridError", "apply_H", "l2_norm", "lp_norm",
           "norm_sequence", "stirling_bounds", "turning_point_extent"]


class GridError(ValueError):
    """Evaluation grid too coarse for the series' oscillation scale."""


@dataclass(frozen=True)
class GridSpec:
    """Controls for the numerical L^p evaluation.

    ``step``/``padding`` shape the uniform grid used by the sup norm
    (defaults resolve each oscillation of the highest Hermite mode several
    times over); ``quad_order`` overrides the Gauss-Hermite order used for
    finite p.
    """

    step: float | None = None
    padding: float = 6.0
    quad_order: int | None = None


@dataclass(frozen=True)
class NormSequence:
    """log ||H^N f|| for strictly increasing powers N, as read-only arrays.

    ``powers`` holds the N (int) and ``logs`` the natural log of each norm
    (float, -inf for a zero norm).  ``max_degree`` records the degree cutoff
    of the series the norms came from; radius fits use it to evaluate the
    canonical comparison family at the same truncation.  ``norm_kind`` names
    the norm: "l2", "linf", "lp:<p>" or "mod:<p>,<q>,<weight>".
    """

    dimension: int
    max_degree: int
    norm_kind: str
    powers: np.ndarray
    logs: np.ndarray

    def __post_init__(self):
        powers = np.array(self.powers, dtype=np.int64)
        logs = np.array(self.logs, dtype=float)
        if powers.ndim != 1 or powers.shape != logs.shape:
            raise ValueError("powers and logs must be 1-d arrays of one length")
        if np.any(np.diff(powers) <= 0):
            raise ValueError("N values must be strictly increasing")
        if np.isnan(logs).any():
            raise ValueError("log norms must not be NaN")
        for name, arr in (("powers", powers), ("logs", logs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def orders(self) -> np.ndarray:
        return self.powers

    def log_norms(self) -> np.ndarray:
        return self.logs


def turning_point_extent(max_degree: int, dimension: int, padding: float = 6.0) -> float:
    """Half-width sqrt(2M) + padding covering the classically allowed region."""
    return math.sqrt(2.0 * max_degree) + padding


def apply_H(series: HermiteSeries, power: int) -> HermiteSeries:
    """Multiply each coefficient by (2|alpha| + d)^power.

    The integer eigenvalue is applied one factor at a time, so composing
    powers performs the identical operation sequence as the combined power:
    apply_H(apply_H(s, a), b) == apply_H(s, a + b) bitwise.  A log-domain
    check guards float overflow up front (use the log-domain norm routines
    for extreme powers).  Zero coefficients are left as stored.
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    if power == 0:
        return series
    logs, log_lam, nonzero = _log_coeff_arrays(series)
    over = logs + power * log_lam > 700.0
    if over.any():
        alpha = tuple(series.indices[nonzero][np.argmax(over)].tolist())
        raise OverflowError(f"coefficient at {alpha} overflows for power {power}; "
                            "use log-domain norms instead")
    lam = (2 * series.indices.sum(axis=1)[nonzero] + series.dimension).astype(float)
    powered = series.values[nonzero]
    for _ in range(power):
        powered = powered * lam
    values = series.values.copy()
    values[nonzero] = powered
    return HermiteSeries.from_arrays(series.dimension, series.max_degree, series.indices,
                                     values, series.truncation_tag)


def _log_coeff_arrays(series: HermiteSeries):
    """(log |c_alpha|, log(2|alpha|+d)) over the nonzero stored coefficients in
    entry order, and their mask; math.log keeps them bitwise per-entry values."""
    mag = np.hypot(series.values.real, series.values.imag)
    nonzero = mag > 0
    lam = 2 * series.indices.sum(axis=1)[nonzero] + series.dimension
    return (np.array(list(map(math.log, mag[nonzero].tolist()))),
            np.array(list(map(math.log, lam.tolist()))), nonzero)


def l2_norm(series: HermiteSeries) -> float:
    """log of the Parseval norm sqrt(sum |c_alpha|^2), -inf for the zero
    series; safe for any magnitude spread."""
    return float(_l2_log_norms_powered(series, np.zeros(1))[0])


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` of a real array, bit for bit as
    ``scipy.special.logsumexp`` without its array-API dispatch: the maxima
    are split out of the sum (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    41(4), 2021), and the direct sum decides only where that is not finite
    (an all -inf slice, a +inf entry)."""
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a, axis=axis, keepdims=True)
        at_top = a == top
        ties = np.sum(at_top, axis=axis, keepdims=True, dtype=float)
        rest = np.sum(np.exp(np.where(at_top, -np.inf, a) - top), axis=axis, keepdims=True)
        out = np.log1p(rest / ties) + np.log(ties) + top
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))[bad]
    return np.squeeze(out, axis=axis)[()]


def _l2_log_norms_powered(series: HermiteSeries, powers: np.ndarray,
                          shell_log_weights: np.ndarray | None = None) -> np.ndarray:
    """log ||H^N f||_{L2} for each N in ``powers``, without float round trips;
    ``shell_log_weights[|alpha|]`` is added to each squared term if given."""
    logs, eigs, nonzero = _log_coeff_arrays(series)
    if logs.size == 0:
        return np.full(powers.shape, -math.inf)
    # (nN, ncoef): 2 log|c| + 2N log(2|alpha|+d)
    mat = 2.0 * logs[None, :] + 2.0 * np.asarray(powers, dtype=float)[:, None] * eigs[None, :]
    if shell_log_weights is not None:
        mat += shell_log_weights[series.indices.sum(axis=1)[nonzero]]
    return 0.5 * _logsumexp(mat, axis=1)


def _powered_blocks(series: HermiteSeries, powers):
    """Yield (s_N, block) per N in ``powers``: the dense coefficients of H^N f
    are exp(s_N) * block.

    s_N = max log|c_alpha (2|alpha|+d)^N|, so every |block entry| <= 1 and the
    float products that follow cannot overflow for any N.  An all-zero series
    yields s_N = 0 and a zero block.
    """
    dense = series.dense()
    log_lam = np.log(2.0 * np.indices(dense.shape).sum(axis=0) + series.dimension)
    mag = np.abs(dense)
    nonzero = mag > 0
    with np.errstate(divide="ignore"):
        log_abs = np.log(mag)
    unit = np.divide(dense, mag, out=np.zeros_like(dense), where=nonzero)
    for n in powers:
        if not nonzero.any():
            yield 0.0, dense
            continue
        log_mag = log_abs + n * log_lam
        top = float(np.max(log_mag))
        yield top, unit * np.exp(log_mag - top)


def _synthesize_dense(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_alpha block[alpha] prod_i rows[alpha_i, x_i] on the tensor grid.

    ``rows`` is the real (K, npts) basis matrix of one axis, shared by all
    axes; the real and imaginary parts are contracted separately (one
    ``tensordot`` per axis) so the basis is never upcast to complex.
    """
    def contract(part):
        for _ in range(part.ndim):
            part = np.tensordot(part, rows[:part.shape[0]], axes=([0], [0]))
        return part

    re = contract(block.real)
    if not block.imag.any():
        return re
    return re + 1j * contract(block.imag)


def lp_norm(series: HermiteSeries, p: float, grid: GridSpec | None = None) -> float:
    """log of the numerical L^p norm of the synthesized series, p in [1, inf].

    The one-power case of the grid routes of ``norm_sequence``.  Finite p
    integrates |f|^p by Gauss-Hermite quadrature with the exp(+x^2)
    reweighting folded in; p = inf scans a uniform grid over the classically
    allowed box and polishes every near-top local maximum by Newton steps on
    |f|^2 with exact derivative rows.  Accuracy target is 1e-6 relative for
    smooth presets with M <= 50 in dimensions 1 and 2; integrands with zeros
    converge more slowly for odd p because |f|^p loses smoothness there.
    """
    return float(_grid_log_norms(series, [0], p, grid or GridSpec())[0])


def _grid_log_norms(series: HermiteSeries, powers, p: float, grid: GridSpec) -> np.ndarray:
    """log ||H^N f||_{L^p} for each N in ``powers``, -inf for a zero norm.

    The basis rows of the grid are built once; each power is a contraction
    of its log-scaled coefficients with them.
    """
    if series.is_zero:
        return np.full(len(powers), -math.inf)
    if p == math.inf:
        return _sup_log_norms(series, powers, grid)
    if not p >= 1:
        raise ValueError("p must be >= 1 (or inf)")
    d = series.dimension
    if d > 3:
        raise ValueError("L^p norms are limited to dimension <= 3")
    M = series.max_degree
    n = grid.quad_order or max(4 * M + 64, 128)
    rule = gauss_hermite_rule(n)
    rows = hermite_matrix(max(series.degrees_per_axis()), rule.nodes)
    log_w = rule.log_weights + rule.nodes**2
    log_cell = log_w
    for _ in range(d - 1):
        log_cell = log_cell[..., None] + log_w
    out = []
    for top, block in _powered_blocks(series, powers):
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(_synthesize_dense(block, rows)))
        finite = log_abs > -math.inf
        if not finite.any():
            out.append(-math.inf)
            continue
        out.append(top + _logsumexp(log_cell[finite] + p * log_abs[finite]) / p)
    return np.array(out)


# local maxima of the scan whose |f| is at least this share of the scan
# maximum are polished: between two scan points |f| can exceed its sampled
# value by about 1/cos(pi/8) per axis at the default step (1/cos(pi/4) at
# the coarsest step the GridError check admits), so a lower scan value can
# still hide the global peak
_PEAK_SHARE = 0.5
_NEWTON_MAX_ITER = 40
_STEP_TOL = 1e-6


def _sup_log_norms(series: HermiteSeries, powers, grid: GridSpec) -> np.ndarray:
    d = series.dimension
    if d > 2:
        raise ValueError("sup norms are limited to dimension <= 2")
    M = series.max_degree
    osc = math.pi / (2.0 * math.sqrt(2 * M + d))
    step = grid.step if grid.step is not None else min(0.25, osc / 2.0)
    if step > osc:
        raise GridError(
            f"grid step {step:.4g} gives fewer than 4 points per oscillation "
            f"(need <= {osc:.4g} for max degree {M})")
    extent = turning_point_extent(M, d, grid.padding)
    axis = np.arange(-extent, extent + step, step)
    rows = hermite_matrix(max(series.degrees_per_axis()), axis)
    tops, blocks, scan_max, starts, owner = [], [], [], [], []
    for i, (top, block) in enumerate(_powered_blocks(series, powers)):
        sq = np.abs(_synthesize_dense(block, rows)) ** 2
        peak = float(sq.max())
        tops.append(top)
        blocks.append(block)
        scan_max.append(peak)
        cand = np.argwhere(_local_maxima(sq) & (sq >= _PEAK_SHARE**2 * peak) & (sq > 0))
        starts.append(axis[cand])
        owner.append(np.full(len(cand), i))
    owner = np.concatenate(owner)
    best = np.array(scan_max)
    if owner.size:
        polished = _newton_peaks(np.stack(blocks), owner, np.concatenate(starts), step)
        np.maximum.at(best, owner, polished)
    with np.errstate(divide="ignore"):
        return np.array(tops) + 0.5 * np.log(best)


def _local_maxima(vals: np.ndarray) -> np.ndarray:
    """Points of a d-dim grid at least as large as each of their neighbours."""
    padded = np.pad(vals, 1, constant_values=-math.inf)
    keep = np.ones(vals.shape, dtype=bool)
    for shift in np.ndindex(*(3,) * vals.ndim):
        if shift != (1,) * vals.ndim:
            keep &= vals >= padded[tuple(slice(s, s + n) for s, n in zip(shift, vals.shape))]
    return keep


def _peak_model(blocks: np.ndarray, owner: np.ndarray, pts: np.ndarray):
    """|f|^2 with its gradient and Hessian at pts (m, d).

    Point i belongs to the power whose dense coefficients are
    blocks[owner[i]]; f and its partial derivatives up to order 2 come from
    the exact derivative rows of each axis.
    """
    m, d = pts.shape
    sizes = blocks.shape[1:]
    vals, first, second = hermite_derivative_rows(max(sizes) - 1, pts.T.ravel())
    rows = [tuple(r[:sizes[i], i * m:(i + 1) * m] for r in (vals, first, second))
            for i in range(d)]
    # contract every axis but the last, grouped by power so no per-point copy
    # of a 2-d block is made
    if d == 1:
        partial = {(): blocks[owner]}
    else:
        partial = {}
        for a in range(3):
            t = np.empty((m, sizes[1]), dtype=complex)
            for n in np.unique(owner):
                sel = owner == n
                t[sel] = rows[0][a][:, sel].T @ blocks[n]
            partial[(a,)] = t
    # derivs[(a, ...)]: the a-th partial along each axis, total order <= 2
    derivs = {key + (b,): np.einsum("mk,km->m", t, rows[-1][b])
              for key, t in partial.items() for b in range(3 - sum(key))}
    f = derivs[(0,) * d]
    unit = np.eye(d, dtype=int)
    grad = [derivs[tuple(unit[i])] for i in range(d)]
    g = np.abs(f) ** 2
    gradient = np.stack([2.0 * np.real(np.conj(f) * gi) for gi in grad], axis=-1)
    hess = np.empty((m, d, d))
    for i in range(d):
        for j in range(d):
            fij = derivs[tuple(unit[i] + unit[j])]
            hess[:, i, j] = 2.0 * np.real(np.conj(grad[i]) * grad[j] + np.conj(f) * fij)
    return g, gradient, hess


def _newton_peaks(blocks: np.ndarray, owner: np.ndarray, starts: np.ndarray,
                  step: float) -> np.ndarray:
    """Safeguarded Newton ascent on |f|^2 from each scan maximum.

    Every iterate stays in the start's scan cell (+-step per axis); a trial
    point is accepted only if it raises |f|^2, otherwise the trust radius
    shrinks.  Returns the largest |f|^2 reached from each start, which is
    never below its value at the start.
    """
    x = starts.astype(float)
    g, grad, hess = _peak_model(blocks, owner, x)
    radius = np.full(len(x), float(step))
    active = np.ones(len(x), dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        gr, hs, r = grad[idx], hess[idx], radius[idx]
        concave = np.all(np.linalg.eigvalsh(hs) < 0, axis=-1)
        delta = np.zeros_like(gr)
        if concave.any():
            # a row whose Hessian LAPACK cannot factor takes the gradient step
            delta[concave], concave[concave] = _newton_steps(hs[concave], gr[concave])
        norm = np.linalg.norm(gr[~concave], axis=-1, keepdims=True)
        delta[~concave] = gr[~concave] / np.where(norm > 0, norm, 1.0) * r[~concave, None]
        size = np.max(np.abs(delta), axis=-1)
        delta *= np.minimum(1.0, r / np.where(size > 0, size, 1.0))[:, None]
        trial = np.clip(x[idx] + delta, starts[idx] - step, starts[idx] + step)
        # Newton converges quadratically: after a step this short the point is
        # within ~1e-12 of the peak, far below what moves |f|^2 in float
        done = np.max(np.abs(trial - x[idx]), axis=-1) <= _STEP_TOL * step
        gt, gradt, hesst = _peak_model(blocks, owner[idx], trial)
        up = gt >= g[idx]
        acc = idx[up]
        x[acc], g[acc], grad[acc], hess[acc] = trial[up], gt[up], gradt[up], hesst[up]
        radius[idx[~up]] /= 4.0
        active[idx] = ~done
    return g


def _newton_steps(hs: np.ndarray, gr: np.ndarray):
    """-hs^-1 gr per row, and which rows LAPACK could factor.

    A Hessian can pass the eigenvalue test and still be singular to LAPACK
    (ring maxima of radial functions have a flat direction).  Then the
    batched solve raises, and the rows are solved one at a time, which gives
    the batched bits on every row that can be factored.
    """
    solved = np.ones(len(gr), dtype=bool)
    try:
        return -np.linalg.solve(hs, gr[..., None])[..., 0], solved
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(gr)
    for i in range(len(gr)):
        try:
            steps[i] = -np.linalg.solve(hs[i:i + 1], gr[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            solved[i] = False
    return steps, solved


def _power_range(n_min: int, n_max: int) -> range:
    """The powers n_min..n_max of a norm sequence; n_max >= 1 and
    0 <= n_min <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not 0 <= n_min <= n_max:
        raise ValueError(f"need 0 <= n0 <= n_max, got n0 = {n_min}, n_max = {n_max}")
    return range(n_min, n_max + 1)


def norm_sequence(series: HermiteSeries, n_max: int, norm_kind: str = "l2", *,
                  grid: GridSpec | None = None, n_min: int = 0) -> NormSequence:
    """Norms of H^N f for N = n_min..n_max.

    ``norm_kind`` is "l2", "linf" or "lp:<p>".  The L2 route is a Parseval
    sum in the log domain.  The grid routes build the basis rows of their
    grid once and contract them with the coefficients of each power scaled
    by exp(-max log|c_alpha (2|alpha|+d)^N|), adding that scale back in log
    space; every route therefore tolerates any power.
    """
    powers = np.array(_power_range(n_min, n_max))
    if norm_kind == "l2":
        logs = _l2_log_norms_powered(series, powers)
    elif norm_kind == "linf" or norm_kind.startswith("lp:"):
        p = math.inf if norm_kind == "linf" else float(norm_kind.split(":", 1)[1])
        logs = _grid_log_norms(series, powers, p, grid or GridSpec())
    else:
        raise ValueError(f"unknown norm kind {norm_kind!r}")
    return NormSequence(series.dimension, series.max_degree, norm_kind, powers, logs)


def stirling_bounds(alpha, dimension: int | None = None):
    """Two-sided bound ((d e)^{-|a|} |a|^{|a|}, |a|^{|a|}) enclosing alpha!.

    Returns the logs of the pair as floats; |alpha| = 0 is refused since the
    bound is vacuous there.
    """
    idx = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    d = len(idx) if dimension is None else int(dimension)
    if d != len(idx):
        raise ValueError(f"dimension {d} does not match index of length {len(idx)}")
    k = idx.order
    if k == 0:
        raise ValueError("bounds require |alpha| >= 1")
    log_upper = k * math.log(k)
    log_lower = log_upper - k * (math.log(d) + 1.0)
    return log_lower, log_upper
