"""Growth envelopes and numeric certification of their working inequalities.

Everything here is evaluated in the log domain: the envelopes reach exp(700)
within a few dozen oscillator powers at sigma = 1, so each pointwise function
returns the natural log of its value as a float.  The ``check_*`` suites
sweep parameter grids, fit the existential constants the inequalities merely
assert, and report pass/fail against stability-under-grid-extension criteria.

The suites evaluate their grids as array passes.  Logarithms of grid values
are taken with ``math.log`` per element (``np.log`` can differ in the last
bit), and every other step is the same float operation as the pointwise
formula, so each suite value is bitwise equal to evaluating its grid point by
point with the scalar functions below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .io import log_field
from .series import MultiIndex

__all__ = [
    "BoundCheckReport", "EnvelopeSearchError",
    "envelope_norm_flat", "envelope_coeff_flat", "envelope_coeff_s", "envelope_norm_s",
    "radius_factor_ratio", "amplitude_factor_ratio", "envelope_factor", "peak_term",
    "check_factor_ratios_bounded", "check_envelope_factor_monotone",
    "infimum_coeff_bound", "check_infimum_bound", "check_peak_term_bounded",
]

_E = math.e


class EnvelopeSearchError(RuntimeError):
    """A bracket scan or a discrete scan did not find its extremum."""


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of one inequality sweep.

    ``max_ratio`` is the log of the largest left/right ratio encountered
    (the quantity the inequality bounds), ``fitted_constant`` the log of the
    constant the sweep fits for it, ``witness`` the grid point achieving the
    max.  ``passed`` states ``max drift <= threshold`` for the check's
    stability criterion; the details dict carries the raw per-check data.
    """

    name: str
    grid: dict
    max_ratio: float = log_field()
    fitted_constant: float = log_field()
    witness: dict
    passed: bool
    threshold: float
    details: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# pointwise envelope evaluations
# ----------------------------------------------------------------------

def _check_t(t: float, floor: float = _E) -> None:
    if not (t > floor):
        raise ValueError(f"t must exceed {floor:.6g}, got {t}")


def envelope_norm_flat(N: int, sigma: float, r: float) -> float:
    """Norm envelope of the flat scale:

        2^N r^{N/log(N sigma)} (2 N sigma / log(N sigma))^{N (1 - 1/log(N sigma))}

    Requires N*sigma > e strictly so both exponents stay positive; callers
    treat excluded small N as unconstrained.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if sigma <= 0 or r <= 0:
        raise ValueError("sigma and r must be positive")
    t = N * sigma
    if not math.isfinite(t):
        raise ValueError(f"N*sigma must be finite (got N = {N}, sigma = {sigma:.6g})")
    if t <= _E:
        raise ValueError(f"N*sigma must exceed e (got {t:.6g}); exclude small N")
    lt = math.log(t)
    return (N * math.log(2.0)
            + (N / lt) * math.log(r)
            + N * (1.0 - 1.0 / lt) * math.log(2.0 * t / lt))


def envelope_coeff_flat(alpha, sigma: float, r: float) -> float:
    """Coefficient envelope r^{|alpha|} (alpha!)^{-1/(2 sigma)}."""
    if sigma <= 0 or r <= 0:
        raise ValueError("sigma and r must be positive")
    idx = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    return idx.order * math.log(r) - idx.log_factorial / (2.0 * sigma)


def envelope_coeff_s(alpha, s: float, r: float) -> float:
    """Coefficient envelope exp(-r |alpha|^{1/(2s)})."""
    if s <= 0 or r <= 0:
        raise ValueError("s and r must be positive")
    idx = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    # 0.5 / s, not 1 / (2 s): 2s overflows for s > 9e307, and 0 ** 0 is 1
    try:
        return -r * idx.order ** (0.5 / s)
    except OverflowError:   # k^{1/(2s)} past the float range
        return -math.inf


def envelope_norm_s(N: int, s: float, r: float) -> float:
    """Norm envelope of the classical scale: r^N (N!)^{2s}."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if s <= 0 or r <= 0:
        raise ValueError("s and r must be positive")
    # s * (2 lgamma), not 2s * lgamma: 2s can overflow, and inf * lgamma(2) is NaN
    return N * math.log(r) + s * (2.0 * math.lgamma(N + 1))


def radius_factor_ratio(r: float, t1: float, t2: float) -> float:
    """Ratio r^{t2/log t2} / r^{t1/log t1} for t1, t2 > e."""
    if r <= 0:
        raise ValueError("r must be positive")
    _check_t(t1)
    _check_t(t2)
    return (t2 / math.log(t2) - t1 / math.log(t1)) * math.log(r)


def _log_amplitude(t: float) -> float:
    """log of (2t/log t)^{t(1 - 1/log t)}."""
    lt = math.log(t)
    return t * (1.0 - 1.0 / lt) * math.log(2.0 * t / lt)


def amplitude_factor_ratio(t1: float, t2: float) -> float:
    """Ratio of the (2t/log t)^{t(1-1/log t)} factors at t2 and t1."""
    _check_t(t1)
    _check_t(t2)
    return _log_amplitude(t2) - _log_amplitude(t1)


def envelope_factor(r: float, t: float) -> float:
    """The t-form envelope core (2t/log t)^{t(1-1/log t)} r^{t/log t}, t > e."""
    if r <= 0:
        raise ValueError("r must be positive")
    _check_t(t)
    return _log_amplitude(t) + (t / math.log(t)) * math.log(r)


def peak_term(s: float, r: float, t: float) -> float:
    """The term s^{2t} (2re)^s / s^s whose max over s the envelopes dominate."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if r <= 0:
        raise ValueError("r must be positive")
    if t < 0:
        raise ValueError("t must be >= 0")
    return 2.0 * t * math.log(s) + s * math.log(2.0 * r * _E) - s * math.log(s)


# ----------------------------------------------------------------------
# one-dimensional search helpers
# ----------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn, lo, hi, rel_tol: float = 1e-10):
    """Golden-section minima of unimodal functions, one per bracket [lo, hi].

    ``lo`` and ``hi`` are sequences of bracket ends; ``fn(x, rows)`` returns
    the values at the points ``x`` of the functions of brackets ``rows``.
    Every bracket narrows until its own stop test holds, by the same float
    operations as a search on that bracket alone.  Returns arrays (x, fn(x)).
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    rows = np.arange(a.size)
    x_min, f_min = np.empty(a.size), np.empty(a.size)
    width = b - a
    c = b - _INVPHI * width
    d = a + _INVPHI * width
    fc, fd = fn(c, rows), fn(d, rows)
    # brackets only shrink, so no search can stop while every width exceeds
    # twice the largest first threshold; the exact test runs after that
    sure = 2.0 * rel_tol * max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    while True:
        if width.min() <= sure:
            live = width > rel_tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
            if not live.all():
                done = ~live
                left = fc[done] <= fd[done]
                x_min[rows[done]] = np.where(left, c[done], d[done])
                f_min[rows[done]] = np.where(left, fc[done], fd[done])
                rows, a, b, c, d, fc, fd = (v[live] for v in (rows, a, b, c, d, fc, fd))
                if rows.size == 0:
                    return x_min, f_min
        # fc <= fd: the minimum is left of d, so [a, d] with c as its new d;
        # else [c, b] with d as its new c; one new point per bracket
        left = fc <= fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        width = b - a
        step = _INVPHI * width
        x = np.where(left, b - step, a + step)
        fx = fn(x, rows)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)


# ----------------------------------------------------------------------
# factor-ratio boundedness sweep
# ----------------------------------------------------------------------

def _factor_t_floor(R: float) -> float:
    """First t1 of the factor-ratio sweep at radius bound R."""
    return max(_E, R + 1.0) * 1.02


def _fit_factor_constant(R: float, t_max: float, nr: int, nt: int, nu: int,
                         r_values=None):
    """max over the sweep grid of (log g, scaled log h) and its witness."""
    t_lo = _factor_t_floor(R)
    t1 = np.geomspace(t_lo, t_max, nt)
    u = np.linspace(0.0, R, nu)
    r = np.asarray(r_values, dtype=float) if r_values is not None \
        else np.geomspace(R * 1e-3, R, nr)
    T1 = t1[:, None]
    T2 = T1 + u[None, :]
    a_diff = T2 / np.log(T2) - T1 / np.log(T1)            # (nt, nu), >= 0
    log_g = a_diff[:, :, None] * np.log(r)[None, None, :]  # (nt, nu, nr)
    log_h = (T2 * (1 - 1 / np.log(T2)) * np.log(2 * T2 / np.log(T2))
             - T1 * (1 - 1 / np.log(T1)) * np.log(2 * T1 / np.log(T1)))
    scaled_h = (np.log(T2) / T2) * log_h                   # h^{log t2 / t2}

    gi = np.unravel_index(int(np.argmax(log_g)), log_g.shape)
    hi = np.unravel_index(int(np.argmax(scaled_h)), scaled_h.shape)
    best_g = float(log_g[gi])
    best_h = float(scaled_h[hi])
    if best_g >= best_h:
        witness = {"source": "radius_ratio", "t1": float(t1[gi[0]]),
                   "t2": float(T2[gi[0], gi[1]]), "r": float(r[gi[2]])}
    else:
        witness = {"source": "amplitude_ratio", "t1": float(t1[hi[0]]),
                   "t2": float(T2[hi[0], hi[1]]), "r": None}
    return max(best_g, best_h), witness, best_g, best_h


def check_factor_ratios_bounded(R: float, t_max: float = 1e3, nr: int = 24,
                                nt: int = 48, nu: int = 13,
                                threshold: float = 1.05,
                                r_values=None) -> BoundCheckReport:
    """Sweep the two ratio factors over r in (0, R], t1, t2 in the band
    t2 - t1 in [0, R], and fit the single constant C bounding g and
    h^{log t2/t2}.  Passes when the fitted C is finite and moves by at most
    ``threshold`` when the t-extent doubles.  ``r_values`` overrides the
    default geometric r-grid; the component maxima land in the details.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if not (t_max > _factor_t_floor(R)):
        raise ValueError(f"t_max must exceed the t floor {_factor_t_floor(R):.6g} "
                         f"of R = {R:g}, got {t_max}")
    log_c1, witness, max_g, max_h = _fit_factor_constant(R, t_max, nr, nt, nu, r_values)
    log_c2, _, _, _ = _fit_factor_constant(R, 2 * t_max, nr, nt + 16, nu, r_values)
    drift = abs(log_c2 - log_c1)
    # sensitivity of the fitted constant to the r-grid upper end
    log_c_half, _, _, _ = _fit_factor_constant(max(1.0, R / 2), t_max, nr, nt, nu, r_values)
    passed = math.isfinite(log_c1) and drift <= math.log(threshold)
    return BoundCheckReport(
        name="factor_ratios_bounded",
        grid={"R": R, "t_max": t_max, "nr": nr, "nt": nt, "nu": nu},
        max_ratio=log_c1,
        fitted_constant=max(log_c1, log_c2),
        witness=witness,
        passed=bool(passed),
        threshold=threshold,
        details={"log_c_at_t_max": log_c1, "log_c_at_2t_max": log_c2,
                 "drift": drift, "log_c_at_half_R": log_c_half,
                 "r_grid_sensitivity": log_c1 - log_c_half,
                 "log_max_g": max_g, "log_max_h_scaled": max_h},
    )


# ----------------------------------------------------------------------
# envelope-factor monotonicity sweep
# ----------------------------------------------------------------------

def _factor_parts(t: np.ndarray):
    """The two t-terms of ``envelope_factor`` on a grid: the log amplitude
    t(1 - 1/log t) log(2t/log t) and t/log t, so that
    ``envelope_factor(r, t[i])`` is ``amp[i] + tl[i] * math.log(r)``."""
    lt = np.array([math.log(v) for v in t.tolist()])
    log_ratio = np.array([math.log(v) for v in (2.0 * t / lt).tolist()])
    return t * (1.0 - 1.0 / lt) * log_ratio, t / lt


def check_envelope_factor_monotone(sigma: float, t_max: float = 200.0, nt: int = 120,
                                   r_up=(1.0, 2.0, 10.0), r_down=(0.1, 0.5, 1.0),
                                   n_sigma0: int = 3, slack: float = 1e-12,
                                   t_min: float | None = None) -> BoundCheckReport:
    """Pointwise monotonicity of the t-form envelope core:

        F(r, t) <= F(r, t + s0)                for r >= 1,
        F(r, t) <= F(r^{(e-1)/e}, t + s0)      for r in (0, 1],

    for s0 in [0, sigma] and t above sigma(e+1) + e.  Fails on any violation
    beyond the rounding slack.  Rows that compare F with itself (s0 = 0 with
    the same radius on both sides: every r >= 1, and r = 1 below) are
    skipped, so ``max_log_violation`` is the real margin, negative on a
    passing grid.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    lo = sigma * (_E + 1.0) + _E
    t_lo = lo + 0.1 if t_min is None else float(t_min)
    if t_lo <= lo:
        raise ValueError(f"t grid must start above sigma(e+1)+e = {lo:.6g}")
    if t_max <= t_lo:
        raise ValueError(f"t_max must exceed the domain floor {t_lo:.6g}")
    for r in (*r_up, *r_down):
        if not r > 0:
            raise ValueError("r must be positive")
    ts = np.linspace(t_lo, t_max, nt)
    for t in ts.tolist():
        _check_t(t)
    sigma0s = np.linspace(0.0, sigma, n_sigma0)
    worst = -math.inf
    witness = {}
    # (branch, r, radius on the right-hand side)
    branches = ([("r_ge_1", r, r) for r in r_up]
                + [("r_le_1", r, r ** ((_E - 1.0) / _E)) for r in r_down])
    amp, tl = _factor_parts(ts)
    left = {r: amp + tl * math.log(r) for _, r, _ in branches}
    for s0 in sigma0s:
        amp, tl = _factor_parts(ts + s0)
        for branch, r, r_right in branches:
            if s0 == 0.0 and r_right == r:
                continue
            diffs = left[r] - (amp + tl * math.log(r_right))
            i = int(np.argmax(diffs))
            if diffs[i] > worst:
                worst = float(diffs[i])
                witness = {"branch": branch, "r": float(r), "t": float(ts[i]),
                           "sigma0": float(s0)}
    passed = worst <= slack
    return BoundCheckReport(
        name="envelope_factor_monotone",
        grid={"sigma": sigma, "t_min": t_lo, "t_max": t_max, "nt": nt,
              "r_up": list(r_up), "r_down": list(r_down), "n_sigma0": n_sigma0},
        max_ratio=worst,
        fitted_constant=max(worst, 0.0),
        witness=witness,
        passed=bool(passed),
        threshold=slack,
        details={"max_log_violation": worst},
    )


# ----------------------------------------------------------------------
# infimum of the coefficient-bound summand
# ----------------------------------------------------------------------

_N_CAP = 1_000_000      # last N of the discrete scan


def _inf_summand_log(log_s, log_r1, t: np.ndarray) -> np.ndarray:
    """log of s^{-t} (2t/log t)^{t(1-1/log t)} r1^{t/log t}, given log s
    and log r1."""
    lt = np.log(t)
    return (-t * log_s
            + t * (1.0 - 1.0 / lt) * np.log(2.0 * t / lt)
            + (t / lt) * log_r1)


def _infimum_logs(s: np.ndarray, r1, sigma: float, domain: int,
                  n_cap: int) -> np.ndarray:
    """log inf_t of the summand for every s in the array ``s`` (one pass).

    ``r1`` is a scalar or one radius per element of ``s``.  Each element
    stops by its own test and sees the same float operations as a search
    for that (s, r1) alone.
    """
    if np.any(s < 10):
        raise ValueError("the estimate needs s >= 10")
    r1 = np.broadcast_to(np.asarray(r1, dtype=float), s.shape)
    if np.any(r1 <= 0) or sigma <= 0:
        raise ValueError("r1 and sigma must be positive")
    # math.log, not np.log: the two differ in the last bit on some inputs
    log_s = np.array([math.log(v) for v in s.tolist()])
    log_r1 = np.array([math.log(v) for v in r1.tolist()])
    if domain == 1:
        return _discrete_infimum(log_s, log_r1, sigma, n_cap)
    if domain == 2:
        return _continuum_infimum(log_s, log_r1)
    raise ValueError("domain must be 1 or 2")


def _discrete_infimum(log_s: np.ndarray, log_r1: np.ndarray, sigma: float,
                      n_cap: int) -> np.ndarray:
    """Scan t = N sigma >= e in chunks of 512 until the summand rises twice
    in a row; the minimum so far is then the exact discrete minimum."""
    out = np.empty(log_s.size)
    todo = np.arange(log_s.size)
    best = np.full(log_s.size, math.inf)
    prev = np.full(log_s.size, math.inf)
    rising = np.zeros(log_s.size, dtype=bool)   # the last step was a rise
    n = max(1, math.ceil(_E / sigma))
    chunk = 512
    while n <= n_cap:
        ns = np.arange(n, min(n + chunk, n_cap + 1))
        vals = _inf_summand_log(log_s[:, None], log_r1[:, None], ns * sigma)
        up = np.concatenate([(vals[:, 0] > prev)[:, None],
                             vals[:, 1:] > vals[:, :-1]], axis=1)
        stop = up & np.concatenate([rising[:, None], up[:, :-1]], axis=1)
        hit = stop.any(axis=1)
        last = np.where(hit, stop.argmax(axis=1), ns.size - 1)
        running = np.minimum.accumulate(vals, axis=1)
        best = np.minimum(best, running[np.arange(last.size), last])
        out[todo[hit]] = best[hit]
        keep = ~hit
        todo, log_s, log_r1, best = todo[keep], log_s[keep], log_r1[keep], best[keep]
        prev, rising = vals[keep, -1], up[keep, -1]
        if todo.size == 0:
            return out
        n += chunk
    raise EnvelopeSearchError(
        f"summand still decreasing at N = {n_cap}; raise the cap")


def _continuum_infimum(log_s: np.ndarray, log_r1: np.ndarray) -> np.ndarray:
    """Scan log t from 1 in steps of 0.25 while the summand falls, then
    golden-section on the last three scan points (on the first step alone
    when it already rises: the summand falls at t = e for every s >= 10)."""
    def phi(log_t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        t = np.array([math.exp(v) for v in log_t.tolist()])
        return _inf_summand_log(log_s[rows], log_r1[rows], t)

    step = 0.25
    rows = np.arange(log_s.size)
    # the last three scan points and the last two values of every scan
    xb = np.full(log_s.size, math.log(_E))
    xa, xc = xb.copy(), xb + step
    fb, fc = phi(xb, rows), phi(xc, rows)
    live = np.nonzero(fc < fb)[0]
    while live.size:
        x = xc[live] + step
        fx = phi(x, live)
        xa[live], xb[live], xc[live] = xb[live], xc[live], x
        fb[live], fc[live] = fc[live], fx
        if np.any(x > 50.0):  # t beyond exp(50): cannot happen for s >= 10
            raise EnvelopeSearchError("bracket scan ran away; check parameters")
        live = live[fc[live] < fb[live]]
    _, fmin = _golden_min(phi, xa, xc)
    return np.minimum(fmin, fb)


def infimum_coeff_bound(s: float, r1: float, sigma: float = 1.0, domain: int = 2,
                        n_cap: int = _N_CAP) -> float:
    """inf over t of s^{-t} (2t/log t)^{t(1-1/log t)} r1^{t/log t}.

    ``domain`` 1 restricts t to multiples of sigma at or above e (exact
    discrete minimum); 2 minimizes over the continuum [e, inf) by a scan
    bracket plus golden-section on log t.  Requires s >= 10.  This is the
    one-element case of the array search that ``check_infimum_bound`` runs
    over its whole s-grid at once.
    """
    return float(_infimum_logs(np.array([float(s)]), r1, sigma, domain, n_cap)[0])


def check_infimum_bound(r1_values=(0.5, 1.0, 2.0), s_lo: float = 10.0,
                        s_hi: float = 1e3, ns: int = 16, sigma: float = 1.0,
                        threshold: float = 1.05) -> BoundCheckReport:
    """Fit the radius r2 with inf_t(...) <= r2^s s^{-s/2} over an s-grid.

    Checks the continuum infimum never exceeds the discrete one, fits r2 per
    (r1, domain) by maximizing (inf * s^{s/2})^{1/s}, and passes when every
    fitted r2 is stable (<= threshold drift) under doubling the s-extent.
    Each domain is one array search over every (r1, s) of the extended
    s-grid, with the values ``infimum_coeff_bound`` gives for each pair.
    """
    if len(r1_values) == 0:
        raise ValueError("r1_values must not be empty")
    s_grid = np.unique(np.round(np.geomspace(s_lo, s_hi, ns)).astype(int)).astype(float)
    s_grid_ext = np.unique(np.concatenate([s_grid, 2.0 * s_grid]))
    n_ext = s_grid_ext.size
    # row k * n_ext + i is (r1_values[k], s_grid_ext[i])
    rows_s = np.tile(s_grid_ext, len(r1_values))
    rows_r1 = np.repeat(np.asarray(r1_values, dtype=float), n_ext)
    vals = {j: _infimum_logs(rows_s, rows_r1, sigma, j, _N_CAP) for j in (1, 2)}
    inclusion_ok = True
    fits = {}
    worst_ratio = -math.inf
    witness = {}
    for k, r1 in enumerate(r1_values):
        # the log values infimum_coeff_bound reports for each s (all finite)
        logs = {j: dict(zip(s_grid_ext.tolist(), vals[j][k * n_ext:(k + 1) * n_ext].tolist()))
                for j in (1, 2)}
        for s in s_grid_ext:
            if logs[2][s] > logs[1][s] + 1e-9:
                inclusion_ok = False
        for j in (1, 2):
            def fitted_r2(grid):
                return max((logs[j][float(s)] + 0.5 * s * math.log(s)) / s for s in grid)

            base, ext = fitted_r2(s_grid), fitted_r2(s_grid_ext)
            drift = abs(ext - base)
            fits[f"r1={r1},domain={j}"] = {
                "log_r2": base, "log_r2_extended": ext, "drift": drift}
            if base > worst_ratio:
                worst_ratio = base
                witness = {"r1": float(r1), "domain": j,
                           "s_at_max": float(max(s_grid, key=lambda s:
                                                 (logs[j][float(s)] + 0.5 * s * math.log(s)) / s))}
    max_drift = max(v["drift"] for v in fits.values())
    passed = inclusion_ok and max_drift <= math.log(threshold)
    return BoundCheckReport(
        name="infimum_coeff_bound",
        grid={"r1_values": list(r1_values), "s_lo": s_lo, "s_hi": s_hi,
              "ns": ns, "sigma": sigma},
        max_ratio=worst_ratio,
        fitted_constant=worst_ratio,
        witness=witness,
        passed=bool(passed),
        threshold=threshold,
        details={"fits": fits, "domain_inclusion_ok": inclusion_ok,
                 "max_drift": max_drift},
    )


# ----------------------------------------------------------------------
# peak-term boundedness sweep
# ----------------------------------------------------------------------

def _peak_log(u: float, t: float, log2re: float) -> float:
    """log of the peak term at s = exp(u)."""
    return 2.0 * t * u + math.exp(u) * (log2re - u)


def _log_max_peak_terms(r: float, ts) -> list:
    """log max over s >= 1 of the peak term for every t in ``ts``.

    A bracket scan in u = log s per t, in the order of ``ts``, then one
    golden section over all brackets; each t sees the same float operations
    as a search for that t alone.
    """
    log2re = math.log(2.0 * r * _E)
    out = [None] * len(ts)
    rows, lo, hi, scan_max = [], [], [], []
    for k, t in enumerate(ts):
        # derivative at s = 1: 2t + log(2re) - 1
        if 2.0 * t + log2re - 1.0 <= 0.0:
            out[k] = _peak_log(0.0, t, log2re)
            continue
        step = 0.5
        xs = [0.0, step]
        fs = [_peak_log(0.0, t, log2re), _peak_log(step, t, log2re)]
        while fs[-1] > fs[-2]:
            xs.append(xs[-1] + step)
            fs.append(_peak_log(xs[-1], t, log2re))
            if xs[-1] > 60.0:
                raise EnvelopeSearchError(
                    f"peak-term maximizer does not bracket for r={r}, t={t}")
        rows.append(k)
        lo.append(xs[-3] if len(xs) >= 3 else 0.0)
        hi.append(xs[-1])
        scan_max.append(max(fs))
    if rows:
        row_t = [ts[k] for k in rows]

        def neg(u, live):
            return np.array([-_peak_log(v, row_t[j], log2re)
                             for v, j in zip(u.tolist(), live.tolist())])

        _, f_neg = _golden_min(neg, lo, hi)
        for j, k in enumerate(rows):
            out[k] = max(-float(f_neg[j]), scan_max[j])
    return out


def _log_max_peak_term(r: float, t: float) -> float:
    """log max over s >= 1 of the peak term, by bracket + golden section."""
    return _log_max_peak_terms(r, [t])[0]


def check_peak_term_bounded(r: float, t_grid=(10.0, 20.0, 40.0, 80.0, 160.0),
                            threshold: float = 1.05) -> BoundCheckReport:
    """Fit the radius rho with max_s peak_term <= amplitude^2 * rho^{2t/log t}.

    rho(t) = (max_s f / (2t/log t)^{2t(1-1/log t)})^{log t/(2t)} is computed
    on the t-grid; the fitted bound is its max, and the check passes when the
    fit moves by at most ``threshold`` under doubling the grid extent.  The
    fitted scale theta solves theta*r + (theta*r)^{(e-1)/e} = rho_max.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    for t in t_grid:
        _check_t(t)

    base_ts = [float(t) for t in t_grid]
    ext_grid = sorted(set(base_ts + [2.0 * t for t in base_ts]))
    # every distinct t once, base grid first, in one batched search
    peak_ts = list(dict.fromkeys(base_ts + ext_grid))
    peaks = dict(zip(peak_ts, _log_max_peak_terms(r, peak_ts)))

    def log_rho(t: float) -> float:
        return (math.log(t) / (2.0 * t)) * (peaks[t] - 2.0 * _log_amplitude(t))

    base = {t: log_rho(t) for t in base_ts}
    ext = {t: log_rho(t) for t in ext_grid}
    log_rho_base = max(base.values())
    log_rho_ext = max(ext.values())
    drift = abs(log_rho_ext - log_rho_base)
    t_witness = max(base, key=base.get)
    passed = drift <= math.log(threshold)

    # solve x + x^{(e-1)/e} = rho_max for x = theta * r (increasing LHS)
    rho_max = math.exp(log_rho_ext)
    theta = None
    if rho_max > 0:
        from scipy.optimize import brentq
        func = lambda lx: math.exp(lx) + math.exp(lx * (_E - 1.0) / _E) - rho_max
        lo_x, hi_x = -60.0, 60.0
        if func(lo_x) < 0 and func(hi_x) > 0:
            theta = math.exp(brentq(func, lo_x, hi_x, xtol=1e-13)) / r
    return BoundCheckReport(
        name="peak_term_bounded",
        grid={"r": r, "t_grid": [float(t) for t in t_grid]},
        max_ratio=log_rho_base,
        fitted_constant=log_rho_ext,
        witness={"t": t_witness},
        passed=bool(passed),
        threshold=threshold,
        details={"log_rho_per_t": base, "log_rho_extended": ext,
                 "drift": drift, "fitted_theta": theta,
                 "fitted_rhs_radius": rho_max},
    )
