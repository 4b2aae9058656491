"""Membership fits on the extended growth scale.

Coefficient data is reduced to shell maxima a_k = max_{|alpha|=k} |c_alpha|,
each shell is converted to an implied radius

    t_k = (a_k * k!^{1/(2 sigma)})^{1/k}        (flat scale, factorial gauge)
    u_k = -log a_k / k^{1/(2s)}                 (classical scale)

and the verdict comes from the drift of the implied radius across a tail
window: flat/stable radii mean the existential ("for some r") flavor, radii
driven to zero mean the universal ("for every r") flavor, growth means no
fit.  Norm sequences of oscillator powers are inverted to per-power radii
(against the canonical family at the same cutoff) and run through the same
drift machinery, which is what lets the two routes be cross-validated.

Finitely many shells can never truly decide "for some r" against "for every
r"; the estimators operationalize the dichotomy with window-stability rules,
and every fit report carries the raw implied-radius sequence for audit.

Gauge note: shells are weighted by k!^{1/(2 sigma)} exactly.  In dimension
d >= 2 the per-index weight alpha!^{1/(2 sigma)} varies within a shell, so
fitted radii carry a scale offset of at most (d e)^{1/(2 sigma)}; verdicts
are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .io import log_field
from .series import HermiteSeries
from .spectral import NormSequence, norm_sequence

__all__ = ["ShellProfile", "EnvelopeFit", "GrowthClass", "CrossValidationReport",
           "shell_profile", "fit_flat_sigma", "fit_s_type", "estimate_sigma",
           "estimate_s", "classify", "fit_radius_from_norms", "cross_validate",
           "coeff_bound_from_norms"]

_E = math.e

# drift of log(implied radius) per unit log k separating "stable" from
# "decaying/growing"; calibrated so exact generators sit well inside the
# stable band while a 1.5x scale mismatch is always detected
DRIFT_TOL = 0.05
RADIUS_TOL = 0.05          # window-to-window stability of the fitted radius
FLOOR_FRACTION = 1e-3      # collapse threshold relative to the peak
COLLAPSE_LOG_FLOOR = -45.0  # a radius below exp(-45) is numerically zero
MIN_SHELLS = 8             # nonzero shells beyond k = 2 needed for any fit

GAUGE_NOTE = ("shell weight k!^(1/(2*sigma)); for dimension d >= 2 fitted radii "
              "carry a scale offset of at most (d*e)^(1/(2*sigma))")


@dataclass(frozen=True)
class ShellProfile:
    """Shell maxima of |c_alpha| as log values; -inf marks empty shells."""

    dimension: int
    max_degree: int
    log_values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.log_values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "log_values", vals)
        if vals.shape != (self.max_degree + 1,):
            raise ValueError("log_values must have length max_degree + 1")

    def nonzero_shells(self, k_min: int = 0) -> np.ndarray:
        ks = np.nonzero(self.log_values > -math.inf)[0]
        return ks[ks >= k_min]

    @property
    def top_shell(self) -> int | None:
        ks = self.nonzero_shells()
        return int(ks[-1]) if ks.size else None


@dataclass(frozen=True)
class EnvelopeFit:
    """Result of one radius fit.

    ``verdict`` is "roumieu" (existential flavor, stable radius),
    "beurling" (radius collapses to 0) or "nofit".  ``orders`` and
    ``log_radii`` are the raw implied-radius sequence over the shells/powers
    used; ``residuals`` are the window regression residuals.
    """

    scale_kind: str
    scale: float
    verdict: str
    radius: float = log_field()
    fit_window: tuple
    drift: float
    stability: float
    orders: np.ndarray
    log_radii: np.ndarray
    residuals: np.ndarray
    reason: str = ""
    gauge: str = GAUGE_NOTE


def _nofit(scale_kind: str, scale: float, reason: str) -> EnvelopeFit:
    return EnvelopeFit(scale_kind=scale_kind, scale=scale, verdict="nofit",
                       radius=-math.inf, fit_window=(0, 0), drift=math.nan,
                       stability=math.nan, orders=np.array([], dtype=int),
                       log_radii=np.array([]), residuals=np.array([]), reason=reason)


def shell_profile(series: HermiteSeries) -> ShellProfile:
    """Reduce a coefficient tensor to per-shell maxima of |c_alpha|."""
    top = np.zeros(series.max_degree + 1)
    vals = series.values
    np.maximum.at(top, series.indices.sum(axis=1), np.hypot(vals.real, vals.imag))
    # log is monotone, so the log of each shell maximum is the maximum log
    logs = np.array([math.log(a) if a > 0 else -math.inf for a in top.tolist()])
    return ShellProfile(dimension=series.dimension, max_degree=series.max_degree,
                        log_values=logs)


# ----------------------------------------------------------------------
# window regression on implied radii
# ----------------------------------------------------------------------

def _design(ks: np.ndarray, decay_power: float | None = None) -> np.ndarray:
    """Regressors for log(radius) ~ limit + transients + drift * log k.

    The 1/k-type columns absorb exactly the perturbations that scalar
    rescaling and one oscillator application inject, which is what makes the
    fitted limit and drift invariant under both.
    """
    k = ks.astype(float)
    cols = [np.ones_like(k)]
    if decay_power is None:
        if ks.size >= 8:
            cols += [1.0 / k, np.log(k) / k]
        elif ks.size >= 5:
            cols += [1.0 / k]
    else:
        cols += [k ** (-decay_power)]
    cols += [np.log(k)]
    return np.stack(cols, axis=1)


def _window_fit(ks: np.ndarray, ys: np.ndarray, decay_power: float | None = None):
    """(limit log-radius, drift in log k, residuals) on one window."""
    X = _design(ks, decay_power)
    coef, *_ = np.linalg.lstsq(X, ys, rcond=None)
    resid = ys - X @ coef
    return float(coef[0]), float(coef[-1]), resid


def _split_windows(n: int):
    """Slices (w0, w1) of a sequence of n: w1 the tail half, w0 as long and
    starting a quarter of the way in."""
    return slice(n // 4, n // 4 + n - n // 2), slice(n // 2, n)


def _drift_verdict(ks: np.ndarray, log_radii: np.ndarray, scale_kind: str,
                   scale: float, drift_tol: float, radius_tol: float,
                   decay_power: float | None = None,
                   collapse_sign: int = -1) -> EnvelopeFit:
    """Shared Roumieu/Beurling/NoFit decision on an implied-radius sequence.

    ``collapse_sign`` is -1 when a collapsing radius (drift to 0) signals the
    universal flavor (coefficient/norm radius fits) and +1 when divergence to
    +inf does (classical-scale exponent fits).
    """
    w0, w1 = _split_windows(ks.size)
    lim1, drift, resid = _window_fit(ks[w1], log_radii[w1], decay_power)
    lim0, _, _ = _window_fit(ks[w0], log_radii[w0], decay_power)
    stability = lim1 - lim0
    peak = float(np.max(log_radii))

    fit = dict(scale_kind=scale_kind, scale=scale, radius=lim1,
               fit_window=(int(ks[w1][0]), int(ks[w1][-1])), drift=drift,
               stability=stability, orders=ks, log_radii=log_radii,
               residuals=resid)
    signed_drift = collapse_sign * drift
    collapsed = (signed_drift > drift_tol
                 or collapse_sign * stability > math.log(2.0)
                 or (collapse_sign < 0 and lim1 <= peak + math.log(FLOOR_FRACTION))
                 or (collapse_sign < 0 and lim1 < COLLAPSE_LOG_FLOOR))
    if collapsed:
        return EnvelopeFit(verdict="beurling", reason="radius collapses", **fit)
    if abs(drift) <= drift_tol and abs(stability) <= math.log1p(radius_tol):
        return EnvelopeFit(verdict="roumieu", reason="radius stable", **fit)
    return EnvelopeFit(verdict="nofit", reason="radius drifts without collapsing", **fit)


# ----------------------------------------------------------------------
# coefficient-route fits
# ----------------------------------------------------------------------

def fit_flat_sigma(profile: ShellProfile, sigma: float,
                   drift_tol: float = DRIFT_TOL,
                   radius_tol: float = RADIUS_TOL) -> EnvelopeFit:
    """Fit the radius of a_k <= r^k k!^{-1/(2 sigma)} from shell maxima."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    ks = profile.nonzero_shells(k_min=3)
    if ks.size < MIN_SHELLS:
        return _nofit("flat_sigma", sigma, f"only {ks.size} nonzero shells beyond k=2")
    k = ks.astype(float)
    log_t = profile.log_values[ks] / k + gammaln(k + 1.0) / (2.0 * sigma * k)
    return _drift_verdict(ks, log_t, "flat_sigma", sigma, drift_tol, radius_tol)


def fit_s_type(profile: ShellProfile, s: float,
               drift_tol: float = DRIFT_TOL,
               radius_tol: float = RADIUS_TOL) -> EnvelopeFit:
    """Fit the rate of a_k <= exp(-r k^{1/(2s)}) from shell maxima.

    The implied rate u_k = -log a_k / k^{1/(2s)} must stay bounded away from
    zero for membership; divergence to +inf means the universal flavor.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    ks = profile.nonzero_shells(k_min=3)
    if ks.size < MIN_SHELLS:
        return _nofit("s_type", s, f"only {ks.size} nonzero shells beyond k=2")
    k = ks.astype(float)
    neg_log = -profile.log_values[ks]
    keep = neg_log > 0
    if np.count_nonzero(keep) < MIN_SHELLS:
        return _nofit("s_type", s, "too few shells with |a_k| < 1")
    ks = ks[keep]
    u = np.log(neg_log[keep]) - np.log(ks.astype(float)) / (2.0 * s)
    fit = _drift_verdict(ks, u, "s_type", s, drift_tol, radius_tol,
                         decay_power=1.0 / (2.0 * s), collapse_sign=+1)
    if fit.verdict == "nofit" and fit.drift < -drift_tol:
        return EnvelopeFit(**{**fit.__dict__, "reason": "rate decays to zero: no radius works"})
    return fit


def estimate_sigma(profile: ShellProfile) -> float | None:
    """Scale estimate from regressing -log a_k on [log k!, k, 1].

    Returns 1/(2 beta) for the log k! coefficient when the factorial term
    genuinely carries the decay (misfit below 1 percent of the spread and
    beta > 0.02); None otherwise.
    """
    ks = profile.nonzero_shells(k_min=3)
    if ks.size < MIN_SHELLS:
        return None
    w1 = ks[_split_windows(ks.size)[1]]
    k = w1.astype(float)
    y = -profile.log_values[w1]
    X = np.stack([gammaln(k + 1.0), k, np.ones_like(k)], axis=1)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    spread = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    if spread == 0.0:
        return None
    rel_misfit = float(np.sqrt(np.mean(resid**2))) / spread
    r_squared = 1.0 - rel_misfit**2
    beta = float(coef[0])
    if beta > 0.02 and r_squared >= 0.99 and rel_misfit <= 0.01:
        return 1.0 / (2.0 * beta)
    return None


def estimate_s(profile: ShellProfile) -> float | None:
    """Scale estimate from the slope of log(-log a_k) against log k."""
    ks = profile.nonzero_shells(k_min=3)
    if ks.size < MIN_SHELLS:
        return None
    w1 = ks[_split_windows(ks.size)[1]]
    neg_log = -profile.log_values[w1]
    keep = neg_log > 0
    if np.count_nonzero(keep) < max(4, MIN_SHELLS // 2):
        return None
    k = w1[keep].astype(float)
    y = np.log(neg_log[keep])
    X = np.stack([np.log(k), np.ones_like(k)], axis=1)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    spread = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    if spread == 0.0:
        return None
    r_squared = 1.0 - float(np.mean(resid**2)) / spread**2
    p = float(coef[0])
    if p >= 0.1 and r_squared >= 0.99:
        return 1.0 / (2.0 * p)
    return None


# ----------------------------------------------------------------------
# classification pipeline
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthClass:
    """Position on the extended growth scale.

    ``kind`` is "finite_expansion", "flat_sigma", "s_type" or
    "unclassified".  ``degree`` (finite expansions) is the top nonzero
    shell, with None standing for the zero series (degree -inf).
    """

    kind: str
    parameter: float | None = None
    flavor: str | None = None
    radius: float | None = log_field(default=None)
    degree: int | None = None
    gauge: str = field(default=GAUGE_NOTE, init=False)
    diagnostics: dict = field(default_factory=dict)


def classify(series: HermiteSeries, sigma_probe_factor: float = 1.5) -> GrowthClass:
    """Decide the growth class of a coefficient tensor.

    Pipeline: finite-expansion short-circuit, then the flat scale (sigma
    estimated from the data, confirmed by fits at sigma-hat and at
    multiplicative probe offsets), then the classical scale, else
    unclassified with diagnostics.
    """
    profile = shell_profile(series)
    ks = profile.nonzero_shells(k_min=3)
    if ks.size < MIN_SHELLS:
        return GrowthClass(kind="finite_expansion", degree=profile.top_shell,
                           diagnostics={"nonzero_shells": int(ks.size)})

    diagnostics: dict = {}
    sigma_hat = estimate_sigma(profile)
    if sigma_hat is not None:
        fit = fit_flat_sigma(profile, sigma_hat)
        lo = fit_flat_sigma(profile, sigma_hat / sigma_probe_factor)
        hi = fit_flat_sigma(profile, sigma_hat * sigma_probe_factor)
        diagnostics.update({"flat_fit": fit, "probe_low": lo, "probe_high": hi,
                            "sigma_hat": sigma_hat})
        probe_ok = lo.verdict == "nofit" and hi.verdict == "beurling"
        if fit.verdict in ("roumieu", "beurling") and probe_ok:
            return GrowthClass(kind="flat_sigma", parameter=sigma_hat,
                               flavor=fit.verdict, radius=fit.radius,
                               diagnostics=diagnostics)

    s_hat = estimate_s(profile)
    if s_hat is not None:
        fit = fit_s_type(profile, s_hat)
        diagnostics.update({"s_fit": fit, "s_hat": s_hat})
        if fit.verdict in ("roumieu", "beurling"):
            return GrowthClass(kind="s_type", parameter=s_hat,
                               flavor=fit.verdict, radius=fit.radius,
                               diagnostics=diagnostics)

    return GrowthClass(kind="unclassified", diagnostics=diagnostics)


# ----------------------------------------------------------------------
# norm-route fit and cross validation
# ----------------------------------------------------------------------

_NEWTON_STEPS = 100     # hard cap; no input seen needs more than 7


def _matched_log_radii(log_norms: np.ndarray, powers: np.ndarray, sigma: float,
                       max_degree: int, dimension: int) -> np.ndarray:
    """Per power N, the radius whose canonical flat-scale family

        c_k = r^k k!^{-1/(2 sigma)},   k = 0..max_degree,

    has the observed norm of H^N f.  Matching against the family at the same
    truncation removes both the asymptotic slack of the closed-form envelope
    and the degree-cutoff contamination at large N, neither of which the
    flavor dichotomy is about.

    With u = log r the family's log norm is g(u) = (1/2) log sum_k exp(m_k),
    m_k = t_k + 2 k u, t_k = -log k!/sigma + 2 N log(2k + d).  g is
    increasing and convex, and g' is the softmax mean of k.

    - Clip: a target T <= g(-100) gives -100 and T >= g(100) gives 100.
    - Every other power is solved by Newton's method from above.  The start
      is where term 0 (which does not move with u) and the single term k
      that gets there first together reach T; g is at least those two terms,
      so the start is at or above the root, and g being convex, each step
      moves down towards it without crossing.  Starts and steps are kept
      within [-100, 100].
    - A row retires when g(u) <= T or a step no longer decreases u.  g is
      evaluated as its top term plus log1p of the others, so it keeps its
      last bits where the others sum below the float epsilon.

    All powers run as one (powers, max_degree + 1) array pass per step, with
    row-local reductions only, so a radius does not depend on the batch it
    is inverted in.
    """
    ks = np.arange(max_degree + 1, dtype=float)
    base_w = -gammaln(ks + 1.0) / sigma
    lam = np.log(2.0 * ks + dimension)
    terms = base_w + (2.0 * np.asarray(powers, dtype=float))[:, None] * lam
    two_k = 2.0 * ks
    target = np.asarray(log_norms, dtype=float)
    every = np.arange(target.size)

    def top_terms(rows: np.ndarray, log_r: np.ndarray):
        """Each row's largest exponent m_j, its index j, and exp(m - m_j)."""
        m = terms[rows] + two_k * log_r[:, None]
        j = np.argmax(m, axis=1)
        top = m[np.arange(rows.size), j]
        return top, j, np.exp(m - top[:, None])

    def clip_gap(log_r: float) -> np.ndarray:
        top, _, e = top_terms(every, np.full(target.size, log_r))
        # math.log, not np.log: the two differ in the last bit on some inputs
        log_sums = np.array([math.log(v) for v in np.sum(e, axis=1).tolist()])
        return 0.5 * (top + log_sums) - target

    below = clip_gap(-100.0) >= 0.0
    above = clip_gap(100.0) <= 0.0
    out = np.where(below, -100.0, 100.0)
    rows = every[~(below | above)]
    if rows.size == 0:     # always so for max_degree = 0, where g is constant
        return out
    # T > g(-100) >= t_0/2, so exp(2T) - exp(t_0) > 0; the start solves
    # t_k + 2 k u = log(exp(2T) - exp(t_0)) for the k that needs the least u
    t2 = 2.0 * target[rows]
    lead = t2 + np.array([math.log(-math.expm1(v)) for v in (terms[rows, 0] - t2).tolist()])
    u = np.clip(np.min((lead[:, None] - terms[rows, 1:]) / two_k[1:], axis=1), -100.0, 100.0)
    for _ in range(_NEWTON_STEPS):
        top, j, e = top_terms(rows, u)
        e[np.arange(rows.size), j] = 0.0
        rest = np.sum(e, axis=1)
        gap = 0.5 * (top + np.array([math.log1p(v) for v in rest.tolist()])) - target[rows]
        live = gap > 0.0
        step = u.copy()
        slope = (np.sum(e[live] * ks, axis=1) + j[live]) / (1.0 + rest[live])
        step[live] = np.maximum(u[live] - gap[live] / slope, -100.0)
        done = ~(step < u)
        out[rows[done]] = u[done]
        rows, u = rows[~done], step[~done]
        if rows.size == 0:
            return out
    raise RuntimeError(f"radius inversion did not converge in {_NEWTON_STEPS} Newton steps")


def fit_radius_from_norms(seq: NormSequence, sigma: float,
                          drift_tol: float = DRIFT_TOL,
                          radius_tol: float = RADIUS_TOL) -> EnvelopeFit:
    """Fit the flat-scale radius from a norm sequence of oscillator powers.

    Each power is inverted against the canonical radius-r family at the
    sequence's degree cutoff (exact for on-model data at every N).  Only
    powers with N sigma > e enter; at least 6 are required.
    """
    sig = float(sigma)
    if sig <= 0:
        raise ValueError("sigma must be positive")
    valid = (seq.powers * sig > _E) & np.isfinite(seq.logs)
    if np.count_nonzero(valid) < 6:
        return _nofit("norm_sigma", sig,
                      f"only {int(np.count_nonzero(valid))} powers with N*sigma > e")
    log_r = _matched_log_radii(seq.logs[valid], seq.powers[valid].astype(float), sig,
                               seq.max_degree, seq.dimension)
    return _drift_verdict(seq.powers[valid], log_r, "norm_sigma", sig, drift_tol, radius_tol)


@dataclass(frozen=True)
class CrossValidationReport:
    """Coefficient-route vs norm-route flavor comparison at one sigma.

    Only flavor agreement is asserted; the two fitted radii are reported but
    not compared, since the envelope conversions between the routes rescale
    the radius in ways the theory does not pin down.
    """

    sigma: float
    coeff_flavor: str
    norm_flavor: str
    agrees: bool
    coeff_fit: EnvelopeFit | None
    norm_fit: EnvelopeFit


def cross_validate(series: HermiteSeries, sigma: float, n_max: int = 40) -> CrossValidationReport:
    """Run both routes of the coefficient/norm equivalence and compare flavors.

    Finite expansions count as the universal flavor on the coefficient side:
    they satisfy the coefficient envelope for every radius.
    """
    profile = shell_profile(series)
    ks = profile.nonzero_shells(k_min=3)
    if ks.size < MIN_SHELLS:
        coeff_fit = None
        coeff_flavor = "beurling"
    else:
        coeff_fit = fit_flat_sigma(profile, sigma)
        coeff_flavor = coeff_fit.verdict
    seq = norm_sequence(series, n_max, "l2")
    norm_fit = fit_radius_from_norms(seq, sigma)
    return CrossValidationReport(
        sigma=sigma,
        coeff_flavor=coeff_flavor,
        norm_flavor=norm_fit.verdict,
        agrees=coeff_flavor == norm_fit.verdict,
        coeff_fit=coeff_fit,
        norm_fit=norm_fit,
    )


def coeff_bound_from_norms(seq: NormSequence, order: int) -> float:
    """log of a certified upper bound for every |c_alpha| with |alpha| = order:

        min over recorded N of ||H^N f||_{L2} / (2 order + d)^N.

    Valid because each Hermite coefficient of H^N f is bounded by the L2
    norm and equals (2|alpha| + d)^N c_alpha.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if seq.powers.size == 0:
        raise ValueError("empty norm sequence")
    lam = math.log(2.0 * order + seq.dimension)
    return float(np.min(seq.logs - seq.powers * lam))
