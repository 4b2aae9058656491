"""Discrete short-time Fourier transform and weighted mixed norms.

The STFT uses the unit-L2 Gaussian window pi^{-1/4} exp(-t^2/2),

    V(x, xi) = integral f(t) window(t - x) exp(-i t xi) dt,

and for that window the transform of each Hermite function has a closed
form (Bargmann, CPAM 14, 1961), with z = (x + i xi)/sqrt(2):

    V h_k(x, xi) = exp(-i x xi/2) zbar^k / sqrt(k!) exp(-|z|^2/2).

Every weight depends on |x|^2 + |xi|^2 = 2|z|^2 only, so the angular
integrals make the (2,2) norm diagonal in the shell energies S_k (Groechenig,
Foundations of Time-Frequency Analysis, 2001, 3.2): ||w V f||^2 = sum_k S_k
m_k(w) with m_k(w) = E[w(2T)^2], T ~ Gamma(k + d).  So (2,2) needs no grid,
in any dimension.  The other (p, q) sample the transform on a grid, d <= 2,
whose basis fields are built once by F_k = F_{k-1} zbar/sqrt(k).

Mixed norms take the inner ell^p over the spatial axes (cell volume dx^d)
and the outer ell^q over the frequency axes with cell volume (dxi/(2 pi))^d;
the 1/(2 pi) per frequency axis makes the discrete (2,2)-norm with constant
weight reproduce the L2 norm (the energy identity), which anchors all the
fitted constants.  p or q below 1 are admitted as quasi-norms: same formula,
no triangle inequality claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expn, gammaln

from .classify import EnvelopeFit, fit_radius_from_norms
from .series import HermiteSeries
from .spectral import (GridSpec, NormSequence, _grid_log_norms, _l2_log_norms_powered,
                       _logsumexp, _power_range, _powered_blocks, turning_point_extent)

__all__ = ["Weight", "StftGrid", "StftField", "MixedNormParams", "stft",
           "modulation_norm", "norm_sequence_mod", "norm_equiv_harness",
           "NormEquivReport", "StftGridError"]

_MAX_FIELD_ENTRIES = 1 << 24
_LOG_START_FLOOR = -600.0   # exp(-|z|^2/2) is a normal float above this log
_RECIPROCAL_MAX_N, _RECIPROCAL_MAX_SHAPE = 5, 500   # where mpmath certifies 1/vN moments


class StftGridError(ValueError):
    pass


@dataclass(frozen=True)
class Weight:
    """Phase-space weight: (1 + |x|^2 + |xi|^2)^(+/-N) or constant 1.

    ``kind`` is "polynomial", "reciprocal" or "constant".  Polynomial-type
    weights are moderate: w(z + y) <= C w(z) (1 + |y|)^(2N) with C = 2^N.
    """

    kind: str = "constant"
    N: int = 0

    def __post_init__(self):
        if self.kind not in ("polynomial", "reciprocal", "constant"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind != "constant" and self.N < 1:
            raise ValueError("polynomial weights need N >= 1")

    @classmethod
    def parse(cls, text: str) -> "Weight":
        t = text.strip().lower()
        if t in ("const", "constant", "1"):
            return cls("constant", 0)
        if t.startswith("1/v"):
            return cls("reciprocal", int(t[3:]))
        if t.startswith("v"):
            return cls("polynomial", int(t[1:]))
        raise ValueError(f"cannot parse weight {text!r} (use const, vN or 1/vN)")

    def label(self) -> str:
        return {"constant": "const", "polynomial": f"v{self.N}",
                "reciprocal": f"1/v{self.N}"}[self.kind]

    def log_on(self, radial_sq: np.ndarray) -> np.ndarray:
        """log weight given |x|^2 + |xi|^2 on the grid."""
        if self.kind == "constant":
            return np.zeros_like(radial_sq)
        body = self.N * np.log1p(radial_sq)
        return body if self.kind == "polynomial" else -body

    def log_moments(self, kmax: int, d: int) -> np.ndarray | None:
        """log m_k = log E[w(2T)^2], T ~ Gamma(k + d), k = 0..kmax: the factor of
        shell k in the squared (2,2) norm; None where it is not certified."""
        a = np.arange(d, kmax + d + 1, dtype=float)
        m = 2 * self.N
        if self.kind == "constant":
            return np.zeros(a.size)
        if self.kind == "polynomial":
            # E(1 + 2T)^m = sum_j C(m, j) 2^j (a)_j, the rising factorial as a sum of logs
            j = np.arange(m + 1)
            log_rising = np.zeros((a.size, m + 1))
            np.cumsum(np.log(a[:, None] + j[:-1]), axis=1, out=log_rising[:, 1:])
            log_c = np.array([math.log(math.comb(m, i)) for i in j]) + j * math.log(2.0)
            return _logsumexp(log_c + log_rising, axis=1)
        if self.N > _RECIPROCAL_MAX_N or kmax + d > _RECIPROCAL_MAX_SHAPE:
            return None
        # F_j(s) = E(1 + 2T)^-j, T ~ Gamma(s): F_j(s + 1) = (F_{j-1}(s) - F_j(s)) / (2s)
        # (integrate by parts), from F_0 = 1 and F_j(1) = e^(1/2) E_j(1/2) / 2
        F = np.concatenate(([1.0], 0.5 * math.exp(0.5) * expn(np.arange(1, m + 1), 0.5)))
        out = []
        for s in range(1, kmax + d + 1):
            out.append(F[m])
            F[1:] = (F[:-1] - F[1:]) / (2.0 * s)
        return np.log(out[d - 1:])

    def moderation_constant(self, n_samples: int = 10_000, box: float = 20.0,
                            seed: int = 7) -> float:
        """Fitted C with w(z+y) <= C w(z) (1+|y|)^(2N) on random triples."""
        if self.kind == "constant":
            return 1.0
        rng = np.random.default_rng(seed)
        z = rng.uniform(-box, box, size=(n_samples, 2))
        y = rng.uniform(-box, box, size=(n_samples, 2))
        log_w_zy = self.log_on(np.sum((z + y) ** 2, axis=1))
        log_w_z = self.log_on(np.sum(z**2, axis=1))
        # 1/v_N is moderate with the same exponent as v_N
        bound = 2.0 * self.N * np.log1p(np.linalg.norm(y, axis=1))
        return float(np.exp(np.max(log_w_zy - log_w_z - bound)))


@dataclass(frozen=True)
class StftGrid:
    """Uniform phase-space grid for the unit-width Gaussian window."""

    spatial_step: float
    freq_step: float
    spatial_extent: float
    freq_extent: float

    def __post_init__(self):
        if self.spatial_step <= 0 or self.freq_step <= 0:
            raise ValueError("grid steps must be positive")

    @classmethod
    def default_for(cls, series: HermiteSeries, step: float = 0.25,
                    padding: float = 6.0) -> "StftGrid":
        M, d = series.max_degree, series.dimension
        return cls(spatial_step=step, freq_step=step,
                   spatial_extent=turning_point_extent(M, d, padding),
                   freq_extent=math.sqrt(2.0 * (2 * M + d)) + padding)

    def x_axis(self) -> np.ndarray:
        n = int(math.floor(self.spatial_extent / self.spatial_step))
        return self.spatial_step * np.arange(-n, n + 1)

    def xi_axis(self) -> np.ndarray:
        n = int(math.floor(self.freq_extent / self.freq_step))
        return self.freq_step * np.arange(-n, n + 1)

    def validate_for(self, series: HermiteSeries) -> None:
        M, d = series.max_degree, series.dimension
        if self.spatial_step > 0.5 or self.freq_step > 0.5:
            raise StftGridError(
                f"steps ({self.spatial_step}, {self.freq_step}) undersample the "
                f"window-scale structure of the transform (need <= 0.5 spatial, "
                f"0.5 frequency)")
        if self.freq_extent < math.sqrt(2 * M + d):
            raise StftGridError(
                f"frequency extent {self.freq_extent:.3g} does not cover the "
                f"spectral support ~sqrt(2M+d) = {math.sqrt(2 * M + d):.3g}")
        if self.spatial_extent < math.sqrt(2 * M):
            raise StftGridError("spatial extent does not cover the turning points")


@dataclass(frozen=True)
class StftField:
    """Sampled transform: values indexed by d spatial then d frequency axes."""

    dimension: int
    values: np.ndarray
    x_axis: np.ndarray
    xi_axis: np.ndarray
    grid: StftGrid


@dataclass(frozen=True)
class MixedNormParams:
    p: float
    q: float
    weight: Weight = field(default_factory=Weight)

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0):
            raise ValueError("p and q must be positive (inf allowed)")

    @classmethod
    def parse(cls, text: str) -> "MixedNormParams":
        """Parse the norm kind ``mod:p,q,weight`` (p and q may be inf)."""
        parts = text.removeprefix("mod:").split(",")
        if len(parts) != 3:
            raise ValueError("mod norm needs p,q,weight (e.g. mod:2,2,const)")
        return cls(float(parts[0]), float(parts[1]), Weight.parse(parts[2]))

    def label(self) -> str:
        def fmt(v):
            return "inf" if v == math.inf else f"{v:g}"
        return f"mod:{fmt(self.p)},{fmt(self.q)},{self.weight.label()}"


def _bargmann_basis(kmax: int, x, xi) -> np.ndarray:
    """F_k = V h_k for k = 0..kmax at the points (x, xi), broadcast together;
    shape (kmax + 1,) + the broadcast shape.

    F_0 = exp(-i x xi/2 - |z|^2/2) and F_k = F_{k-1} zbar/sqrt(k).  Since
    sum_k |F_k|^2 = 1 at every point, no F_k can overflow, but F_0 underflows
    once |z|^2 nears 1416 while F_k for k near |z|^2 is still of order
    k^{-1/4}.  Points whose start is below _LOG_START_FLOOR are evaluated
    in the log domain instead, as exp(k log zbar - log(k!)/2 - |z|^2/2 - i x xi/2).
    """
    x, xi = np.broadcast_arrays(x, xi)
    zbar = (x - 1j * xi) / math.sqrt(2.0)
    log_f0 = -0.25 * (x * x + xi * xi) - 0.5j * x * xi
    out = np.empty((kmax + 1,) + zbar.shape, dtype=complex)
    np.exp(log_f0, out=out[0])
    for k in range(1, kmax + 1):
        np.multiply(out[k - 1], zbar, out=out[k])
        out[k] *= 1.0 / math.sqrt(k)
    deep = log_f0.real < _LOG_START_FLOOR
    if deep.any():
        k = np.arange(kmax + 1)[:, None]
        out[:, deep] = np.exp(k * np.log(zbar[deep]) - 0.5 * gammaln(k + 1) + log_f0[deep])
    return out


class _StftAxisMap:
    """Linear map from Hermite coefficients to the STFT on a grid, d <= 2.

    ``basis`` holds the closed-form fields V h_0..V h_kmax on the grid's
    (x, xi) axes, shape (K, nx, nxi).  A 1-d transform is one contraction of
    the coefficients with it; for d = 2 the window and basis factorize, so
    the coefficient matrix is contracted with the same fields one axis at a
    time.
    """

    def __init__(self, series: HermiteSeries, grid: StftGrid):
        kmax = max(series.degrees_per_axis())
        self.basis = _bargmann_basis(kmax, grid.x_axis()[:, None], grid.xi_axis()[None, :])

    def field(self, dense: np.ndarray) -> np.ndarray:
        """STFT values of dense coefficients, axes (x_1..x_d, xi_1..xi_d)."""
        vals = np.tensordot(dense, self.basis[:dense.shape[0]], axes=([0], [0]))
        if dense.ndim == 1:
            return vals
        vals = np.tensordot(vals, self.basis[:dense.shape[1]], axes=([0], [0]))
        return vals.transpose(0, 2, 1, 3)     # (x1, xi1, x2, xi2) -> (x1, x2, xi1, xi2)


def _checked_axes(series: HermiteSeries, grid: StftGrid):
    if series.dimension > 2:
        raise ValueError("stft is limited to dimension <= 2")
    grid.validate_for(series)
    x = grid.x_axis()
    xi = grid.xi_axis()
    d = series.dimension
    if (x.size * xi.size) ** d > _MAX_FIELD_ENTRIES:
        raise StftGridError(
            f"field would hold {(x.size * xi.size) ** d} entries; in d >= 2 only "
            f"mod:2,2 norms run (weight const, vN, or 1/vN with N <= {_RECIPROCAL_MAX_N})")
    return x, xi


def _radial_sq(x: np.ndarray, xi: np.ndarray, d: int) -> np.ndarray:
    """|x|^2 + |xi|^2 on the grid, axes (x_1..x_d, xi_1..xi_d)."""
    return sum(np.ix_(*[x ** 2] * d, *[xi ** 2] * d))


def stft(series: HermiteSeries, grid: StftGrid | None = None) -> StftField:
    """Short-time Fourier transform with Gaussian window, d <= 2.

    The one-power case of ``norm_sequence_mod``: the dense coefficients
    contracted with the closed-form transforms V h_k on the grid, per axis.
    """
    grid = grid or StftGrid.default_for(series)
    x, xi = _checked_axes(series, grid)
    smap = _StftAxisMap(series, grid)
    return StftField(series.dimension, smap.field(series.dense()), x, xi, grid)


def modulation_norm(fld: StftField, params: MixedNormParams, *,
                    log_weight: np.ndarray | None = None) -> float:
    """log of the discrete weighted mixed norm of an STFT field, -inf for zero.

    Inner ell^p over the spatial axes, outer ell^q over the frequency axes;
    p or q = inf take sups.  Computed in the log domain.  ``log_weight`` is
    ``params.weight.log_on`` over the field's grid, for a caller that reuses it.
    """
    d = fld.dimension
    if log_weight is None:
        log_weight = params.weight.log_on(_radial_sq(fld.x_axis, fld.xi_axis, d))
    with np.errstate(divide="ignore"):
        log_f = np.log(np.abs(fld.values)) + log_weight
    if not np.any(np.isfinite(log_f)):
        return -math.inf
    x_axes = tuple(range(d))
    log_dx = d * math.log(fld.grid.spatial_step)
    log_dxi = d * (math.log(fld.grid.freq_step) - math.log(2.0 * math.pi))
    if params.p == math.inf:
        inner = np.max(log_f, axis=x_axes)
    else:
        inner = (_logsumexp(params.p * log_f, axis=x_axes) + log_dx) / params.p
    if params.q == math.inf:
        out = float(np.max(inner))
    else:
        finite = inner[np.isfinite(inner)]
        if finite.size == 0:
            return -math.inf
        out = float((_logsumexp(params.q * finite) + log_dxi) / params.q)
    return out


def _mod_log_norms(series: HermiteSeries, powers, params_list, grid: StftGrid) -> np.ndarray:
    """log modulation norms of H^N f, shape (len(params_list), len(powers)).

    The closed-form basis fields and each weight's logs are built once per
    grid; each power transforms its log-scaled coefficients (see
    ``spectral._powered_blocks``) and adds the scale back in log space, so
    any power is admitted.
    """
    x, xi = _checked_axes(series, grid)
    smap = _StftAxisMap(series, grid)
    radial = _radial_sq(x, xi, series.dimension)
    log_weights = [params.weight.log_on(radial) for params in params_list]
    out = np.empty((len(params_list), len(powers)))
    for j, (top, block) in enumerate(_powered_blocks(series, powers)):
        fld = StftField(series.dimension, smap.field(block), x, xi, grid)
        for i, (params, log_w) in enumerate(zip(params_list, log_weights)):
            out[i, j] = top + modulation_norm(fld, params, log_weight=log_w)
    return out


def norm_sequence_mod(series: HermiteSeries, n_max: int, params: MixedNormParams, *,
                      grid: StftGrid | None = None, n_min: int = 0) -> NormSequence:
    """Modulation norms of H^N f for N = n_min..n_max.

    (2,2) is the l2 route with log m_k(w) added per shell, in any dimension
    (constant weight gives the l2 rows bit for bit).  The other (p, q), and
    1/vN where ``Weight.log_moments`` is uncertified, take ``grid`` (d <= 2):
    one contraction with its closed-form basis per power.
    """
    powers = _power_range(n_min, n_max)
    log_m = (params.weight.log_moments(series.max_degree, series.dimension)
             if params.p == params.q == 2 else None)
    if log_m is not None:
        logs = _l2_log_norms_powered(series, np.array(powers), log_m)
    else:
        logs = _mod_log_norms(series, powers, [params], grid or StftGrid.default_for(series))[0]
    return NormSequence(series.dimension, series.max_degree, params.label(), powers, logs)


@dataclass(frozen=True)
class NormEquivReport:
    """Lebesgue-route vs modulation-route envelope comparison.

    Flavors must agree; the per-power radius gaps are reported with their
    window stability, and the embedding constants between the two norm
    families are fitted, never assumed.
    """

    p0: float
    params_label: str
    n0: int
    lp_fit: EnvelopeFit
    mod_fit: EnvelopeFit
    flavors_agree: bool
    gap_window: float
    gap_shifted: float
    gap_stable: bool
    embed_upper: float
    embed_lower: float


def _conjugate(p: float) -> float:
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def norm_equiv_harness(series: HermiteSeries, sigma: float, p0: float,
                       params: MixedNormParams, n_max: int = 16, n0: int = 0,
                       grid: StftGrid | None = None) -> NormEquivReport:
    """Check that the envelope verdict survives swapping L^{p0} for a
    weighted modulation norm.

    Fits the radius sequence from both norm families, requires flavor
    agreement, reports the per-power radius gap with window stability, and
    fits the embedding constants relating the (p0, q1)/(p0, q2) modulation
    norms to L^{p0} with q1 = min(p0, p0'), q2 = max(p0, p0') over N <= 6.
    Both families come from one basis each (the L^{p0} grid rows of
    ``norm_sequence`` and the closed-form STFT fields V h_k of
    ``norm_sequence_mod``), and all three modulation norms of a power share
    its transform.
    """
    if series.dimension != 1:
        raise ValueError("the harness runs at desk scale: dimension 1 only")
    mod_powers = _power_range(n0, n_max)
    grid = grid or StftGrid.default_for(series)
    powers = range(0, n_max + 1)
    lp_logs = _grid_log_norms(series, powers, p0, GridSpec())
    lp_seq = NormSequence(1, series.max_degree, "linf" if p0 == math.inf else f"lp:{p0:g}",
                          powers, lp_logs)
    q1, q2 = min(p0, _conjugate(p0)), max(p0, _conjugate(p0))
    w_const = MixedNormParams(p0, q1, Weight())
    w_const2 = MixedNormParams(p0, q2, Weight())
    mod_logs, m_q1, m_q2 = _mod_log_norms(series, powers, [params, w_const, w_const2], grid)
    mod_seq = NormSequence(1, series.max_degree, params.label(), mod_powers, mod_logs[n0:])

    lp_fit = fit_radius_from_norms(lp_seq, sigma)
    mod_fit = fit_radius_from_norms(mod_seq, sigma)

    # per-power radius gaps on the common tail window
    common = sorted(set(int(k) for k in lp_fit.orders) & set(int(k) for k in mod_fit.orders))
    lp_by = {int(k): v for k, v in zip(lp_fit.orders, lp_fit.log_radii)}
    mod_by = {int(k): v for k, v in zip(mod_fit.orders, mod_fit.log_radii)}
    gaps = np.array([abs(lp_by[k] - mod_by[k]) for k in common])
    half = len(common) // 2
    quarter = len(common) // 4
    gap_window = float(np.max(gaps[half:])) if gaps.size > half else math.nan
    gap_shifted = (float(np.max(gaps[quarter: quarter + (len(common) - half)]))
                   if gaps.size else math.nan)
    gap_stable = (math.isfinite(gap_window)
                  and abs(gap_window - gap_shifted) <= 0.25 * max(gap_window, gap_shifted, 1e-3))

    embed = slice(0, min(n_max, 6) + 1)
    # ||f||_{M^{p0,q2}} <= C ||f||_{Lp0} and ||f||_{Lp0} <= C' ||f||_{M^{p0,q1}}
    embed_upper = float(np.max(m_q2[embed] - lp_logs[embed]))
    embed_lower = float(np.max(lp_logs[embed] - m_q1[embed]))
    return NormEquivReport(
        p0=p0, params_label=params.label(), n0=n0,
        lp_fit=lp_fit, mod_fit=mod_fit,
        flavors_agree=lp_fit.verdict == mod_fit.verdict,
        gap_window=gap_window, gap_shifted=gap_shifted, gap_stable=bool(gap_stable),
        embed_upper=math.exp(embed_upper), embed_lower=math.exp(embed_lower),
    )
