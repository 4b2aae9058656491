"""Preset functions and synthetic coefficient fixtures.

Synthetic fixtures are generated directly in coefficient space (never by
sampling) so their growth class is known exactly; the sampled presets are
callables handed to ``analyze``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy.special import gammaln

from .series import HermiteSeries, MultiIndex, _degree_mask, analyze

__all__ = ["Preset", "build_preset", "gaussian_callable", "modulated_gaussian_callable",
           "synthetic_flat", "synthetic_s", "finite_random", "PRESET_NAMES"]

PRESET_NAMES = ("gaussian", "hermite", "modulated_gaussian", "synthetic_flat",
                "synthetic_s", "finite_random")

_MAX_SYNTHETIC_DEGREE = 200
_MAX_ANALYZED_DEGREE = 60


def gaussian_callable(width: float = 1.0, dimension: int = 1):
    """f(x) = exp(-|x|^2 / (2 width^2)); width 1 is the ground-state shape."""
    if width <= 0:
        raise ValueError("width must be positive")

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = pts**2 if dimension == 1 else np.sum(pts**2, axis=-1)
        return np.exp(-r2 / (2.0 * width**2))

    return f


def modulated_gaussian_callable(width: float = 1.0, shift: float = 0.0,
                                frequency: float = 0.0):
    """Shifted, frequency-modulated Gaussian on the line (complex-valued)."""
    if width <= 0:
        raise ValueError("width must be positive")

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-((x - shift) ** 2) / (2.0 * width**2) + 1j * frequency * x)

    return f


def synthetic_flat(sigma: float, r: float, max_degree: int) -> HermiteSeries:
    """Exact flat-scale generator c_k = r^k k!^{-1/(2 sigma)} in dimension 1.

    Entries below the float underflow line are dropped; within the
    documented ranges (max_degree <= 200, sigma >= 1/4) none are.
    """
    _check_synthetic(sigma, r, max_degree)
    k = np.arange(max_degree + 1)
    return _line_series(k * math.log(r) - gammaln(k + 1) / (2.0 * sigma), max_degree)


def synthetic_s(s: float, r: float, max_degree: int) -> HermiteSeries:
    """Exact classical-scale generator c_k = exp(-r k^{1/(2s)}), dimension 1."""
    _check_synthetic(s, r, max_degree)
    # 0.5 / s, not 1 / (2 s): 2s overflows for s > 9e307, and 0 ** 0 is 1
    powers = map(math.pow, range(max_degree + 1), repeat(0.5 / s))
    return _line_series(-r * np.array(list(powers)), max_degree)


def _line_series(log_c: np.ndarray, max_degree: int) -> HermiteSeries:
    """Line series c_k = exp(log_c[k]) without the entries with log_c <= -700;
    math.exp keeps the values bitwise per-entry values."""
    keep = np.flatnonzero(log_c > -700.0)
    return HermiteSeries.from_arrays(1, max_degree, keep[:, None],
                                     list(map(math.exp, log_c[keep].tolist())))


def finite_random(max_degree: int, seed: int, dimension: int = 1) -> HermiteSeries:
    """Random finite combination: standard complex gaussians on |alpha| <= M,
    drawn (re, im) per index with the indices in lexicographic order."""
    if not 0 <= max_degree <= _MAX_SYNTHETIC_DEGREE:
        raise ValueError(f"max_degree must be in [0, {_MAX_SYNTHETIC_DEGREE}]")
    indices = np.argwhere(_degree_mask(max_degree, dimension))
    draws = np.random.default_rng(seed).standard_normal((len(indices), 2))
    return HermiteSeries.from_arrays(dimension, max_degree, indices,
                                     draws.view(complex)[:, 0])


def _check_synthetic(scale: float, r: float, max_degree: int) -> None:
    if scale <= 0 or r <= 0:
        raise ValueError("scale and radius must be positive")
    if not 0 <= max_degree <= _MAX_SYNTHETIC_DEGREE:
        raise ValueError(f"max_degree must be in [0, {_MAX_SYNTHETIC_DEGREE}]")


@dataclass(frozen=True)
class Preset:
    """A named preset with its parameters, parseable from 'name:p1,p2,...'."""

    name: str
    params: tuple

    @classmethod
    def parse(cls, text: str) -> "Preset":
        name, _, rest = text.partition(":")
        name = name.strip()
        if name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
        params = tuple(float(p) for p in rest.split(",") if p.strip()) if rest else ()
        if not all(math.isfinite(v) for v in params):
            raise ValueError(f"preset parameters must be finite, got {rest!r}")
        return cls(name=name, params=params)


def build_preset(preset: Preset, dimension: int = 1, max_degree: int = 10,
                 quad_order: int | None = None) -> HermiteSeries:
    """Materialize a preset as a HermiteSeries.

    Coefficient-space presets (hermite, synthetic_*, finite_random) are
    exact; the sampled presets go through tensor quadrature and respect the
    analyzed-degree cap.
    """
    name, p = preset.name, preset.params
    if name == "hermite":
        alpha = MultiIndex(int(v) for v in p) if p else MultiIndex((0,))
        return HermiteSeries.from_arrays(len(alpha), alpha.order, [alpha], [1.0])
    if name == "synthetic_flat":
        sigma, r, M = (list(p) + [1.0, 1.0, 80])[:3]
        return synthetic_flat(sigma, r, int(M))
    if name == "synthetic_s":
        s, r, M = (list(p) + [0.5, 1.0, 80])[:3]
        return synthetic_s(s, r, int(M))
    if name == "finite_random":
        M, seed = (list(p) + [10, 0])[:2]
        return finite_random(int(M), int(seed), dimension)
    if max_degree > _MAX_ANALYZED_DEGREE:
        raise ValueError(f"analyzed presets cap max_degree at {_MAX_ANALYZED_DEGREE}")
    if name == "gaussian":
        width = p[0] if p else 1.0
        f = gaussian_callable(width, dimension)
        return analyze(f, dimension, max_degree, quad_order)
    if name == "modulated_gaussian":
        width, shift, freq = (list(p) + [1.0, 0.0, 0.0])[:3]
        if dimension != 1:
            raise ValueError("modulated_gaussian is a line preset")
        return analyze(modulated_gaussian_callable(width, shift, freq),
                       1, max_degree, quad_order)
    raise ValueError(f"unhandled preset {name!r}")
