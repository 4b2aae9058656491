"""Independent references for the benchmark's output checks.

Nothing here calls the norm, fit, envelope or quadrature code of ``hgl``:
Hermite functions come from a separate numpy/mpmath recurrence, integrals
from the trapezoid rule on a uniform grid (spectrally accurate for the
rapidly decaying smooth integrands used here), Gaussian coefficients from
their closed form, and envelope values from the paper's formulas evaluated
in mpmath.  A failed check raises CheckError with a one-line reason.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np
from scipy.special import gammaln, logsumexp

mpmath.mp.dps = 30


class CheckError(Exception):
    """Raised inside a checker; the message becomes the failure reason."""


def strict_json(text: str):
    """Parse JSON, refusing the bare NaN/Infinity tokens strict parsers reject."""
    def refuse(token):
        raise CheckError(f"report is not strict JSON: bare {token}")
    return json.loads(text, parse_constant=refuse)


def close(a: float, b: float, tol: float, what: str) -> None:
    """|a - b| within tol, scaled by |b| once |b| > 1: for agreement to
    floating-point precision, whose rounding grows with the value."""
    if not (math.isfinite(a) and abs(a - b) <= tol * max(1.0, abs(b))):
        raise CheckError(f"{what}: got {a!r}, reference {b!r} (tol {tol:g})")


def close_log(a: float, b: float, tol: float, what: str) -> None:
    """|a - b| within tol, unscaled: for logs of norms that agree only up to
    an approximation error, where tol is the log of the allowed ratio."""
    if not (math.isfinite(a) and abs(a - b) <= tol):
        raise CheckError(f"{what}: got {a!r}, reference {b!r} (log tol {tol:g})")


def run_check(fn, *args) -> str | None:
    try:
        fn(*args)
    except CheckError as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


# ----------------------------------------------------------------------
# Hermite functions, own implementation
# ----------------------------------------------------------------------

def hermite_table(kmax: int, x: np.ndarray) -> np.ndarray:
    """h_0..h_kmax at x, shape (kmax+1, len(x)), plain three-term recurrence.

    Only used for |x| well inside the float range of exp(-x^2/2) (|x| < 35),
    where no rescaling is needed for kmax <= 60.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if kmax >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, kmax):
        out[k + 1] = (math.sqrt(2.0 / (k + 1)) * x * out[k]
                      - math.sqrt(k / (k + 1)) * out[k - 1])
    return out


def hermite_mp(kmax: int, x) -> list:
    """h_0..h_kmax at one point in mpmath precision."""
    x = mpmath.mpf(x)
    vals = [mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-x * x / 2)]
    if kmax >= 1:
        vals.append(mpmath.sqrt(2) * x * vals[0])
    for k in range(1, kmax):
        vals.append(mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * x * vals[k]
                    - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * vals[k - 1])
    return vals


def gaussian_coeffs_1d(width: float, kmax: int) -> np.ndarray:
    """Closed-form Hermite coefficients of exp(-x^2 / (2 width^2)).

    With b = (1 + 1/width^2)/2 and q = 1/b - 1,
    c_{2j} = (2^{2j} (2j)! sqrt(pi))^{-1/2} sqrt(pi/b) (2j)!/j! q^j, odd ones 0.
    """
    b = 0.5 * (1.0 + 1.0 / width**2)
    q = 1.0 / b - 1.0
    out = np.zeros(kmax + 1)
    for j in range(kmax // 2 + 1):
        n = 2 * j
        log_c = (-0.5 * (n * math.log(2.0) + gammaln(n + 1) + 0.5 * math.log(math.pi))
                 + 0.5 * math.log(math.pi / b) + gammaln(n + 1) - gammaln(j + 1))
        if j == 0:
            out[n] = math.exp(log_c)
        elif q != 0.0:
            out[n] = math.copysign(math.exp(log_c + j * math.log(abs(q))), q ** j)
    return out


def projected_coeffs_1d(f, kmax: int, extent: float, step: float) -> np.ndarray:
    """c_k = integral f h_k by the trapezoid rule on [-extent, extent]."""
    x = np.arange(-extent, extent + 0.5 * step, step)
    return (hermite_table(kmax, x) @ f(x)) * step


# ----------------------------------------------------------------------
# norms of H^N g for a coefficient tensor g, own implementation
# ----------------------------------------------------------------------

class Coeffs:
    """A dense coefficient tensor c[alpha] (|alpha| <= M) in d = 1 or 2."""

    def __init__(self, dense: np.ndarray):
        self.dense = np.asarray(dense, dtype=complex)
        self.d = self.dense.ndim
        self.M = self.dense.shape[0] - 1
        grids = np.meshgrid(*[np.arange(self.M + 1)] * self.d, indexing="ij")
        self.order = sum(grids)
        self.lam = 2.0 * self.order + self.d

    @classmethod
    def from_series(cls, series) -> "Coeffs":
        dense = np.zeros((series.max_degree + 1,) * series.dimension, dtype=complex)
        for alpha, c in series.items():
            dense[tuple(alpha)] = c
        return cls(dense)

    def powered(self, N: int) -> np.ndarray:
        return self.dense * self.lam ** N

    def log_l2(self, N: int) -> float:
        a = np.abs(self.dense)
        nz = a > 0
        return 0.5 * float(logsumexp(2.0 * np.log(a[nz]) + 2.0 * N * np.log(self.lam[nz])))

    def extent(self) -> float:
        return math.sqrt(2.0 * self.M + self.d) + 8.0

    def blocks(self, N: int, step: float, rows: int = 128):
        """H^N g on the uniform tensor grid of spacing ``step``, as
        (axis, first row, block of values) a band of rows at a time, so the
        check's memory stays small next to the program's."""
        axis = np.arange(-self.extent(), self.extent() + 0.5 * step, step)
        table = hermite_table(self.M, axis)
        c = self.powered(N)
        if not np.any(c.imag):
            c = c.real
        if self.d == 1:
            yield axis, 0, c @ table
            return
        right = c @ table
        for i in range(0, axis.size, rows):
            yield axis, i, table[:, i:i + rows].T @ right

    def log_lp(self, N: int, p: float, step: float) -> float:
        parts = []
        for _, _, vals in self.blocks(N, step):
            with np.errstate(divide="ignore"):
                logs = np.log(np.abs(vals)).ravel()
            parts.append(logsumexp(p * logs[np.isfinite(logs)]))
        return float((logsumexp(parts) + self.d * math.log(step)) / p)

    def peak(self, N: int, step: float):
        """(max |H^N g| on the grid, the grid point where it is reached)."""
        best, where = -1.0, None
        for axis, row, vals in self.blocks(N, step):
            mags = np.abs(vals)
            i = int(np.argmax(mags))
            if mags.flat[i] > best:
                idx = np.unravel_index(i, mags.shape)
                best = float(mags.flat[i])
                where = (float(axis[row + idx[0]]),) + tuple(float(axis[j]) for j in idx[1:])
        return best, where

    def value_mp(self, N: int, point) -> float:
        """|H^N g| at one point, in mpmath."""
        c = self.powered(N)
        tables = [hermite_mp(self.M, xi) for xi in point]
        total = mpmath.mpc(0)
        for alpha in zip(*np.nonzero(c)):
            if sum(alpha) > self.M:
                continue
            term = mpmath.mpc(complex(c[alpha]))
            for axis, k in enumerate(alpha):
                term *= tables[axis][k]
            total += term
        return float(abs(total))


# ----------------------------------------------------------------------
# coefficient-route references
# ----------------------------------------------------------------------

def synthetic_log_coeffs(name: str, scale: float, r: float, M: int) -> np.ndarray:
    """log c_k of the exact generators: flat r^k k!^{-1/(2 sigma)},
    classical exp(-r k^{1/(2s)})."""
    k = np.arange(M + 1, dtype=float)
    if name == "synthetic_flat":
        return k * math.log(r) - gammaln(k + 1.0) / (2.0 * scale)
    return -r * k ** (1.0 / (2.0 * scale))


def log_l2_powers(log_c: np.ndarray, lam: np.ndarray, powers) -> list:
    """log ||H^N f|| by Parseval for each N, in the log domain."""
    return [0.5 * float(logsumexp(2.0 * log_c + 2.0 * n * np.log(lam))) for n in powers]


def envelope_norm_flat_mp(N: int, sigma: float, r: float) -> float:
    """log of 2^N r^{N/log(N sigma)} (2 N sigma/log(N sigma))^{N(1 - 1/log(N sigma))}."""
    t = mpmath.mpf(N) * mpmath.mpf(sigma)
    lt = mpmath.log(t)
    return float(N * mpmath.log(2) + (N / lt) * mpmath.log(mpmath.mpf(r))
                 + N * (1 - 1 / lt) * mpmath.log(2 * t / lt))


def envelope_coeff_flat_mp(k: int, sigma: float, r: float) -> float:
    """log of r^k k!^{-1/(2 sigma)}."""
    return float(k * mpmath.log(mpmath.mpf(r)) - mpmath.loggamma(k + 1) / (2 * mpmath.mpf(sigma)))


def envelope_coeff_s_mp(k: int, s: float, r: float) -> float:
    """log of exp(-r k^{1/(2s)})."""
    return float(-mpmath.mpf(r) * mpmath.mpf(k) ** (1 / (2 * mpmath.mpf(s))))


def min_log_multifactorial(k: int, d: int) -> float:
    """min over |alpha| = k (d entries) of log(alpha!), reached at the most
    balanced split."""
    base, extra = divmod(k, d)
    return extra * math.lgamma(base + 2) + (d - extra) * math.lgamma(base + 1)
