"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own spectral paths: the oscillator is
applied by finite differences, moments come from closed forms, Parseval
sums are brute-force floats, and point values of H^N f come from a plain
test-local recurrence or from mpmath.  ``recurrence_reference`` is the
exception: a frozen copy of the unbuffered, ungated form of
``hgl.hermite._recurrence``, against which the library kernel is checked
bit for bit.  ``quadrature_stft_basis`` is the quadrature STFT that the
closed-form (Bargmann) basis of ``hgl.modulation`` replaced.  The weighted
(2,2) modulation norms are checked against mpmath integrals of the Gamma
moments and, separately, of the radial integrals themselves.
"""

import math

import numpy as np

from hgl import gauss_hermite_rule, hermite_matrix, synthesize_many

# 8th-order central second-derivative stencil, offsets -4..4
_STENCIL = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72,
                     8 / 5, -1 / 5, 8 / 315, -1 / 560])


def oscillator_fd(series, xs: np.ndarray, h: float = 1e-2) -> np.ndarray:
    """x^2 f(x) - f''(x) by central differences on synthesized samples."""
    shifted = {j: synthesize_many(series, xs + j * h) for j in range(-4, 5)}
    fpp = sum(_STENCIL[j + 4] * shifted[j] for j in range(-4, 5)) / h**2
    return xs**2 * shifted[0] - fpp


def oscillator_fd_twice(series, xs: np.ndarray, h: float = 1e-2) -> np.ndarray:
    """Nested finite-difference application: fully spectral-free H^2 f."""
    inner = {j: oscillator_fd(series, xs + j * h, h) for j in range(-4, 5)}
    fpp = sum(_STENCIL[j + 4] * inner[j] for j in range(-4, 5)) / h**2
    return xs**2 * inner[0] - fpp


def gaussian_moment(k: int) -> float:
    """Closed form of integral x^k exp(-x^2) dx over the line."""
    if k % 2 == 1:
        return 0.0
    m = k // 2
    # sqrt(pi) (2m)! / (4^m m!)
    val = math.sqrt(math.pi)
    for i in range(1, m + 1):
        val *= (2 * i - 1) / 2.0
    return val


def brute_parseval(series) -> float:
    return sum(abs(c) ** 2 for _, c in series.items())


def hermite_table(kmax: int, xs: np.ndarray) -> np.ndarray:
    """h_0..h_kmax at xs by the unscaled three-term recurrence.

    No rescaling, so only for moderate degree and |x| (kmax <= 60, |x| <= 15).
    """
    xs = np.asarray(xs, dtype=float)
    rows = [math.pi ** -0.25 * np.exp(-xs * xs / 2)]
    if kmax >= 1:
        rows.append(math.sqrt(2.0) * xs * rows[0])
    for k in range(1, kmax):
        rows.append(math.sqrt(2.0 / (k + 1)) * xs * rows[k] - math.sqrt(k / (k + 1)) * rows[k - 1])
    return np.array(rows)


def recurrence_reference(kmax: int, x: np.ndarray):
    """Yield (u_k, u_{k-1}, log_scale) for k = 0..kmax, h_k = u_k exp(log_scale).

    The rescaled recurrence with a fresh array per step and an exact rescale
    check at every step; the yielded arrays are updated in place by the next
    step's rescale.
    """
    log_scale = -0.5 * x * x - 0.25 * math.log(math.pi)
    u_prev = np.zeros_like(x)
    u = np.ones_like(x)
    yield u, u_prev, log_scale
    for k in range(kmax):
        u_prev, u = u, x * math.sqrt(2.0 / (k + 1)) * u - math.sqrt(k / (k + 1)) * u_prev
        big = np.abs(u) > 1e120
        if big.any():
            s = np.abs(u[big])
            log_scale[big] += np.log(s)
            u[big] /= s
            u_prev[big] /= s
        yield u, u_prev, log_scale


def recurrence_reference_flagged(kmax: int, x: np.ndarray):
    """``recurrence_reference`` in the library kernel's yield, with every step
    flagged as a rescale, so that consumers recompute their scale each row."""
    for u, u_prev, log_scale in recurrence_reference(kmax, x):
        yield u, u_prev, log_scale, True


def hermite_mp(k: int, x):
    """Orthonormal h_k(x) in mpmath: H_k(x) exp(-x^2/2) / sqrt(2^k k! sqrt(pi))."""
    import mpmath
    x = mpmath.mpf(x)
    norm = mpmath.sqrt(mpmath.mpf(2) ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
    return mpmath.hermite(k, x) * mpmath.exp(-x * x / 2) / norm


def powered_abs_mp(coeffs: dict, power: int, x) -> float:
    """|H^N f(x)| in mpmath for a 1-d coefficient map {k: c_k}."""
    import mpmath
    total = mpmath.mpc(0)
    for k, c in coeffs.items():
        total += mpmath.mpc(c.real, c.imag) * (2 * k + 1) ** power * hermite_mp(k, x)
    return float(abs(total))


def quadrature_stft_basis(kmax: int, grid) -> np.ndarray:
    """V h_0..V h_kmax on the axes of an ``StftGrid``, shape (K, nx, nxi), by
    Gauss-Hermite quadrature.

    V(x, xi) = integral h_k(t) window(t - x) exp(-i t xi) dt with the unit
    window pi^{-1/4} exp(-t^2/2) is evaluated per x by a rule centred on the
    combined Gaussian exp(-(t - x/2)^2): the real rows h_k at the shifted
    nodes, tapered by the window and the rule's weights, times the kernel
    exp(-i u xi) and the phase exp(-i x xi/2).
    """
    x, xi = grid.x_axis(), grid.xi_axis()
    n = max(96, kmax + 48 + int(math.ceil(grid.freq_extent**2 / 2.0)))
    rule = gauss_hermite_rule(n)
    u = rule.nodes
    mu = x / 2.0                                # centre of the combined Gaussian
    T = mu[:, None] + u[None, :]                # (nx, nq)
    win = math.pi ** -0.25 * np.exp(-((T - x[:, None]) ** 2) / 2.0)
    rows = hermite_matrix(kmax, T.ravel()).reshape((kmax + 1,) + T.shape)
    kernel = np.exp(-1j * np.outer(u, xi))      # (nq, nxi)
    phase = np.exp(-1j * np.outer(mu, xi))      # (nx, nxi)
    return ((rows * (win * rule.modified_weights[None, :])) @ kernel) * phase


def bargmann_mp(k: int, x, xi):
    """V h_k(x, xi) = exp(-i x xi/2) zbar^k / sqrt(k!) exp(-|z|^2/2) in mpmath,
    z = (x + i xi)/sqrt(2)."""
    import mpmath
    x, xi = mpmath.mpf(x), mpmath.mpf(xi)
    zbar = mpmath.mpc(x, -xi) / mpmath.sqrt(2)
    return (mpmath.exp(-0.5j * x * xi - abs(zbar) ** 2 / 2) * zbar**k
            / mpmath.sqrt(mpmath.factorial(k)))


def gamma_weight_moment_mp(a: int, sign: int, N: int) -> float:
    """log E[(1 + 2T)^(2 sign N)] for T ~ Gamma(a), by mpmath quadrature of
    the density; sign 0 integrates the density alone.

    The integrand is scaled by its weight at the mode, so that the result is
    of order one: mpmath's quadrature stops at an absolute error near
    10^-dps, which a moment of size 1e-30 would drown in.
    """
    import mpmath
    with mpmath.workdps(20):
        a_mp = mpmath.mpf(a)
        log_gamma = mpmath.loggamma(a_mp)
        scale = 1 + 2 * a_mp
        m = 2 * sign * N

        def density(t):
            return mpmath.exp((a_mp - 1) * mpmath.log(t) - t - log_gamma) * ((1 + 2 * t) / scale) ** m

        spread = 8 * mpmath.sqrt(a_mp)
        cuts = sorted({mpmath.mpf(0), *(c for c in (a_mp - spread, a_mp, a_mp + spread) if c > 0),
                       mpmath.inf})
        return float(mpmath.log(mpmath.quad(density, cuts, method="gauss-legendre"))
                     + m * mpmath.log(scale))


def hermite_mod_sq_mp(alpha, sign: int, N: int) -> float:
    """log ||w V h_alpha||^2 for the weight w = (1 + |x|^2 + |xi|^2)^(sign N),
    by the d-fold radial integral in mpmath.

    In polar coordinates per axis (x_i + i xi_i = sqrt(2) r_i e^{i theta_i})
    the transform has modulus prod r_i^alpha_i e^{-r_i^2/2} / sqrt(alpha_i!),
    and the angles integrate out against dx dxi / (2 pi)^d, leaving

        integral over r in (0, inf)^d of w(2|r|^2)^2 prod 2 r_i^(2 alpha_i + 1) e^{-r_i^2} / alpha_i!

    taken here by a 48-point Gauss-Legendre product rule on [0, sqrt(alpha_i
    + 1/2) + 7] per axis: the integrand peaks near r_i^2 = alpha_i + 1/2 and
    decays like a Gaussian beyond.
    """
    import itertools
    import mpmath
    from mpmath.calculus.quadrature import GaussLegendre
    with mpmath.workdps(20):
        nodes = GaussLegendre(mpmath.mp).calc_nodes(5, mpmath.mp.prec)
        scale = 1 + 2 * (sum(alpha) + len(alpha))
        axes = []
        for k in alpha:
            half = (mpmath.sqrt(k + 0.5) + 7) / 2
            axes.append([(r * r, half * w * 2 * r ** (2 * k + 1) * mpmath.exp(-r * r)
                          / mpmath.factorial(k))
                         for r, w in ((half * (x + 1), w) for x, w in nodes)])
        total = mpmath.mpf(0)
        for point in itertools.product(*axes):
            r_sq = mpmath.fsum(t for t, _ in point)
            total += mpmath.fprod(w for _, w in point) * ((1 + 2 * r_sq) / scale) ** (2 * sign * N)
        return float(mpmath.log(total) + 2 * sign * N * mpmath.log(scale))
