"""Short-time Fourier transform, mixed norms, and the norm-equivalence shadow.

Run:  python3 demos/05_modulation_shadow.py
"""

import math

import numpy as np

from hgl import (HermiteSeries, MixedNormParams, StftGrid, Weight, l2_norm,
                 modulation_norm, norm_equiv_harness, stft, synthetic_flat)

# --- the transform of the window against itself has a Gaussian profile -------
phi = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
grid = StftGrid.default_for(phi)
fld = stft(phi, grid)
X, XI = np.meshgrid(fld.x_axis, fld.xi_axis, indexing="ij")
profile_err = np.abs(np.abs(fld.values) - np.exp(-(X**2 + XI**2) / 4)).max()
print("matched-Gaussian |V| vs closed form, max error:", profile_err)

# --- discrete energy identity -------------------------------------------------
params = MixedNormParams(2, 2, Weight())
s = synthetic_flat(1.0, 1.0, 20)
m22 = math.exp(modulation_norm(stft(s, StftGrid.default_for(s)), params))
print("discrete (2,2)-norm vs L2:", m22, "/", math.exp(l2_norm(s)))

# polynomial weights are moderate with constant at most 2^N
w = Weight("polynomial", 2)
print("fitted moderation constant for v_2:", w.moderation_constant(), "(<= 4)")

# --- swapping the Lebesgue norm for a weighted modulation norm -----------------
rep = norm_equiv_harness(s, sigma=1.0, p0=2.0, params=params, n_max=14)
print("\nenvelope verdicts: L^2 route =", rep.lp_fit.verdict,
      "| modulation route =", rep.mod_fit.verdict,
      "| agree:", rep.flavors_agree)
print("per-power radius gap over the tail window:", rep.gap_window,
      "stable:", rep.gap_stable)
print("fitted embedding constants:", rep.embed_upper, rep.embed_lower)

rep_offset = norm_equiv_harness(s, sigma=1.0, p0=2.0, params=params, n_max=14, n0=3)
print("starting the modulation route at N0=3 leaves the verdict at",
      rep_offset.mod_fit.verdict)
