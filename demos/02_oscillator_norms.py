"""Applying powers of |x|^2 - d^2/dx^2 spectrally and watching norms grow.

Writes norm_sequence.csv next to this script.

Run:  python3 demos/02_oscillator_norms.py
"""

import math
from pathlib import Path

import numpy as np

from hgl import (HermiteSeries, apply_H, l2_norm, lp_norm, norm_sequence,
                 stirling_bounds, synthesize_many, synthetic_flat)
from hgl.io import save_norm_sequence_csv

# --- the oscillator is diagonal: eigenvalue 2|alpha| + d --------------------
s = HermiteSeries(dimension=2, max_degree=3, coefficients={(1, 2): 1.0})
print("c_(1,2) after H^2:", apply_H(s, 2).coefficient((1, 2)).real, "= (2*3+2)^2")

# one spectral application vs the differential operator on a grid
line = HermiteSeries(dimension=1, max_degree=2, coefficients={(0,): 1.0, (2,): 0.5})
xs = np.linspace(-4, 4, 9)
h = 1e-3
f = lambda pts: synthesize_many(line, pts)
lap = (f(xs + h) - 2 * f(xs) + f(xs - h)) / h**2
print("max |spectral - (x^2 f - f'')|:",
      np.abs(synthesize_many(apply_H(line, 1), xs) - (xs**2 * f(xs) - lap)).max())

# --- norms in the log domain ------------------------------------------------
fixture = synthetic_flat(1.0, 1.0, 80)
seq = norm_sequence(fixture, 40, "l2")
print("\n||H^N f||_2 for the flat-scale generator (sigma=1, r=1):")
for n in (0, 10, 20, 40):
    print(f"  N={n:2d}: exp({seq.logs[n]:9.3f})")
out = Path(__file__).with_name("norm_sequence.csv")
save_norm_sequence_csv(seq, out, config_line="demo: synthetic_flat(1,1,80), l2")
print("wrote", out)

# L^p flavors on the window function
g = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
print("\nGaussian h_0 norms: sup =", math.exp(lp_norm(g, math.inf)),
      " L1 =", math.exp(lp_norm(g, 1)), " L2 =", math.exp(l2_norm(g)))

# --- the factorial bridge ---------------------------------------------------
lo, up = stirling_bounds((2, 1))
print("\n(d e)^{-|a|} |a|^{|a|} <= a! <= |a|^{|a|} at a=(2,1):",
      f"{math.exp(lo):.5f} <= 2 <= {math.exp(up):.0f}")
