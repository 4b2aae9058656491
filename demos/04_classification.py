"""Classifying coefficient decay on the extended growth scale.

The two routes of the classification (coefficient envelopes vs oscillator
norm envelopes) are run side by side and cross-validated.

Run:  python3 demos/04_classification.py
"""

import math
from pathlib import Path

from hgl import (HermiteSeries, classify, coeff_bound_from_norms, cross_validate,
                 norm_sequence, shell_profile, synthetic_flat, synthetic_s)
from hgl.io import report_json

# --- classify knows the three kinds ------------------------------------------
examples = {
    "single mode h_7": HermiteSeries(dimension=1, max_degree=7, coefficients={(7,): 1.0}),
    "c_k = k!^(-1/2)": synthetic_flat(1.0, 1.0, 80),
    "c_k = 2^k k!^(-1)": synthetic_flat(0.5, 2.0, 80),
    "c_k = exp(-2 k^2)": synthetic_s(0.25, 2.0, 80),
    "c_k = exp(-3 k)": synthetic_s(0.5, 3.0, 80),
}
for label, series in examples.items():
    g = classify(series)
    bits = [g.kind]
    if g.parameter is not None:
        bits.append(f"scale={g.parameter:.3f}")
    if g.flavor:
        bits.append(g.flavor)
    if g.radius is not None and g.radius > -math.inf:
        bits.append(f"r*={math.exp(g.radius):.3f}")
    print(f"{label:22s} -> {', '.join(bits)}")

# --- cross-validation of the two routes ---------------------------------------
print("\ncoefficient route vs norm route at the generator's own sigma:")
rep = cross_validate(synthetic_flat(1.0, 2.0, 80), sigma=1.0, n_max=40)
print("  flavors:", rep.coeff_flavor, "/", rep.norm_flavor, "agree:", rep.agrees)
print("  fitted radii: coeff", math.exp(rep.coeff_fit.radius),
      " norm", math.exp(rep.norm_fit.radius),
      " (radii are reported, not asserted equal)")

rep_wrong = cross_validate(synthetic_flat(1.0, 1.0, 80), sigma=3.0, n_max=40)
print("  at an over-generous sigma=3 both routes flip:",
      rep_wrong.coeff_flavor, "/", rep_wrong.norm_flavor)

report_path = Path(__file__).with_name("classification_report.json")
report_path.write_text(report_json(rep))
print("wrote", report_path)

# --- certified coefficient bounds from norms -----------------------------------
s = synthetic_flat(1.0, 1.0, 80)
seq = norm_sequence(s, 40, "l2")
prof = shell_profile(s)
print("\ncertified |c| bounds from the norm sequence (shell k):")
for k in (5, 10, 20):
    bound = coeff_bound_from_norms(seq, k)
    print(f"  k={k:2d}: bound exp({bound:9.4f})"
          f"  actual exp({prof.log_values[k]:9.4f})")
