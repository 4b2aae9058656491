"""The growth envelopes in the log domain, and the inequality check suites.

Writes envelope_table.csv and suite_report.json next to this script.

Run:  python3 demos/03_envelopes_and_inequalities.py
"""

import math
from pathlib import Path

from hgl import (check_envelope_factor_monotone, check_factor_ratios_bounded,
                 check_infimum_bound, check_peak_term_bounded, envelope_coeff_flat,
                 envelope_factor, envelope_norm_flat, envelope_norm_s)
from hgl.io import report_json

# --- pointwise envelope values ----------------------------------------------
print("norm envelope 2^N r^{N/log(N s)} (2Ns/log(Ns))^{N(1-1/log(Ns))}:")
for n in (3, 10, 40):
    v = envelope_norm_flat(n, sigma=1.0, r=1.0)
    print(f"  N={n:2d}: log E = {v:10.3f}")
print("coefficient envelope at alpha=(2,1), sigma=1, r=1:",
      math.exp(envelope_coeff_flat((2, 1), 1.0, 1.0)), "= 1/sqrt(2)")
print("classical-scale envelope N=3, s=1/2, r=2:",
      math.exp(envelope_norm_s(3, 0.5, 2.0)), "= 2^3 3!")

# identity linking the N-form to the t-form core at t = N sigma
n, sigma, r = 7, 0.8, 2.5
lhs = sigma * (envelope_norm_flat(n, sigma, r) - n * math.log(2))
rhs = envelope_factor(r, n * sigma)
print(f"t-form consistency gap: {abs(lhs - rhs):.2e}")

# envelope table to CSV
rows = ["N,log_envelope"]
for n in range(3, 41):
    rows.append(f"{n},{envelope_norm_flat(n, 1.0, 1.0)!r}")
table = Path(__file__).with_name("envelope_table.csv")
table.write_text("\n".join(rows) + "\n")
print("wrote", table)

# --- the four inequality suites ----------------------------------------------
reports = [
    check_factor_ratios_bounded(1.0),
    check_factor_ratios_bounded(5.0),
    check_envelope_factor_monotone(1.0),
    check_envelope_factor_monotone(2.0),
    check_infimum_bound(),
    *(check_peak_term_bounded(r) for r in (0.2, 0.5, 1.0, 2.0)),
]
print("\ninequality sweeps (fitted constants stable under grid doubling):")
for rep in reports:
    print(f"  {rep.name:26s} passed={rep.passed}  "
          f"fitted=exp({rep.fitted_constant:8.4f})")
out = Path(__file__).with_name("suite_report.json")
out.write_text(report_json(reports))
print("wrote", out)
