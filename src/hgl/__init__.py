"""Hermite-spectral growth analysis.

A numpy/scipy library for expanding functions in the L2-orthonormal Hermite
basis, applying powers of the harmonic oscillator spectrally, evaluating
growth envelopes in the log domain, and classifying coefficient decay on the
extended growth scale, with the coefficient route and the oscillator-norm
route cross-validating each other.
"""

from .hermite import hermite_eval, hermite_eval_multi, hermite_matrix
from .quadrature import QuadratureError, gauss_hermite_rule
from .series import HermiteSeries, MultiIndex, analyze, synthesize, synthesize_many
from .spectral import (GridError, GridSpec, NormSequence, apply_H, l2_norm, lp_norm,
                       norm_sequence, stirling_bounds)
from .envelopes import (EnvelopeSearchError, amplitude_factor_ratio,
                        check_envelope_factor_monotone, check_factor_ratios_bounded,
                        check_infimum_bound, check_peak_term_bounded, envelope_coeff_flat,
                        envelope_coeff_s, envelope_factor, envelope_norm_flat,
                        envelope_norm_s, infimum_coeff_bound, peak_term,
                        radius_factor_ratio)
from .classify import (classify, coeff_bound_from_norms, cross_validate, estimate_s,
                       estimate_sigma, fit_flat_sigma, fit_radius_from_norms,
                       fit_s_type, shell_profile)
from .modulation import (MixedNormParams, StftGrid, StftGridError, Weight,
                         modulation_norm, norm_equiv_harness, norm_sequence_mod, stft)
from .presets import Preset, build_preset, finite_random, synthetic_flat, synthetic_s
from . import io    # ``import hgl`` loads every library module, hgl.io included

__version__ = "0.1.0"
