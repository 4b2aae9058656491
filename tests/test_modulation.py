import math

import numpy as np
import pytest

from hgl import (HermiteSeries, MixedNormParams, StftGrid, StftGridError, Weight,
                 apply_H, l2_norm, modulation_norm, norm_equiv_harness,
                 norm_sequence_mod, stft, synthetic_flat)
from hgl.modulation import _bargmann_basis

from oracles import bargmann_mp, quadrature_stft_basis


@pytest.fixture(scope="module")
def gaussian_field():
    phi = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
    grid = StftGrid.default_for(phi)
    return phi, grid, stft(phi, grid)


class TestStft:
    def test_matched_gaussian_closed_form(self, gaussian_field):
        _, _, fld = gaussian_field
        X, XI = np.meshgrid(fld.x_axis, fld.xi_axis, indexing="ij")
        expected = np.exp(-(X**2 + XI**2) / 4)
        assert np.abs(np.abs(fld.values) - expected).max() <= 1e-6
        mid = np.unravel_index(np.argmax(expected), expected.shape)
        assert abs(fld.values[mid]) == pytest.approx(1.0, abs=1e-9)

    def test_zero_series_transforms_to_zero(self):
        z = HermiteSeries(dimension=1, max_degree=3, coefficients={})
        fld = stft(z, StftGrid.default_for(z))
        assert np.all(fld.values == 0)

    def test_modulus_invariant_under_unimodular_scaling(self):
        s = synthetic_flat(1.0, 1.0, 8)
        grid = StftGrid.default_for(s)
        a = np.abs(stft(s, grid).values)
        b = np.abs(stft(s.scaled(complex(math.cos(1.1), math.sin(1.1))), grid).values)
        assert np.abs(a - b).max() <= 1e-12 * a.max()

    def test_grid_validation(self):
        s = synthetic_flat(1.0, 1.0, 20)
        with pytest.raises(StftGridError):
            stft(s, StftGrid(spatial_step=0.8, freq_step=0.25,
                             spatial_extent=12.0, freq_extent=15.0))
        with pytest.raises(StftGridError):
            stft(s, StftGrid(spatial_step=0.25, freq_step=0.25,
                             spatial_extent=12.0, freq_extent=3.0))

    def test_two_dimensional_factorizes(self):
        s2 = HermiteSeries(dimension=2, max_degree=2, coefficients={(1, 0): 1.0})
        grid = StftGrid(spatial_step=0.5, freq_step=0.5, spatial_extent=5.0,
                        freq_extent=5.0)
        fld = stft(s2, grid)
        s1 = HermiteSeries(dimension=1, max_degree=1, coefficients={(1,): 1.0})
        f1 = stft(s1, grid).values
        g0 = HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})
        f0 = stft(g0, grid).values
        expected = np.einsum("ac,bd->abcd", f1, f0)
        assert np.abs(fld.values - expected).max() <= 1e-12


ORACLE_GRIDS = {
    "default-M12": StftGrid.default_for(synthetic_flat(1.0, 1.0, 12)),
    "default-M40": StftGrid.default_for(synthetic_flat(1.0, 1.0, 40)),
    "two-dimensional": StftGrid(spatial_step=0.5, freq_step=0.5, spatial_extent=5.0,
                                freq_extent=5.0),
}


class TestClosedFormBasis:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
    def test_matches_quadrature_oracle(self, name):
        grid = ORACLE_GRIDS[name]
        fields = _bargmann_basis(40, grid.x_axis()[:, None], grid.xi_axis()[None, :])
        oracle = quadrature_stft_basis(40, grid)
        assert fields.shape == oracle.shape
        for k in range(41):
            top = np.abs(oracle[k]).max()
            assert np.abs(fields[k] - oracle[k]).max() <= 1e-10 * top, k

    @pytest.mark.parametrize("z_sq,orders", [(1600, (0, 800, 1600)), (1450, (0, 725, 1450))])
    def test_log_domain_start_matches_mpmath(self, z_sq, orders):
        pytest.importorskip("mpmath")
        # exp(-|z|^2/2) is 0 at |z|^2 = 1600 and subnormal at 1450, while
        # V h_k for k = |z|^2 is about 0.1 at both
        r = math.sqrt(2.0 * z_sq)
        angles = np.array([math.pi / 4, 0.0, -math.pi / 2, 3 * math.pi / 4, 0.3])
        x, xi = r * np.cos(angles), r * np.sin(angles)
        fields = _bargmann_basis(max(orders), x, xi)
        for k in orders:
            for j in range(x.size):
                want = complex(bargmann_mp(k, x[j], xi[j]))
                assert abs(fields[k, j] - want) <= 1e-10 * abs(want) + 1e-300, (k, j)
        assert np.abs(fields[max(orders)]).min() > 0.09


class TestModulationNorm:
    def test_energy_identity_for_window(self, gaussian_field):
        _, _, fld = gaussian_field
        nrm = modulation_norm(fld, MixedNormParams(2, 2, Weight()))
        assert math.exp(nrm) == pytest.approx(1.0, rel=0.02)

    def test_zero_field_norm_zero(self):
        z = HermiteSeries(dimension=1, max_degree=3, coefficients={})
        fld = stft(z, StftGrid.default_for(z))
        assert modulation_norm(fld, MixedNormParams(2, 2, Weight())) == -math.inf

    def test_weighted_norm_dominates(self, gaussian_field):
        _, _, fld = gaussian_field
        plain = modulation_norm(fld, MixedNormParams(2, 2, Weight()))
        weighted = modulation_norm(fld, MixedNormParams(2, 2, Weight("polynomial", 1)))
        assert math.exp(weighted) > math.exp(plain)

    def test_sup_norms(self, gaussian_field):
        _, _, fld = gaussian_field
        sup = modulation_norm(fld, MixedNormParams(math.inf, math.inf, Weight()))
        assert math.exp(sup) == pytest.approx(1.0, abs=1e-9)

    def test_quasi_norm_accepted(self, gaussian_field):
        _, _, fld = gaussian_field
        q = modulation_norm(fld, MixedNormParams(0.5, 0.5, Weight()))
        assert math.exp(q) > 0

    def test_moyal_identity_default_and_halved(self):
        s = synthetic_flat(1.0, 1.0, 20)
        l2 = math.exp(l2_norm(s))
        m = math.exp(modulation_norm(stft(s, StftGrid.default_for(s)),
                                     MixedNormParams(2, 2, Weight())))
        assert abs(m / l2 - 1) <= 0.02
        m_half = math.exp(modulation_norm(stft(s, StftGrid.default_for(s, step=0.125)),
                                          MixedNormParams(2, 2, Weight())))
        assert abs(m_half / l2 - 1) <= 0.005


class TestWeights:
    def test_parse_labels(self):
        assert Weight.parse("const").kind == "constant"
        assert Weight.parse("v3") == Weight("polynomial", 3)
        assert Weight.parse("1/v2") == Weight("reciprocal", 2)
        with pytest.raises(ValueError):
            Weight.parse("w9")

    def test_mixed_norm_params_parse(self):
        assert MixedNormParams.parse("mod:2,2,const") == MixedNormParams(2.0, 2.0, Weight())
        parsed = MixedNormParams.parse("mod:inf,1,1/v2")
        assert parsed == MixedNormParams(math.inf, 1.0, Weight("reciprocal", 2))
        assert parsed.label() == "mod:inf,1,1/v2"

    @pytest.mark.parametrize("text,message", [
        ("mod:2,2", "mod norm needs p,q,weight (e.g. mod:2,2,const)"),
        ("mod:2,2,const,1", "mod norm needs p,q,weight (e.g. mod:2,2,const)"),
        ("mod:abc,2,const", "could not convert string to float: 'abc'"),
        ("mod:2,2,w9", "cannot parse weight 'w9' (use const, vN or 1/vN)"),
        ("mod:0,2,const", "p and q must be positive (inf allowed)"),
    ])
    def test_mixed_norm_params_parse_refuses(self, text, message):
        with pytest.raises(ValueError) as err:
            MixedNormParams.parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind,N", [("polynomial", 1), ("polynomial", 3),
                                        ("reciprocal", 2)])
    def test_moderation_bound(self, kind, N):
        w = Weight(kind, N)
        fitted = w.moderation_constant(n_samples=10_000)
        assert math.isfinite(fitted)
        assert fitted <= 2.0**N + 1e-9


class TestHarness:
    def test_ground_state_both_routes_beurling(self, ground_state):
        rep = norm_equiv_harness(ground_state, 1.0, 2.0,
                                 MixedNormParams(2, 2, Weight()), n_max=14)
        assert rep.lp_fit.verdict == "beurling"
        assert rep.flavors_agree

    def test_synthetic_truncated_agrees_and_ignores_offset(self):
        s = synthetic_flat(1.0, 1.0, 20)
        params = MixedNormParams(2, 2, Weight())
        rep0 = norm_equiv_harness(s, 1.0, 2.0, params, n_max=16, n0=0)
        rep3 = norm_equiv_harness(s, 1.0, 2.0, params, n_max=16, n0=3)
        assert rep0.flavors_agree and rep3.flavors_agree
        assert rep0.lp_fit.verdict == rep3.lp_fit.verdict
        assert rep0.mod_fit.verdict == rep3.mod_fit.verdict
        assert rep0.gap_stable

    def test_embedding_constants_finite(self):
        s = synthetic_flat(1.0, 1.0, 12)
        rep = norm_equiv_harness(s, 1.0, 2.0, MixedNormParams(2, 2, Weight()), n_max=10)
        assert 0 < rep.embed_upper < 10
        assert 0 < rep.embed_lower < 10

    @pytest.mark.parametrize("n0,n_max,message", [
        (9, 4, "need 0 <= n0 <= n_max, got n0 = 9, n_max = 4"),
        (0, -3, "n_max must be >= 1"),
    ])
    def test_power_range_is_checked(self, n0, n_max, message):
        s = synthetic_flat(1.0, 1.0, 12)
        with pytest.raises(ValueError) as err:
            norm_equiv_harness(s, 1.0, 2.0, MixedNormParams(2, 2, Weight()), n_max=n_max, n0=n0)
        assert str(err.value) == message


class TestOscillatorWeightShift:
    def test_ratio_band_is_corpus_uniform(self):
        corpus = [synthetic_flat(1.0, 1.0, 16),
                  HermiteSeries(dimension=1, max_degree=0, coefficients={(0,): 1.0})]
        params = MixedNormParams(2, 2, Weight())
        spreads = []
        for series in corpus:
            grid = StftGrid.default_for(series)
            for shift in (1, 2):
                recip = MixedNormParams(2, 2, Weight("reciprocal", shift))
                ratios = []
                for N in range(shift, 8):
                    a = modulation_norm(stft(apply_H(series, N), grid), recip)
                    b = modulation_norm(stft(apply_H(series, N - shift), grid),
                                        params)
                    ratios.append(a - b)
                spreads.append(max(ratios) - min(ratios))
        assert max(spreads) <= math.log(10.0)


def test_norm_sequence_mod_matches_direct():
    s = synthetic_flat(1.0, 1.0, 10)
    seq = norm_sequence_mod(s, 4, MixedNormParams(2, 2, Weight()))
    assert seq.norm_kind == "mod:2,2,const"
    assert seq.max_degree == 10
    direct = l2_norm(apply_H(s, 4))
    assert seq.log_norms()[-1] == pytest.approx(direct, abs=0.02)

