"""Alternating high/low chains: construction, gain, exponential scaling."""

import numpy as np
import pytest

from conftest import CHAIN_BLOCK, gamma_grid, make_chain, make_du, make_three
from sasc.model import Topology, build_drift_matrix
from sasc import chain, cli
from sasc.spectra import quadrature_coefficients


class TestConstruction:
    def test_mode_count_and_alternating_labels(self):
        model = make_chain(5)
        assert model.topology is Topology.CHAIN
        assert [m.label for m in model.modes] == ["h0", "l0", "h1", "l1", "h2"]
        assert len(model.couplings) == 4

    def test_high_mode_detunings_alternate_per_unit(self):
        model = make_chain(6)
        highs = [m.detuning for m in model.modes if m.label.startswith("h")]
        assert highs == [-0.8, 1.2, -0.8]

    def test_two_mode_chain_matches_two_mode_unit(self):
        model = make_chain(2, temperature=0.01, coupling={"magnitude": 0.1, "phase": 0.0},
                           detuning=0.0, kappa_high=1.0, kappa_low=1e-4)
        m_chain = build_drift_matrix(model)
        m_du = build_drift_matrix(make_du())
        assert np.allclose(m_chain, m_du, atol=1e-14)

    def test_three_mode_chain_matches_three_mode_system(self):
        model = make_chain(3, temperature=0.01, coupling={"magnitude": 0.1, "phase": 0.0},
                           detuning=0.0, kappa_high=1.0, kappa_low=1e-4)
        m_chain = build_drift_matrix(model)
        m_three = build_drift_matrix(make_three(delta_c=1.2))
        assert np.allclose(m_chain, m_three, atol=1e-14)

    def test_preset_is_a_schema_valid_system_block(self):
        cli.validate_config({"system": cli.chain_system(CHAIN_BLOCK, 5, temperature=0.01)})

    def test_minimum_length(self):
        with pytest.raises(cli.ConfigError):
            make_chain(1)


class TestGain:
    def test_three_mode_gain_equals_quadrature_transfer(self):
        model = make_chain(3)
        gain = chain.end_to_end_gain(model, 0.3)
        gamma = gamma_grid(model, [0.3])[0]
        c = quadrature_coefficients(gamma, output_port=2)
        assert gain == pytest.approx(float(np.abs(c[0] + c[1]) ** 2), rel=1e-12)

    def test_gain_is_nonnegative(self):
        assert chain.end_to_end_gain(make_chain(4), 0.3) >= 0.0


class TestScalingFit:
    def test_log_gain_is_linear_in_length(self):
        models = [make_chain(n) for n in range(2, 7)]
        report = chain.scaling_fit(models, omega=0.3)
        assert report.n_values == (2, 3, 4, 5, 6)
        assert report.fit.r_squared > 0.99
        assert report.base == pytest.approx(np.exp(report.fit.slope), rel=1e-12)
        assert report.excluded_unstable == ()

    def test_unstable_lengths_are_excluded_and_reported(self):
        # A strongly blue-detuned chain loses stability as it grows.
        models = [
            make_chain(n, coupling={"magnitude": 0.4, "phase": 0.0}, detuning=-1.0,
                       detuning_alt=-1.0, kappa_high=0.1, kappa_low=1e-3)
            for n in range(2, 7)
        ]
        with pytest.raises(ValueError):
            chain.scaling_fit(models, omega=0.3)

    def test_needs_three_stable_lengths(self):
        with pytest.raises(ValueError):
            chain.scaling_fit([make_chain(2), make_chain(3)], omega=0.3)

    def test_report_serialization(self):
        report = chain.scaling_fit([make_chain(n) for n in (2, 3, 4)], omega=0.3)
        payload = report.to_json_dict()
        assert payload["n_values"] == [2, 3, 4]
        assert payload["base"] > 0.0
        assert "r_squared" in payload
