"""Alternating high/low chains: construction, gain, exponential scaling."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CHAIN_BLOCK, gamma_grid, make_chain, make_du, make_three
from sasc.model import ConfigError, InstabilityError, Topology, build_drift_matrix
from sasc import chain, cli, spectra
from sasc.numerics import NumericalError
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
        gain = spectra.snr_spectrum(model, [0.3])[0][0]
        gamma = gamma_grid(model, [0.3])[0]
        c = quadrature_coefficients(gamma, output_port=2)
        assert gain == pytest.approx(float(np.abs(c[0] + c[1]) ** 2), rel=1e-12)

    def test_gain_is_nonnegative(self):
        assert spectra.snr_spectrum(make_chain(4), [0.3])[0][0] >= 0.0


class TestScalingFit:
    def test_log_gain_is_linear_in_length(self):
        report = chain.scaling_fit(make_chain(6), range(2, 7), omega=0.3)
        assert report.n_values == (2, 3, 4, 5, 6)
        assert report.r_squared > 0.99
        assert report.base == pytest.approx(np.exp(report.slope), rel=1e-12)
        assert report.excluded_unstable == ()

    def test_unstable_lengths_are_excluded_and_reported(self):
        # A strongly blue-detuned chain loses stability as it grows.
        model = make_chain(6, coupling={"magnitude": 0.4, "phase": 0.0}, detuning=-1.0,
                           detuning_alt=-1.0, kappa_high=0.1, kappa_low=1e-3)
        with pytest.raises(ValueError):
            chain.scaling_fit(model, range(2, 7), omega=0.3)

    def test_needs_three_stable_lengths(self):
        with pytest.raises(ValueError):
            chain.scaling_fit(make_chain(3), [2, 3], omega=0.3)

    def test_line_fit_is_the_least_squares_line(self):
        # The criterion-7 chain over N = 2..40: numpy's degree-1 polyfit, r^2 = 1 - SSR/SST.
        report = chain.scaling_fit(make_chain(40, 0.01), range(2, 41), omega=0.3)
        x, y = np.array(report.n_values, dtype=float), np.log(report.gains)
        slope, intercept = np.polyfit(x, y, 1)
        assert report.slope == pytest.approx(slope, rel=1e-12)
        assert report.intercept == pytest.approx(intercept, rel=1e-12)
        ssr = np.sum((y - (report.slope * x + report.intercept)) ** 2)
        r_squared = 1.0 - ssr / np.sum((y - y.mean()) ** 2)
        assert report.r_squared == pytest.approx(r_squared, rel=1e-12)
        assert 0.0 < report.r_squared < 1.0
        assert report.base == np.exp(report.slope)

    def test_a_repeated_length_counts_once(self):
        with pytest.raises(NumericalError, match="at least 3 stable chain lengths"):
            chain.scaling_fit(make_chain(4), [3, 3, 3], omega=0.3)
        report = chain.scaling_fit(make_chain(4), [2, 2, 3, 4], omega=0.3)
        assert report.n_values == (2, 2, 3, 4) and report.gains[0] == report.gains[1]

    def test_report_serialization(self, tmp_path):
        # The chain task writes the report's fields.
        report = chain.scaling_fit(make_chain(4), (2, 3, 4), omega=0.3)
        config = {"system": cli.chain_system(CHAIN_BLOCK, 4), "task": {
            "kind": "chain", "chain": {**CHAIN_BLOCK, "n_values": [2, 3, 4], "omega": 0.3}}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        args = ["chain", "--config", str(path), "--out", str(tmp_path), "--format", "json"]
        assert cli.main(args) == cli.EXIT_OK
        payload = json.loads((tmp_path / "chain.json").read_text())["fit"]
        assert payload == {
            "n_values": [2, 3, 4], "gains": list(report.gains), "slope": report.slope,
            "intercept": report.intercept, "r_squared": report.r_squared,
            "base": report.base, "excluded_unstable": [],
        }
        assert payload["base"] > 0.0


@st.composite
def chain_tasks(draw):
    """A random chain block, length set, temperature and frequency: (block, n_values, T, omega)."""
    block = {
        "coupling": {"magnitude": draw(st.floats(0.0, 0.6)),
                     "phase": draw(st.floats(0.0, 2.0 * np.pi))},
        "detuning": draw(st.floats(-3.0, 3.0)),
        "detuning_alt": draw(st.floats(-3.0, 3.0)),
        "kappa_high": draw(st.floats(0.01, 3.0)),
        "kappa_low": draw(st.floats(1e-4, 0.5)),
    }
    n_values = draw(st.lists(st.integers(2, 16), min_size=3, max_size=6, unique=True))
    return block, n_values, draw(st.sampled_from([0.0, 0.01, 1.0])), draw(st.floats(0.0, 2.0))


def per_length_fit(block, n_values, temperature, omega):
    """scaling_fit's rule over one model per length, each gain snr_spectrum's S_AP: the reference."""
    gains, excluded = {}, []
    for n in n_values:
        try:
            gain = spectra.snr_spectrum(make_chain(n, temperature, **block), [omega])[0][0]
        except InstabilityError:
            excluded.append(n)
            continue
        if not gain >= np.finfo(float).tiny:
            raise NumericalError(
                f"scaling_fit requires strictly positive gains of normal floats (at least"
                f" {np.finfo(float).tiny:.4g}); the {n}-mode chain's is {gain:.4g}")
        gains[n] = gain
    if len(gains) < 3:
        raise NumericalError("scaling_fit needs at least 3 stable chain lengths")
    return tuple(gains), tuple(gains.values()), tuple(excluded)


def outcome(call):
    """call()'s value, or the class and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


#: CHAIN_BLOCK with a coupling of 0.25: lengths 2 to 5 are stable and 6 to 12 are not, so no
#: one bound certifies the longer chains and scaling_fit gates each length on its own.
UNCERTIFIED_BLOCK = {**CHAIN_BLOCK, "coupling": {"magnitude": 0.25, "phase": 0.0}}


class TestLeadingBlocks:
    @settings(max_examples=100, deadline=None, database=None)
    @given(chain_tasks())
    # The 168-mode chain's gain is subnormal (see test_config_errors).
    @example((CHAIN_BLOCK, [2, 3, 168], 0.0, 0.3))
    # One certificate covers N = 2..40; each length of N = 2..10 has its own gate.
    @example((CHAIN_BLOCK, list(range(2, 41)), 0.01, 0.3))
    @example((UNCERTIFIED_BLOCK, list(range(2, 11)), 0.0, 0.3))
    def test_fit_equals_one_model_per_length(self, task):
        block, n_values, temperature, omega = task

        def leading():
            report = chain.scaling_fit(make_chain(max(n_values), temperature, **block),
                                       n_values, omega)
            return report.n_values, report.gains, report.excluded_unstable

        assert outcome(leading) == outcome(lambda: per_length_fit(*task))

    @settings(max_examples=60, deadline=None, database=None)
    @given(chain_tasks())
    def test_leading_view_is_the_shorter_chains_solver(self, task):
        block, n_values, temperature, _ = task
        longest = spectra.SnrSolver(make_chain(max(n_values), temperature, **block), psi=0.7)
        for n in n_values:
            view = longest.leading(n)
            own = spectra.SnrSolver(make_chain(n, temperature, **block), psi=0.7)
            for name in ("drift", "lam", "ell", "weights"):
                assert np.array_equal(getattr(view, name), getattr(own, name)), name
            assert (view.signal_port, view.readout_port, view.psi) == (0, n - 1, 0.7)

    def test_one_drift_is_built_for_every_length(self, monkeypatch):
        built = []
        build = spectra.build_drift_matrix
        monkeypatch.setattr(spectra, "build_drift_matrix",
                            lambda model: built.append(model.n_modes) or build(model))
        chain.scaling_fit(make_chain(8), range(2, 9), 0.3)
        assert built == [8]

    def test_only_an_uncertified_chain_checks_each_length(self, monkeypatch):
        checked = []
        check = chain.check_stability
        monkeypatch.setattr(chain, "check_stability",
                            lambda m: checked.append(len(m) // 2) or check(m))
        # The criterion-7 chain over N = 2..40: one numerical_abscissa, no per-length check.
        chain.scaling_fit(make_chain(40, 0.01), range(2, 41), 0.3)
        assert checked == []
        report = chain.scaling_fit(make_chain(10, **UNCERTIFIED_BLOCK), range(2, 11), 0.3)
        assert checked == list(range(2, 11))
        assert report.excluded_unstable == (6, 7, 8, 9, 10)

    def test_a_bound_that_raises_leaves_each_length_its_own_gate(self):
        # A coupling of 1e308 overflows the quadrature form, so numerical_abscissa raises; the
        # lengths then run in order as before, and length 1 is refused before any is gated.
        model = make_chain(4, coupling={"magnitude": 1e308, "phase": 0.0})
        with pytest.raises(ConfigError, match="chain length 1 is out of range"):
            chain.scaling_fit(model, (1, 2, 3), 0.3)
