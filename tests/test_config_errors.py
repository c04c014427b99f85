"""Every input check of the library raises model.ConfigError, and every failed
computation on a usable input raises numerics.NumericalError; both are ValueErrors."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    OMEGA_HIGH, OMEGA_LOW, make_chain, make_comparison_pair, make_du, make_three,
)
from sasc import chain, cli, metrics, numerics, oracle, spectra
from sasc.model import (
    BareDriveParams, ConfigError, CouplingParams, ModeParams, SystemModel, Topology,
    build_drift_matrix, check_stability, solve_steady_state,
)
from sasc.numerics import NumericalError

DU = make_du()
CS, ICS = make_comparison_pair()
#: The message of a two-mode tunable scheme, whose detunings f_map cannot tune.
TWO_MODE_FMAP = "fmap tunes the detunings of a three-mode system; this one has 2"
HIGH, LOW = ModeParams("a", OMEGA_HIGH, 0.2, 0.0), ModeParams("b", OMEGA_LOW, 0.01, 1.0)


def oracle_config(**kwargs):
    settings = dict(model=DU, dt=0.002, n_steps=8192, ensemble=4, seed=1, segment_length=2048)
    return oracle.OracleConfig(**{**settings, **kwargs})


#: (call, message pattern) of each input check.
CHECKS = {
    "ModeParams.kappa": (lambda: ModeParams("a", OMEGA_HIGH, 0.0, 0.0), "kappa"),
    "ModeParams.absolute_frequency": (
        lambda: ModeParams("a", 0.0, 1.0, 0.0), "absolute_frequency"),
    "CouplingParams.magnitude": (lambda: CouplingParams(-0.1), "magnitude"),
    "BareDriveParams.drive_amplitude": (
        lambda: BareDriveParams(1.0, -1.0, 1.0), "drive_amplitude"),
    "SystemModel.mode_count": (
        lambda: SystemModel(Topology.THREE_MODE, DU.modes, DU.couplings), "requires 3 modes"),
    "SystemModel.chain_length": (
        lambda: SystemModel(Topology.CHAIN, DU.modes[:1], ()), "at least 2 modes"),
    "SystemModel.labels": (
        lambda: SystemModel(Topology.DU, DU.modes[:1] * 2, DU.couplings), "unique"),
    "SystemModel.couplings": (
        lambda: SystemModel(Topology.DU, DU.modes, ()), "expected 1 couplings"),
    "SystemModel.temperature": (
        lambda: dataclasses.replace(DU, temperature=-1.0), "temperature"),
    "OracleConfig.dt": (lambda: oracle_config(dt=0.0), "dt"),
    "OracleConfig.ensemble": (lambda: oracle_config(ensemble=0), "ensemble"),
    "OracleConfig.segment_length": (lambda: oracle_config(segment_length=1), "segment_length"),
    "OracleConfig.overlap": (lambda: oracle_config(overlap=1.0), "overlap"),
    "OracleConfig.burn_in": (lambda: oracle_config(burn_in=-1), "burn_in"),
    "OracleConfig.n_steps": (lambda: oracle_config(n_steps=100), "n_steps"),
    "OracleConfig.port": (
        lambda: oracle_config(port=2), "port 2 is out of range: the system has 2 modes"),
    "SnrSolver.signal_port": (
        lambda: spectra.SnrSolver(DU, signal_port=2),
        "signal_port 2 is out of range: the system has 2 modes"),
    "SnrSolver.readout_port": (
        lambda: spectra.SnrSolver(DU, readout_port=-1),
        "readout_port -1 is out of range: the system has 2 modes"),
    "SnrSolver.leading": (
        lambda: spectra.SnrSolver(DU).leading(3),
        "chain length 3 is out of range: the system has 2 modes"),
    "scaling_fit.length": (
        lambda: chain.scaling_fit(make_chain(4), (2, 3, 5), 0.3),
        "chain length 5 is out of range: the system has 4 modes"),
    "scaling_fit.length_one": (
        lambda: chain.scaling_fit(make_chain(4), (1, 2, 3), 0.3),
        "chain length 1 is out of range: the system has 4 modes"),
    "output_spectrum.port": (
        lambda: spectra.output_spectrum(DU, [0.0, 1.0], 2),
        "port 2 is out of range: the system has 2 modes"),
    "quadrature_coefficients.output_port": (
        lambda: spectra.quadrature_coefficients(next(spectra.transfer_matrices(DU, [0.1])), 2),
        "output_port 2 is out of range: the system has 2 modes"),
    "thermal_occupation.absolute_frequency": (
        lambda: spectra.thermal_occupation(0.0, 1.0), "absolute_frequency must be positive"),
    "thermal_occupation.temperature": (
        lambda: spectra.thermal_occupation(OMEGA_HIGH, -1.0), "temperature must be non-negative"),
    "thermal_occupation.underflow": (
        lambda: spectra.thermal_occupation(1e-300, 1e300), "thermal occupation is not finite"),
    "thermal_occupation.overflow": (
        lambda: spectra.thermal_occupation(1e-260, 1e40), "thermal occupation is not finite"),
    "thermal_occupation.square_overflow": (
        # n = 1.0e306 is finite, but n^2, the order of the Welch variance, is not.
        lambda: spectra.thermal_occupation(1e-250, 7.64e44),
        r"thermal occupation is not finite .* n = 1e\+306"),
    "asymmetry_pair.which": (
        lambda: spectra.asymmetry_pair(DU, "mb"), "'mb' is not defined for this du system"),
    "find_phase_for_target_R.target": (
        lambda: metrics.find_phase_for_target_R(DU, 1.5, "ab", 0.0), r"must lie in \[-1, 1\]"),
    "solve_steady_state.branch_index": (
        lambda: solve_steady_state(BareDriveParams(0.1 * OMEGA_LOW, 0.2 * OMEGA_LOW,
                                                   OMEGA_HIGH - OMEGA_LOW), (HIGH, LOW), 2),
        "branch_index 2 out of range for 1 branches"),
    "ComparisonConfig.mode_count": (
        lambda: metrics.ComparisonConfig(DU, ICS), TWO_MODE_FMAP),
    "f_factor.mode_count": (
        lambda: metrics.f_factor(metrics.ComparisonConfig(DU, ICS)), TWO_MODE_FMAP),
    "f_map.mode_count": (
        lambda: metrics.f_map(metrics.ComparisonConfig(DU, ICS), [0.0], [0.0]), TWO_MODE_FMAP),
    "ComparisonConfig.readout": (
        # Checked against the tunable model before f_factor gates its unstable cell.
        lambda: metrics.f_factor(metrics.ComparisonConfig(
            make_three(), make_chain(5), readout={"readout_port": 3}), delta_m=-0.5),
        "readout_port 3 is out of range: the system has 3 modes"),
    "max_snr_over_omega.omega_range": (
        lambda: metrics.max_snr_over_omega(DU, (3.0, -3.0)), "must be increasing"),
    "search_snr.nothing_to_search": (
        lambda: metrics.max_snr_over_omega(DU, (0.9995, 1.0005)), "nothing to search"),
    "phase_grid.coupling=3": (
        lambda: spectra.phase_grid(DU, 0.5, {3: [0.0, 1.0]}),
        "coupling_index 3 is out of range: the system has 1 couplings"),
    "phase_grid.coupling=-1": (
        lambda: spectra.phase_grid(DU, 0.5, {-1: [0.0, 1.0]}),
        "coupling_index -1 is out of range: the system has 1 couplings"),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_input_checks_raise_config_error(call, message):
    with pytest.raises(ConfigError, match=message) as err:
        call()
    assert isinstance(err.value, ValueError)


def test_cli_uses_the_library_error_type():
    assert cli.ConfigError is ConfigError
    assert cli.NumericalError is NumericalError


def chain_fit(**block):
    """scaling_fit over the 2-, 3- and 4-mode chains of CHAIN_BLOCK, `block` keys overriding it."""
    return chain.scaling_fit(make_chain(4, kappa_low=1e-4, **block), (2, 3, 4), 0.3)


#: (call, message pattern) of each numerical failure that needs no patched library.
FAILURES = {
    "lu_solve.non_finite": (
        lambda: numerics.lu_solve(np.array([[1.0, np.nan], [0.0, 1.0]]), [1.0, 1.0]),
        "non-finite entries"),
    "lu_solve.singular": (
        lambda: numerics.lu_solve(np.ones((2, 2)), [1.0, 1.0]), "singular to working precision"),
    "asymmetry.zero_over_zero": (lambda: spectra.asymmetry(0.0, 0.0), "0/0"),
    "f_factor.baseline_max": (
        lambda: metrics.f_factor(metrics.ComparisonConfig(CS, ICS), ics_max=0.0),
        "baseline maximum SNR is 0.0"),
    "MapResult.values": (
        lambda: metrics.MapResult([0.0], [0.0], [[np.nan]]), "map contains non-finite values"),
    "scaling_fit.gains": (
        lambda: chain_fit(coupling={"magnitude": 0.0}, detuning=0.0, detuning_alt=0.0,
                          kappa_high=1.0),
        "strictly positive gains"),
    "scaling_fit.subnormal_gain": (
        # The 168-mode chain's gain, 4.1e-320, is subnormal; a fit would take it as a value.
        lambda: chain.scaling_fit(make_chain(168), (2, 3, 168), 0.3),
        "normal floats .*; the 168-mode chain's is 4.1"),
    "scaling_fit.stable_lengths": (
        lambda: chain_fit(coupling={"magnitude": 5.0}, detuning=-1.0, detuning_alt=-1.0,
                          kappa_high=0.1),
        "at least 3 stable chain lengths"),
    "check_stability.overflow": (
        # Each drift entry is finite, but the quadrature form's sums of them overflow.
        lambda: check_stability(build_drift_matrix(make_du(magnitude=1e308))),
        "quadrature form has non-finite entries"),
    "simulate.dt": (lambda: oracle.simulate(oracle_config(dt=0.5)), "too large for spectral radius"),
    "simulate.welch_overflow": (
        # At 4.8e146 K the low mode's n is 1.0e150: the run stays finite, but two
        # 16384-sample segments' periodogram variance overflows.
        lambda: oracle.simulate(oracle_config(model=make_du(temperature=4.8e146), port=1,
                                              segment_length=16384, n_steps=24576)),
        "Welch estimate is not finite"),
    "solve_steady_state.no_branch": (
        # kappa_a^2 / 4 underflows, so with no detuning or coupling the cubic has no root.
        lambda: solve_steady_state(BareDriveParams(0.0, OMEGA_LOW, OMEGA_HIGH),
                                   (dataclasses.replace(HIGH, kappa=1e-200), LOW)),
        "no positive-intensity branch"),
}


@pytest.mark.parametrize("call, message", FAILURES.values(), ids=FAILURES.keys())
def test_failed_computations_raise_numerical_error(call, message):
    with pytest.raises(NumericalError, match=message) as err:
        call()
    assert isinstance(err.value, ValueError) and not isinstance(err.value, ConfigError)
