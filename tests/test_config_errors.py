"""Every input check of the library raises model.ConfigError, a ValueError."""

import dataclasses

import pytest

from conftest import OMEGA_HIGH, make_du
from sasc import cli, metrics, oracle, spectra
from sasc.model import (
    BareDriveParams, ConfigError, CouplingParams, ModeParams, SystemModel, Topology,
)

DU = make_du()


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
    "output_spectrum.port": (
        lambda: spectra.output_spectrum(DU, [0.0, 1.0], 2),
        "port 2 is out of range: the system has 2 modes"),
    "quadrature_coefficients.output_port": (
        lambda: spectra.quadrature_coefficients(spectra.transfer_matrix(DU, 0.1), 2),
        "output_port 2 is out of range: the system has 2 modes"),
    "thermal_occupation.underflow": (
        lambda: spectra.thermal_occupation(1e-300, 1e300), "thermal occupation is not finite"),
    "thermal_occupation.overflow": (
        lambda: spectra.thermal_occupation(1e-260, 1e40), "thermal occupation is not finite"),
    "asymmetry_pair.which": (
        lambda: spectra.asymmetry_pair(DU, "mb"), "'mb' is not defined for this du system"),
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
