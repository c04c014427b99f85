"""Shared model builders for the test suite (frequencies in rad/s)."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, settings, strategies as st

from sasc import cli, spectra
from sasc.cli import build_system, chain_system
from sasc.model import (
    CouplingParams, ModeParams, SystemModel, Topology, build_drift_matrix, check_stability,
)

# A failing property test prints an @reproduce_failure blob that replays its example;
# the tests keep database=None, so the example is stored nowhere else.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")

OMEGA_LOW = 2.0 * np.pi * 10e6
OMEGA_HIGH = 2.0 * np.pi * 10e9
OMEGA_OPTICAL = 1.772e15
TEMPERATURE = 0.01


def make_du(kappa_a=1.0, delta_a=0.0, kappa_b=1e-4, magnitude=0.1, phase=0.0,
            temperature=TEMPERATURE):
    return SystemModel(
        topology=Topology.DU,
        modes=(
            ModeParams("a", OMEGA_HIGH, kappa_a, delta_a),
            ModeParams("b", OMEGA_LOW, kappa_b, 1.0),
        ),
        couplings=(CouplingParams(magnitude, phase),),
        temperature=temperature,
    )


def make_three(kappa_m=1.0, kappa_c=1.0, delta_m=0.0, delta_c=0.0,
               magnitude_m=0.1, magnitude_c=0.1, phase_m=0.0, phase_c=0.0,
               kappa_b=1e-4, temperature=TEMPERATURE):
    return SystemModel(
        topology=Topology.THREE_MODE,
        modes=(
            ModeParams("m", OMEGA_HIGH, kappa_m, delta_m),
            ModeParams("b", OMEGA_LOW, kappa_b, 1.0),
            ModeParams("c", OMEGA_OPTICAL, kappa_c, delta_c),
        ),
        couplings=(
            CouplingParams(magnitude_m, phase_m),
            CouplingParams(magnitude_c, phase_c),
        ),
        temperature=temperature,
    )


def system_block(model):
    """The config 'system' block that cli.build_system turns back into `model`."""
    return {
        "topology": model.topology.value,
        "modes": [dataclasses.asdict(mode) for mode in model.modes],
        "couplings": [dataclasses.asdict(coupling) for coupling in model.couplings],
        "temperature": model.temperature,
    }


def two_coupling_asymmetries(tmp_path, model, points):
    """
    (R_mb, R_bc) of a three-mode model over theta_m x theta_c, `points` phases in
    [0, 2 pi] each, read back from the CSV of a `sasc asymmetry` run with
    coupling_index [0, 1]; rows index theta_m, columns theta_c.
    """
    config = {"system": system_block(model),
              "task": {"kind": "asymmetry", "coupling_index": [0, 1]},
              "grid": {"min": 0.0, "max": 2.0 * np.pi, "points": points}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["asymmetry", "--config", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
    lines = [line for line in (tmp_path / "asymmetry.csv").read_text().splitlines()
             if not line.startswith("#")]
    columns = dict(zip(lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2).T))
    return tuple(columns[name].reshape(points, points) for name in ("R_mb", "R_bc"))


def conjugation_permutation(n_modes):
    """Index permutation swapping each (annihilation, creation) channel pair."""
    perm = np.arange(2 * n_modes)
    perm[0::2] += 1
    perm[1::2] -= 1
    return perm


def make_comparison_pair():
    """The tunable scheme and its fixed baseline used by the f-factor tests."""
    cs = make_three(kappa_m=1.0, kappa_c=0.1, delta_m=0.0, delta_c=0.0,
                    magnitude_m=0.2, magnitude_c=0.1,
                    phase_m=np.pi / 3.0, phase_c=2.0 * np.pi / 3.0)
    ics = make_three(kappa_m=0.1, kappa_c=0.1, delta_m=1.0, delta_c=1.0,
                     magnitude_m=0.2, magnitude_c=0.1, phase_m=0.0, phase_c=0.0)
    return cs, ics


#: The chain task's block at the chain operating point used throughout the chain tests.
CHAIN_BLOCK = {
    "coupling": {"magnitude": 0.05, "phase": 0.0},
    "detuning": -0.8,
    "detuning_alt": 1.2,
    "kappa_high": 0.5,
    "kappa_low": 0.4,
}


def make_chain(n_modes, temperature=None, **block):
    """
    The n-mode chain of CHAIN_BLOCK, `block` keys overriding it, built as the chain
    task does; the temperature is SystemModel's default unless given.
    """
    system = {} if temperature is None else {"temperature": temperature}
    return build_system(chain_system({**CHAIN_BLOCK, **block}, n_modes, **system))


def gamma_grid(model, omegas):
    """Gamma at each of `omegas`: the stacks of spectra.transfer_matrices, joined."""
    return np.concatenate(list(spectra.transfer_matrices(model, omegas)))


def causal_grid(model, omegas):
    """The causal matrix at each of `omegas`: spectra.transfer_matrices' causal stacks, joined."""
    return np.concatenate(list(spectra.transfer_matrices(model, omegas, causal=True)))


def with_phases(model, phases):
    """The model with the phase of each coupling keyed in `phases` replaced (per-point reference)."""
    couplings = list(model.couplings)
    for index, theta in phases.items():
        couplings[index] = dataclasses.replace(couplings[index], phase=theta)
    return dataclasses.replace(model, couplings=tuple(couplings))


def with_detunings(model, detunings):
    """The model with the detuning of each mode keyed in `detunings` replaced (per-point reference)."""
    modes = list(model.modes)
    for index, delta in detunings.items():
        modes[index] = dataclasses.replace(modes[index], detuning=delta)
    return dataclasses.replace(model, modes=tuple(modes))


def pole_centred_range(model, detunings):
    """
    An omega_range whose middle point of 401 is a real frequency w* at which
    i w Lambda - M is singular for the model at high-mode `detunings` (one per
    even index, as build_drift_matrix takes them): i w* is a purely
    imaginary eigenvalue of Lambda M, away from the low-mode resonances.
    """
    lam = np.tile([-1.0, 1.0], model.n_modes)
    poles = np.linalg.eigvals(lam[:, None] * build_drift_matrix(model, detunings))
    near_resonance = np.abs(np.abs(poles.imag) - 1.0) < 0.05
    w = poles[np.argmin(np.abs(poles.real) + near_resonance)].imag
    return (w - 1.0, w + 1.0)


@st.composite
def stable_chains(draw):
    """Chains of 2 to 12 modes with random rates, detunings and couplings, stable by a margin."""
    n_modes = draw(st.integers(2, 12))
    modes = []
    for i in range(n_modes):
        if i % 2 == 0:
            kappa, detuning = draw(st.floats(0.05, 2.0)), draw(st.floats(-2.0, 2.0))
            modes.append(ModeParams(f"h{i}", OMEGA_HIGH, kappa, detuning))
        else:
            modes.append(ModeParams(f"l{i}", OMEGA_LOW, 10.0 ** draw(st.floats(-4.0, -0.5)), 1.0))
    couplings = tuple(
        CouplingParams(draw(st.floats(0.0, 0.2)), draw(st.floats(0.0, 2.0 * np.pi)))
        for _ in range(n_modes - 1)
    )
    model = SystemModel(Topology.CHAIN, tuple(modes), couplings, TEMPERATURE)
    assume(check_stability(build_drift_matrix(model)).spectral_abscissa < -1e-6)
    return model


@pytest.fixture
def du_model():
    return make_du()


@pytest.fixture
def three_model():
    return make_three()
