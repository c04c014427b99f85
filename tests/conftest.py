"""Shared model builders for the test suite (frequencies in rad/s)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, settings, strategies as st

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


def make_chain(n_modes, temperature=0.0, **block):
    """The n-mode chain of CHAIN_BLOCK, `block` keys overriding it, built as the chain task does."""
    return build_system(chain_system({**CHAIN_BLOCK, **block}, n_modes, temperature))


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
    i w Lambda - M is singular for the model at `detunings`: i w* is a purely
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
