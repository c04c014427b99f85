"""Drift-matrix construction, conjugation structure, stability, steady state."""

import numpy as np
import pytest

from conftest import OMEGA_HIGH, OMEGA_LOW, make_du, make_three
from sasc.model import (
    BareDriveParams,
    CouplingParams,
    InstabilityError,
    ModeParams,
    SystemModel,
    Topology,
    build_drift_matrix,
    check_stability,
    conjugation_permutation,
    input_coupling_matrix,
    require_stable,
    solve_steady_state,
)


def conjugation_matrix(n_modes):
    perm = conjugation_permutation(n_modes)
    p = np.zeros((2 * n_modes, 2 * n_modes))
    p[np.arange(2 * n_modes), perm] = 1.0
    return p


class TestDriftMatrix:
    def test_two_mode_template_rows(self):
        m = build_drift_matrix(make_du(kappa_a=1.0, delta_a=0.0, magnitude=0.1))
        g = 0.1
        assert np.allclose(m[0], [-0.5, 0.0, -1j * g, -1j * g])
        assert np.allclose(m[2], [-1j * g, -1j * g, -1j - 5e-5, 0.0])

    def test_coupling_phase_enters_annihilation_row(self):
        theta = 0.7
        m = build_drift_matrix(make_du(magnitude=0.1, phase=theta))
        g = 0.1 * np.exp(1j * theta)
        assert m[0, 2] == pytest.approx(-1j * g)
        assert m[0, 3] == pytest.approx(-1j * g)
        assert m[2, 0] == pytest.approx(-1j * np.conj(g))
        assert m[2, 1] == pytest.approx(-1j * g)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            model = make_three(
                kappa_m=rng.uniform(0.2, 2.0), kappa_c=rng.uniform(0.2, 2.0),
                delta_m=rng.uniform(-1.5, 1.5), delta_c=rng.uniform(-1.5, 1.5),
                magnitude_m=rng.uniform(0.01, 0.2), magnitude_c=rng.uniform(0.01, 0.2),
                phase_m=rng.uniform(0.0, 2.0 * np.pi), phase_c=rng.uniform(0.0, 2.0 * np.pi),
            )
            m = build_drift_matrix(model)
            p = conjugation_matrix(model.n_modes)
            assert np.allclose(p @ np.conj(m) @ p, m, atol=1e-14)

    def test_three_mode_reduces_to_two_mode_when_decoupled(self):
        three = make_three(magnitude_c=1e-300)
        du = make_du(kappa_a=three.modes[0].kappa, delta_a=0.0,
                     magnitude=0.1, phase=0.0)
        m3 = build_drift_matrix(three)
        m2 = build_drift_matrix(du)
        assert np.allclose(m3[:4, :4], m2, atol=1e-12)

    def test_input_coupling_is_sqrt_kappa_diagonal(self):
        model = make_du(kappa_a=0.81, kappa_b=0.04)
        ell = input_coupling_matrix(model)
        assert np.allclose(ell, np.diag([0.9, 0.9, 0.2, 0.2]))

    def test_mode_count_must_match_topology(self):
        modes = (ModeParams("a", OMEGA_HIGH, 1.0, 0.0),
                 ModeParams("b", OMEGA_LOW, 1e-4, 1.0))
        with pytest.raises(ValueError):
            SystemModel(topology=Topology.THREE_MODE, modes=modes,
                        couplings=(CouplingParams(0.1, 0.0),), temperature=0.0)

    def test_mode_labels_must_be_unique(self):
        modes = (ModeParams("a", OMEGA_HIGH, 1.0, 0.0),
                 ModeParams("a", OMEGA_LOW, 1e-4, 1.0))
        with pytest.raises(ValueError):
            SystemModel(topology=Topology.DU, modes=modes,
                        couplings=(CouplingParams(0.1, 0.0),), temperature=0.0)

    def test_mode_parameter_validation(self):
        with pytest.raises(ValueError):
            ModeParams("a", OMEGA_HIGH, -1.0, 0.0)
        with pytest.raises(ValueError):
            ModeParams("a", -1.0, 1.0, 0.0)


class TestStability:
    def test_red_detuned_unit_is_stable(self):
        verdict = check_stability(build_drift_matrix(make_du(delta_a=0.5)))
        assert verdict.stable
        assert verdict.spectral_abscissa < 0

    def test_blue_detuned_strong_coupling_is_unstable(self):
        model = make_du(delta_a=-1.0, kappa_a=0.1, magnitude=0.5)
        verdict = check_stability(build_drift_matrix(model))
        assert not verdict.stable
        with pytest.raises(InstabilityError) as err:
            require_stable(build_drift_matrix(model))
        assert err.value.spectral_abscissa > 0

    def test_verdict_carries_all_eigenvalues(self):
        verdict = check_stability(build_drift_matrix(make_du()))
        assert len(verdict.eigenvalues) == 4


class TestSteadyState:
    A = ModeParams("a", OMEGA_HIGH, 0.2, 0.0)
    B = ModeParams("b", OMEGA_LOW, 0.01, 1.0)

    def bare(self, eps):
        return BareDriveParams(
            bare_coupling=0.1 * OMEGA_LOW,
            drive_amplitude=eps * OMEGA_LOW,
            drive_frequency=OMEGA_HIGH - OMEGA_LOW,
        )

    def residuals(self, state, g=0.1, eps=1.0, delta0=1.0, kappa_a=0.2, kappa_b=0.01):
        a_mean, b_mean = state.a_mean, state.b_mean
        detuning = delta0 + g * (b_mean + np.conj(b_mean)).real
        res_a = abs(a_mean - eps / (1j * detuning + kappa_a / 2.0))
        res_b = abs(b_mean + 1j * g * abs(a_mean) ** 2 / (1j + kappa_b / 2.0))
        return res_a, res_b

    def test_monostable_low_drive(self):
        state = solve_steady_state(self.bare(0.2), (self.A, self.B))
        assert state.branch_count == 1
        res_a, res_b = self.residuals(state, eps=0.2)
        assert max(res_a, res_b) < 1e-10

    def test_bistable_drive_returns_three_branches(self):
        state = solve_steady_state(self.bare(1.0), (self.A, self.B))
        assert state.branch_count == 3
        for index in range(3):
            branch = solve_steady_state(self.bare(1.0), (self.A, self.B),
                                        branch_index=index)
            res_a, res_b = self.residuals(branch)
            assert max(res_a, res_b) < 1e-10
        intensities = state.intensities
        assert intensities == tuple(sorted(intensities))

    def test_default_branch_is_lowest_intensity(self):
        state = solve_steady_state(self.bare(1.0), (self.A, self.B))
        assert state.branch_index == 0
        assert abs(state.a_mean) ** 2 == pytest.approx(state.intensities[0], rel=1e-12)

    def test_zero_drive_gives_exact_zero_fields(self):
        state = solve_steady_state(self.bare(0.0), (self.A, self.B))
        assert state.a_mean == 0.0 + 0.0j
        assert state.b_mean == 0.0 + 0.0j
        assert state.branch_count == 1

    def test_branch_index_out_of_range(self):
        with pytest.raises(ValueError):
            solve_steady_state(self.bare(0.2), (self.A, self.B), branch_index=2)
