"""Transfer matrices, transmission coefficients, asymmetry, spectra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    OMEGA_HIGH, OMEGA_LOW, make_comparison_pair, make_du, make_three, stable_chains, with_phases,
)
from sasc.model import (
    CouplingParams,
    InstabilityError,
    build_drift_matrix,
    conjugation_permutation,
    input_coupling_matrix,
)
from sasc import chain, spectra


def chain_model(n_modes):
    return chain.build_chain_model(chain.ChainSpec(
        n_modes=n_modes, coupling=CouplingParams(0.05, 0.0), detuning=-0.8,
        detuning_alt=1.2, kappa_high=0.5, kappa_low=0.4,
    ))


class TestTransferMatrix:
    def test_decoupled_diagonal_closed_form(self):
        kappa_a, delta_a = 0.8, 0.3
        model = make_du(kappa_a=kappa_a, delta_a=delta_a, magnitude=1e-300)
        for omega in (-1.2, 0.0, 0.7):
            gamma = spectra.transfer_matrix(model, omega).gamma
            expected = kappa_a / (-1j * omega + 1j * delta_a + kappa_a / 2.0) - 1.0
            assert gamma[0, 0] == pytest.approx(expected, abs=1e-12)
            assert abs(gamma[0, 2]) < 1e-12

    def test_conjugation_symmetry_of_gamma(self):
        model = make_three(phase_m=0.9, phase_c=2.1)
        perm = conjugation_permutation(model.n_modes)
        p = np.zeros((6, 6))
        p[np.arange(6), perm] = 1.0
        for omega in (-0.4, 0.25, 1.7):
            gamma = spectra.transfer_matrix(model, omega).gamma
            assert np.allclose(p @ np.conj(gamma) @ p, gamma, atol=1e-10)

    def test_unstable_model_is_rejected(self):
        model = make_du(delta_a=-1.0, kappa_a=0.1, magnitude=0.5)
        with pytest.raises(InstabilityError):
            spectra.transfer_matrix(model, 0.0)
        spectra.transfer_matrix(model, 0.0, check=False)  # explicit opt-out


_IDENTITY_MODELS = pytest.mark.parametrize("model", [
    make_du(), make_three(phase_m=0.4, phase_c=1.9),
    chain_model(4), chain_model(7), chain_model(12),
], ids=["du", "three", "chain4", "chain7", "chain12"])
_IDENTITY_OMEGAS = pytest.mark.parametrize("omega", [-2.0, -0.3, 0.0, 0.6, 1.0 - 1e-6, 2.5])


class TestBosonicIdentity:
    """S J S^dag = J, J = diag(1, -1, ...): outputs keep the input commutators."""

    @staticmethod
    def scaled_residual(s, n_modes):
        j = np.diag(np.tile([1.0, -1.0], n_modes))
        residual = float(np.max(np.abs(s @ j @ s.conj().T - j)))
        return residual / max(1.0, float(np.max(np.abs(s))) ** 2)

    @_IDENTITY_MODELS
    @_IDENTITY_OMEGAS
    def test_gamma_preserves_commutators(self, model, omega):
        gamma = spectra.transfer_matrix(model, omega).gamma
        assert self.scaled_residual(gamma, model.n_modes) <= 1e-12

    @_IDENTITY_MODELS
    @_IDENTITY_OMEGAS
    def test_causal_matrix_preserves_commutators(self, model, omega):
        causal = spectra.causal_transfer_matrix(model, omega)
        assert self.scaled_residual(causal, model.n_modes) <= 1e-12


class TestStackedTransferMatrices:
    """
    The stacked Gamma path against per-frequency and independent references.

    Both references are backward-stable LAPACK solves of iwLambda - M, so
    their distance from the stack, and the commutator residual, are bounded
    by a small multiple of eps * cond_1(iwLambda - M) rather than by a fixed
    1e-12: near the low-mode resonances w = +-1, with kappa_low down to 1e-4,
    cond_1 reaches 1e9. Measured over 6,000 draws of the same chains: both
    are at most 3.4 eps * cond_1, and at most 2.1e-15 for w uniform in [-3, 3].
    """

    @settings(max_examples=60, deadline=None, database=None)
    @given(model=stable_chains(), omegas=st.integers(1, 40).flatmap(
        lambda n: st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    def test_stack_matches_references_and_preserves_commutators(self, model, omegas):
        # Up to 40 frequencies, so that grids span several solve blocks.
        gammas = np.concatenate(list(spectra.transfer_matrices(model, omegas)))
        assert gammas.shape == (len(omegas), 2 * model.n_modes, 2 * model.n_modes)
        drift = build_drift_matrix(model)
        ell = input_coupling_matrix(model)
        lam = np.diag(np.tile([-1.0, 1.0], model.n_modes))
        for omega, gamma in zip(omegas, gammas):
            a = 1j * omega * lam - drift
            bound = max(1e-12, 32 * np.finfo(float).eps * np.linalg.cond(a, 1))
            scale = max(1.0, float(np.max(np.abs(gamma))))
            pointwise = spectra.transfer_matrix(model, omega).gamma
            reference = ell @ np.linalg.solve(a, ell) - np.eye(len(drift))
            assert np.max(np.abs(gamma - pointwise)) <= bound * scale
            assert np.max(np.abs(gamma - reference)) <= bound * scale
            assert TestBosonicIdentity.scaled_residual(gamma, model.n_modes) <= bound


class TestPhaseGrid:
    def test_matches_per_phase_transfer_matrices_exactly(self):
        model = make_comparison_pair()[0]
        omega = spectra.resonance_probe_frequency()
        slow, fast = np.linspace(0.0, 2.0 * np.pi, 7), [0.3, 2.0, 5.5]
        # 21 phase pairs span two solve blocks; coupling 1 (the first key) varies slowest.
        gammas = np.concatenate(list(spectra.phase_grid(model, omega, {1: slow, 0: fast})))
        reference = [
            spectra.transfer_matrix(with_phases(model, {1: t1, 0: t0}), omega, check=False).gamma
            for t1 in slow for t0 in fast
        ]
        assert np.array_equal(gammas, np.array(reference))

    def test_gates_the_model_before_any_solve(self):
        with pytest.raises(InstabilityError):
            spectra.phase_grid(make_du(kappa_a=0.1, delta_a=-1.0, magnitude=0.5), 0.0, {0: [0.0]})


class TestConjugationIdentities:
    """
    Conjugation symmetry of Gamma and of the causal matrix, and the causal
    matrix's commutator identity, over random stable chains. P swaps each
    (annihilation, creation) channel pair. The bound is the one of
    TestStackedTransferMatrices, from cond_1 of the solved matrix.
    """

    @staticmethod
    def swap(n_modes):
        perm = conjugation_permutation(n_modes)
        p = np.zeros((2 * n_modes, 2 * n_modes))
        p[np.arange(2 * n_modes), perm] = 1.0
        return p

    @staticmethod
    def bound(a):
        return max(1e-12, 32 * np.finfo(float).eps * np.linalg.cond(a, 1))

    @settings(max_examples=60, deadline=None, database=None)
    @given(model=stable_chains(), omega=st.floats(-3.0, 3.0))
    def test_gamma_is_conjugation_symmetric(self, model, omega):
        # P Gamma(w)* P = Gamma(w)
        gamma = spectra.transfer_matrix(model, omega).gamma
        p = self.swap(model.n_modes)
        lam = np.diag(np.tile([-1.0, 1.0], model.n_modes))
        bound = self.bound(1j * omega * lam - build_drift_matrix(model))
        scale = max(1.0, float(np.max(np.abs(gamma))))
        assert np.max(np.abs(p @ np.conj(gamma) @ p - gamma)) <= bound * scale

    @settings(max_examples=60, deadline=None, database=None)
    @given(model=stable_chains(), omega=st.floats(-3.0, 3.0))
    def test_causal_matrix_mirrors_and_preserves_commutators(self, model, omega):
        # P C(w)* P = C(-w) and C J C^dag = J
        causal = spectra.causal_transfer_matrix(model, omega)
        mirrored = spectra.causal_transfer_matrix(model, -omega)
        p = self.swap(model.n_modes)
        drift = build_drift_matrix(model)
        eye = np.eye(len(drift))
        bound = max(self.bound(-1j * omega * eye - drift), self.bound(1j * omega * eye - drift))
        scale = max(1.0, float(np.max(np.abs(causal))), float(np.max(np.abs(mirrored))))
        assert np.max(np.abs(p @ np.conj(causal) @ p - mirrored)) <= bound * scale
        assert TestBosonicIdentity.scaled_residual(causal, model.n_modes) <= bound


class TestTransmission:
    def test_sideband_pair_members_are_equal(self):
        model = make_du(phase=1.1)
        for omega in (-1.5, 0.2, 0.97):
            gamma = spectra.transfer_matrix(model, omega).gamma
            for src, dst in ((1, 0), (0, 1)):
                assert spectra.transmission(gamma, src, dst, "+") == pytest.approx(
                    spectra.transmission(gamma, src, dst, "-"), rel=1e-10)

    def test_three_mode_pair_members_are_equal(self):
        model = make_three(phase_m=0.4, phase_c=1.9)
        gamma = spectra.transfer_matrix(model, 0.6).gamma
        for src, dst in ((1, 0), (0, 1), (2, 1), (1, 2)):
            assert spectra.transmission(gamma, src, dst, "+") == pytest.approx(
                spectra.transmission(gamma, src, dst, "-"), rel=1e-10)

    def test_transmissions_are_nonnegative(self):
        gamma = spectra.transfer_matrix(make_du(), 0.5).gamma
        legs = ((0, 0, "+"), (1, 1, "+"), (1, 0, "+"), (0, 1, "-"))
        assert min(spectra.transmission(gamma, *leg) for leg in legs) >= 0.0


class TestAsymmetry:
    def test_bounds_and_sign(self):
        assert spectra.asymmetry(2.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert spectra.asymmetry(0.0, 1.0) == -1.0
        assert spectra.asymmetry(1.0, 0.0) == 1.0

    def test_vanishing_coefficients_are_undefined(self):
        with pytest.raises(spectra.UndefinedAsymmetryError):
            spectra.asymmetry(0.0, 0.0)

    def test_resonance_probe_offset(self):
        assert spectra.resonance_probe_frequency() == 1.0 - 1e-6
        assert spectra.RESONANCE_PROBE_OFFSET == 1e-6

    def test_phase_sweeps_both_signs_near_resonance(self):
        # The negative-asymmetry window in theta is narrow; sweep densely.
        omega = spectra.resonance_probe_frequency()
        values = []
        for theta in np.linspace(0.0, 2.0 * np.pi, 721):
            gamma = spectra.transfer_matrix(make_du(phase=theta), omega, check=False).gamma
            values.append(spectra.pair_asymmetry(gamma, spectra.ASYMMETRY_PAIRS["ab"]))
        assert min(values) < -0.9
        assert max(values) > 0.9


class TestThermal:
    def test_low_frequency_mode_occupation(self):
        assert spectra.thermal_occupation(OMEGA_LOW, 0.01) == pytest.approx(
            20.3406, abs=1e-3
        )

    def test_high_frequency_modes_are_vacuum(self):
        assert spectra.thermal_occupation(OMEGA_HIGH, 0.01) < 1e-18
        assert spectra.thermal_occupation(OMEGA_LOW, 0.0) == 0.0

    def test_occupations_vector_ordering(self):
        occ = spectra.occupations(make_three())
        assert occ.shape == (3,)
        assert occ[1] > 20.0
        assert occ[0] < 1e-18 and occ[2] < 1e-18


class TestQuadratures:
    def test_coefficient_pairs_are_conjugate(self):
        model = make_three(phase_m=0.8, phase_c=2.3)
        tr = spectra.transfer_matrix(model, 0.55)
        for psi in (0.0, 0.4):
            c = spectra.quadrature_coefficients(tr, output_port=2, psi=psi)
            assert np.allclose(c[1::2], np.conj(c[0::2]), atol=1e-10)

    def test_output_port_validation(self):
        tr = spectra.transfer_matrix(make_du(), 0.1)
        with pytest.raises(ValueError):
            spectra.quadrature_coefficients(tr, output_port=2)


class TestOutputSpectrum:
    def test_decoupled_port_matches_lorentzian(self):
        kappa_a, delta_a = 0.6, 0.4
        model = make_du(kappa_a=kappa_a, delta_a=delta_a, magnitude=1e-300,
                        temperature=0.0)
        omegas = np.linspace(-2.0, 2.0, 41)
        table = spectra.output_spectrum(model, omegas, port=0)
        response = kappa_a / (-1j * omegas + 1j * delta_a + kappa_a / 2.0) - 1.0
        expected = 0.5 * np.abs(response) ** 2
        assert np.allclose(table.columns["S_out_a"], expected, atol=1e-10)

    def test_values_are_nonnegative(self):
        table = spectra.output_spectrum(make_three(), np.linspace(-2, 2, 21), port=2)
        assert np.all(table.columns["S_out_c"] >= 0.0)


class TestSnrSpectra:
    def test_amplification_and_snr_are_finite_positive(self):
        model = make_three(kappa_c=0.1, magnitude_m=0.2,
                           phase_m=np.pi / 3, phase_c=2 * np.pi / 3)
        omegas = np.linspace(0.5, 2.0, 31)
        table = spectra.snr_spectrum(model, omegas)
        assert np.all(table.columns["S_AP"] >= 0.0)
        assert np.all(table.columns["S_SNR"] >= 0.0)
        assert np.max(table.columns["S_SNR"]) > 1.0

    def test_homodyne_angle_changes_the_spectrum(self):
        model = make_three(kappa_c=0.1, magnitude_m=0.2, phase_m=np.pi / 3)
        omegas = np.linspace(0.9, 1.4, 11)
        base = spectra.snr_spectrum(model, omegas, psi=0.0).columns["S_SNR"]
        turned = spectra.snr_spectrum(model, omegas, psi=1.0).columns["S_SNR"]
        assert not np.allclose(base, turned)


class TestSpectrumTable:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            spectra.SpectrumTable(omega=np.array([0.0, 0.0, 1.0]))

    def test_column_length_and_finiteness(self):
        with pytest.raises(ValueError):
            spectra.SpectrumTable(omega=np.array([0.0, 1.0]),
                                  columns={"x": np.array([1.0])})
        with pytest.raises(ValueError):
            spectra.SpectrumTable(omega=np.array([0.0, 1.0]),
                                  columns={"x": np.array([1.0, np.inf])})
