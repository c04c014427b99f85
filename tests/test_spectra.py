"""Transfer matrices, transmission coefficients, asymmetry, spectra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    OMEGA_HIGH, OMEGA_LOW, causal_grid, conjugation_permutation, gamma_grid, make_chain,
    make_comparison_pair, make_du, make_three, stable_chains, with_phases,
)
from sasc.model import (
    InstabilityError,
    build_drift_matrix,
    input_coupling_matrix,
)
from sasc import metrics, numerics, spectra


class TestTransferMatrix:
    def test_decoupled_diagonal_closed_form(self):
        kappa_a, delta_a = 0.8, 0.3
        model = make_du(kappa_a=kappa_a, delta_a=delta_a, magnitude=1e-300)
        omegas = (-1.2, 0.0, 0.7)
        for omega, gamma in zip(omegas, gamma_grid(model, omegas)):
            expected = kappa_a / (-1j * omega + 1j * delta_a + kappa_a / 2.0) - 1.0
            assert gamma[0, 0] == pytest.approx(expected, abs=1e-12)
            assert abs(gamma[0, 2]) < 1e-12

    def test_conjugation_symmetry_of_gamma(self):
        model = make_three(phase_m=0.9, phase_c=2.1)
        perm = conjugation_permutation(model.n_modes)
        p = np.zeros((6, 6))
        p[np.arange(6), perm] = 1.0
        for gamma in gamma_grid(model, (-0.4, 0.25, 1.7)):
            assert np.allclose(p @ np.conj(gamma) @ p, gamma, atol=1e-10)


#: Every public entry that solves a resolvent of a model, on the least other input.
GATED_ENTRIES = {
    "transfer_matrices": lambda model: spectra.transfer_matrices(model, [0.0]),
    "transfer_matrices(causal=True)":
        lambda model: spectra.transfer_matrices(model, [0.0], causal=True),
    "output_spectrum": lambda model: spectra.output_spectrum(model, [0.0], 0),
    "phase_grid": lambda model: spectra.phase_grid(model, 0.0, {0: [0.0]}),
    "snr_spectrum": lambda model: spectra.snr_spectrum(model, [0.0]),
    "max_snr_over_omega": lambda model: metrics.max_snr_over_omega(model),
    # The baseline comes first, so an unstable one stops f before the tunable scheme's search.
    "f_factor": lambda model: metrics.f_factor(
        metrics.ComparisonConfig(cs_model=make_three(), ics_model=model)),
}


@pytest.mark.parametrize("entry", GATED_ENTRIES.values(), ids=GATED_ENTRIES.keys())
def test_unstable_model_is_rejected(monkeypatch, entry):
    # At the call, before any block of a resolvent is solved.
    def no_solve(*args):
        raise AssertionError("a resolvent was solved before the stability gate")

    monkeypatch.setattr(numerics, "invert", no_solve)
    monkeypatch.setattr(numerics, "lu_solve", no_solve)
    with pytest.raises(InstabilityError):
        entry(make_du(delta_a=-1.0, kappa_a=0.1, magnitude=0.5))


_IDENTITY_MODELS = pytest.mark.parametrize("model", [
    make_du(), make_three(phase_m=0.4, phase_c=1.9),
    make_chain(4), make_chain(7), make_chain(12),
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
        gamma = gamma_grid(model, [omega])[0]
        assert self.scaled_residual(gamma, model.n_modes) <= 1e-12

    @_IDENTITY_MODELS
    @_IDENTITY_OMEGAS
    def test_causal_matrix_preserves_commutators(self, model, omega):
        causal = causal_grid(model, [omega])[0]
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
            pointwise = gamma_grid(model, [omega])[0]
            reference = ell @ np.linalg.solve(a, ell) - np.eye(len(drift))
            assert np.max(np.abs(gamma - pointwise)) <= bound * scale
            assert np.max(np.abs(gamma - reference)) <= bound * scale
            assert TestBosonicIdentity.scaled_residual(gamma, model.n_modes) <= bound


class TestExactPathBits:
    """
    Resolvent blocks read Gamma's rows through the diagonal L; they must keep the
    bits of the dense products L[rows] (A^{-1} L) - I[rows], whatever feeds the
    drift and however the grid is blocked.
    """

    MODELS = pytest.mark.parametrize("model", [
        make_du(), make_three(delta_m=0.3, delta_c=-0.2, phase_m=0.4, phase_c=1.9), make_chain(12),
    ], ids=["du", "three", "chain12"])
    #: Blocks of the default size, and of the least (16 points: three blocks of 40).
    BLOCKS = pytest.mark.parametrize("entries", [spectra._BLOCK_ENTRIES, 0],
                                     ids=["default", "least"])
    OMEGAS = np.linspace(-2.9, 2.9, 40)
    THETAS = np.linspace(0.0, 2.0 * np.pi, 40)

    @staticmethod
    def dense(model, omegas, drifts, rows, signature):
        ell = input_coupling_matrix(model)
        eye = np.eye(len(ell))
        a = 1j * np.multiply.outer(omegas, signature)[:, :, None] * eye - drifts
        return ell[rows] @ numerics.lu_solve(a, ell) - eye[rows]

    @staticmethod
    def readout(model):
        return slice(2 * model.n_modes - 2, 2 * model.n_modes)

    @MODELS
    @BLOCKS
    @pytest.mark.parametrize("causal", [False, True], ids=["lambda", "causal"])
    def test_single_drift_and_stack(self, monkeypatch, model, entries, causal):
        monkeypatch.setattr(spectra, "_BLOCK_ENTRIES", entries)
        ell = input_coupling_matrix(model)
        signature = np.tile([-1.0, -1.0 if causal else 1.0], model.n_modes)
        single = build_drift_matrix(model)
        stack = np.array([build_drift_matrix(with_phases(model, {0: t})) for t in self.THETAS])
        for drift in (single, stack):
            for rows in (slice(None), self.readout(model)):
                blocks = list(spectra._resolvent_blocks(drift, ell, self.OMEGAS, signature, rows))
                assert entries or len(blocks) == 3
                assert np.array_equal(np.concatenate(blocks),
                                      self.dense(model, self.OMEGAS, drift, rows, signature))

    @MODELS
    @BLOCKS
    @pytest.mark.parametrize("omega", [-1.3, 0.2, 2.4])
    def test_phase_grid_callable(self, monkeypatch, model, entries, omega):
        monkeypatch.setattr(spectra, "_BLOCK_ENTRIES", entries)
        blocks = spectra._resolvent_blocks
        drifts = np.array([build_drift_matrix(with_phases(model, {0: t})) for t in self.THETAS])
        omegas = np.full(len(self.THETAS), omega)
        lam = np.tile([-1.0, 1.0], model.n_modes)
        for rows in (slice(None), self.readout(model)):
            # phase_grid hands its own drift callable to the blocks, here asked for `rows`.
            monkeypatch.setattr(spectra, "_resolvent_blocks",
                                lambda *args, rows=rows: blocks(*args, rows))
            gammas = np.concatenate(list(spectra.phase_grid(model, omega, {0: self.THETAS})))
            assert np.array_equal(gammas, self.dense(model, omegas, drifts, rows, lam))

    @MODELS
    def test_mode_sum_matches_numpy(self, model):
        # from_coefficients sums the noise mode by mode; numpy's pairwise sum may take another
        # order from three modes on, so only two modes must keep its bits.
        solver = spectra.SnrSolver(model)
        rng = np.random.default_rng(3)
        c = rng.standard_normal((7, 401, 2 * model.n_modes, 2)) @ [1.0, 1j]
        s_ap, snr = solver.from_coefficients(c)
        mags = np.abs(c) ** 2
        noise = np.sum((mags[..., 0::2] + mags[..., 1::2]) * solver.weights, axis=-1)
        if model.n_modes == 2:
            assert np.array_equal(snr, s_ap / noise)
        np.testing.assert_allclose(snr, s_ap / noise, rtol=2 * model.n_modes * np.finfo(float).eps)

    def test_f_map_ignores_the_scan_block(self, monkeypatch):
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics)
        deltas = np.linspace(-0.8, 0.8, 9)
        maps = []
        for entries in (1, spectra._SCAN_ENTRIES, 81 * metrics._SNR_SCAN_POINTS * 6):
            monkeypatch.setattr(spectra, "_SCAN_ENTRIES", entries)  # one cell, default, all cells
            maps.append(metrics.f_map(cfg, deltas, deltas))
        for result in maps[1:]:
            assert np.array_equal(result.values, maps[0].values)
            assert result.metadata == maps[0].metadata and result.scan == maps[0].scan


class TestPhaseGrid:
    def test_matches_per_phase_transfer_matrices_exactly(self):
        model = make_comparison_pair()[0]
        omega = spectra.resonance_probe_frequency()
        slow, fast = np.linspace(0.0, 2.0 * np.pi, 7), [0.3, 2.0, 5.5]
        # 21 phase pairs span two solve blocks; coupling 1 (the first key) varies slowest.
        gammas = np.concatenate(list(spectra.phase_grid(model, omega, {1: slow, 0: fast})))
        reference = [
            gamma_grid(with_phases(model, {1: t1, 0: t0}), [omega])[0]
            for t1 in slow for t0 in fast
        ]
        assert np.array_equal(gammas, np.array(reference))


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
        gamma = gamma_grid(model, [omega])[0]
        p = self.swap(model.n_modes)
        lam = np.diag(np.tile([-1.0, 1.0], model.n_modes))
        bound = self.bound(1j * omega * lam - build_drift_matrix(model))
        scale = max(1.0, float(np.max(np.abs(gamma))))
        assert np.max(np.abs(p @ np.conj(gamma) @ p - gamma)) <= bound * scale

    @settings(max_examples=60, deadline=None, database=None)
    @given(model=stable_chains(), omega=st.floats(-3.0, 3.0))
    def test_causal_matrix_mirrors_and_preserves_commutators(self, model, omega):
        # P C(w)* P = C(-w) and C J C^dag = J
        causal, mirrored = causal_grid(model, [omega, -omega])
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
        for gamma in gamma_grid(model, (-1.5, 0.2, 0.97)):
            for src, dst in ((1, 0), (0, 1)):
                assert spectra.transmission(gamma, src, dst, "+") == pytest.approx(
                    spectra.transmission(gamma, src, dst, "-"), rel=1e-10)

    def test_three_mode_pair_members_are_equal(self):
        model = make_three(phase_m=0.4, phase_c=1.9)
        gamma = gamma_grid(model, [0.6])[0]
        for src, dst in ((1, 0), (0, 1), (2, 1), (1, 2)):
            assert spectra.transmission(gamma, src, dst, "+") == pytest.approx(
                spectra.transmission(gamma, src, dst, "-"), rel=1e-10)

    def test_transmissions_are_nonnegative(self):
        gamma = gamma_grid(make_du(), [0.5])[0]
        legs = ((0, 0, "+"), (1, 1, "+"), (1, 0, "+"), (0, 1, "-"))
        assert min(spectra.transmission(gamma, *leg) for leg in legs) >= 0.0


class TestAsymmetry:
    def test_bounds_and_sign(self):
        assert spectra.asymmetry(2.0, 1.0) == pytest.approx(1.0 / 3.0)
        assert spectra.asymmetry(0.0, 1.0) == -1.0
        assert spectra.asymmetry(1.0, 0.0) == 1.0

    def test_vanishing_coefficients_are_undefined(self):
        with pytest.raises(numerics.NumericalError, match="0/0"):
            spectra.asymmetry(0.0, 0.0)

    def test_resonance_probe_offset(self):
        assert spectra.resonance_probe_frequency() == 1.0 - 1e-6
        assert spectra.RESONANCE_PROBE_OFFSET == 1e-6

    def test_phase_sweeps_both_signs_near_resonance(self):
        # The negative-asymmetry window in theta is narrow; sweep densely.
        omega = spectra.resonance_probe_frequency()
        thetas = np.linspace(0.0, 2.0 * np.pi, 721)
        gammas = np.concatenate(list(spectra.phase_grid(make_du(), omega, {0: thetas})))
        values = spectra.pair_asymmetry(gammas, spectra.ASYMMETRY_PAIRS["ab"])
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
        gamma = gamma_grid(model, [0.55])[0]
        for psi in (0.0, 0.4):
            c = spectra.quadrature_coefficients(gamma, output_port=2, psi=psi)
            assert np.allclose(c[1::2], np.conj(c[0::2]), atol=1e-10)

    def test_stack_matches_per_point_coefficients(self):
        model = make_three(phase_m=0.8, phase_c=2.3)
        gammas = gamma_grid(model, np.linspace(0.1, 0.9, 7))
        for stack in (gammas, gammas[:3], gammas.reshape(7, 1, 6, 6)):
            c = spectra.quadrature_coefficients(stack, output_port=2, psi=0.4)
            expected = [spectra.quadrature_coefficients(g, output_port=2, psi=0.4)
                        for g in stack.reshape(-1, 6, 6)]
            assert np.array_equal(c.reshape(-1, 6), expected)

    def test_output_port_validation(self):
        gamma = gamma_grid(make_du(), [0.1])[0]
        with pytest.raises(ValueError):
            spectra.quadrature_coefficients(gamma, output_port=2)


class TestOutputSpectrum:
    def test_decoupled_port_matches_lorentzian(self):
        kappa_a, delta_a = 0.6, 0.4
        model = make_du(kappa_a=kappa_a, delta_a=delta_a, magnitude=1e-300,
                        temperature=0.0)
        omegas = np.linspace(-2.0, 2.0, 41)
        values = spectra.output_spectrum(model, omegas, port=0)
        response = kappa_a / (-1j * omegas + 1j * delta_a + kappa_a / 2.0) - 1.0
        expected = 0.5 * np.abs(response) ** 2
        assert np.allclose(values, expected, atol=1e-10)

    def test_values_are_nonnegative(self):
        values = spectra.output_spectrum(make_three(), np.linspace(-2, 2, 21), port=2)
        assert np.all(values >= 0.0)


@st.composite
def readout_solvers(draw):
    """SnrSolvers of random two-mode, three-mode and chain models, stable or not, at random
    temperatures, with random signal and readout ports and homodyne angle."""
    kappa, delta = st.floats(0.01, 2.0), st.floats(-2.0, 2.0)
    magnitude, phase = st.floats(0.0, 0.6), st.floats(0.0, 2.0 * np.pi)
    temperature = draw(st.just(0.0) | st.floats(1e-3, 2.0))
    kind = draw(st.sampled_from(["du", "three", "chain"]))
    if kind == "du":
        model = make_du(kappa_a=draw(kappa), delta_a=draw(delta), magnitude=draw(magnitude),
                        phase=draw(phase), temperature=temperature)
    elif kind == "three":
        model = make_three(kappa_m=draw(kappa), kappa_c=draw(kappa), delta_m=draw(delta),
                           delta_c=draw(delta), magnitude_m=draw(magnitude),
                           magnitude_c=draw(magnitude), phase_m=draw(phase),
                           phase_c=draw(phase), temperature=temperature)
    else:
        model = make_chain(draw(st.integers(2, 8)), temperature,
                           coupling={"magnitude": draw(magnitude), "phase": draw(phase)},
                           detuning=draw(delta), detuning_alt=draw(delta),
                           kappa_high=draw(kappa), kappa_low=draw(st.floats(1e-4, 0.5)))
    ports = st.integers(0, model.n_modes - 1)
    return spectra.SnrSolver(model, draw(ports), draw(ports), draw(phase))


class TestSnrSpectra:
    def test_amplification_and_snr_are_finite_positive(self):
        model = make_three(kappa_c=0.1, magnitude_m=0.2,
                           phase_m=np.pi / 3, phase_c=2 * np.pi / 3)
        omegas = np.linspace(0.5, 2.0, 31)
        s_ap, snr = spectra.snr_spectrum(model, omegas)
        assert np.all(s_ap >= 0.0)
        assert np.all(snr >= 0.0)
        assert np.max(snr) > 1.0

    @pytest.mark.parametrize("model", [make_du(), make_three(phase_m=0.4, phase_c=1.9),
                                       make_chain(6)], ids=["du", "three", "chain6"])
    @pytest.mark.parametrize("psi", [0.0, 0.4])
    def test_readout_rows_match_the_full_gamma(self, model, psi):
        # The solver forms only the readout port's two rows of each Gamma.
        omegas = np.linspace(-2.5, 2.5, 301)
        gammas = np.concatenate(list(spectra.transfer_matrices(model, omegas)))
        c = spectra.quadrature_coefficients(gammas, model.n_modes - 1, psi)
        s_ap = np.abs(c[:, 0] + c[:, 1]) ** 2
        weights = spectra.occupations(model) + 0.5
        noise = (np.abs(c[:, 0::2]) ** 2 + np.abs(c[:, 1::2]) ** 2) @ weights
        expected = s_ap, s_ap / noise
        for value, reference in zip(spectra.snr_spectrum(model, omegas, psi=psi), expected):
            np.testing.assert_allclose(value, reference, rtol=1e-12, atol=0.0)

    @settings(max_examples=100, deadline=None, database=None)
    @given(readout_solvers(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
    def test_snr_is_below_the_signal_ports_ceiling(self, solver, omegas):
        # |C_s+ + C_s-|^2 <= 2 (|C_s+|^2 + |C_s-|^2) by Cauchy-Schwarz, and the noise sum
        # holds (|C_s+|^2 + |C_s-|^2)(n_s + 1/2), so SNR <= 2 / (n_s + 1/2) (Caves, Phys.
        # Rev. D 26, 1817 (1982)): on the exact path and on the pole-residue scan.
        ceiling = (1.0 + 1e-12) * 2.0 / solver.weights[solver.signal_port]
        assert np.all(solver.solve(omegas)[1] <= ceiling)
        _, snr, trusted, _ = next(solver.scan(solver.drift[None], np.linspace(-3.0, 3.0, 401)))
        assert np.all(snr[trusted] <= ceiling)

    def test_homodyne_angle_changes_the_spectrum(self):
        model = make_three(kappa_c=0.1, magnitude_m=0.2, phase_m=np.pi / 3)
        omegas = np.linspace(0.9, 1.4, 11)
        base = spectra.snr_spectrum(model, omegas, psi=0.0)[1]
        turned = spectra.snr_spectrum(model, omegas, psi=1.0)[1]
        assert not np.allclose(base, turned)

