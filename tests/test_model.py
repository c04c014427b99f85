"""Drift-matrix construction, conjugation structure, stability, steady state."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    OMEGA_HIGH, OMEGA_LOW, TEMPERATURE, conjugation_permutation, make_du, make_three,
    stable_chains, with_detunings, with_phases,
)
from sasc.model import (
    STABILITY_MARGIN,
    BareDriveParams,
    CouplingParams,
    InstabilityError,
    ModeParams,
    SystemModel,
    Topology,
    build_drift_matrix,
    check_stability,
    input_coupling_matrix,
    numerical_abscissa,
    quadrature_form,
    require_stable,
    solve_steady_state,
    _cubic_roots,
)


@st.composite
def drift_models(draw):
    """du, three-mode and chain models (2 to 12 modes), random rates and couplings, any verdict."""
    topology = draw(st.sampled_from(Topology))
    n_modes = {Topology.DU: 2, Topology.THREE_MODE: 3}.get(topology) or draw(st.integers(2, 12))
    modes = tuple(
        ModeParams(f"h{i}", OMEGA_HIGH, draw(st.floats(0.01, 2.0)), draw(st.floats(-2.0, 2.0)))
        if i % 2 == 0 else ModeParams(f"l{i}", OMEGA_LOW, 10.0 ** draw(st.floats(-4.0, -0.5)), 1.0)
        for i in range(n_modes)
    )
    couplings = tuple(
        CouplingParams(draw(st.floats(0.0, 0.8)), draw(st.floats(0.0, 2.0 * np.pi)))
        for _ in range(n_modes - 1)
    )
    return SystemModel(topology, modes, couplings, TEMPERATURE)


def matched_distance(a, b):
    """Largest |a_k - b_k| once each value of a is paired with the nearest unpaired value of b."""
    unpaired = list(b)
    worst = 0.0
    for x in a:
        k = int(np.argmin(np.abs(np.array(unpaired) - x)))
        worst = max(worst, abs(unpaired.pop(k) - x))
    return worst


def eigenvalue_condition(m):
    """Largest eigenvalue condition number |x| |y| / |y^H x| of m; inf for singular eigenvectors."""
    _, vectors = np.linalg.eig(m)
    try:
        left = np.linalg.inv(vectors)  # rows y^H with y^H x = 1
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.max(np.linalg.norm(vectors, axis=0) * np.linalg.norm(left, axis=1)))


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

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        model=st.one_of(
            st.sampled_from([make_du(phase=0.3), make_three(phase_m=0.4, phase_c=1.9)]),
            stable_chains(),
        ),
        swept=st.sampled_from(["detunings", "couplings", "both"]),
        data=st.data(),
    )
    def test_stack_slices_equal_per_point_models_bit_for_bit(self, model, swept, data):
        n = model.n_modes
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
        size = int(np.prod(shape))

        def draws(lo, hi, count):
            values = data.draw(st.lists(st.floats(lo, hi), min_size=count, max_size=count))
            return np.array(values).reshape(*shape, -1)

        detunings = draws(-3.0, 3.0, size * ((n + 1) // 2)) if swept != "couplings" else None
        thetas = draws(0.0, 2.0 * np.pi, size * (n - 1)) if swept != "detunings" else None
        magnitudes = np.array([coupling.magnitude for coupling in model.couplings])
        couplings = None if thetas is None else magnitudes * np.exp(1j * thetas)
        stack = build_drift_matrix(model, detunings=detunings, couplings=couplings)
        assert stack.shape == (*shape, 2 * n, 2 * n)
        for point in np.ndindex(shape):
            probe = model
            if detunings is not None:
                probe = with_detunings(probe, dict(zip(range(0, n, 2), detunings[point])))
            if thetas is not None:
                probe = with_phases(probe, dict(enumerate(thetas[point])))
            expected = build_drift_matrix(probe)
            assert np.array_equal(stack[point].view(np.uint64), expected.view(np.uint64))

    def test_per_point_low_mode_column_is_refused(self):
        # Per-point detunings have one column per high mode; a low mode's is fixed at 1. One
        # column for the three-mode system would otherwise broadcast onto m and c alike.
        for model, detunings in ((make_three(), [(0.0, 1.0, 0.0)]), (make_du(), [(0.0, 1.0)]),
                                 (make_three(), [(0.5,)]), (make_three(), 0.5), (make_du(), [])):
            with pytest.raises(ValueError, match="one column per high mode"):
                build_drift_matrix(model, detunings=detunings)

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

    @settings(max_examples=150, deadline=None, database=None)
    @given(model=drift_models())
    def test_numerical_abscissa_bounds_every_leading_block(self, model):
        # Stable and unstable draws alike (see test_draws_are_stable_and_unstable_...): by
        # Cauchy interlacing the one bound covers each leading block's spectral abscissa.
        m = build_drift_matrix(model)
        bound = numerical_abscissa(m)
        for k in range(1, model.n_modes + 1):
            assert check_stability(m[: 2 * k, : 2 * k]).spectral_abscissa <= bound
        # T is unitary, so the symmetric part of R shares its spectrum with M's Hermitian part.
        top = np.linalg.eigvalsh((m + m.conj().T) / 2.0)[-1]
        assert top <= bound <= top + 1e-12 * max(1.0, np.abs(m).max())


class TestQuadratureForm:
    @settings(max_examples=150, deadline=None, database=None)
    @given(model=drift_models())
    def test_spectrum_and_verdict_match_the_complex_drift(self, model):
        m = build_drift_matrix(model)
        reference = np.linalg.eigvals(m)
        eigs = check_stability(m).eigenvalues
        tol = 1e-12 * max(1.0, np.abs(reference).max())
        # Each value is an eigenvalue of M to working precision: M - lambda I is singular.
        shifted = m - eigs[:, None, None] * np.eye(len(m))
        assert np.linalg.svd(shifted, compute_uv=False)[:, -1].max() <= tol
        # At a defective eigenvalue (an exceptional point, which the draws do reach) zgeev
        # on M is itself off by ~sqrt(eps), so the spectra are matched where both are accurate.
        if eigenvalue_condition(m) < 1e3:
            assert matched_distance(eigs, reference) <= tol
        abscissa = reference.real.max()
        if abs(abscissa + STABILITY_MARGIN) > 1e-9:
            assert check_stability(m).stable == (abscissa < -STABILITY_MARGIN)

    def test_draws_are_stable_and_unstable_and_mostly_well_conditioned(self):
        drawn = []

        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @given(model=drift_models())
        def collect(model):
            m = build_drift_matrix(model)
            drawn.append((check_stability(m).stable, eigenvalue_condition(m) < 1e3))

        collect()
        stable, conditioned = np.array(drawn).T
        assert 0 < stable.sum() < len(drawn)
        assert conditioned.mean() > 0.5

    @settings(max_examples=60, deadline=None, database=None)
    @given(model=drift_models())
    def test_form_is_the_similarity_transform(self, model):
        # R = T^-1 M T with a = (x + i p) / sqrt 2, from a dense complex product.
        m = build_drift_matrix(model)
        t = np.kron(np.eye(model.n_modes), np.array([[1, 1j], [1, -1j]]) / np.sqrt(2.0))
        r = quadrature_form(m)
        assert r.dtype == np.float64
        np.testing.assert_allclose(r, np.linalg.inv(t) @ m @ t, rtol=0,
                                   atol=1e-14 * max(np.abs(m).max(), 1.0))

    def test_stack_matches_per_matrix_calls(self):
        deltas = np.linspace(-1.0, 1.0, 5)
        model = make_three(magnitude_m=0.4, phase_m=0.7, phase_c=2.1)
        stack = build_drift_matrix(model, detunings=[(d, -d) for d in deltas])
        verdict = check_stability(stack)
        assert verdict.eigenvalues.shape == (5, 6)
        assert verdict.stable.shape == verdict.spectral_abscissa.shape == (5,)
        assert 0 < verdict.stable.sum() < 5  # each matrix's own verdict, not one for the stack
        for point, drift in enumerate(stack):
            own = check_stability(drift)
            assert np.array_equal(verdict.eigenvalues[point], own.eigenvalues)
            assert verdict.spectral_abscissa[point] == own.spectral_abscissa
            assert verdict.stable[point] == own.stable

    @settings(max_examples=60, deadline=None, database=None)
    @given(model=drift_models(), data=st.data())
    def test_matrix_without_conjugation_symmetry_is_refused(self, model, data):
        m = build_drift_matrix(model)
        size = m.shape[-1]
        row, col = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        scale = max(np.linalg.norm(m, 1), 1.0) * data.draw(st.floats(1e-10, 1.0))
        kick = scale * np.exp(1j * data.draw(st.floats(0.0, 2.0 * np.pi)))
        symmetric = m.copy()
        partner = conjugation_permutation(model.n_modes)
        symmetric[row, col] += kick
        symmetric[partner[row], partner[col]] += np.conj(kick)
        check_stability(symmetric)  # P M* P = M still holds: a drift
        broken = m.copy()
        broken[row, col] += kick
        with pytest.raises(ValueError, match="not a doubled-basis drift"):
            check_stability(broken)
        with pytest.raises(ValueError, match="not a doubled-basis drift"):
            check_stability(np.stack([m, broken]))

    def test_generic_complex_matrix_and_odd_size_are_refused(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="not a doubled-basis drift"):
            check_stability(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        for shape in [(5, 5), (4, 6), (4,)]:
            with pytest.raises(ValueError, match="doubled-basis"):
                check_stability(np.zeros(shape))


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

    def test_a_triple_root_is_one_exact_root(self):
        # np.roots splits (x - 1)^3 into 1.0000066 and a complex pair.
        assert _cubic_roots(1.0, -3.0, 3.0, -1.0) == [1.0]
