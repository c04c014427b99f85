"""Figures of merit: SNR maximization, scheme comparison, phase searches."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    make_comparison_pair, make_du, make_three, pole_centred_range, two_coupling_asymmetries,
    with_detunings,
)
from sasc.model import ConfigError, InstabilityError, build_drift_matrix, check_stability
from sasc.numerics import NumericalError, SingularMatrixError
from sasc import metrics, spectra


def dense_grid_max_snr(model, omega_range=(-3.0, 3.0), n=100_001):
    """Brute-force reference for the SNR maximum (same exclusion bands)."""
    grid = np.linspace(omega_range[0], omega_range[1], n)
    keep = np.minimum(np.abs(grid - 1.0), np.abs(grid + 1.0)) >= (
        metrics.RESONANCE_EXCLUSION_WIDTH
    )
    grid = grid[keep]
    values = spectra.snr_spectrum(model, grid)[1]
    best = int(np.argmax(values))
    return float(grid[best]), float(values[best])


def scalar_golden_section_max(fun, lo, hi, rel_tol=1e-6):
    """One bracket, one point per call: the path each lockstep bracket must follow."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    x1 = b - golden * (b - a)
    x2 = a + golden * (b - a)
    f1, f2 = fun(x1), fun(x2)
    span = max(abs(a), abs(b), 1.0)
    while (b - a) > rel_tol * span:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = fun(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def with_scalar_golden_section(fun, lo, hi, rel_tol=1e-6):
    """golden_section_max on one bracket (floats or 1-element arrays), run by the scalar reference."""
    x, f = scalar_golden_section_max(
        lambda t: fun(np.array([t]))[0], np.ravel(lo)[0], np.ravel(hi)[0], rel_tol
    )
    return (x, f) if np.ndim(lo) == 0 else (np.array([x]), np.array([f]))


class TestGoldenSection:
    def test_finds_parabola_peak(self):
        x, fx = metrics.golden_section_max(lambda t: 2.0 - (t - 0.3) ** 2, -1.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-5)
        assert fx == pytest.approx(2.0, abs=1e-10)

    def test_respects_bracket_edges(self):
        x, _ = metrics.golden_section_max(lambda t: t, 0.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-5)

    def test_lockstep_brackets_follow_their_scalar_paths(self):
        # Brackets near |x| = 3 have a wider stopping tolerance than those
        # inside [-1, 1], so the brackets stop after different step counts.
        lo = np.array([-0.9, 2.0, -3.0, 0.2, 0.5])
        hi = np.array([0.4, 2.9, -2.2, 0.21, 0.6])
        peaks = np.array([0.3, 2.95, -2.5, 0.2, 0.55])
        calls = []

        def fun(x):
            calls.append(np.isnan(x).sum())
            return -(x - peaks) * (x - peaks)

        x, f = metrics.golden_section_max(fun, lo, hi)
        for k, peak in enumerate(peaks):
            expected = scalar_golden_section_max(lambda t: -(t - peak) * (t - peak), lo[k], hi[k])
            assert (x[k], f[k]) == expected
        assert 0 < max(calls) < len(peaks)

    @pytest.mark.parametrize("lo, hi, rel_tol", [
        (1.0, -1.0, 1e-6), (0.5, 0.5, 1e-6), (np.nan, 1.0, 1e-6), (-1.0, np.inf, 1e-6),
        ([0.0, 1.0], [1.0, 0.5], 1e-6), (-1.0, 1.0, 0.0), (-1.0, 1.0, -1e-6),
        (-1.0, 1.0, 1e-20),
    ], ids=["reversed", "empty", "nan_lo", "inf_hi", "one_bad_bracket", "zero_rel_tol",
            "negative_rel_tol", "rel_tol_below_epsilon"])
    def test_rejects_bad_brackets(self, lo, hi, rel_tol):
        # Below machine epsilon the bracket can stop shrinking, and the loop never ends.
        with pytest.raises(ValueError, match="rel_tol" if rel_tol < 1e-15 else "lo < hi"):
            metrics.golden_section_max(lambda t: -(t - 0.3) ** 2, lo, hi, rel_tol)


class TestMaxSnr:
    def test_matches_dense_grid_reference(self):
        _, ics = make_comparison_pair()
        w_ref, s_ref = dense_grid_max_snr(ics)
        w, s = metrics.max_snr_over_omega(ics)
        assert s == pytest.approx(s_ref, rel=1e-3)
        assert w == pytest.approx(w_ref, abs=2e-3)

    def test_refinement_improves_on_coarse_scan(self):
        cs, _ = make_comparison_pair()
        grid = np.linspace(-3.0, 3.0, 401)
        coarse = float(np.max(spectra.snr_spectrum(cs, grid)[1]))
        _, s = metrics.max_snr_over_omega(cs)
        assert s >= coarse

    @pytest.mark.parametrize("omega_range", [(3.0, -3.0), (1.0, 1.0), (-1e308, 1e308)],
                             ids=["reversed", "empty", "span_overflows"])
    def test_omega_range_must_increase(self, omega_range):
        cs, _ = make_comparison_pair()
        with pytest.raises(ValueError, match="omega_range"):
            metrics.max_snr_over_omega(cs, omega_range)

    def test_resonance_bands_are_excluded_by_default(self):
        _, ics = make_comparison_pair()
        w, _ = metrics.max_snr_over_omega(ics)
        assert min(abs(w - 1.0), abs(w + 1.0)) >= metrics.RESONANCE_EXCLUSION_WIDTH

    def test_exclusion_can_be_disabled(self, monkeypatch):
        _, ics = make_comparison_pair()
        _, s_masked = metrics.max_snr_over_omega(ics)
        monkeypatch.setattr(metrics, "RESONANCE_EXCLUSION_WIDTH", 0.0)
        _, s_raw = metrics.max_snr_over_omega(ics)
        assert s_raw >= s_masked

    @pytest.mark.parametrize("omega_range, width, expected", [
        ((0.9995, 1.0005), metrics.RESONANCE_EXCLUSION_WIDTH, True),
        ((-1.0005, -0.9995), metrics.RESONANCE_EXCLUSION_WIDTH, True),
        ((0.9995, 1.0011), metrics.RESONANCE_EXCLUSION_WIDTH, False),
        ((-1.0005, 1.0005), metrics.RESONANCE_EXCLUSION_WIDTH, False),
        ((0.9995, 1.0005), 0.0, False),
        ((-0.5, 0.5), 1.5, True),  # merged bands cover omega = 0 as well
        ((-0.5, 0.5), 1.0, False),
    ])
    def test_whole_range_exclusion(self, monkeypatch, omega_range, width, expected):
        monkeypatch.setattr(metrics, "RESONANCE_EXCLUSION_WIDTH", width)
        assert metrics.excludes_whole_range(omega_range) is expected

    def test_search_with_nothing_left_to_search_raises(self, monkeypatch):
        _, ics = make_comparison_pair()
        with pytest.raises(ValueError, match="nothing to search"):
            metrics.max_snr_over_omega(ics, (0.9995, 1.0005))
        cfg = metrics.ComparisonConfig(cs_model=ics, ics_model=ics, omega_range=(0.9995, 1.0005))
        with pytest.raises(ValueError, match="nothing to search"):
            metrics.f_factor(cfg)
        monkeypatch.setattr(metrics, "RESONANCE_EXCLUSION_WIDTH", 1.5)
        with pytest.raises(ValueError, match="nothing to search"):
            metrics.max_snr_over_omega(ics, (-0.5, 0.5))
        monkeypatch.setattr(metrics, "RESONANCE_EXCLUSION_WIDTH", 0.0)
        w, _ = metrics.max_snr_over_omega(ics, (0.9995, 1.0005))
        assert 0.9995 <= w <= 1.0005


class TestFFactor:
    def test_identical_schemes_give_unity(self):
        _, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=ics, ics_model=ics)
        assert metrics.f_factor(cfg) == pytest.approx(1.0, rel=1e-12)

    def test_omega_range_is_stored_as_a_tuple(self):
        # So a config's JSON list and the default compare, hash and print alike.
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs, ics, omega_range=[-2.0, 2.0])
        assert cfg.omega_range == (-2.0, 2.0)
        hash(cfg)

    def test_detuning_overrides_change_the_ratio(self):
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics)
        at_origin = metrics.f_factor(cfg, delta_c=0.0, delta_m=0.0)
        shifted = metrics.f_factor(cfg, delta_c=1.5, delta_m=1.5)
        assert at_origin != pytest.approx(shifted)

    def test_unstable_scheme_propagates(self):
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics)
        with pytest.raises(InstabilityError):
            metrics.f_factor(cfg, delta_c=0.0, delta_m=-0.5)

    def test_equals_one_cell_maps(self):
        # f_factor gates its cell and f_map lists it; on stable cells both searches are one.
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics)
        deltas = np.linspace(-0.6, 0.6, 7)
        outcomes = {"equal": 0, "unstable": 0}
        for dm in deltas:
            for dc in deltas:
                cell = metrics.f_map(cfg, [dc], [dm])
                ics_max = cell.metadata["baseline_max_snr"]
                if cell.metadata["unstable_cells"]:
                    with pytest.raises(InstabilityError):
                        metrics.f_factor(cfg, dc, dm, ics_max)
                    outcomes["unstable"] += 1
                else:
                    assert metrics.f_factor(cfg, dc, dm, ics_max) == cell.values[0, 0]
                    outcomes["equal"] += 1
        assert outcomes["equal"] > 0 and outcomes["unstable"] > 0


class TestFMap:
    @pytest.mark.parametrize("delta_c,delta_m", [
        ([1.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 0.0]), ([], [0.0]), ([0.0], []),
        ([np.nan], [0.0]), ([0.0, np.inf], [0.0]),
    ], ids=["reversed-delta_c", "repeated-delta_m", "empty-delta_c", "empty-delta_m",
            "nan-delta_c", "inf-delta_c"])
    def test_unmappable_grid_is_refused_before_any_solve(self, monkeypatch, delta_c, delta_m):
        def no_solve(*args, **kwargs):
            raise AssertionError("the map solved something before checking its grids")

        monkeypatch.setattr(metrics, "_baseline_max", no_solve)
        monkeypatch.setattr(metrics, "build_drift_matrix", no_solve)
        cs, ics = make_comparison_pair()
        with pytest.raises(ConfigError, match="non-empty, finite and strictly increasing"):
            metrics.f_map(metrics.ComparisonConfig(cs_model=cs, ics_model=ics), delta_c, delta_m)

    def test_small_map_flags_unstable_cells(self):
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics)
        deltas = np.array([-0.5, 0.0, 0.5])
        result = metrics.f_map(cfg, deltas, deltas)
        assert result.values.shape == (3, 3)
        assert np.all(np.isfinite(result.values))
        # The blue-detuned corner of this grid is linearly unstable.
        assert len(result.metadata["unstable_cells"]) > 0
        assert result.values[1, 1] > 1.0
        assert result.metadata["baseline_max_snr"] > 0.0

    def test_unstable_cells_match_per_cell_verdicts(self):
        # One stacked eigenvalue call must flag exactly the cells check_stability flags, in order.
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics)
        deltas = np.linspace(-0.6, 0.6, 7)
        result = metrics.f_map(cfg, deltas, deltas)
        expected = [
            (float(dc), float(dm)) for dm in deltas for dc in deltas
            if not check_stability(build_drift_matrix(with_detunings(cs, {0: dm, 2: dc}))).stable
        ]
        assert 0 < len(expected) < len(deltas) ** 2
        assert result.metadata["unstable_cells"] == expected


class TestLockstepSearch:
    """f_map runs every cell's SNR search at once; each cell must take its one-cell path."""

    # The range ends inside the excluded band around omega = 1, so golden probes land there.
    OMEGA_RANGE = (0.5, 1.0005)
    DELTAS = np.array([-0.5, 0.0, 0.5])

    def traced_f_map(self, monkeypatch):
        """f_map with each golden_section_max call's probe arrays recorded, as bench/tracer.py hooks it."""
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics, omega_range=self.OMEGA_RANGE)
        searches = []
        golden = metrics.golden_section_max

        def traced(fun, *args, **kwargs):
            searches.append([])

            def counted(x):
                searches[-1].append(np.array(x))
                return fun(x)

            return golden(counted, *args, **kwargs)

        monkeypatch.setattr(metrics, "golden_section_max", traced)
        return cfg, metrics.f_map(cfg, self.DELTAS, self.DELTAS), searches

    def test_cells_equal_one_cell_searches(self, monkeypatch):
        cfg, result, searches = self.traced_f_map(monkeypatch)
        monkeypatch.setattr(metrics, "golden_section_max", with_scalar_golden_section)
        assert result.metadata["unstable_cells"]
        probes = np.array(searches[-1])
        assert np.any(np.minimum(np.abs(probes - 1.0), np.abs(probes + 1.0))
                      < metrics.RESONANCE_EXCLUSION_WIDTH)
        grid = np.linspace(*self.OMEGA_RANGE, 401)
        banded = np.minimum(np.abs(grid - 1.0), np.abs(grid + 1.0)) < (
            metrics.RESONANCE_EXCLUSION_WIDTH
        )
        baseline = result.metadata["baseline_max_snr"]
        expected, coarse = np.empty((2, 3, 3))
        for i, dm in enumerate(self.DELTAS):
            for j, dc in enumerate(self.DELTAS):
                expected[i, j] = metrics.f_map(cfg, [dc], [dm]).values[0, 0]
                cell = with_detunings(cfg.cs_model, {0: dm, 2: dc})
                snr = spectra.SnrSolver(cell).solve(grid)[1]
                coarse[i, j] = np.max(np.where(banded, 0.0, snr)) / baseline
        assert np.array_equal(result.values, expected)
        # Some cells keep their coarse-grid maximum, the others a refined one.
        assert np.any(expected == coarse) and np.any(expected > coarse)

    def test_searches_make_one_call_per_step_for_all_cells(self, monkeypatch):
        _, _, searches = self.traced_f_map(monkeypatch)
        assert [len(s[0]) for s in searches] == [1, 9]  # the baseline, then every cell at once
        assert len(searches[-1]) < 40

    def test_phase_search_follows_the_scalar_path(self, monkeypatch):
        model = make_three()
        omega = spectra.resonance_probe_frequency()
        found = metrics.find_phase_for_target_R(model, 0.25, "bc", omega)
        monkeypatch.setattr(metrics, "golden_section_max", with_scalar_golden_section)
        assert metrics.find_phase_for_target_R(model, 0.25, "bc", omega) == found


class TestPoleResidueScan:
    """Coarse argmaxes ranked from poles; every written value comes from the exact kernel."""

    GRID = np.linspace(-3.0, 3.0, 401)

    @pytest.mark.parametrize("omega_range, deltas", [
        (TestLockstepSearch.OMEGA_RANGE, TestLockstepSearch.DELTAS),
        ((-3.0, 3.0), np.linspace(-2.0, 2.0, 15)),
    ], ids=["lockstep", "15x15"])
    def test_exact_scans_give_the_same_map(self, monkeypatch, omega_range, deltas):
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics, omega_range=omega_range)
        ranked = metrics.f_map(cfg, deltas, deltas)
        monkeypatch.setattr(spectra, "_EIGVEC_COND_LIMIT", 0.0)
        exact = metrics.f_map(cfg, deltas, deltas)
        assert ranked.scan["fallback_cells"] == 0
        assert exact.scan["fallback_cells"] == len(deltas) ** 2
        assert ranked.metadata["unstable_cells"]
        assert np.array_equal(ranked.values, exact.values)
        assert ranked.metadata == exact.metadata

    def test_defective_drift_takes_the_exact_scan(self, monkeypatch):
        # Lambda M with a 2x2 Jordan block at -0.3 + 0.5i: its eigenvectors are
        # numerically parallel, while i w Lambda - M stays far from singular.
        rng = np.random.default_rng(5)
        jordan = np.diag([-0.3 + 0.5j, -0.3 + 0.5j, 0.4 - 1.5j, -0.5 + 2.0j, 0.2 + 0.1j, -0.6 - 0.8j])
        jordan[0, 1] = 1.0
        basis = np.eye(6) + 0.3 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        solver = spectra.SnrSolver(make_three())
        defective = solver.lam[:, None] * (basis @ jordan @ np.linalg.inv(basis))
        drifts = np.stack([solver.drift, defective])
        _, trusted, cond = next(solver.scan(drifts, self.GRID))[1:]
        assert trusted.tolist() == [True, False] and cond[1] >= 1e4
        w, s, scan = metrics._search_snr(solver, drifts, (-3.0, 3.0))
        assert scan == {"fallback_cells": 1, "max_eigvec_cond": cond[1]}
        monkeypatch.setattr(spectra, "_EIGVEC_COND_LIMIT", 0.0)
        exact_w, exact_s, _ = metrics._search_snr(solver, drifts, (-3.0, 3.0))
        assert np.array_equal(w, exact_w) and np.array_equal(s, exact_s)

    def test_a_failed_eigendecomposition_takes_the_exact_scan(self, monkeypatch):
        cs, ics = make_comparison_pair()
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics)
        deltas = np.linspace(-0.8, 0.8, 7)
        eig = np.linalg.eig

        def failing_eig(a):
            if a.ndim > 2 and len(a) > 1:  # a scan block of several cells
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", failing_eig)
        failed = metrics.f_map(cfg, deltas, deltas)
        monkeypatch.setattr(np.linalg, "eig", eig)
        monkeypatch.setattr(spectra, "_EIGVEC_COND_LIMIT", 0.0)
        exact = metrics.f_map(cfg, deltas, deltas)
        assert failed.scan == {"fallback_cells": 49, "max_eigvec_cond": np.inf}
        assert np.array_equal(failed.values, exact.values)
        assert failed.metadata == exact.metadata

    def test_pole_on_a_grid_frequency_is_refused(self):
        cs, ics = make_comparison_pair()
        omega_range = pole_centred_range(cs, (0.7, 0.7))
        cfg = metrics.ComparisonConfig(cs_model=cs, ics_model=ics, omega_range=omega_range)
        with pytest.raises(SingularMatrixError):
            metrics.f_map(cfg, [0.7], [0.7])

    def test_pole_on_a_grid_frequency_fails_the_guard(self):
        cs, _ = make_comparison_pair()
        grid = np.linspace(*pole_centred_range(cs, (0.7, 0.7)), 401)
        solver = spectra.SnrSolver(cs)
        drift = build_drift_matrix(cs, (0.7, 0.7))
        poles = np.linalg.eigvals(solver.lam[:, None] * drift)
        assert np.min(np.abs(1j * grid[200] - poles)) < 1e-14
        _, trusted, cond = next(solver.scan(drift[None], grid))[1:]
        assert not trusted[0] and cond[0] < spectra._EIGVEC_COND_LIMIT

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        kappas=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
        detunings=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        magnitudes=st.tuples(st.floats(0.05, 0.2), st.floats(0.05, 0.2)),
        phases=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
    )
    def test_pole_residue_snr_matches_the_exact_kernel(self, kappas, detunings, magnitudes, phases):
        # Three-mode cells over the fig4 ranges, stable or not: the SNR is the one of
        # SnrSolver.solve, and so is the coarse argmax wherever the top two values differ.
        model = make_three(kappa_m=kappas[0], kappa_c=kappas[1],
                           delta_m=detunings[0], delta_c=detunings[1],
                           magnitude_m=magnitudes[0], magnitude_c=magnitudes[1],
                           phase_m=phases[0], phase_c=phases[1])
        solver = spectra.SnrSolver(model)
        values, trusted, _ = next(solver.scan(solver.drift[None], self.GRID))[1:]
        assume(trusted[0])
        exact = solver.solve(self.GRID)[1]
        tol = 1e-9 * exact.max()
        assert np.max(np.abs(values[0] - exact)) <= tol
        banded = np.minimum(np.abs(self.GRID - 1.0), np.abs(self.GRID + 1.0)) < (
            metrics.RESONANCE_EXCLUSION_WIDTH
        )
        masked = np.where(banded, 0.0, exact)
        top, second = np.sort(masked)[-2:][::-1]
        if top - second > tol:
            assert np.argmax(np.where(banded, 0.0, values[0])) == np.argmax(masked)


class TestPhaseSearch:
    def test_reaches_both_extremes_near_resonance(self):
        from sasc.spectra import resonance_probe_frequency

        model = make_three()
        omega = resonance_probe_frequency()
        for target in (-1.0, 1.0):
            found = metrics.find_phase_for_target_R(model, target, "mb", omega)
            assert abs(found.achieved - target) < 1e-2
            assert found.hit_extreme

    def test_extreme_unreachable_at_zero_frequency(self):
        model = make_three()
        plus = metrics.find_phase_for_target_R(model, 1.0, "mb", 0.0)
        assert plus.residual > 0.05
        assert not plus.hit_extreme

    def test_intermediate_target(self):
        from sasc.spectra import resonance_probe_frequency

        model = make_three()
        found = metrics.find_phase_for_target_R(
            model, 0.25, "bc", resonance_probe_frequency()
        )
        assert found.achieved == pytest.approx(0.25, abs=1e-3)
        assert not found.hit_extreme  # not an extreme target

    @pytest.mark.parametrize("which", ["mb", "bc"])
    def test_a_grid_phase_beats_the_refine(self, which):
        # The target is R at theta = 0, a grid point: the golden-section refine between
        # its neighbours only nears it, so the search keeps the grid point.
        model = make_three()
        omega = spectra.resonance_probe_frequency()
        pair = spectra.ASYMMETRY_PAIRS[which]
        gammas = next(spectra.phase_grid(model, omega, {pair[2]: [0.0]}))
        target = float(spectra.pair_asymmetry(gammas, pair)[0])
        found = metrics.find_phase_for_target_R(model, target, which, omega)
        assert found.theta == 0.0 and found.residual == 0.0

    def test_target_validation(self):
        model = make_three()
        with pytest.raises(ValueError):
            metrics.find_phase_for_target_R(model, 1.5, "mb", 0.0)
        with pytest.raises(ValueError):
            metrics.find_phase_for_target_R(model, 0.0, "xy", 0.0)


class TestIndependence:
    def test_cross_variation_is_tiny(self, tmp_path):
        # Each asymmetry of the two-coupling table depends on its own coupling's phase alone.
        r_mb, r_bc = two_coupling_asymmetries(tmp_path, make_three(), 9)
        assert np.ptp(r_mb, axis=1).max() < 1e-9
        assert np.ptp(r_bc, axis=0).max() < 1e-9

    def test_uncoupled_asymmetry_is_undefined(self):
        # With no m-b coupling R_mb is 0/0 at every phase; R_bc stays defined.
        thetas = np.linspace(0.0, 2.0 * np.pi, 5)
        stacks = spectra.phase_grid(make_three(magnitude_m=0.0), spectra.resonance_probe_frequency(),
                                    {0: thetas, 1: thetas})
        mb, bc = spectra.ASYMMETRY_PAIRS["mb"], spectra.ASYMMETRY_PAIRS["bc"]
        for gammas in stacks:
            for leg in mb[:2]:
                assert np.all(spectra.transmission(gammas, *leg) < 1e-300)
            with pytest.raises(NumericalError, match="0/0"):
                spectra.pair_asymmetry(gammas, mb)
            assert np.all(np.isfinite(spectra.pair_asymmetry(gammas, bc)))

    def test_requires_three_mode_topology(self):
        # A two-mode model has one coupling and neither R_mb nor R_bc.
        with pytest.raises(ConfigError, match="coupling_index 1 is out of range"):
            spectra.phase_grid(make_du(), 0.5, {0: [0.0], 1: [0.0]})
        with pytest.raises(ConfigError, match="'mb' is not defined"):
            spectra.asymmetry_pair(make_du(), "mb")
