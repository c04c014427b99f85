"""Time-domain validation path: integration, reproducibility, comparison."""

import tracemalloc

import numpy as np
import pytest

from conftest import make_comparison_pair, make_du
from sasc.model import InstabilityError, build_drift_matrix, input_coupling_matrix
from sasc.spectra import occupations, output_spectrum
from sasc import numerics, oracle


def short_config(model, seed=101, **kwargs):
    defaults = dict(dt=0.002, n_steps=8192, ensemble=4, seed=seed, port=0,
                    segment_length=2048)
    defaults.update(kwargs)
    return oracle.OracleConfig(model=model, **defaults)


class TestConfig:
    def test_parameter_validation(self):
        model = make_du()
        with pytest.raises(ValueError):
            short_config(model, dt=-0.1)
        with pytest.raises(ValueError):
            short_config(model, ensemble=0)
        with pytest.raises(ValueError):
            short_config(model, n_steps=100)  # below one Welch segment
        with pytest.raises(ValueError):
            short_config(model, port=5)

    @pytest.mark.parametrize("bad", [
        dict(burn_in=-3000), dict(burn_in=-1), dict(overlap=1.0), dict(overlap=-0.1),
        dict(segment_length=1), dict(segment_length=0),
    ], ids=["burn_in=-3000", "burn_in=-1", "overlap=1", "overlap<0",
            "segment_length=1", "segment_length=0"])
    def test_out_of_range_settings_are_rejected(self, bad):
        # Caught at construction, not after the integration or as unwritten output rows.
        with pytest.raises(ValueError):
            short_config(make_du(), **bad)

    def test_documented_defaults(self):
        cfg = oracle.OracleConfig(model=make_du(), seed=1)
        assert (cfg.dt, cfg.n_steps, cfg.ensemble, cfg.port) == (0.002, 131072, 64, 0)
        assert (cfg.segment_length, cfg.overlap, cfg.effective_burn_in) == (4096, 0.5, 4096)

    def test_burn_in_defaults_to_segment_length(self):
        cfg = short_config(make_du())
        assert cfg.effective_burn_in == 2048
        assert short_config(make_du(), burn_in=17).effective_burn_in == 17


def stepwise_simulate(cfg):
    """
    Reference integrator: one drift-implicit Euler step per Python iteration,
    drawing each member's noise from the same (seed, member) stream.
    """
    model = cfg.model
    n2 = 2 * model.n_modes
    drift = build_drift_matrix(model)
    step_matrix = np.linalg.inv(np.eye(n2) - cfg.dt * drift)
    input_matrix = step_matrix @ input_coupling_matrix(model) * cfg.dt
    amplitudes = np.sqrt((occupations(model) + 0.5) / cfg.dt)
    gain = np.sqrt(model.modes[cfg.port].kappa)
    port_row = 2 * cfg.port
    total = cfg.effective_burn_in + cfg.n_steps
    outputs = np.empty((cfg.n_steps, cfg.ensemble), dtype=complex)
    for member in range(cfg.ensemble):
        draws = np.random.default_rng([cfg.seed, member]).standard_normal((total, model.n_modes, 2))
        xi_half = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0) * amplitudes
        z = np.zeros(n2, dtype=complex)
        xi = np.empty(n2, dtype=complex)
        for t in range(total):
            xi[0::2] = xi_half[t]
            xi[1::2] = np.conj(xi_half[t])
            z = step_matrix @ z + input_matrix @ xi
            if t >= cfg.effective_burn_in:
                outputs[t - cfg.effective_burn_in, member] = gain * z[port_row] - xi[port_row]
    estimate = numerics.welch_psd(outputs, cfg.dt, cfg.segment_length, cfg.overlap)
    return estimate.psd, estimate.stderr


#: Whole chunks that span at least 4096 steps: seven 1024-step Welch segments per
#: member, three of which wrap the accumulator's ring of pending samples.
SPAN = oracle._CHUNK * -(-4096 // oracle._CHUNK)
#: (burn_in, n_steps) around the chunk edges, by the steps that the last chunk records.
STEPWISE_CASES = {
    "last-chunk-137": (37, SPAN + 100),
    "last-chunk-5": (5, SPAN),
    "burn-in-past-chunk": (oracle._CHUNK + 4, SPAN + oracle._CHUNK - 4),
    "last-chunk-1": (1, SPAN),
}


class TestSimulate:
    @pytest.mark.parametrize("model,port", [(make_du(), 0), (make_comparison_pair()[0], 2)],
                             ids=["du-port0", "three-port2"])
    @pytest.mark.parametrize("burn_in,n_steps", list(STEPWISE_CASES.values()),
                             ids=list(STEPWISE_CASES))
    def test_matches_stepwise_reference(self, model, port, burn_in, n_steps):
        # Every chunk advances whole: the last one records only the steps up to
        # burn_in + n_steps (137, 5 or 1 of them, or all _CHUNK when the total is
        # whole chunks), and the last Welch segment ends on the last step. A
        # burn-in of _CHUNK + 4 also skips the whole first chunk and 4 steps of the next.
        cfg = short_config(model, port=port, ensemble=3, segment_length=1024,
                           burn_in=burn_in, n_steps=n_steps)
        run = oracle.simulate(cfg)
        psd, stderr = stepwise_simulate(cfg)
        np.testing.assert_allclose(run.psd, psd, rtol=1e-10, atol=0)
        np.testing.assert_allclose(run.stderr, stderr, rtol=1e-10, atol=0)

    def test_high_overlap_matches_stepwise_reference(self):
        # Overlap 0.99 of 64 samples starts a segment at every step: 4,922 per member.
        cfg = short_config(make_du(), ensemble=2, segment_length=64, overlap=0.99,
                           burn_in=37, n_steps=4985)
        run = oracle.simulate(cfg)
        psd, stderr = stepwise_simulate(cfg)
        assert run.n_segments == 2 * 4922
        np.testing.assert_allclose(run.psd, psd, rtol=1e-10, atol=0)
        np.testing.assert_allclose(run.stderr, stderr, rtol=1e-10, atol=0)

    def test_memory_does_not_grow_with_n_steps(self):
        # The Welch estimate is accumulated per chunk: no record of n_steps outputs is kept.
        def peak_bytes(n_steps):
            tracemalloc.start()
            try:
                oracle.simulate(short_config(make_du(), n_steps=n_steps, segment_length=1024))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(65536) <= peak_bytes(16384) + 0.5e6

    @pytest.mark.parametrize("model,port", [(make_du(), 0), (make_comparison_pair()[0], 2)],
                             ids=["du", "three"])
    def test_working_set_is_a_few_megabytes(self, model, port):
        # Draws, block products and ports of one chunk, the Welch ring of one
        # segment per member and one windowed batch: about 10 MB.
        cfg = short_config(model, port=port, ensemble=64, segment_length=4096, n_steps=16384)
        tracemalloc.start()
        try:
            oracle.simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    def test_deterministic_for_fixed_seed(self):
        model = make_du()
        run_a = oracle.simulate(short_config(model, seed=7))
        run_b = oracle.simulate(short_config(model, seed=7))
        assert np.array_equal(run_a.psd, run_b.psd)
        assert np.array_equal(run_a.stderr, run_b.stderr)

    def test_different_seeds_differ(self):
        model = make_du()
        run_a = oracle.simulate(short_config(model, seed=7))
        run_b = oracle.simulate(short_config(model, seed=8))
        assert not np.array_equal(run_a.psd, run_b.psd)

    def test_output_shape_and_positivity(self):
        run = oracle.simulate(short_config(make_du()))
        assert run.omega.shape == run.psd.shape == run.stderr.shape
        assert np.all(np.diff(run.omega) > 0)
        assert np.all(run.psd >= 0.0)
        assert run.n_segments > 1

    def test_unstable_model_rejected(self):
        model = make_du(delta_a=-1.0, kappa_a=0.1, magnitude=0.5)
        with pytest.raises(InstabilityError):
            oracle.simulate(short_config(model))

    def test_oversized_step_rejected(self):
        with pytest.raises(ValueError):
            oracle.simulate(short_config(make_du(), dt=0.5))

    def test_matches_frequency_domain_prediction(self):
        model = make_du()
        run = oracle.simulate(
            short_config(model, n_steps=32768, ensemble=16, seed=42)
        )
        predicted = output_spectrum(model, run.omega, port=0)
        report = oracle.compare(run, predicted)
        assert report.fraction_within >= 0.97


def quadrature_step(model, dt, port):
    """
    The one-step map (A, W) of the quadratures, z <- A z + W d, from the complex
    implicit Euler step by T^-1 A T, and the block maps that simulate builds from it.
    """
    n2 = 2 * model.n_modes
    t = np.kron(np.eye(model.n_modes), np.array([[1, 1j], [1, -1j]]) / np.sqrt(2.0))
    a = np.linalg.inv(t) @ np.linalg.inv(np.eye(n2) - dt * build_drift_matrix(model)) @ t
    assert np.abs(a.imag).max() <= 1e-14
    noise = np.repeat(np.sqrt((occupations(model) + 0.5) / dt), 2)
    w = a.real @ input_coupling_matrix(model) * (dt * noise)
    maps = oracle._block_maps(a.real, w, noise[2 * port] / np.sqrt(2.0),
                              np.sqrt(model.modes[port].kappa / 2.0), 2 * port)
    return a.real, w, maps


def discrete_stationary_covariance(a, q):
    """Sigma = A Sigma A^T + Q, solved as (I - A kron A) vec Sigma = vec Q."""
    n = len(a)
    return np.linalg.solve(np.eye(n * n) - np.kron(a, a), q.ravel()).reshape(n, n)


class TestBlockMaps:
    @pytest.mark.parametrize("model,port", [(make_du(), 0), (make_comparison_pair()[0], 2)],
                             ids=["du", "three"])
    def test_block_map_keeps_the_one_step_stationary_covariance(self, model, port):
        # No noise draws: the _BLOCK-step map z <- P z + G^T d of the end state
        # (P = power^T, G the table's end-state columns) has the stationary
        # covariance of the one-step map it composes.
        a, w, (table, _, power) = quadrature_step(model, 0.002, port)
        one_step = discrete_stationary_covariance(a, w @ w.T)
        end_state = table[:, 2 * oracle._BLOCK :]
        block = discrete_stationary_covariance(power.T, end_state.T @ end_state)
        np.testing.assert_allclose(block, one_step, rtol=0, atol=1e-10 * np.abs(one_step).max())


class TestCompare:
    def test_perfect_agreement(self):
        run = oracle.simulate(short_config(make_du(), seed=5))
        report = oracle.compare(run, run.psd)
        assert report.fraction_within == 1.0
        assert report.max_abs_z == 0.0
        assert report.n_bins == len(run.omega)

    def test_systematic_offset_detected(self):
        run = oracle.simulate(short_config(make_du(), seed=5))
        wrong = run.psd + 10.0 * np.maximum(run.stderr, 1e-12)
        report = oracle.compare(run, wrong)
        assert report.fraction_within == 0.0
        assert report.max_abs_z >= 10.0

    def test_prediction_must_have_one_value_per_bin(self):
        run = oracle.simulate(short_config(make_du(), seed=5))
        with pytest.raises(ValueError, match="the Welch bins have"):
            oracle.compare(run, run.psd[:-1])
