"""
Unit tests for the dense linear-algebra kernel, checked against independent
reference computations: cofactor-expansion inverses and characteristic
polynomials assembled by the Faddeev-LeVerrier recursion (rooted with
numpy's companion-matrix solver), and matrices built by a unitary
similarity from a known spectrum.
"""

import tracemalloc

import numpy as np
import pytest

from sasc import numerics


def det_laplace(a):
    """Determinant by Laplace expansion along the first row (reference)."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * det_laplace(minor)
    return total


def invert_cofactor(a):
    """Inverse via the adjugate matrix (reference, O(n!) but exact in form)."""
    n = a.shape[0]
    det = det_laplace(a)
    adj = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            adj[j, i] = (-1.0) ** (i + j) * det_laplace(minor)
    return adj / det


def charpoly_coefficients(a):
    """Characteristic polynomial by the Faddeev-LeVerrier recursion."""
    n = a.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestLuSolve:
    def test_matches_cofactor_inverse(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5):
            a = random_complex(rng, n)
            assert np.allclose(numerics.invert(a), invert_cofactor(a), atol=1e-10)

    def test_vector_and_matrix_right_hand_sides(self):
        rng = np.random.default_rng(12)
        a = random_complex(rng, 6)
        b_vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b_mat = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x_vec = numerics.lu_solve(a, b_vec)
        x_mat = numerics.lu_solve(a, b_mat)
        assert x_vec.shape == (6,)
        assert np.allclose(a @ x_vec, b_vec, atol=1e-10)
        assert np.allclose(a @ x_mat, b_mat, atol=1e-10)

    def test_singular_matrix_reports_rcond(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        with pytest.raises(numerics.SingularMatrixError) as err:
            numerics.lu_solve(a, np.ones(3, dtype=complex))
        assert err.value.rcond == 0.0

    def test_non_finite_inverse_reports_rcond_zero(self):
        # LAPACK meets no zero pivot, but 1 / 5e-324 overflows to inf and the inverse holds NaN.
        a = np.diag([5e-324, 1.0])
        assert not np.all(np.isfinite(np.linalg.inv(a)))
        stack = np.stack([np.eye(2), a])
        for matrix in (a, stack):
            with pytest.raises(numerics.SingularMatrixError, match=r"rcond 0\.0e\+00") as err:
                numerics.lu_solve(matrix, np.eye(2))
            assert err.value.rcond == 0.0

    def test_near_singular_matrix_is_refused(self):
        # LAPACK factors Q diag(1, 1, 1e-15) Q^dag with nonzero pivots and
        # finite values; only the condition floor refuses it.
        rng = np.random.default_rng(19)
        q, _ = np.linalg.qr(random_complex(rng, 3))
        a = q @ np.diag([1.0, 1.0, 1e-15]) @ q.conj().T
        assert np.all(np.isfinite(np.linalg.inv(a)))
        stack = np.stack([random_complex(rng, 3), a, random_complex(rng, 3)])
        for matrix in (a, stack):
            with pytest.raises(numerics.SingularMatrixError) as err:
                numerics.lu_solve(matrix, np.eye(3))
            assert err.value.rcond <= 1e-13

    def test_rejects_non_finite_input(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = np.nan
        with pytest.raises(ValueError):
            numerics.invert(a)


class TestSolveBatch:
    def test_matches_sequential_solves(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        b = rng.standard_normal((7, 4, 2)) + 1j * rng.standard_normal((7, 4, 2))
        batched = numerics.lu_solve(a, b)
        for i in range(7):
            assert np.allclose(batched[i], numerics.lu_solve(a[i], b[i]), atol=1e-11)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            numerics.lu_solve(np.zeros((2, 3, 4)), np.zeros((2, 3, 1)))
        with pytest.raises(ValueError):
            numerics.lu_solve(np.eye(3)[None], np.zeros((2, 3, 1)))


class TestEigenvalues:
    def test_match_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(15)
        for n in (2, 3, 4, 6):
            a = random_complex(rng, n)
            computed = np.sort_complex(numerics.eigenvalues(a))
            reference = np.sort_complex(np.roots(charpoly_coefficients(a)))
            assert np.allclose(computed, reference, atol=1e-8)

    def test_triangular_matrix_diagonal(self):
        a = np.triu(np.arange(1, 17, dtype=complex).reshape(4, 4))
        eigs = np.sort_complex(numerics.eigenvalues(a))
        assert np.allclose(eigs, np.sort_complex(np.diag(a)), atol=1e-10)

    @pytest.mark.parametrize("n", [12, 40, 80])
    def test_known_stable_spectrum_at_chain_sizes(self, n):
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(random_complex(rng, n))
        d = -rng.uniform(0.01, 1.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
        a = q @ np.diag(d) @ q.conj().T
        eigs = numerics.eigenvalues(a)
        nearest = [int(np.argmin(np.abs(eigs - x))) for x in d]
        assert sorted(nearest) == list(range(n))
        assert np.max(np.abs(eigs[nearest] - d)) < 1e-10

    def test_stack_equals_per_matrix_calls_bit_for_bit(self):
        rng = np.random.default_rng(19)
        stack = rng.standard_normal((3, 5, 6, 6)) + 1j * rng.standard_normal((3, 5, 6, 6))
        eigs = numerics.eigenvalues(stack)
        assert eigs.shape == (3, 5, 6)
        for index in np.ndindex(3, 5):
            assert np.array_equal(eigs[index], numerics.eigenvalues(stack[index]))
        with pytest.raises(ValueError):
            numerics.eigenvalues(np.zeros((2, 3, 4)))

    def test_real_stack_stays_real_bit_for_bit(self):
        # dgeev on the float array, not zgeev on a complex copy of it.
        rng = np.random.default_rng(23)
        stack = rng.standard_normal((4, 8, 8))
        eigs = numerics.eigenvalues(stack)
        reference = np.linalg.eigvals(stack)
        assert eigs.dtype == reference.dtype
        assert np.array_equal(eigs.view(np.float64), reference.view(np.float64))
        symmetric = stack + stack.swapaxes(-2, -1)
        assert numerics.eigenvalues(symmetric).dtype == np.float64
        assert np.array_equal(numerics.eigenvalues(symmetric), np.linalg.eigvals(symmetric))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_real_and_complex_input_share_the_input_checks(self, dtype):
        for shape in [(2, 3, 4), (4,), ()]:
            with pytest.raises(ValueError, match="square"):
                numerics.eigenvalues(np.zeros(shape, dtype=dtype))
        for bad in (np.nan, np.inf):
            a = np.eye(3, dtype=dtype)[None].repeat(2, axis=0)
            a[1, 0, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                numerics.eigenvalues(a)

    def test_lapack_failure_is_nonconvergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(numerics.NumericalError, match="did not converge"):
            numerics.eigenvalues(np.eye(3))

    def test_hermitian_eigenvalues_real(self):
        rng = np.random.default_rng(16)
        a = random_complex(rng, 5)
        h = (a + a.conj().T) / 2.0
        eigs = numerics.eigenvalues(h)
        assert np.max(np.abs(eigs.imag)) < 1e-9


class TestWelch:
    def test_white_noise_level(self):
        rng = np.random.default_rng(18)
        dt = 0.01
        n = 1 << 15
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        omega, psd, stderr, n_segments = numerics.welch_psd(x, dt, 1024)
        # Unit-variance circular white noise has a flat two-sided PSD of dt.
        assert np.mean(psd) == pytest.approx(dt, rel=0.05)
        assert np.all(np.diff(omega) > 0)
        assert stderr.shape == omega.shape
        assert n_segments == 63

    def test_analytic_signal_lands_at_positive_frequency(self):
        dt = 0.01
        n = 1 << 14
        omega0 = 2.0 * np.pi * 4.0
        t = np.arange(n) * dt
        x = np.exp(-1j * omega0 * t)
        omega, psd, _, _ = numerics.welch_psd(x, dt, 2048)
        assert omega[np.argmax(psd)] == pytest.approx(omega0, abs=0.35)

    def test_segment_length_validation(self):
        with pytest.raises(ValueError):
            numerics.welch_psd(np.zeros(10, dtype=complex), 0.1, 16)
        with pytest.raises(ValueError):
            numerics.welch_psd(np.zeros(32, dtype=complex), 0.1, 16, overlap=1.0)
        with pytest.raises(ValueError):
            numerics.WelchAccumulator(0.1, 1)
        with pytest.raises(ValueError, match="n_samples"):
            numerics.welch_psd(np.zeros((32, 2, 2), dtype=complex), 0.1, 16)

    @pytest.mark.parametrize("layout", ["1-D", "columns"])
    def test_bench_call_convention(self, layout):
        # bench/probes.py passes (n_samples, n_series); a single series may also be 1-D.
        rng = np.random.default_rng(20)
        x = rng.standard_normal((4096, 3)) + 1j * rng.standard_normal((4096, 3))
        if layout == "1-D":
            x = x[:, 0]
        estimate = numerics.welch_psd(x, 0.002, 512, 0.5)
        reference = stored_periodogram_welch(np.atleast_2d(x.T), 0.002, 512, 0.5)
        assert_same_estimate(estimate, reference)


def stored_periodogram_welch(x, dt, segment_length, overlap):
    """
    Reference Welch estimate of series x (n_series, n_samples): FFT every
    segment, keep all periodograms, then take their mean and standard error.
    """
    step = max(1, int(round(segment_length * (1.0 - overlap))))
    window = numerics.hann_window(segment_length)
    periodograms = np.concatenate([
        np.abs(np.fft.fft(x[:, s : s + segment_length] * window, axis=-1)) ** 2
        for s in range(0, x.shape[-1] - segment_length + 1, step)
    ]) * dt / np.sum(window**2)
    omega = -2.0 * np.pi * np.fft.fftfreq(segment_length, dt)
    order = np.argsort(omega)
    stderr = periodograms.std(axis=0, ddof=1) / np.sqrt(len(periodograms))
    return omega[order], periodograms.mean(axis=0)[order], stderr[order], len(periodograms)


def assert_same_estimate(estimate, reference):
    omega, psd, stderr, n_segments = reference
    assert np.array_equal(estimate.omega, omega)
    np.testing.assert_allclose(estimate.psd, psd, rtol=1e-12, atol=0)
    np.testing.assert_allclose(estimate.stderr, stderr, rtol=1e-12, atol=0)
    assert estimate.n_segments == n_segments


class TestWelchAccumulator:
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_chunks_match_stored_periodograms(self, overlap, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 3002)) + 1j * rng.standard_normal((3, 3002))
        # Chunks of 1 to 300 samples, many shorter than the Welch step; the
        # last samples, past the last complete segment, stay in the tail.
        edges = np.cumsum(rng.integers(1, 300, size=40))
        edges = edges[edges < x.shape[1]]
        welch = numerics.WelchAccumulator(0.05, 256, overlap)
        for chunk in np.split(x, edges, axis=1):
            welch.add(chunk)
        reference = stored_periodogram_welch(x, 0.05, 256, overlap)
        assert_same_estimate(welch.result(), reference)

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
    def test_chunk_buffer_overwritten_after_each_add(self, overlap):
        # The oracle refills one ports buffer per chunk: whatever the
        # accumulator keeps between adds must be its own copy.
        rng = np.random.default_rng(22)
        x = rng.standard_normal((3, 3002)) + 1j * rng.standard_normal((3, 3002))
        edges = np.cumsum(rng.integers(1, 400, size=30))
        edges = edges[edges < x.shape[1]]
        buffer = np.empty((3, 400), dtype=complex)
        welch = numerics.WelchAccumulator(0.05, 256, overlap)
        for chunk in np.split(x, edges, axis=1):
            view = buffer[:, : chunk.shape[1]]
            view[...] = chunk
            welch.add(view)
            buffer[...] = np.nan
        assert_same_estimate(welch.result(), stored_periodogram_welch(x, 0.05, 256, overlap))

    def test_chunk_sizes_and_leading_shapes_vary(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 4000)) + 1j * rng.standard_normal((4, 4000))
        # A chunk larger than every earlier one, then a smaller one.
        welch = numerics.WelchAccumulator(0.05, 128, 0.5)
        for chunk in np.split(x, [300, 3500], axis=1):
            welch.add(chunk)
        assert_same_estimate(welch.result(), stored_periodogram_welch(x, 0.05, 128, 0.5))
        # A fresh accumulator fed (2, 2) series.
        welch = numerics.WelchAccumulator(0.05, 128, 0.5)
        for chunk in np.split(x.reshape(2, 2, -1), [1000, 1100], axis=-1):
            welch.add(chunk)
        assert_same_estimate(welch.result(), stored_periodogram_welch(x, 0.05, 128, 0.5))
        # A later chunk with fewer series than the first is refused.
        welch = numerics.WelchAccumulator(0.05, 128, 0.5)
        welch.add(x[:, :300])
        with pytest.raises(ValueError, match="expected 4 series"):
            welch.add(x[:3, 300:600])

    @pytest.mark.parametrize("segment_length", [64, 256, 1024])
    def test_estimate_is_bit_identical_however_the_input_is_chunked(self, segment_length):
        # Each segment is folded on its own, in the same series batches, whatever the chunks.
        rng = np.random.default_rng(27)
        x = rng.standard_normal((64, 20000)) + 1j * rng.standard_normal((64, 20000))
        whole = numerics.WelchAccumulator(0.05, segment_length)
        whole.add(x)
        expected = whole.result()
        for _ in range(3):
            edges = np.cumsum(rng.integers(1, 3000, size=40))
            welch = numerics.WelchAccumulator(0.05, segment_length)
            for chunk in np.split(x, edges[edges < x.shape[1]], axis=1):
                welch.add(chunk)
            estimate = welch.result()
            assert np.array_equal(estimate.psd, expected.psd)
            assert np.array_equal(estimate.stderr, expected.stderr)
            assert estimate.n_segments == expected.n_segments

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merged_accumulators_match_one_over_all_series(self, seed):
        # Chan's update over disjoint groups of series, folded in any order.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((12, 3000)) + 1j * rng.standard_normal((12, 3000))
        whole = numerics.WelchAccumulator(0.05, 256, 0.5)
        whole.add(x)
        expected = whole.result()
        groups = np.split(x, np.sort(rng.choice(np.arange(1, 12), size=3, replace=False)))
        for order in (range(4), range(3, -1, -1), rng.permutation(4)):
            merged = numerics.WelchAccumulator(0.05, 256, 0.5)
            for i in order:
                part = numerics.WelchAccumulator(0.05, 256, 0.5)
                for chunk in np.split(groups[i], [700, 1900], axis=1):
                    part.add(chunk)
                merged.merge(part)
            estimate = merged.result()
            np.testing.assert_allclose(estimate.psd, expected.psd, rtol=1e-13, atol=0)
            np.testing.assert_allclose(estimate.stderr, expected.stderr, rtol=1e-13, atol=0)
            assert estimate.n_segments == expected.n_segments

    def test_merge_refuses_another_segment_length(self):
        welch = numerics.WelchAccumulator(0.05, 128, 0.5)
        other = numerics.WelchAccumulator(0.05, 256, 0.5)
        other.add(np.ones((2, 300), dtype=complex))
        with pytest.raises(ValueError, match="segment_length"):
            welch.merge(other)

    def test_chunk_one_sample_short_of_a_tail_segment(self):
        # Step 1: after 9 samples the tail holds 7; a 6-sample chunk ends the
        # segments that start at the tail's first 6 samples, not the one at its last.
        rng = np.random.default_rng(25)
        x = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
        welch = numerics.WelchAccumulator(0.1, 8, 0.875)
        for chunk in np.split(x, [9, 15, 16], axis=1):
            welch.add(chunk)
        assert_same_estimate(welch.result(), stored_periodogram_welch(x, 0.1, 8, 0.875))

    def test_one_shot_add_does_not_copy_input(self):
        x = np.random.default_rng(24).standard_normal((32768, 128)).view(complex)  # 33.5 MB
        tracemalloc.start()
        try:
            numerics.welch_psd(x, 0.002, 4096, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2

    def test_adds_after_the_first_allocate_nothing(self):
        # Short chunks go into the pending ring allocated by the first add, with no
        # concatenate or copy of what is pending (41 kB of samples per add).
        x = np.random.default_rng(26).standard_normal((64, 2 * 4040)).view(complex)
        welch = numerics.WelchAccumulator(0.1, 4096, 0.5)
        welch.add(x[:, :40])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for first in range(40, 4040, 40):
                welch.add(x[:, first : first + 40])
            growth = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert growth < 4096

    def test_all_zero_input_has_zero_stderr(self):
        welch = numerics.WelchAccumulator(0.1, 64)
        for _ in range(5):
            welch.add(np.zeros((2, 100), dtype=complex))
        estimate = welch.result()
        assert estimate.n_segments == 2 * 14  # (500 - 64) // 32 + 1 segments per series
        assert np.all(estimate.psd == 0.0)
        assert np.all(estimate.stderr == 0.0)

    def test_single_segment_has_zero_stderr(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        estimate = numerics.welch_psd(x, 0.1, 128)
        assert estimate.n_segments == 1
        assert np.all(estimate.stderr == 0.0)
        assert np.all(estimate.psd > 0.0)

    def test_no_complete_segment_is_an_error(self):
        welch = numerics.WelchAccumulator(0.1, 64)
        welch.add(np.ones(63, dtype=complex))
        with pytest.raises(ValueError):
            welch.result()
