"""
Dense linear-algebra and spectral-estimation kernel, and the numerical failure types.

The checked inverse of one complex matrix or a stack of them (invert), and
eigenvalues of a real or complex stack, are thin wrappers over LAPACK
through numpy.linalg; invert refuses a matrix whose reciprocal condition
is below a fixed floor with SingularMatrixError, a NumericalError, and a
solve (lu_solve) is that inverse times the right-hand sides. Also: a
streaming Welch power-spectral-density estimate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "NumericalError",
    "SingularMatrixError",
    "lu_solve",
    "invert",
    "eigenvalues",
    "hann_window",
    "WelchEstimate",
    "WelchAccumulator",
    "welch_psd",
]

_RCOND_FLOOR = 1e-13


class NumericalError(ValueError):
    """Raised when a computation on a usable input fails: the library's one numerical failure type."""


class SingularMatrixError(NumericalError):
    """
    Raised when a matrix is singular to working precision: LAPACK met an
    exact zero pivot or returned a non-finite inverse (rcond 0), or its
    reciprocal condition is <= 1e-13.
    """

    def __init__(self, rcond: float):
        self.rcond = rcond
        super().__init__(f"matrix singular to working precision (rcond {rcond:.1e})")


def _square_stack(a, dtype=complex) -> NDArray:
    """Coerce to a (..., n, n) array of dtype, rejecting other shapes and non-finite entries."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    return a


def invert(a) -> NDArray[np.complex128]:
    """
    Inverse of one complex (n, n) matrix or of each of a (..., n, n) stack: the
    library's one checked primitive. One LAPACK call (numpy.linalg.inv) gives
    A^{-1}, which makes the singularity check exact: any matrix with 1-norm
    reciprocal condition 1 / (max(|A|_1, 1) |A^{-1}|_1) at or below 1e-13, or an
    exact zero pivot, raises SingularMatrixError.
    """
    a = _square_stack(a)
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(0.0) from exc
    norm_a = np.maximum(np.abs(a).sum(axis=-2).max(axis=-1), 1.0)
    rcond = float(np.min(1.0 / (norm_a * np.abs(inverse).sum(axis=-2).max(axis=-1))))
    if not rcond > _RCOND_FLOOR:
        # A non-finite inverse that LAPACK did not flag leaves the estimate NaN.
        raise SingularMatrixError(0.0 if math.isnan(rcond) else rcond)
    return inverse


def lu_solve(a, b) -> NDArray[np.complex128]:
    """
    Solve A X = B for one (n, n) matrix or a (..., n, n) stack of them, as
    invert(A) @ B, so the same singularity check applies. B is a vector (n,),
    one (n, k) block shared by the whole stack, or a (..., n, k) stack of the
    same leading shape as A.
    """
    inverse = invert(a)
    b = np.asarray(b, dtype=complex)
    if b.ndim > 2 and b.shape[:-2] != inverse.shape[:-2]:
        raise ValueError(
            f"right-hand sides {b.shape} do not match the matrix stack {inverse.shape}")
    return inverse @ b


def eigenvalues(a) -> NDArray:
    """
    All eigenvalues of a square matrix, or (..., n) of a (..., n, n) stack (LAPACK
    geev). A real stack stays real (dgeev), as numpy.linalg.eigvals would take it.
    """
    a = _square_stack(a, complex if np.iscomplexobj(a) else float)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration did not converge: {exc}") from exc


def hann_window(n: int) -> NDArray[np.float64]:
    """Periodic Hann window of length n."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


class WelchEstimate(NamedTuple):
    """Welch PSD with per-bin standard errors; n_segments counts periodograms (segments x series)."""

    omega: NDArray[np.float64]
    psd: NDArray[np.float64]
    stderr: NDArray[np.float64]
    n_segments: int


class WelchAccumulator:
    """
    Two-sided Welch PSD of complex series, fed chunk by chunk with time on
    the last axis (leading axes index independent series, the same at every
    add). A component e^{-i omega0 t} appears at +omega0, matching the
    resolvent (-i omega I - M)^{-1} of predicted spectra. Segments start
    every round(segment_length * (1 - overlap)) samples, however the input
    is chunked. Every sample is copied once into a ring of the last
    segment_length samples of every series (slot = sample index %
    segment_length, allocated by the first add), so a chunk may be
    overwritten once `add` returns. When a segment's last sample lands, it
    is Hann-windowed from the ring into one reused buffer, every series at
    once, and transformed in place; each periodogram is folded into a
    per-bin mean and sum of squared deviations (Chan, Golub & LeVeque,
    Am. Stat. 37, 242 (1983)) and dropped. Segments fold the same way
    however the input is chunked, so the estimate is bit-identical too.
    `merge` folds in another accumulator's statistics by the same update.
    """

    def __init__(self, dt: float, segment_length: int, overlap: float = 0.5):
        if segment_length < 2:
            raise ValueError("segment_length must be at least 2")
        if not 0.0 <= overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        self._dt = dt
        self._length = segment_length
        self._step = max(1, int(round(segment_length * (1.0 - overlap))))
        self._window = hann_window(segment_length)
        self._ring = None
        self._seen = 0  # samples added so far, per series
        self._next = 0  # the next segment's first sample
        self._count = 0
        self._mean = np.zeros(segment_length)
        self._m2 = np.zeros(segment_length)

    def add(self, chunk) -> None:
        """Append samples (..., n_samples) of every series."""
        data = np.asarray(chunk, dtype=complex)
        length, n = self._length, data.shape[-1]
        data = data.reshape(math.prod(data.shape[:-1]), n)
        if self._ring is None:
            self._ring = np.empty((len(data), length), dtype=complex)
            self._work = np.empty_like(self._ring)
            self._power = np.empty(self._ring.shape)
        elif len(data) != len(self._ring):
            raise ValueError(f"expected {len(self._ring)} series, got {len(data)}")
        done = 0
        while done < n:
            # Copy up to the ring's end or the next segment's last sample, whichever is first.
            slot, end = self._seen % length, self._next + length
            take = min(n - done, length - slot, end - self._seen)
            self._ring[:, slot : slot + take] = data[:, done : done + take]
            done += take
            self._seen += take
            if self._seen == end:
                self._fold()
                self._next += self._step

    def _fold(self) -> None:
        """Window the segment that just ended from the ring, its slots [first:] then [:first],
        and fold in the periodograms of every series."""
        ring, work, first = self._ring, self._work, self._next % self._length
        split = self._length - first
        np.multiply(ring[:, first:], self._window[:split], out=work[:, :split])
        np.multiply(ring[:, :first], self._window[split:], out=work[:, split:])
        np.fft.fft(work, out=work)
        power = np.abs(work, out=self._power)
        power *= power
        mean = power.mean(axis=0)
        power -= mean
        power *= power
        self._merge(len(power), mean, power.sum(axis=0))

    def _merge(self, count: int, mean, m2) -> None:
        """Chan's update: fold in `count` periodograms of per-bin mean and squared deviations m2."""
        delta = mean - self._mean
        total = self._count + count
        self._mean += delta * (count / total)
        self._m2 += m2 + delta**2 * (self._count * count / total)
        self._count = total

    def merge(self, other: WelchAccumulator) -> None:
        """
        Fold in the complete segments of another accumulator of the same dt,
        segment_length and overlap, as if its series had been added to this
        one; samples pending in its ring are dropped.
        """
        if (other._dt, other._length, other._step) != (self._dt, self._length, self._step):
            raise ValueError("can only merge Welch accumulators of the same dt, segment_length"
                             " and overlap")
        if other._count:
            self._merge(other._count, other._mean, other._m2)

    def result(self) -> WelchEstimate:
        """The estimate over every complete segment added so far, omega ascending."""
        count = self._count
        if count == 0:
            raise ValueError("no complete segments available")
        norm = self._dt / np.sum(self._window**2)
        stderr = np.sqrt(self._m2 / (max(count - 1, 1) * count)) * norm  # 0 for one segment
        # e^{-i w0 t} lands at -fftfreq: negate and sort once.
        omega = -2.0 * np.pi * np.fft.fftfreq(self._length, self._dt)
        order = np.argsort(omega)
        return WelchEstimate(omega[order], self._mean[order] * norm, stderr[order], count)


def welch_psd(x, dt: float, segment_length: int, overlap: float = 0.5) -> WelchEstimate:
    """
    Welch PSD of samples x, (n_samples,) or (n_samples, n_series) with one
    realization per column: a WelchAccumulator fed the whole array at once.
    """
    data = np.asarray(x, dtype=complex)
    if data.ndim not in (1, 2):
        raise ValueError(f"expected (n_samples,) or (n_samples, n_series), got shape {data.shape}")
    if segment_length > data.shape[0]:
        raise ValueError("segment_length exceeds the number of samples")
    welch = WelchAccumulator(dt, segment_length, overlap)
    welch.add(data.T)
    return welch.result()
