"""
Dense linear-algebra and fitting kernel, and the numerical failure types.

Solves and inverses of one complex matrix or a stack of them, and
eigenvalues of a real or complex stack, are thin wrappers over LAPACK
through numpy.linalg; a solve refuses a matrix whose reciprocal condition
is below a fixed floor with SingularMatrixError, a NumericalError. Also:
least-squares line fitting and a streaming Welch power-spectral-density
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "NumericalError",
    "SingularMatrixError",
    "LineFit",
    "lu_solve",
    "invert",
    "eigenvalues",
    "fit_line",
    "hann_window",
    "WelchEstimate",
    "WelchAccumulator",
    "welch_psd",
]

_RCOND_FLOOR = 1e-13
#: Complex entries per windowed batch of Welch segments (2 MB), or one segment if larger.
_WELCH_BATCH_ENTRIES = 1 << 17


class NumericalError(ValueError):
    """Raised when a computation on a usable input fails: the library's one numerical failure type."""


class SingularMatrixError(NumericalError):
    """
    Raised when a matrix is singular to working precision: LAPACK met an
    exact zero pivot (rcond 0), or its reciprocal condition is <= 1e-13.
    """

    def __init__(self, rcond: float):
        self.rcond = rcond
        super().__init__(f"matrix singular to working precision (rcond {rcond:.1e})")


@dataclass(frozen=True)
class LineFit:
    """Ordinary least-squares line y = slope*x + intercept with fit quality."""

    slope: float
    intercept: float
    r_squared: float


def _square_stack(a, dtype=complex) -> NDArray:
    """Coerce to a (..., n, n) array of dtype, rejecting other shapes and non-finite entries."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    return a


def lu_solve(a, b) -> NDArray[np.complex128]:
    """
    Solve A X = B for one (n, n) matrix or a (..., n, n) stack of them.

    One LAPACK call (numpy.linalg.inv, getrf/getrs against the identity)
    gives A^{-1}, which makes the singularity check exact: any matrix with
    1-norm reciprocal condition 1 / (max(|A|_1, 1) |A^{-1}|_1) at or below
    1e-13, or an exact zero pivot, raises SingularMatrixError. B is a
    vector (n,), one (n, k) block shared by the whole stack, or a
    (..., n, k) stack of the same leading shape as A.
    """
    a = _square_stack(a)
    b = np.asarray(b, dtype=complex)
    if b.ndim > 2 and b.shape[:-2] != a.shape[:-2]:
        raise ValueError(f"right-hand sides {b.shape} do not match the matrix stack {a.shape}")
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(0.0) from exc
    norm_a = np.maximum(np.abs(a).sum(axis=-2).max(axis=-1), 1.0)
    rcond = float(np.min(1.0 / (norm_a * np.abs(inverse).sum(axis=-2).max(axis=-1))))
    if not rcond > _RCOND_FLOOR:
        raise SingularMatrixError(rcond)
    return inverse @ b


def invert(a) -> NDArray[np.complex128]:
    """Matrix inverse via lu_solve against the identity."""
    a = np.asarray(a)
    return lu_solve(a, np.eye(a.shape[-1], dtype=complex))


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


def fit_line(xs, ys) -> LineFit:
    """Ordinary least-squares fit of y = slope*x + intercept."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 2:
        raise ValueError("fit_line requires at least 2 points")
    if np.ptp(x) == 0.0:
        raise ValueError("fit_line requires non-degenerate x values")
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = np.sum((x - x_mean) ** 2)
    sxy = np.sum((x - x_mean) * (y - y_mean))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residual = y - (slope * x + intercept)
    ss_tot = np.sum((y - y_mean) ** 2)
    if ss_tot == 0.0:
        r_squared = 1.0
    else:
        r_squared = 1.0 - float(np.sum(residual**2) / ss_tot)
    return LineFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


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
    is chunked. A segment inside one chunk is read from it in place; one
    that starts in an earlier chunk, from the pending buffer (a ring of the
    last segment_length samples of every series, allocated by the first
    add) and the chunk's start, so a chunk may be overwritten once `add`
    returns. Segments are Hann-windowed into one reused buffer, batched over
    series and segments, and transformed in place. Each periodogram is
    folded into a per-bin mean and sum of squared deviations (Chan, Golub &
    LeVeque, Am. Stat. 37, 242 (1983)) and dropped.
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
        self._pending = None
        self._seen = 0  # samples added so far, per series
        self._next = 0  # the next segment's first sample
        self._work = np.empty(0, dtype=complex)
        self._power = np.empty(0)
        self._count = 0
        self._mean = np.zeros(segment_length)
        self._m2 = np.zeros(segment_length)

    def add(self, chunk) -> None:
        """Append samples (..., n_samples) of every series."""
        data = np.asarray(chunk, dtype=complex)
        length, seen, n = self._length, self._seen, data.shape[-1]
        data = data.reshape(math.prod(data.shape[:-1]), n)
        if self._pending is None:
            self._pending = np.empty((len(data), length), dtype=complex)
        elif len(data) != len(self._pending):
            raise ValueError(f"expected {len(self._pending)} series, got {len(data)}")
        ring = self._pending
        while self._next < seen and self._next + length <= seen + n:
            # Ring slots [first, last) hold the segment's samples before the chunk.
            first, last = self._next % length, seen % length
            held = [ring[:, first:last]] if first < last else [ring[:, first:], ring[:, :last]]
            self._fold([*(piece[:, None] for piece in held), data[:, None, : self._next + length - seen]])
            self._next += self._step
        start = self._next - seen  # negative while the chunk is too short to end a segment
        n_segments = max(0, (n - start - length) // self._step + 1)
        if n_segments:
            segments = np.lib.stride_tricks.sliding_window_view(data[:, start:], length, axis=-1)
            self._fold([segments[:, :: self._step]])
            self._next += n_segments * self._step
        # Keep the chunk's last samples in the ring, slot = sample index % segment_length.
        kept = min(n, length)
        first = (seen + n - kept) % length
        split = min(kept, length - first)
        ring[:, first : first + split] = data[:, n - kept : n - kept + split]
        ring[:, : kept - split] = data[:, n - kept + split :]
        self._seen = seen + n

    def _fold(self, pieces: list[NDArray[np.complex128]]) -> None:
        """Window and fold in segments (series, count, segment_length), given as consecutive
        pieces in time, _WELCH_BATCH_ENTRIES entries (or one segment) at a time."""
        n_series, count = pieces[0].shape[:2]
        rows = max(1, _WELCH_BATCH_ENTRIES // self._length)
        series, segments = max(1, rows // count), min(count, rows)
        for s in range(0, n_series, series):
            for k in range(0, count, segments):
                batch = [piece[s : s + series, k : k + segments] for piece in pieces]
                work = self._scratch(batch[0].shape[:2] + (self._length,))
                offset = 0
                for piece in batch:
                    width = piece.shape[-1]
                    np.multiply(piece, self._window[offset : offset + width],
                                out=work[..., offset : offset + width])
                    offset += width
                self._transform(work)

    def _scratch(self, shape: tuple[int, ...]) -> NDArray[np.complex128]:
        """The work buffer as a C-ordered array of `shape`, grown if too small."""
        size = math.prod(shape)
        if self._work.size < size:
            self._work = np.empty(size, dtype=complex)
            self._power = np.empty(size)
        return self._work[:size].reshape(shape)

    def _transform(self, work: NDArray[np.complex128]) -> None:
        """Fold in the periodograms of windowed segments (..., segment_length), transformed in place."""
        np.fft.fft(work, out=work)
        power = np.abs(work, out=self._power[: work.size].reshape(work.shape))
        power *= power
        self._merge(power.reshape(-1, self._length))

    def _merge(self, power: NDArray[np.float64]) -> None:
        """Fold in a (count, segment_length) batch of periodograms, overwriting it."""
        count = len(power)
        mean = power.mean(axis=0)
        delta = mean - self._mean
        total = self._count + count
        power -= mean
        power *= power
        self._mean += delta * (count / total)
        self._m2 += power.sum(axis=0) + delta**2 * (self._count * count / total)
        self._count = total

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
