"""
Dense complex linear-algebra and fitting kernel.

Solves and inverses of one matrix or a stack of them, and eigenvalues,
are thin wrappers over LAPACK through numpy.linalg; a solve refuses a
matrix whose reciprocal condition is below a fixed floor with
SingularMatrixError. Also: ordinary least-squares line fitting and Welch
power-spectral-density support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "SingularMatrixError",
    "NonConvergenceError",
    "LineFit",
    "as_complex_matrix",
    "lu_solve",
    "invert",
    "eigenvalues",
    "fit_line",
    "hann_window",
    "welch_psd",
]

_RCOND_FLOOR = 1e-13


class SingularMatrixError(Exception):
    """
    Raised when a matrix is singular to working precision: LAPACK met an
    exact zero pivot (rcond 0), or its reciprocal condition is <= 1e-13.
    """

    def __init__(self, rcond: float):
        self.rcond = rcond
        super().__init__(f"matrix singular to working precision (rcond {rcond:.1e})")


class NonConvergenceError(Exception):
    """Raised when the LAPACK eigenvalue iteration fails to converge."""


@dataclass(frozen=True)
class LineFit:
    """Ordinary least-squares line y = slope*x + intercept with fit quality."""

    slope: float
    intercept: float
    r_squared: float


def as_complex_matrix(a) -> NDArray[np.complex128]:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


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
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
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


def eigenvalues(a) -> NDArray[np.complex128]:
    """All eigenvalues of a square complex matrix (LAPACK geev via numpy)."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eigenvalues requires a square matrix")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc


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


def welch_psd(
    x,
    dt: float,
    segment_length: int,
    overlap: float = 0.5,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """
    Two-sided Welch PSD estimate of a complex time series.

    The frequency axis follows the analytic convention in which a component
    e^{-i omega0 t} appears at angular frequency +omega0, matching the
    resolvent (-i omega I - M)^{-1} used for predicted spectra.

    Parameters
    ----------
    x:
        Complex samples, shape (n_samples,) or (n_samples, n_series); the
        trailing axis indexes independent realizations.
    dt:
        Sample spacing.
    segment_length:
        Samples per Welch segment (Hann window applied).
    overlap:
        Fractional segment overlap in [0, 1).

    Returns
    -------
    omega:
        Angular frequencies, ascending.
    psd:
        Mean PSD over all segments and series, aligned with omega.
    periodograms:
        Per-segment PSDs, shape (n_segments_total, len(omega)).
    """
    data = np.asarray(x, dtype=complex)
    if data.ndim == 1:
        data = data[:, None]
    n_samples, n_series = data.shape
    if segment_length > n_samples:
        raise ValueError("segment_length exceeds the number of samples")
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    step = max(1, int(round(segment_length * (1.0 - overlap))))
    window = hann_window(segment_length)
    norm = dt / np.sum(window**2)
    starts = range(0, n_samples - segment_length + 1, step)
    if not starts:
        raise ValueError("no complete segments available")
    # Frequency axis: e^{-i w0 t} lands at -fftfreq, so negate and sort.
    omega = -2.0 * np.pi * np.fft.fftfreq(segment_length, dt)
    order = np.argsort(omega)
    # Each segment fills a block of columns of one preallocated array: one copy, no transpose.
    columns = np.empty((segment_length, len(starts) * n_series))
    for i, s in enumerate(starts):
        seg = data[s : s + segment_length] * window[:, None]
        spec = np.abs(np.fft.fft(seg, axis=0)) ** 2 * norm
        columns[:, i * n_series : (i + 1) * n_series] = spec[order]
    periodograms = columns.T
    return omega[order], periodograms.mean(axis=0), periodograms
