"""
Dense complex linear-algebra and fitting kernel.

LU solve/inversion with partial pivoting is written against numpy array
primitives so that a pivot below a relative floor raises
SingularMatrixError with its index. Eigenvalues come from LAPACK geev
through numpy.linalg. Also: ordinary least-squares line fitting and
Welch power-spectral-density support.
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
    "lu_factor",
    "lu_solve",
    "solve_batch",
    "invert",
    "eigenvalues",
    "fit_line",
    "hann_window",
    "welch_psd",
]

_PIVOT_FLOOR = 1e-13


class SingularMatrixError(Exception):
    """Raised when elimination meets a pivot that is zero to working precision."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"matrix singular to working precision at pivot {pivot_index}")


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


def lu_factor(a) -> tuple[NDArray[np.complex128], NDArray[np.intp]]:
    """
    LU factorization with partial pivoting, PA = LU.

    Returns
    -------
    lu:
        Combined factors; strict lower triangle holds L (unit diagonal
        implied), upper triangle holds U.
    perm:
        Row permutation such that a[perm] = L @ U.
    """
    lu = as_complex_matrix(a).copy()
    n, m = lu.shape
    if n != m:
        raise ValueError("lu_factor requires a square matrix")
    perm = np.arange(n)
    scale = max(np.max(np.abs(lu)), 1.0)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= _PIVOT_FLOOR * scale:
            raise SingularMatrixError(k)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm


def lu_solve(a, b) -> NDArray[np.complex128]:
    """Solve A X = B via partial-pivoted LU; B may be a vector or matrix."""
    lu, perm = lu_factor(a)
    n = lu.shape[0]
    b_arr = np.asarray(b, dtype=complex)
    vector_input = b_arr.ndim == 1
    x = b_arr.reshape(n, -1)[perm].copy()
    for k in range(n):  # forward substitution, unit lower triangle
        x[k + 1 :] -= np.outer(lu[k + 1 :, k], x[k])
    for k in range(n - 1, -1, -1):  # back substitution
        x[k] /= lu[k, k]
        x[:k] -= np.outer(lu[:k, k], x[k])
    return x[:, 0] if vector_input else x


def solve_batch(a_stack, b_stack) -> NDArray[np.complex128]:
    """
    Solve A_i X_i = B_i for a stack of systems, shapes (m, n, n) and (m, n, k).

    Same partial-pivoted elimination as lu_solve, vectorized over the leading
    axis so frequency scans do not pay per-point Python overhead.
    """
    a = np.array(a_stack, dtype=complex)
    b = np.array(b_stack, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("a_stack must have shape (m, n, n)")
    m, n, _ = a.shape
    if b.shape[:2] != (m, n):
        raise ValueError("b_stack must have shape (m, n, k)")
    batch = np.arange(m)
    scale = max(float(np.max(np.abs(a))), 1.0)
    for k in range(n):
        p = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        if np.any(np.abs(a[batch, p, k]) <= _PIVOT_FLOOR * scale):
            raise SingularMatrixError(k)
        swap = p != k
        if np.any(swap):
            rows_k = a[batch, k, :].copy()
            a[batch, k, :] = a[batch, p, :]
            a[batch, p, :] = rows_k
            rhs_k = b[batch, k, :].copy()
            b[batch, k, :] = b[batch, p, :]
            b[batch, p, :] = rhs_k
        factors = a[:, k + 1 :, k] / a[:, k, k][:, None]
        a[:, k + 1 :, k + 1 :] -= factors[:, :, None] * a[:, k, k + 1 :][:, None, :]
        b[:, k + 1 :, :] -= factors[:, :, None] * b[:, k, :][:, None, :]
    x = b
    for k in range(n - 1, -1, -1):
        x[:, k, :] /= a[:, k, k][:, None]
        x[:, :k, :] -= a[:, :k, k][:, :, None] * x[:, k, :][:, None, :]
    return x


def invert(a) -> NDArray[np.complex128]:
    """Matrix inverse via lu_solve against the identity."""
    a = as_complex_matrix(a)
    return lu_solve(a, np.eye(a.shape[0], dtype=complex))


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
    # Frequency axis: e^{-i w0 t} lands at -fftfreq, so negate and sort.
    omega = -2.0 * np.pi * np.fft.fftfreq(segment_length, dt)
    order = np.argsort(omega)
    periodograms = []
    for s in starts:
        seg = data[s : s + segment_length] * window[:, None]
        spec = np.abs(np.fft.fft(seg, axis=0)) ** 2 * norm
        periodograms.append(spec[order].T)
    if not periodograms:
        raise ValueError("no complete segments available")
    all_periodograms = np.concatenate(periodograms, axis=0)
    return omega[order], all_periodograms.mean(axis=0), all_periodograms
