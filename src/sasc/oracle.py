"""
Independent time-domain validation path.

Integrates the linearized Langevin system dz = M z dt + L dW with
synthesized Gaussian noise and estimates the output power spectrum of one
port via Welch averaging, for cross-checking the frequency-domain
pipeline. The noise is a classical complex circular surrogate whose
symmetrized second moments match the quantum input correlators; this is
exact for every quantity computed here (all are symmetrized second
moments of a linear system) but is not a full quantum simulation.

The integrator is the drift-implicit Euler-Maruyama step
z_{k+1} = (I - dt M)^{-1} (z_k + L xi_k dt); the explicit variant is
unstable over the long horizons required by the narrow low-mode
linewidths used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import numerics
from .model import SystemModel, build_drift_matrix, input_coupling_matrix, require_stable
from .spectra import SpectrumTable, occupations

__all__ = [
    "IntegrationQualityError",
    "OracleComparisonError",
    "OracleConfig",
    "OracleRun",
    "ComparisonReport",
    "simulate",
    "compare",
]

_CHUNK = 4096
_CONJUGATE_TOLERANCE = 1e-6


class IntegrationQualityError(Exception):
    """Raised when the conjugate-pair structure of the state drifts too far."""


class OracleComparisonError(Exception):
    """Raised by callers when predicted and simulated spectra disagree."""


@dataclass(frozen=True)
class OracleConfig:
    """Time-domain run configuration; the seed is mandatory for reproducibility."""

    model: SystemModel
    dt: float
    n_steps: int
    ensemble: int
    seed: int
    port: int = 0
    segment_length: int = 4096
    overlap: float = 0.5
    burn_in: int | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.ensemble < 1:
            raise ValueError("ensemble must be at least 1")
        if self.n_steps < self.segment_length:
            raise ValueError("n_steps must cover at least one Welch segment")
        if not 0 <= self.port < self.model.n_modes:
            raise ValueError("port out of range")

    @property
    def effective_burn_in(self) -> int:
        return self.segment_length if self.burn_in is None else self.burn_in


@dataclass
class OracleRun:
    """Welch PSD estimate of one output port with per-bin standard errors."""

    omega: NDArray[np.float64]
    psd: NDArray[np.float64]
    stderr: NDArray[np.float64]
    n_segments: int
    config: OracleConfig = field(repr=False)


def _member_noise(
    rng: np.random.Generator, n_steps: int, amplitudes: NDArray[np.float64]
) -> NDArray[np.complex128]:
    """Circular complex white noise per mode, shape (n_steps, n_modes)."""
    draws = rng.standard_normal((n_steps, len(amplitudes), 2))
    return (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0) * amplitudes


def simulate(cfg: OracleConfig) -> OracleRun:
    """
    Integrate the Langevin system for the whole ensemble and Welch-estimate
    the output PSD of the configured port.

    Every ensemble member draws its noise from a seed derived as
    (seed, member_index), so results are independent of evaluation order.
    The doubled-basis state keeps creation channels as exact conjugates of
    their annihilation partners; drift beyond tolerance aborts the run.
    """
    model = cfg.model
    drift = build_drift_matrix(model)
    verdict = require_stable(drift)
    max_rate = max(max(abs(ev) for ev in verdict.eigenvalues), 1.0)
    if cfg.dt > 0.01 / max_rate:
        raise ValueError(
            f"dt={cfg.dt} too large for spectral radius {max_rate:.3g}"
            f" (needs dt <= {0.01 / max_rate:.3g})"
        )
    n_modes = model.n_modes
    n2 = 2 * n_modes
    ell = input_coupling_matrix(model)
    sqrt_kappa = np.sqrt(np.array([m.kappa for m in model.modes]))
    # Drift-implicit step: z <- A z + B xi, with the input fed through L dt.
    step_matrix = numerics.invert(np.eye(n2) - cfg.dt * drift)
    input_matrix = step_matrix @ ell * cfg.dt
    # Per-mode noise amplitude giving a two-sided input PSD of n + 1/2.
    amplitudes = np.sqrt((occupations(model) + 0.5) / cfg.dt)
    total_steps = cfg.effective_burn_in + cfg.n_steps
    outputs = np.empty((cfg.n_steps, cfg.ensemble), dtype=complex)
    port_row = 2 * cfg.port

    # All members advance in lockstep (state columns), but every member's
    # noise stream comes from its own (seed, member) generator, so results
    # are identical to integrating the members one at a time.
    rngs = [np.random.default_rng([cfg.seed, member]) for member in range(cfg.ensemble)]
    z = np.zeros((n2, cfg.ensemble), dtype=complex)
    recorded = 0
    done = 0
    while done < total_steps:
        chunk = min(_CHUNK, total_steps - done)
        # (chunk, n_modes, ensemble) noise block, one slab per member.
        xi_half = np.stack(
            [_member_noise(rng, chunk, amplitudes) for rng in rngs], axis=2
        )
        xi = np.empty((n2, cfg.ensemble), dtype=complex)
        for t in range(chunk):
            xi[0::2] = xi_half[t]
            xi[1::2] = np.conj(xi_half[t])
            z = step_matrix @ z + input_matrix @ xi
            step_index = done + t
            if step_index >= cfg.effective_burn_in:
                outputs[recorded] = sqrt_kappa[cfg.port] * z[port_row] - xi[port_row]
                recorded += 1
        done += chunk
        scale = np.max(np.abs(z)) + 1e-300
        deviation = float(np.max(np.abs(z[1::2] - np.conj(z[0::2]))) / scale)
        if deviation > _CONJUGATE_TOLERANCE:
            raise IntegrationQualityError(
                f"conjugate-pair structure drifted to {deviation:.3e}"
            )
        if not np.all(np.isfinite(z.view(float))):
            raise IntegrationQualityError("trajectory diverged (non-finite state)")

    omega, psd, periodograms = numerics.welch_psd(
        outputs, cfg.dt, cfg.segment_length, cfg.overlap
    )
    count = periodograms.shape[0]
    stderr = periodograms.std(axis=0, ddof=1) / np.sqrt(count) if count > 1 else np.zeros_like(psd)
    return OracleRun(omega=omega, psd=psd, stderr=stderr, n_segments=count, config=cfg)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-bin z-score summary of predicted versus simulated spectra."""

    fraction_within: float
    n_bins: int
    max_abs_z: float
    z_scores: NDArray[np.float64] = field(repr=False, default=None)


def compare(run: OracleRun, predicted: SpectrumTable, column: str | None = None) -> ComparisonReport:
    """
    Interpolate the predicted spectrum onto the Welch bins (linear) and
    report the fraction of bins whose |z| = |predicted - estimated| / SE
    is at most 3. Bins with zero standard error count as matching only on
    exact equality.
    """
    if column is None:
        if len(predicted.columns) != 1:
            raise ValueError("column must be named when the table has several")
        column = next(iter(predicted.columns))
    pred_omega = predicted.omega
    mask = (run.omega >= pred_omega[0]) & (run.omega <= pred_omega[-1])
    if not np.any(mask):
        raise ValueError("predicted table and Welch bins have disjoint frequency support")
    omega = run.omega[mask]
    estimated = run.psd[mask]
    stderr = run.stderr[mask]
    expected = np.interp(omega, pred_omega, predicted.columns[column])
    diff = expected - estimated
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(stderr > 0, diff / np.where(stderr > 0, stderr, 1.0),
                     np.where(diff == 0.0, 0.0, np.inf))
    fraction = float(np.mean(np.abs(z) <= 3.0))
    return ComparisonReport(
        fraction_within=fraction,
        n_bins=int(mask.sum()),
        max_abs_z=float(np.max(np.abs(z))),
        z_scores=z,
    )
