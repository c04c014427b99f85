"""
Independent time-domain validation path.

Integrates the linearized Langevin system dz = M z dt + L dW with
synthesized Gaussian noise and estimates the output power spectrum of one
port via Welch averaging, for cross-checking the frequency-domain
pipeline. The Welch estimate is accumulated chunk by chunk as the port is
recorded, so no output record is kept: memory is O(ensemble x (chunk +
segment_length)), whatever n_steps and overlap. The noise is a classical
complex circular surrogate whose symmetrized second moments match the
quantum input correlators; this is exact for every quantity computed here
(all are symmetrized second moments of a linear system) but is not a full
quantum simulation.

The integrator is the drift-implicit Euler-Maruyama step
z_{k+1} = A z_k + B xi_k with A = (I - dt M)^{-1} and B = A L dt; the
explicit variant is unstable over the long horizons required by the
narrow low-mode linewidths used throughout. The same discrete map is
advanced _BLOCK steps per block,

    z_{k+j} = A^j z_k + sum_{i<j} A^{j-1-i} B xi_{k+i},

so a chunk of steps costs one matrix product for every block's noise
response, one small product per block to carry the state, and one more
for the carried states' share of the recorded port. No eigenbasis is
used, only matrix powers. The products write into caller-owned buffers
that simulate allocates once per run and every full chunk reuses; the
carried states are stored time-major, (blocks + 1, ensemble, 2N), so each
carry writes one contiguous row in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.typing import NDArray

from . import numerics
from .model import SystemModel, build_drift_matrix, input_coupling_matrix, require_stable
from .numerics import IntegrationQualityError
from .spectra import SpectrumTable, occupations

__all__ = [
    "IntegrationQualityError",
    "OracleConfig",
    "OracleRun",
    "ComparisonReport",
    "simulate",
    "compare",
]

_CHUNK = 4096
#: Steps per block of the stepping recurrence; a full chunk makes _CHUNK / _BLOCK state carries.
_BLOCK = 16
_CONJUGATE_TOLERANCE = 1e-6


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
        if self.segment_length < 2:
            raise ValueError("segment_length must be at least 2")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must not be negative")
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


def _block_maps(
    step_matrix: NDArray[np.complex128],
    noise_map: NDArray[np.complex128],
    port_noise: NDArray[np.complex128],
    gain: float,
    port_row: int,
    size: int,
) -> tuple[NDArray[np.float64], NDArray[np.complex128], NDArray[np.complex128]]:
    """
    Linear maps of `size` steps z <- A z + W d, with W d = B xi for real draws d.

    Returns (table, homogeneous, power). `table` takes a block's draws
    d_0..d_{size-1}, flattened, to the draws' share of its `size` recorded
    outputs gain * z[port_row] - xi[port_row] followed by its end state,
    as interleaved (real, imaginary) columns so that real draws meet a real
    matrix. `homogeneous` (n2, size) and `power` = (A^size)^T take the row
    state at the block start to the rest of the outputs and the end state.
    """
    n2, n_draws = noise_map.shape
    powers = [np.eye(n2, dtype=complex)]
    for _ in range(size):
        powers.append(step_matrix @ powers[-1])
    powers = np.array(powers)
    response = powers[:size] @ noise_map  # A^m W, m = 0 .. size-1
    table = np.zeros((size, n_draws, size + n2), dtype=complex)
    for i in range(size):
        # Step i's draws reach output j >= i through A^{j-i} W, the end state through A^{size-1-i} W.
        table[i, :, i:size] = gain * response[: size - i, port_row].T
        table[i, :, i] -= port_noise
        table[i, :, size:] = response[size - 1 - i].T
    real_table = np.stack([table.real, table.imag], axis=-1).reshape(size * n_draws, -1)
    return real_table, gain * powers[1:, port_row].T, powers[size].T


def _workspace(ensemble, n_blocks, maps):
    """Buffers for _advance over (ensemble, n_blocks) blocks: (product, carried, ports)."""
    table, homogeneous, power = maps
    return (np.empty((ensemble * n_blocks, table.shape[1])),
            np.empty((n_blocks + 1, ensemble, len(power)), dtype=complex),
            np.empty((ensemble, n_blocks, homogeneous.shape[1]), dtype=complex))


def _advance(z, draws, maps, work=None):
    """
    Advance row states z (ensemble, n2) through draws (ensemble, n_blocks,
    size * n_draws); return the end states and the recorded outputs
    (ensemble, n_blocks * size) in step order. Both are views into `work`
    (from _workspace, fresh if omitted), which the next call overwrites.
    """
    table, homogeneous, power = maps
    ensemble, n_blocks, _ = draws.shape
    size = homogeneous.shape[1]
    product, carried, ports = work or _workspace(ensemble, n_blocks, maps)
    np.matmul(draws.reshape(-1, table.shape[0]), table, out=product)
    particular = product.view(complex).reshape(ensemble, n_blocks, size + len(power))
    carried[0] = z  # carried[b] is the state at the start of block b
    for b in range(n_blocks):
        np.matmul(carried[b], power, out=carried[b + 1])
        carried[b + 1] += particular[:, b, size:]
    np.matmul(carried[:-1].transpose(1, 0, 2), homogeneous, out=ports)
    ports += particular[..., :size]
    return carried[-1], ports.reshape(ensemble, n_blocks * size)


def simulate(cfg: OracleConfig) -> OracleRun:
    """
    Integrate the Langevin system for the whole ensemble and Welch-estimate
    the output PSD of the configured port, each chunk's recorded outputs
    after the burn-in going straight into the estimate.

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
    n2 = 2 * model.n_modes
    ell = input_coupling_matrix(model)
    # Drift-implicit step: z <- A z + B xi, with the input fed through L dt.
    step_matrix = numerics.invert(np.eye(n2) - cfg.dt * drift)
    input_matrix = step_matrix @ ell * cfg.dt
    # Each step draws (re, im) per mode, d[2m] and d[2m + 1]. Circular noise
    # of two-sided input PSD n + 1/2 per mode is xi = E d, with
    # xi[2m] = a_m (d[2m] + i d[2m + 1]) and its creation partner conj(xi[2m]).
    amplitudes = np.sqrt((occupations(model) + 0.5) / cfg.dt) / np.sqrt(2.0)
    draws_to_noise = np.kron(np.diag(amplitudes), [[1.0, 1.0j], [1.0, -1.0j]])
    port_row = 2 * cfg.port
    gain = float(np.sqrt(model.modes[cfg.port].kappa))
    maps = partial(_block_maps, step_matrix, input_matrix @ draws_to_noise,
                   draws_to_noise[port_row], gain, port_row)
    block_maps = maps(_BLOCK)

    burn_in = cfg.effective_burn_in
    total_steps = burn_in + cfg.n_steps
    welch = numerics.WelchAccumulator(cfg.dt, cfg.segment_length, cfg.overlap)
    noise = np.empty((cfg.ensemble, _CHUNK, n2))
    # All members advance in lockstep (state rows), but every member's
    # noise stream comes from its own (seed, member) generator, so results
    # are identical to integrating the members one at a time.
    rngs = [np.random.default_rng([cfg.seed, member]) for member in range(cfg.ensemble)]
    z = np.zeros((cfg.ensemble, n2), dtype=complex)
    # Reused by every full chunk; a shorter last chunk takes fresh buffers.
    work = _workspace(cfg.ensemble, _CHUNK // _BLOCK, block_maps)
    done = 0
    while done < total_steps:
        chunk = min(_CHUNK, total_steps - done)
        for member, rng in enumerate(rngs):
            rng.standard_normal(out=noise[member, :chunk])
        full = chunk - chunk % _BLOCK
        z, ports = _advance(
            z, noise[:, :full].reshape(cfg.ensemble, full // _BLOCK, _BLOCK * n2), block_maps,
            work if chunk == _CHUNK else None,
        )
        if full < chunk:  # the run ends in a partial block
            z, tail = _advance(z, noise[:, full:chunk].reshape(cfg.ensemble, 1, -1), maps(chunk - full))
            ports = np.concatenate([ports, tail], axis=1)
        scale = np.max(np.abs(z)) + 1e-300
        deviation = float(np.max(np.abs(z[:, 1::2] - np.conj(z[:, 0::2]))) / scale)
        if deviation > _CONJUGATE_TOLERANCE:
            raise IntegrationQualityError(
                f"conjugate-pair structure drifted to {deviation:.3e}"
            )
        if not np.all(np.isfinite(z.view(float))):
            raise IntegrationQualityError("trajectory diverged (non-finite state)")
        first = min(max(burn_in - done, 0), chunk)  # burn-in steps in this chunk
        welch.add(ports[:, first:])
        done += chunk

    return OracleRun(*welch.result(), config=cfg)  # omega, psd, stderr, n_segments


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
