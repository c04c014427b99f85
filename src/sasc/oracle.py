"""
Independent time-domain validation path.

Integrates the linearized Langevin system dz = M z dt + L dW with
synthesized Gaussian noise and estimates the output power spectrum of one
port via Welch averaging, for cross-checking the frequency-domain
pipeline. The state is real: the quadratures (x, p) of every mode, a =
(x + i p) / sqrt 2, under M's real quadrature form R. The Welch estimate is
accumulated chunk by chunk as the port is recorded, so no output record is
kept: memory is O(ensemble x (chunk x 2N + segment_length)), whatever
n_steps and overlap. The noise is a classical circular surrogate whose
symmetrized second moments match the quantum input correlators; this is
exact for every quantity computed here (all are symmetrized second
moments of a linear system) but is not a full quantum simulation.

The integrator is the drift-implicit Euler-Maruyama step
z_{k+1} = A z_k + B xi_k with A = (I - dt R)^{-1} and B = A L dt; the
explicit variant is unstable over the long horizons required by the
narrow low-mode linewidths used throughout. The same discrete map is
advanced _BLOCK steps per block,

    z_{k+j} = A^j z_k + sum_{i<j} A^{j-1-i} B xi_{k+i},

so a chunk of steps costs one matrix product for every block's noise
response, one small product per block to carry the state, and one more
for the carried states' share of the recorded port. The products write
into buffers that simulate allocates once per run and every chunk reuses;
the carried states are stored time-major, (blocks + 1, ensemble, 2N), so
each carry writes one contiguous row in place. Every chunk is a whole
_CHUNK steps: those past burn_in + n_steps are drawn and advanced but
never recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics
from .model import (
    ConfigError, SystemModel, build_drift_matrix, check_index, input_coupling_matrix,
    quadrature_form, require_stable,
)
from .numerics import NumericalError, WelchEstimate
from .spectra import occupations

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "OracleConfig",
    "ComparisonReport",
    "simulate",
    "compare",
]

_CHUNK = 512
#: Steps per block of the stepping recurrence; a chunk makes _CHUNK / _BLOCK state carries.
_BLOCK = 16


@dataclass(frozen=True)
class OracleConfig:
    """Time-domain run configuration; the seed is mandatory for reproducibility."""

    model: SystemModel
    seed: int
    dt: float = 0.002
    n_steps: int = 131072
    ensemble: int = 64
    port: int = 0
    segment_length: int = 4096
    overlap: float = 0.5
    burn_in: int | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.ensemble < 1:
            raise ConfigError("ensemble must be at least 1")
        if self.segment_length < 2:
            raise ConfigError("segment_length must be at least 2")
        if not 0.0 <= self.overlap < 1.0:
            raise ConfigError("overlap must be in [0, 1)")
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigError("burn_in must not be negative")
        if self.n_steps < self.segment_length:
            raise ConfigError("n_steps must cover at least one Welch segment")
        check_index("port", self.port, self.model.n_modes, "modes")

    @property
    def effective_burn_in(self) -> int:
        return self.segment_length if self.burn_in is None else self.burn_in


def _block_maps(
    step_matrix: NDArray[np.float64],
    noise_map: NDArray[np.float64],
    port_noise: float,
    gain: float,
    port_row: int,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """
    Linear maps of _BLOCK steps z <- A z + W d of the quadratures, for real draws d.

    Returns (table, homogeneous, power). `table` takes a block's draws
    d_0..d_{_BLOCK-1}, flattened, to the draws' share of its _BLOCK recorded
    outputs gain * z[port] - port_noise * d[port], port = (x, p) rows
    port_row and port_row + 1, each an interleaved (re, im) pair of
    columns, followed by its end state. `homogeneous` (n2, 2 _BLOCK) and
    `power` = (A^_BLOCK)^T take the row state at the block start to the
    rest of the outputs and the end state.
    """
    n2 = len(step_matrix)
    port = slice(port_row, port_row + 2)
    powers = [np.eye(n2)]
    for _ in range(_BLOCK):
        powers.append(step_matrix @ powers[-1])
    powers = np.array(powers)
    response = powers[:_BLOCK] @ noise_map  # A^m W, m = 0 .. _BLOCK-1
    table = np.zeros((_BLOCK, n2, 2 * _BLOCK + n2))
    outputs = table[..., : 2 * _BLOCK].reshape(_BLOCK, n2, _BLOCK, 2)
    for i in range(_BLOCK):
        # Step i's draws reach output j >= i through A^{j-i} W and the end state
        # through A^{_BLOCK-1-i} W.
        outputs[i, :, i:] = gain * response[: _BLOCK - i, port].transpose(2, 0, 1)
        outputs[i, port, i] -= port_noise * np.eye(2)
        table[i, :, 2 * _BLOCK :] = response[_BLOCK - 1 - i].T
    homogeneous = gain * powers[1:, port].transpose(2, 0, 1).reshape(n2, 2 * _BLOCK)
    return table.reshape(_BLOCK * n2, -1), homogeneous, powers[_BLOCK].T


def _advance(z, draws, maps, work):
    """
    Advance row states z (ensemble, n2) through draws (ensemble, n_blocks,
    _BLOCK * n2); return the end states and the recorded outputs as complex
    (ensemble, n_blocks * _BLOCK) in step order. Both are views into the
    buffers `work` = (product, carried, ports), which the next call overwrites.
    """
    table, homogeneous, power = maps
    ensemble, n_blocks, _ = draws.shape
    product, carried, ports = work
    np.matmul(draws.reshape(-1, table.shape[0]), table, out=product)
    particular = product.reshape(ensemble, n_blocks, -1)
    carried[0] = z  # carried[b] is the state at the start of block b
    for b in range(n_blocks):
        np.matmul(carried[b], power, out=carried[b + 1])
        carried[b + 1] += particular[:, b, 2 * _BLOCK :]
    np.matmul(carried[:-1].transpose(1, 0, 2), homogeneous, out=ports)
    ports += particular[..., : 2 * _BLOCK]
    return carried[-1], ports.reshape(ensemble, -1).view(complex)


def simulate(cfg: OracleConfig) -> WelchEstimate:
    """
    Integrate the Langevin system for the whole ensemble and Welch-estimate
    the output PSD of the configured port, each chunk's recorded outputs
    after the burn-in going straight into the estimate.

    Every ensemble member draws its noise from a seed derived as
    (seed, member_index), so results are independent of evaluation order.
    A non-finite state aborts the run.
    """
    model = cfg.model
    drift = build_drift_matrix(model)
    verdict = require_stable(drift)
    max_rate = max(max(abs(ev) for ev in verdict.eigenvalues), 1.0)
    if cfg.dt > 0.01 / max_rate:
        raise NumericalError(
            f"dt={cfg.dt} too large for spectral radius {max_rate:.3g}"
            f" (needs dt <= {0.01 / max_rate:.3g})"
        )
    n2 = 2 * model.n_modes
    # Drift-implicit step of the quadratures, z <- A z + A L dt xi; L is the
    # same on x and p, so it is unchanged by the quadrature transform.
    step_matrix = numerics.invert(np.eye(n2) - cfg.dt * quadrature_form(drift)).real
    # Each step draws (x, p) per mode, d[2m] and d[2m + 1]. Circular noise of
    # two-sided input PSD n + 1/2 per mode is xi = sqrt((n + 1/2) / dt) d on
    # both quadratures; the port records a = (x + i p) / sqrt 2 and its noise.
    noise = np.repeat(np.sqrt((occupations(model) + 0.5) / cfg.dt), 2)
    noise_map = step_matrix @ input_coupling_matrix(model) * (cfg.dt * noise)
    port_row = 2 * cfg.port
    gain = float(np.sqrt(model.modes[cfg.port].kappa / 2.0))
    maps = _block_maps(step_matrix, noise_map, noise[port_row] / np.sqrt(2.0), gain, port_row)

    burn_in = cfg.effective_burn_in
    total_steps = burn_in + cfg.n_steps
    welch = numerics.WelchAccumulator(cfg.dt, cfg.segment_length, cfg.overlap)
    draws = np.empty((cfg.ensemble, _CHUNK, n2))
    # All members advance in lockstep (state rows), but every member's
    # noise stream comes from its own (seed, member) generator, so results
    # are identical to integrating the members one at a time.
    rngs = [np.random.default_rng([cfg.seed, member]) for member in range(cfg.ensemble)]
    z = np.zeros((cfg.ensemble, n2))
    # _advance's buffers, reused by every chunk: (product, carried, ports).
    n_blocks = _CHUNK // _BLOCK
    work = (np.empty((cfg.ensemble * n_blocks, maps[0].shape[1])),
            np.empty((n_blocks + 1, cfg.ensemble, n2)),
            np.empty((cfg.ensemble, n_blocks, 2 * _BLOCK)))
    for done in range(0, total_steps, _CHUNK):
        for member, rng in enumerate(rngs):
            rng.standard_normal(out=draws[member])
        z, ports = _advance(z, draws.reshape(cfg.ensemble, n_blocks, -1), maps, work)
        if not np.all(np.isfinite(z)):
            raise NumericalError("trajectory diverged (non-finite state)")
        # Neither burn-in steps nor the steps past total_steps are recorded.
        welch.add(ports[:, max(burn_in - done, 0):total_steps - done])

    return welch.result()


@dataclass(frozen=True)
class ComparisonReport:
    """Per-bin z-score summary of predicted versus simulated spectra."""

    fraction_within: float
    n_bins: int
    max_abs_z: float


def compare(run: WelchEstimate, predicted) -> ComparisonReport:
    """
    Report the fraction of Welch bins whose |z| = |predicted - estimated| / SE
    is at most 3, `predicted` holding one value per bin of run.omega. Bins
    with zero standard error count as matching only on exact equality.
    """
    predicted = np.asarray(predicted, dtype=float)
    if predicted.shape != run.psd.shape:
        raise ValueError(
            f"predicted spectrum has shape {predicted.shape}; the Welch bins have {run.psd.shape}"
        )
    diff = predicted - run.psd
    stderr = run.stderr
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(stderr > 0, diff / np.where(stderr > 0, stderr, 1.0),
                     np.where(diff == 0.0, 0.0, np.inf))
    fraction = float(np.mean(np.abs(z) <= 3.0))
    return ComparisonReport(
        fraction_within=fraction,
        n_bins=len(z),
        max_abs_z=float(np.max(np.abs(z))),
    )
