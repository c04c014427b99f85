"""
Independent time-domain validation path.

Integrates the linearized Langevin system dz = M z dt + L dW with
synthesized Gaussian noise and estimates the output power spectrum of one
port via Welch averaging, for cross-checking the frequency-domain
pipeline. The state is real: the quadratures (x, p) of every mode, a =
(x + i p) / sqrt 2, under M's real quadrature form R. The ensemble runs in
groups of members, one group after another through the whole run, each
with its own generators, buffers and Welch accumulator, which is merged
into the estimate when the group ends. A group's estimate is accumulated
chunk by chunk as the port is recorded, so no output record is kept:
memory is O(group x (chunk x 2N + segment_length)), group = 2^16 /
segment_length members, whatever the ensemble, n_steps and overlap. The
noise is a classical circular surrogate whose symmetrized second moments
match the quantum input correlators; this is exact for every quantity
computed here (all are symmetrized second moments of a linear system) but
is not a full quantum simulation.

The integrator is the drift-implicit Euler-Maruyama step
z_{k+1} = A z_k + B xi_k with A = (I - dt R)^{-1} and B = A L dt; the
explicit variant is unstable over the long horizons required by the
narrow low-mode linewidths used throughout. The block maps are that step
run _BLOCK times on every input of a block at once, its start state and
each step's draws, so a chunk of steps costs one matrix product for
every block's noise response, a doubling scan that carries the state
across the blocks in log2(blocks + 1) products by P = A^_BLOCK, P^2,
P^4, ..., and one more product for the carried states' share of the
recorded port. The products write into buffers that each group allocates
once and every chunk reuses; the carried states are stored time-major,
(blocks + 1, group, 2N). Every chunk is a whole _CHUNK steps: those past
burn_in + n_steps are drawn and advanced but never recorded.
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
#: Welch ring entries of one member group (1 MB), or one member if a segment is longer.
_GROUP_ENTRIES = 1 << 16
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
        if not self.dt > 0:
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
    model: SystemModel, drift: NDArray[np.complex128], dt: float, port: int
) -> tuple[NDArray[np.float64], NDArray[np.float64], list[NDArray[np.float64]]]:
    """
    Linear maps of _BLOCK steps z <- A z + W d of the quadratures, for real draws d.

    Runs the step on every input of a block at once, as row states: the
    block-start state (n2 rows), then each step's draws d_0..d_{_BLOCK-1}
    (n2 rows per step). Returns (table, homogeneous, doublings). `table`
    takes the draws, flattened, to their share of the block's _BLOCK
    recorded outputs gain * z[port] - port_noise * d[port], the port's (x,
    p) rows each an interleaved (re, im) pair of columns, followed by its
    end state. `homogeneous` (n2, 2 _BLOCK) takes the block-start state to
    the rest of the outputs and `doublings` holds its end state P =
    (A^_BLOCK)^T, then P^2, P^4, ... up to the span that reaches across a
    chunk's carries.
    """
    n2 = 2 * model.n_modes
    # Drift-implicit step of the quadratures, W = A L dt xi; L is the same on x
    # and p, so the quadrature transform leaves it as is.
    step = numerics.invert(np.eye(n2) - dt * quadrature_form(drift)).real
    # Each step draws (x, p) per mode, d[2m] and d[2m + 1]. Circular noise of
    # two-sided input PSD n + 1/2 per mode is xi = sqrt((n + 1/2) / dt) d on
    # both quadratures; the port records a = (x + i p) / sqrt 2 and its noise.
    noise = np.repeat(np.sqrt((occupations(model) + 0.5) / dt), 2)
    noise_map = step @ input_coupling_matrix(model) * (dt * noise)
    gain, port_noise = np.sqrt(model.modes[port].kappa / 2.0), noise[2 * port] / np.sqrt(2.0)
    port_rows = slice(2 * port, 2 * port + 2)
    z = np.eye(n2 * (_BLOCK + 1), n2)
    outputs = []
    for i in range(_BLOCK):
        # Rows past step i's draws are not reached yet and stay zero.
        reached = n2 * (i + 1)
        z[:reached] = z[:reached] @ step.T
        z[reached : reached + n2] = noise_map.T
        outputs.append(gain * z[:, port_rows])
        # The port's output less its own input, sqrt(kappa) a - a_in.
        outputs[-1][reached:][port_rows] -= port_noise * np.eye(2)
    outputs = np.hstack(outputs)
    doublings = [z[:n2]]
    for _ in range(1, (_CHUNK // _BLOCK).bit_length()):
        doublings.append(doublings[-1] @ doublings[-1])
    return np.hstack([outputs[n2:], z[n2:]]), outputs[:n2], doublings


def _advance(z, draws, maps, work):
    """
    Advance row states z (group, n2) through draws (group, n_blocks,
    _BLOCK * n2); return the end states and the recorded outputs as complex
    (group, n_blocks * _BLOCK) in step order. Both are views into the
    buffers `work` = (product, carried, ports), which the next call overwrites.
    """
    table, homogeneous, doublings = maps
    group, n_blocks, _ = draws.shape
    product, carried, ports = work
    np.matmul(draws.reshape(-1, table.shape[0]), table, out=product)
    particular = product.reshape(group, n_blocks, -1)
    # carried[b] becomes the state at the start of block b, carried[b + 1] =
    # carried[b] P + (block b's end-state share), by a doubling scan: after
    # the pass with P^span, carried[b] sums the last 2 span terms of its recurrence.
    carried[0] = z
    carried[1:] = particular[..., 2 * _BLOCK :].transpose(1, 0, 2)
    for k, power in enumerate(doublings):
        span = 1 << k
        carried[span:] += carried[:-span] @ power
    np.matmul(carried[:-1].transpose(1, 0, 2), homogeneous, out=ports)
    ports += particular[..., : 2 * _BLOCK]
    return carried[-1], ports.reshape(group, -1).view(complex)


def _simulate_group(cfg: OracleConfig, members: range, maps) -> numerics.WelchAccumulator:
    """
    Integrate ensemble members `members` together, each from its own (seed,
    member) generator, through the whole run; return their Welch accumulator.
    """
    n2 = 2 * cfg.model.n_modes
    burn_in = cfg.effective_burn_in
    total_steps = burn_in + cfg.n_steps
    welch = numerics.WelchAccumulator(cfg.dt, cfg.segment_length, cfg.overlap)
    rngs = [np.random.default_rng([cfg.seed, member]) for member in members]
    group, n_blocks = len(rngs), _CHUNK // _BLOCK
    draws = np.empty((group, _CHUNK, n2))
    z = np.zeros((group, n2))
    # _advance's buffers, reused by every chunk: (product, carried, ports).
    work = (np.empty((group * n_blocks, maps[0].shape[1])),
            np.empty((n_blocks + 1, group, n2)),
            np.empty((group, n_blocks, 2 * _BLOCK)))
    for done in range(0, total_steps, _CHUNK):
        for member, rng in enumerate(rngs):
            rng.standard_normal(out=draws[member])
        z, ports = _advance(z, draws.reshape(group, n_blocks, -1), maps, work)
        if not np.all(np.isfinite(z)):
            raise NumericalError("trajectory diverged (non-finite state)")
        # Neither burn-in steps nor the steps past total_steps are recorded.
        welch.add(ports[:, max(burn_in - done, 0):total_steps - done])
    return welch


def simulate(cfg: OracleConfig) -> WelchEstimate:
    """
    Integrate the Langevin system for the whole ensemble and Welch-estimate
    the output PSD of the configured port, each chunk's recorded outputs
    after the burn-in going straight into its member group's estimate.

    Every ensemble member draws its noise from a seed derived as
    (seed, member_index), so its outputs are those of integrating it alone;
    the grouping changes only the summation order of the Welch statistics.
    A non-finite state or Welch estimate aborts the run.
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
    maps = _block_maps(model, drift, cfg.dt, cfg.port)
    # Groups of 16 members at segment 4096, each windowed and transformed as one
    # batch, so the working set sits near L2 and is the same for any ensemble.
    group = max(1, _GROUP_ENTRIES // cfg.segment_length)
    welch = numerics.WelchAccumulator(cfg.dt, cfg.segment_length, cfg.overlap)
    # An overflow shows as a non-finite state or estimate, each checked, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, cfg.ensemble, group):
            members = range(first, min(first + group, cfg.ensemble))
            welch.merge(_simulate_group(cfg, members, maps))
        estimate = welch.result()
    if not (np.all(np.isfinite(estimate.psd)) and np.all(np.isfinite(estimate.stderr))):
        raise NumericalError("Welch estimate is not finite: the PSD or its standard error"
                             " overflowed")
    return estimate


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
