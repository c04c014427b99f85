"""
Physical parameter types, drift matrices (one, or stacked over a sweep), steady states, stability.

Stability is read from the drift's quadrature form, a real matrix similar
to the doubled-basis one, with a real (not complex) eigenvalue solve.

All internal rates, detunings, and frequencies are expressed in units of
the shared low-mode frequency (set to 1); absolute frequencies are kept
separately and used only for thermal occupations. Mode ordering always
alternates high-frequency (driven, detuned) and low-frequency modes,
starting with a high mode: (a, b) for the two-mode unit, (m, b, c) for
the three-mode system, and (high, low, high, ...) for longer chains.
"""

from __future__ import annotations

import cmath
import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import numerics

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "Topology",
    "ModeParams",
    "CouplingParams",
    "BareDriveParams",
    "SystemModel",
    "SteadyState",
    "StabilityVerdict",
    "InstabilityError",
    "ConfigError",
    "build_drift_matrix",
    "coupled_modes",
    "check_index",
    "check_range",
    "input_coupling_matrix",
    "quadrature_form",
    "solve_steady_state",
    "check_stability",
    "require_stable",
    "numerical_abscissa",
]

STABILITY_MARGIN = 1e-12


class Topology(enum.Enum):
    DU = "du"
    THREE_MODE = "three"
    CHAIN = "chain"


class InstabilityError(Exception):
    """Raised when an operation requires a stable drift matrix but gets none."""

    def __init__(self, spectral_abscissa: float):
        self.spectral_abscissa = spectral_abscissa
        super().__init__(
            f"drift matrix is not stable (spectral abscissa {spectral_abscissa:.3e})"
        )


class ConfigError(ValueError):
    """Raised by every input check of the library: a parameter, index or range it cannot use."""


def check_index(name: str, index: int, count: int, what: str) -> None:
    """ConfigError unless 0 <= index < count, for `name` indexing one of `count` `what`."""
    if not 0 <= index < count:
        raise ConfigError(f"{name} {index} is out of range: the system has {count} {what}")


def check_range(name: str, lo: float, hi: float, points: int) -> NDArray[np.float64]:
    """The grid np.linspace(lo, hi, points); ConfigError unless lo < hi, the span hi - lo
    fits a float, and the grid strictly increases (no value repeats at float spacing)."""
    if not (lo < hi and float(hi) - float(lo) < float("inf")):
        raise ConfigError(f"{name} must be increasing with a finite span, got ({lo}, {hi})")
    grid = np.linspace(lo, hi, points)
    if not np.all(np.diff(grid) > 0.0):
        raise ConfigError(f"{name} ({lo}, {hi}) is too narrow for {points} distinct float points")
    return grid


@dataclass(frozen=True)
class ModeParams:
    """
    One bosonic mode.

    For high-frequency (driven) modes `detuning` is the drive detuning; for
    low-frequency modes it stores the mode frequency itself, 1 in internal units
    (SystemModel enforces it). `absolute_frequency` (rad/s): thermal occupation only.
    """

    label: str
    absolute_frequency: float
    kappa: float
    detuning: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ConfigError(f"mode {self.label!r}: kappa must be positive")
        if not self.absolute_frequency > 0:
            raise ConfigError(f"mode {self.label!r}: absolute_frequency must be positive")


@dataclass(frozen=True)
class CouplingParams:
    """Linearized coupling G = |G| e^{i theta} between an adjacent mode pair."""

    magnitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not self.magnitude >= 0:
            raise ConfigError("coupling magnitude must be non-negative")

    @property
    def value(self) -> complex:
        return self.magnitude * cmath.exp(1j * self.phase)


@dataclass(frozen=True)
class BareDriveParams:
    """Bare (pre-linearization) coupling and drive of a two-mode unit (rad/s)."""

    bare_coupling: float
    drive_amplitude: float
    drive_frequency: float

    def __post_init__(self):
        if not self.drive_amplitude >= 0:
            raise ConfigError("drive_amplitude must be non-negative")


_MODE_COUNTS = {Topology.DU: 2, Topology.THREE_MODE: 3}


@dataclass(frozen=True)
class SystemModel:
    """A parametrized two-mode, three-mode, or chained dispersive system."""

    topology: Topology
    modes: tuple[ModeParams, ...]
    couplings: tuple[CouplingParams, ...]
    temperature: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        n = len(self.modes)
        expected = _MODE_COUNTS.get(self.topology)
        if expected is not None and n != expected:
            raise ConfigError(
                f"{self.topology.value} topology requires {expected} modes, got {n}"
            )
        if self.topology is Topology.CHAIN and n < 2:
            raise ConfigError("chain topology requires at least 2 modes")
        if len({mode.label for mode in self.modes}) != n:
            raise ConfigError("mode labels must be unique: they name the output columns")
        for i in range(1, n, 2):
            if self.modes[i].detuning != 1.0:
                raise ConfigError(f"modes.{i}.detuning: a low mode's detuning is its frequency,"
                                  f" which is 1 in low-mode units (got {self.modes[i].detuning})")
        if len(self.couplings) != n - 1:
            raise ConfigError(
                f"expected {n - 1} couplings for {n} modes, got {len(self.couplings)}"
            )
        if not self.temperature >= 0:
            raise ConfigError("temperature must be non-negative")

    @property
    def n_modes(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class SteadyState:
    """Mean fields and effective detuning of a driven two-mode unit."""

    a_mean: complex
    b_mean: complex
    effective_detuning: float
    branch_count: int
    branch_index: int
    intensities: tuple[float, ...] = field(default=())


@dataclass(frozen=True)
class StabilityVerdict:
    """Per drift matrix: for a stack (..., 2n, 2n), arrays over its leading axes."""

    stable: np.bool_ | NDArray[np.bool_]
    spectral_abscissa: np.float64 | NDArray[np.float64]
    eigenvalues: NDArray[np.complex128]


#: x @ _QUADRATURE_BLOCK maps a 2x2 block B of M to R's block t^H B t / 2, t = [[1, i], [1, -i]],
#: each given as the (real, imaginary) parts of its entries in row-major order.
_QUADRATURE_BLOCK = (np.array([[1, 1], [-1j, 1j]]) @ np.eye(8).view(complex).reshape(8, 2, 2)
                     @ np.array([[1, 1j], [1, -1j]]) / 2.0).reshape(8, 4).view(float)


def build_drift_matrix(
    model: SystemModel, detunings=None, couplings=None
) -> NDArray[np.complex128]:
    """
    Drift matrix of the linearized Langevin system in the doubled basis
    (delta_1, delta_1^dag, delta_2, delta_2^dag, ...).

    High modes contribute -(i Delta + kappa/2) on their diagonal; each
    high-low coupling G adds the beam-splitter and parametric terms to both
    partners. Creation-channel rows follow from the conjugation symmetry
    P M* P = M: M[2i+1, 2j+b] = M[2i, 2j+1-b]*. Per-point high-mode (even-index)
    `detunings` (..., (n_modes + 1) // 2) or coupling values G (..., n_modes - 1),
    of one leading shape if both are given, replace the model's and give one M per
    point; a low mode's detuning stays its frequency, 1.
    """
    n = model.n_modes
    if detunings is None:
        detunings = [mode.detuning for mode in model.modes[::2]]
    if couplings is None:
        couplings = [coupling.value for coupling in model.couplings]
    if np.shape(detunings)[-1:] != ((n + 1) // 2,):
        raise ValueError(f"per-point detunings need one column per high mode, {(n + 1) // 2},"
                         f" got shape {np.shape(detunings)}")
    g = np.asarray(couplings, dtype=complex)
    half_kappas = np.array([mode.kappa / 2.0 for mode in model.modes])
    deltas = np.ones((*np.shape(detunings)[:-1], n))
    deltas[..., ::2] = detunings
    diagonal = -(1j * deltas + half_kappas)
    # + 0.0 turns -0.0 parts into 0.0, as adding the terms to a zero matrix does.
    entries = -1j * np.concatenate([g, g, g, np.conj(g)], axis=-1) + 0.0
    shape = diagonal.shape[:-1] or entries.shape[:-1]
    m = np.zeros((*shape, n, 2, n, 2), dtype=complex)
    diagonal_at, entries_at = _drift_layout(n)
    flat = m.reshape(*shape, -1)
    flat[..., diagonal_at] = diagonal
    flat[..., entries_at] = entries
    np.conjugate(m[..., 0, :, ::-1], out=m[..., 1, :, :])
    return m.reshape(*shape, 2 * n, 2 * n)


@functools.cache
def _drift_layout(n_modes: int) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """Flat diagonal indices, and each coupling's (h, l), (h, l^dag), (l, h^dag), (l, h) indices."""
    size = 2 * n_modes
    hi, lo = 2 * np.array([coupled_modes(i) for i in range(n_modes - 1)]).T
    rows, cols = np.concatenate([hi, hi, lo, lo]), np.concatenate([lo, lo + 1, hi + 1, hi])
    return np.arange(0, size, 2) * (size + 1), rows * size + cols


def coupled_modes(index: int) -> tuple[int, int]:
    """(high, low) indices of the modes that coupling `index` joins."""
    return (index, index + 1) if index % 2 == 0 else (index + 1, index)


def input_coupling_matrix(model: SystemModel) -> NDArray[np.float64]:
    """Diagonal input-coupling matrix L = diag(sqrt(kappa)) per doubled channel."""
    rates = np.repeat([mode.kappa for mode in model.modes], 2)
    return np.diag(np.sqrt(rates))


def _cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Sorted real roots of c3 x^3 + c2 x^2 + c1 x + c0 (np.roots, then a Newton polish)."""
    if c3 != 0.0:
        d0 = c2 * c2 - 3.0 * c3 * c1
        d1 = 2.0 * c2**3 - 9.0 * c3 * c2 * c1 + 27.0 * c3 * c3 * c0
        # A triple root, which np.roots splits into a real root and a complex pair.
        if d1 == 0.0 and d1 * d1 - 4.0 * d0**3 == 0.0:
            return [float(-c2 / (3.0 * c3))]
    roots = np.roots([c3, c2, c1, c0])
    mag = np.max(np.abs(roots), initial=0.0) + 1e-300
    real_roots = []
    for x in roots[np.abs(roots.imag) <= 1e-7 * mag].real.tolist():
        # Newton polish to push the eigenvalue-based root to full precision.
        for _ in range(50):
            f = ((c3 * x + c2) * x + c1) * x + c0
            df = (3.0 * c3 * x + 2.0 * c2) * x + c1
            if df == 0.0:
                break
            step = f / df
            x -= step
            if abs(step) <= 1e-16 * max(abs(x), 1.0):
                break
        real_roots.append(x)
    deduped: list[float] = []
    for x in sorted(real_roots):
        if not deduped or abs(x - deduped[-1]) > 1e-8 * max(abs(x), 1.0):
            deduped.append(x)
    return deduped


def solve_steady_state(
    bare: BareDriveParams,
    modes: tuple[ModeParams, ModeParams],
    branch_index: int | None = None,
) -> SteadyState:
    """
    Self-consistent mean fields of a driven two-mode unit.

    Solves <a> = eps / (i Dtilde + kappa_a/2), <b> = -i g |<a>|^2 / (i w_b +
    kappa_b/2) with Dtilde = Delta_0 + g(<b> + <b>*), reduced to a closed-form
    cubic in |<a>|^2. Works in units of the low mode's absolute frequency.
    The default branch is the lowest-intensity one (continuously connected to
    zero drive); `branch_index` overrides.
    """
    high, low = modes
    w_b = low.absolute_frequency
    kappa_a = high.kappa
    kappa_b = low.kappa
    g = bare.bare_coupling / w_b
    eps = bare.drive_amplitude / w_b
    delta0 = (high.absolute_frequency - bare.drive_frequency) / w_b
    if eps == 0.0:
        return SteadyState(
            a_mean=0.0 + 0.0j,
            b_mean=0.0 + 0.0j,
            effective_detuning=delta0,
            branch_count=1,
            branch_index=0,
            intensities=(0.0,),
        )
    # Low-mode back-action shifts the detuning linearly in I = |<a>|^2.
    beta = 2.0 * g * g / (1.0 + kappa_b**2 / 4.0)
    c3 = beta * beta
    c2 = -2.0 * delta0 * beta
    c1 = delta0 * delta0 + kappa_a * kappa_a / 4.0
    c0 = -eps * eps
    roots = _cubic_roots(c3, c2, c1, c0)
    intensities = tuple(r for r in roots if r > 0.0)
    if not intensities:
        raise numerics.NumericalError("steady-state cubic produced no positive-intensity branch")
    index = 0 if branch_index is None else branch_index
    if not 0 <= index < len(intensities):
        raise ConfigError(
            f"branch_index {index} out of range for {len(intensities)} branches"
        )
    intensity = intensities[index]
    delta_eff = delta0 - beta * intensity
    a_mean = eps / (1j * delta_eff + kappa_a / 2.0)
    b_mean = -1j * g * intensity / (1j + kappa_b / 2.0)
    return SteadyState(
        a_mean=a_mean,
        b_mean=b_mean,
        effective_detuning=float(delta_eff),
        branch_count=len(intensities),
        branch_index=index,
        intensities=intensities,
    )


def quadrature_form(m) -> NDArray[np.float64]:
    """
    The real quadrature form R = T^-1 M T of a drift matrix, or of a stack,
    T = blockdiag([[1, i], [1, -i]] / sqrt 2), i.e. a_i = (x_i + i p_i) / sqrt 2.
    An R with an imaginary part above 1e-12 max(|M|_1, 1) means M is not a
    doubled-basis drift: ValueError. An R entry that is not finite, such as
    one that overflows from an M entry near the float limit: NumericalError.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.shape[-1] % 2:
        raise ValueError(f"expected a doubled-basis (2n, 2n) matrix or a stack, got {m.shape}")
    stack, n = m.shape[:-2], m.shape[-1] // 2
    x = m.view(float).reshape(*stack, n, 2, n, 4).swapaxes(-3, -2).reshape(*stack, n, n, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        r = (x @ _QUADRATURE_BLOCK).reshape(*stack, n, n, 2, 2, 2)
    if not np.isfinite(r).all():
        raise numerics.NumericalError("quadrature form has non-finite entries (a drift entry"
                                      " is not finite or overflows near the float limit)")
    imag = np.abs(r[..., 1]).max(axis=(-4, -3, -2, -1))
    if (imag > 1e-12).any():  # no bound is below 1e-12, so the norms are needed only here
        if (imag > 1e-12 * np.maximum(np.linalg.norm(m, 1, axis=(-2, -1)), 1.0)).any():
            raise ValueError("matrix is not a doubled-basis drift: its quadrature form is not real")
    return r[..., 0].swapaxes(-3, -2).reshape(m.shape)


def check_stability(m) -> StabilityVerdict:
    """
    Stability verdict of a drift matrix, or of each matrix of a stack: its
    eigenvalues (..., 2n), from the real quadrature_form, and stable iff every
    Re(lambda) < -STABILITY_MARGIN.
    """
    eigs = numerics.eigenvalues(quadrature_form(m)).astype(complex)
    abscissa = eigs.real.max(axis=-1)
    return StabilityVerdict(
        stable=abscissa < -STABILITY_MARGIN,
        spectral_abscissa=abscissa,
        eigenvalues=eigs,
    )


def require_stable(m) -> StabilityVerdict:
    """check_stability of one drift matrix that raises InstabilityError if it is unstable."""
    verdict = check_stability(m)
    if not verdict.stable:
        raise InstabilityError(verdict.spectral_abscissa)
    return verdict


def numerical_abscissa(m) -> float:
    """lambda_max of the symmetric part of R = quadrature_form(m) (one eigvalsh) + 4 n^2 eps
    max|R_ij|: a rounding-safe bound on the spectral abscissa of a drift and its leading blocks."""
    r = quadrature_form(m)
    slack = r.size * np.finfo(float).eps * np.abs(r).max()
    return float(np.linalg.eigvalsh(r / 2.0 + r.T / 2.0)[-1] + slack)
