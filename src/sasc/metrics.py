"""
Figures of merit and deterministic searches: SNR maximization over
frequency, scheme-comparison factor f, detuning maps, phase searches for
target asymmetry, and the phase-independence check of the two asymmetry
factors. All optimizers are deterministic (fixed grids plus golden-section
refinement); no stochastic search.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .model import SystemModel, build_drift_matrix, check_stability, require_stable
from .spectra import (
    SnrSolver,
    UndefinedAsymmetryError,
    asymmetry_pair,
    pair_asymmetry,
    phase_grid,
)

__all__ = [
    "ComparisonConfig",
    "MapResult",
    "PhaseSearchResult",
    "IndependenceReport",
    "RESONANCE_EXCLUSION_WIDTH",
    "golden_section_max",
    "max_snr_over_omega",
    "f_factor",
    "f_map",
    "find_phase_for_target_R",
    "independence_check",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(fun, lo: float, hi: float, rel_tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    span = max(abs(a), abs(b), 1.0)
    while (b - a) > rel_tol * span:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fun(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


#: Default half-width of the excluded bands around the low-mode resonances
#: (ten low-mode linewidths for the reference kappa_b = 1e-4). Exactly at
#: omega = +/- omega_b the two low-mode quadrature responses cancel and the
#: SNR spectrum carries sub-linewidth artifact spikes next to an exact zero;
#: the search domain skips these degenerate bands. Pass 0 to search them.
RESONANCE_EXCLUSION_WIDTH = 1e-3


def max_snr_over_omega(
    model: SystemModel,
    omega_range: tuple[float, float] = (-3.0, 3.0),
    n_scan: int = 401,
    signal_port: int = 0,
    readout_port: int | None = None,
    psi: float = 0.0,
    exclude_resonance_width: float = RESONANCE_EXCLUSION_WIDTH,
    check: bool = True,
) -> tuple[float, float]:
    """
    (omega*, S*) maximizing the SNR spectrum: coarse scan (>= 401 points)
    followed by golden-section refinement on the best bracket.

    Frequencies within ``exclude_resonance_width`` of the low-mode
    resonances (omega = +/- 1 in low-mode units) are excluded from the
    search domain; see RESONANCE_EXCLUSION_WIDTH. With check=False the
    spectrum formula is evaluated without the stability gate.
    """
    if n_scan < 401:
        raise ValueError("n_scan must be at least 401")
    if not omega_range[0] < omega_range[1]:
        raise ValueError(f"omega_range must be increasing, got {tuple(omega_range)}")
    solver = SnrSolver(model, signal_port, readout_port, psi)
    if check:
        require_stable(solver.drift)
    width = float(exclude_resonance_width)

    def masked(omega: float) -> float:
        if min(abs(omega - 1.0), abs(omega + 1.0)) < width:
            return 0.0
        return float(solver.solve(np.array([omega]))[1][0])

    grid = np.linspace(omega_range[0], omega_range[1], n_scan)
    values = solver.solve(grid)[1]
    excluded = np.minimum(np.abs(grid - 1.0), np.abs(grid + 1.0)) < width
    values[excluded] = 0.0
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, n_scan - 1)]
    w_star, s_star = golden_section_max(masked, lo, hi)
    if values[best] > s_star:
        w_star, s_star = float(grid[best]), float(values[best])
    return float(w_star), float(s_star)


@dataclass(frozen=True)
class ComparisonConfig:
    """A tunable scheme model against a fixed baseline scheme model."""

    cs_model: SystemModel
    ics_model: SystemModel
    omega_range: tuple[float, float] = (-3.0, 3.0)
    signal_port: int = 0
    readout_port: int | None = None
    psi: float = 0.0


def _with_detunings(model: SystemModel, delta_m: float, delta_c: float) -> SystemModel:
    """Three-mode model with the two high-mode detunings replaced."""
    m, b, c = model.modes
    return dataclasses.replace(
        model,
        modes=(
            dataclasses.replace(m, detuning=delta_m),
            b,
            dataclasses.replace(c, detuning=delta_c),
        ),
    )


def _max_snr(cfg: ComparisonConfig, model: SystemModel, check: bool = True) -> float:
    """S* of one scheme over the comparison's frequency range, ports and phase."""
    return max_snr_over_omega(
        model, cfg.omega_range, signal_port=cfg.signal_port,
        readout_port=cfg.readout_port, psi=cfg.psi, check=check,
    )[1]


def _baseline_max(cfg: ComparisonConfig, ics_max: float | None = None) -> float:
    """The baseline scheme's maximal SNR (computed unless given), the denominator of f."""
    if ics_max is None:
        ics_max = _max_snr(cfg, cfg.ics_model)
    if ics_max <= 0.0:
        raise ValueError(
            f"baseline maximum SNR is {ics_max} over omega_range {tuple(cfg.omega_range)}:"
            " f is undefined"
        )
    return ics_max


def f_factor(
    cfg: ComparisonConfig,
    delta_c: float | None = None,
    delta_m: float | None = None,
    ics_max: float | None = None,
) -> float:
    """
    Ratio f = S*_tunable / S*_baseline of the maximal SNRs of the two schemes.

    Optional delta_c/delta_m override the tunable scheme's high-mode
    detunings; ics_max short-circuits recomputation of the fixed baseline.
    """
    cs_model = cfg.cs_model
    if delta_c is not None or delta_m is not None:
        dm = cs_model.modes[0].detuning if delta_m is None else delta_m
        dc = cs_model.modes[2].detuning if delta_c is None else delta_c
        cs_model = _with_detunings(cs_model, dm, dc)
    return _max_snr(cfg, cs_model) / _baseline_max(cfg, ics_max)


@dataclass
class MapResult:
    """f (or derived) values over a (delta_c, delta_m) grid, with provenance."""

    delta_c: NDArray[np.float64]
    delta_m: NDArray[np.float64]
    values: NDArray[np.float64]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.delta_c = np.asarray(self.delta_c, dtype=float)
        self.delta_m = np.asarray(self.delta_m, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.delta_c) <= 0) or np.any(np.diff(self.delta_m) <= 0):
            raise ValueError("map grids must be strictly increasing")
        if self.values.shape != (len(self.delta_m), len(self.delta_c)):
            raise ValueError("values shape must be (len(delta_m), len(delta_c))")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("map contains non-finite values")


def f_map(cfg: ComparisonConfig, delta_c_grid, delta_m_grid) -> MapResult:
    """
    f over a detuning grid; the baseline maximum is computed once.

    The frequency-domain formula is evaluated at every grid cell, including
    cells whose linearized drift matrix is unstable (there the value is the
    algebraic spectrum ratio, not a steady-state observable); those cells
    are listed as (delta_c, delta_m) pairs under metadata["unstable_cells"].
    """
    delta_c_grid = np.asarray(delta_c_grid, dtype=float)
    delta_m_grid = np.asarray(delta_m_grid, dtype=float)
    ics_max = _baseline_max(cfg)
    values = np.empty((len(delta_m_grid), len(delta_c_grid)))
    unstable: list[tuple[float, float]] = []
    for i, dm in enumerate(delta_m_grid):
        for j, dc in enumerate(delta_c_grid):
            cell = _with_detunings(cfg.cs_model, dm, dc)
            if not check_stability(build_drift_matrix(cell)).stable:
                unstable.append((float(dc), float(dm)))
            values[i, j] = _max_snr(cfg, cell, check=False) / ics_max
    return MapResult(
        delta_c=delta_c_grid,
        delta_m=delta_m_grid,
        values=values,
        metadata={"baseline_max_snr": ics_max, "unstable_cells": unstable},
    )


@dataclass(frozen=True)
class PhaseSearchResult:
    theta: float
    achieved: float
    residual: float
    target: float

    @property
    def hit_extreme(self) -> bool:
        """Whether an extreme target (|target| = 1) was actually attained."""
        return abs(abs(self.target) - 1.0) < 1e-12 and self.residual < 1e-3


def find_phase_for_target_R(
    model: SystemModel,
    target: float,
    which: str,
    omega: float,
    n_grid: int = 181,
) -> PhaseSearchResult:
    """
    Coupling phase theta* minimizing |R(theta) - target| for the selected
    asymmetry factor, via a theta grid plus golden-section refinement.
    Always returns the best value found with its residual; an extreme
    target only counts as attained when the residual is below 1e-3.
    """
    if not -1.0 <= target <= 1.0:
        raise ValueError("target asymmetry must lie in [-1, 1]")
    pair = asymmetry_pair(model, which)

    def asymmetries(thetas) -> NDArray[np.float64]:
        gammas = phase_grid(model, omega, {pair[2]: thetas})
        return np.concatenate([pair_asymmetry(g, pair) for g in gammas])

    thetas = np.linspace(0.0, 2.0 * np.pi, n_grid)
    scores = -np.abs(asymmetries(thetas) - target)
    best = int(np.argmax(scores))
    lo = thetas[max(best - 1, 0)]
    hi = thetas[min(best + 1, n_grid - 1)]
    theta_star, neg_res = golden_section_max(
        lambda theta: -abs(asymmetries([theta])[0] - target), lo, hi, rel_tol=1e-9
    )
    if scores[best] > neg_res:
        theta_star, neg_res = float(thetas[best]), float(scores[best])
    achieved = asymmetries([theta_star])[0]
    return PhaseSearchResult(
        theta=float(theta_star), achieved=float(achieved),
        residual=float(-neg_res), target=float(target),
    )


def _cell_asymmetries(gammas, pair: tuple) -> NDArray[np.float64]:
    """pair_asymmetry of each Gamma of a stack, NaN where it is 0/0."""
    try:
        return pair_asymmetry(gammas, pair)
    except UndefinedAsymmetryError:
        if len(gammas) == 1:
            return np.array([np.nan])
        return np.concatenate([_cell_asymmetries(g[None], pair) for g in gammas])


@dataclass(frozen=True)
class IndependenceReport:
    """Cross-phase variation of each asymmetry factor over the other phase."""

    r_mb_cross_variation: float | None
    r_bc_cross_variation: float | None
    r_mb_defined: bool
    r_bc_defined: bool


def independence_check(
    model: SystemModel, theta_m_grid, theta_c_grid, omega: float
) -> IndependenceReport:
    """
    max over theta_m of the theta_c-spread of R_mb, and the mirrored quantity
    for R_bc. An asymmetry that is 0/0 everywhere is reported as undefined
    rather than as zero variation.
    """
    mb, bc = asymmetry_pair(model, "mb"), asymmetry_pair(model, "bc")
    blocks = [
        (_cell_asymmetries(gammas, mb), _cell_asymmetries(gammas, bc))
        for gammas in phase_grid(model, omega, {mb[2]: theta_m_grid, bc[2]: theta_c_grid})
    ]
    r_mb, r_bc = (
        np.concatenate(values).reshape(len(theta_m_grid), len(theta_c_grid))
        for values in zip(*blocks)
    )

    def cross_variation(values: NDArray[np.float64], axis: int) -> tuple[float | None, bool]:
        if np.all(np.isnan(values)):
            return None, False
        spread = np.nanmax(values, axis=axis) - np.nanmin(values, axis=axis)
        return float(np.max(spread)), True

    mb_var, mb_defined = cross_variation(r_mb, axis=1)
    bc_var, bc_defined = cross_variation(r_bc, axis=0)
    return IndependenceReport(
        r_mb_cross_variation=mb_var,
        r_bc_cross_variation=bc_var,
        r_mb_defined=mb_defined,
        r_bc_defined=bc_defined,
    )
