"""
Figures of merit and deterministic searches: SNR maximization over
frequency, scheme-comparison factor f, detuning maps, phase searches for
target asymmetry, and the phase-independence check of the two asymmetry
factors. All optimizers are deterministic (fixed grids plus golden-section
refinement); no stochastic search. The detuning map builds all cells' drift
matrices in one call and runs their SNR searches in lockstep: one stacked
solve per cell's coarse scan, then one per golden-section step over all
cells, each bracket stopping on its own.
"""

from __future__ import annotations

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
    "excludes_whole_range",
    "golden_section_max",
    "max_snr_over_omega",
    "f_factor",
    "f_map",
    "find_phase_for_target_R",
    "independence_check",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(fun, lo, hi, rel_tol: float = 1e-6):
    """
    Golden-section maximization of unimodal functions on brackets [lo, hi]: two
    floats, or two 1-D arrays searched in lockstep. `fun` maps an array of one
    probe per bracket to their values; a bracket that has stopped, once
    b - a <= rel_tol max(|lo|, |hi|, 1), gets NaN and its value is not read.
    Returns (x*, f*) shaped like the brackets. ValueError unless every bracket
    is finite with lo < hi and rel_tol is at least machine epsilon.
    """
    a, b = (np.array(bound, dtype=float, ndmin=1) for bound in (lo, hi))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(a < b)):
        raise ValueError(f"brackets must be finite with lo < hi, got lo={lo}, hi={hi}")
    if not rel_tol >= np.finfo(float).eps:
        raise ValueError(f"rel_tol must be at least machine epsilon, got {rel_tol}")
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = (np.array(fun(x), dtype=float) for x in (x1, x2))
    tol = rel_tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    while np.any(live := (b - a) > tol):
        up, down = live & (f1 < f2), live & ~(f1 < f2)
        a[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        b[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        probe = np.where(up, a + _GOLDEN * (b - a), np.where(down, b - _GOLDEN * (b - a), np.nan))
        values = fun(probe)
        x2[up], f2[up] = probe[up], values[up]
        x1[down], f1[down] = probe[down], values[down]
    x, f = np.where(f1 >= f2, x1, x2), np.where(f1 >= f2, f1, f2)
    return (x[0], f[0]) if np.ndim(lo) == np.ndim(hi) == 0 else (x, f)


#: Default half-width of the excluded bands around the low-mode resonances
#: (ten low-mode linewidths for the reference kappa_b = 1e-4). Exactly at
#: omega = +/- omega_b the two low-mode quadrature responses cancel and the
#: SNR spectrum carries sub-linewidth artifact spikes next to an exact zero;
#: the search domain skips these degenerate bands. Pass 0 to search them.
RESONANCE_EXCLUSION_WIDTH = 1e-3


def _excluded(omegas, width: float) -> NDArray[np.bool_]:
    """Whether each frequency lies within `width` of a low-mode resonance omega = +/- 1."""
    return np.minimum(np.abs(omegas - 1.0), np.abs(omegas + 1.0)) < width


def excludes_whole_range(omega_range, width: float = RESONANCE_EXCLUSION_WIDTH) -> bool:
    """Whether no frequency of [lo, hi] is left for an SNR search to search."""
    lo, hi = omega_range
    # The distance to the nearest resonance peaks at an end of the range or at omega = 0.
    return bool(np.all(_excluded(np.array([lo, hi, min(max(0.0, lo), hi)]), width)))


def max_snr_over_omega(
    model: SystemModel,
    omega_range: tuple[float, float] = (-3.0, 3.0),
    n_scan: int = 401,
    signal_port: int = 0,
    readout_port: int | None = None,
    psi: float = 0.0,
    exclude_resonance_width: float = RESONANCE_EXCLUSION_WIDTH,
    check: bool = True,
    detunings=None,
) -> tuple[float, float]:
    """
    (omega*, S*) maximizing the SNR spectrum: coarse scan (>= 401 points)
    followed by golden-section refinement on the best bracket.

    Frequencies within ``exclude_resonance_width`` of the low-mode
    resonances (omega = +/- 1 in low-mode units) are excluded from the
    search domain (see RESONANCE_EXCLUSION_WIDTH); ValueError if nothing is
    left. `detunings` replaces the model's (see build_drift_matrix). With
    check=False the spectrum formula is evaluated without the stability gate.
    """
    if n_scan < 401:
        raise ValueError("n_scan must be at least 401")
    if not omega_range[0] < omega_range[1]:
        raise ValueError(f"omega_range must be increasing, got {tuple(omega_range)}")
    solver = SnrSolver(model, signal_port, readout_port, psi)
    drift = solver.drift if detunings is None else build_drift_matrix(model, detunings)
    if check:
        require_stable(drift)
    w, s = _search_snr(solver, drift[None], omega_range, n_scan, exclude_resonance_width)
    return float(w[0]), float(s[0])


def _search_snr(solver: SnrSolver, drifts, omega_range, n_scan: int, width: float):
    """
    (omega*, S*) arrays of a stack of drift matrices, whose models differ from
    the solver's only in M: one stacked solve per coarse scan, then one over every
    live bracket per golden-section step. SNR reads 0 within `width` of omega = +/- 1.
    """
    if excludes_whole_range(omega_range, width):
        raise ValueError(f"omega_range {tuple(omega_range)} lies inside a resonance band"
                         f" that the SNR search excludes (half-width {width}): nothing to search")
    grid = np.linspace(omega_range[0], omega_range[1], n_scan)
    best, coarse = np.zeros(len(drifts), dtype=int), np.zeros(len(drifts))
    for k, drift in enumerate(drifts):
        values = np.where(_excluded(grid, width), 0.0, solver.solve(grid, drift)[1])
        best[k] = np.argmax(values)
        coarse[k] = values[best[k]]

    def snr(omegas: NDArray[np.float64]) -> NDArray[np.float64]:
        values = np.zeros(len(omegas))
        solve = ~(np.isnan(omegas) | _excluded(omegas, width))
        if solve.any():
            values[solve] = solver.solve(omegas[solve], drifts[solve])[1]
        return values

    lo, hi = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, n_scan - 1)]
    w_star, s_star = golden_section_max(snr, lo, hi)
    on_grid = coarse > s_star
    return np.where(on_grid, grid[best], w_star), np.where(on_grid, coarse, s_star)


@dataclass(frozen=True)
class ComparisonConfig:
    """A tunable scheme model against a fixed baseline scheme model."""

    cs_model: SystemModel
    ics_model: SystemModel
    omega_range: tuple[float, float] = (-3.0, 3.0)
    signal_port: int = 0
    readout_port: int | None = None
    psi: float = 0.0


def _max_snr(cfg: ComparisonConfig, model: SystemModel, detunings=None) -> float:
    """S* of one scheme, its detunings optionally replaced, over the comparison's frequencies."""
    return max_snr_over_omega(
        model, cfg.omega_range, signal_port=cfg.signal_port,
        readout_port=cfg.readout_port, psi=cfg.psi, detunings=detunings,
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

    Optional delta_c/delta_m override the high-mode detunings of the tunable
    three-mode scheme; ics_max short-circuits recomputation of the baseline.
    """
    m, b, c = (mode.detuning for mode in cfg.cs_model.modes)
    detunings = (m if delta_m is None else delta_m, b, c if delta_c is None else delta_c)
    return _max_snr(cfg, cfg.cs_model, detunings) / _baseline_max(cfg, ics_max)


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
    cells = [(float(dc), float(dm)) for dm in delta_m_grid for dc in delta_c_grid]
    low = cfg.cs_model.modes[1].detuning
    drifts = build_drift_matrix(cfg.cs_model, detunings=[(dm, low, dc) for dc, dm in cells])
    unstable = [cell for cell, drift in zip(cells, drifts) if not check_stability(drift).stable]
    solver = SnrSolver(cfg.cs_model, cfg.signal_port, cfg.readout_port, cfg.psi)
    _, s_star = _search_snr(solver, drifts, cfg.omega_range, 401, RESONANCE_EXCLUSION_WIDTH)
    values = s_star.reshape(len(delta_m_grid), len(delta_c_grid)) / ics_max
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
        lambda theta: -np.abs(asymmetries(theta) - target), lo, hi, rel_tol=1e-9
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
