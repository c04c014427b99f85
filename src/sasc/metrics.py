"""
Figures of merit and deterministic searches: SNR maximization over
frequency, scheme-comparison factor f, detuning maps, and phase searches
for target asymmetry. All optimizers are deterministic (fixed grids plus
golden-section refinement, one _refine step for both searches); no stochastic
search. Every SNR search is one _search_snr call, which skips the fixed
resonance bands. max_snr_over_omega and f_factor, the detuning map's one cell,
gate their model; the map also evaluates unstable cells, and lists them. It
builds all cells' drift matrices in one call and runs their SNR searches in
lockstep. Each cell's coarse argmax is ranked from the poles of Lambda M over
401 points (SnrSolver.scan), or by the exact scan where its proven guard
does not trust that; the value at the argmax and each golden-section step
are one stacked exact solve over all cells, each bracket stopping on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import numerics
from .model import (
    ConfigError, SystemModel, build_drift_matrix, check_range, check_stability, require_stable,
)
from .spectra import (
    SnrSolver,
    asymmetry_pair,
    pair_asymmetry,
    phase_grid,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "ComparisonConfig",
    "MapResult",
    "PhaseSearchResult",
    "RESONANCE_EXCLUSION_WIDTH",
    "excludes_whole_range",
    "golden_section_max",
    "max_snr_over_omega",
    "f_factor",
    "f_map",
    "find_phase_for_target_R",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
#: Coarse-grid points of an SNR search over omega_range, and of a phase search over [0, 2 pi].
_SNR_SCAN_POINTS = 401
_PHASE_GRID_POINTS = 181


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
        up = live & (f1 < f2)
        down = live & ~up
        for dst, src, where in ((a, x1, up), (x1, x2, up), (f1, f2, up),
                                (b, x2, down), (x2, x1, down), (f2, f1, down)):
            np.copyto(dst, src, where=where)
        step = _GOLDEN * (b - a)
        probe = np.where(up, a + step, b - step)
        probe[~live] = np.nan
        values = fun(probe)
        for dst, src, where in ((x2, probe, up), (f2, values, up),
                                (x1, probe, down), (f1, values, down)):
            np.copyto(dst, src, where=where)
    x, f = np.where(f1 >= f2, x1, x2), np.where(f1 >= f2, f1, f2)
    return (x[0], f[0]) if np.ndim(lo) == np.ndim(hi) == 0 else (x, f)


#: Half-width of the excluded bands around the low-mode resonances (ten
#: low-mode linewidths for the reference kappa_b = 1e-4). Exactly at
#: omega = +/- omega_b the two low-mode quadrature responses cancel and the
#: SNR spectrum carries sub-linewidth artifact spikes next to an exact zero;
#: every SNR search skips these degenerate bands.
RESONANCE_EXCLUSION_WIDTH = 1e-3


def _excluded(omegas) -> NDArray[np.bool_]:
    """Whether each frequency lies within RESONANCE_EXCLUSION_WIDTH of a resonance omega = +/- 1."""
    return np.minimum(np.abs(omegas - 1.0), np.abs(omegas + 1.0)) < RESONANCE_EXCLUSION_WIDTH


def excludes_whole_range(omega_range) -> bool:
    """Whether no frequency of [lo, hi] is left for an SNR search to search."""
    lo, hi = omega_range
    # The distance to the nearest resonance peaks at an end of the range or at omega = 0.
    return bool(np.all(_excluded(np.array([lo, hi, min(max(0.0, lo), hi)]))))


def max_snr_over_omega(
    model: SystemModel, omega_range: tuple[float, float] = (-3.0, 3.0), **readout
) -> tuple[float, float]:
    """
    (omega*, S*) maximizing the SNR spectrum of a stable model (see _search_snr):
    coarse scan (401 points) followed by golden-section refinement on the best
    bracket, outside the resonance bands (see RESONANCE_EXCLUSION_WIDTH). The
    readout keywords go to SnrSolver.
    """
    solver = SnrSolver(model, **readout)
    require_stable(solver.drift)
    w, s, _ = _search_snr(solver, solver.drift[None], omega_range)
    return float(w[0]), float(s[0])


def _search_snr(solver: SnrSolver, drifts, omega_range):
    """
    (omega*, S*, scan) of a stack of drift matrices, whose models differ from the
    solver's only in M. Each cell's coarse argmax over _SNR_SCAN_POINTS comes from
    SnrSolver.scan, or from the exact scan where that is not trusted; its value is one
    stacked exact solve, as is each golden-section step over the live brackets. SNR
    reads 0 in the resonance bands. `scan` holds the number of exact-scan cells and
    the worst cond_1(V). ConfigError if omega_range is not increasing, spans more than
    a float, is too narrow for the scan's distinct points, or lies inside the bands.
    """
    grid = check_range("omega_range", *omega_range, _SNR_SCAN_POINTS)
    if excludes_whole_range(omega_range):
        raise ConfigError(f"omega_range {tuple(omega_range)} lies inside a resonance band"
                          " that the SNR search excludes (half-width"
                          f" {RESONANCE_EXCLUSION_WIDTH}): nothing to search")
    cells = len(drifts)
    best, trusted, cond = np.zeros(cells, dtype=int), np.zeros(cells, dtype=bool), np.zeros(cells)
    for block, values, trusted[block], cond[block] in solver.scan(drifts, grid):
        for k in np.flatnonzero(~trusted[block]):
            values[k] = solver.solve(grid, drifts[block][k])[1]
        best[block] = np.argmax(np.where(_excluded(grid), 0.0, values), axis=-1)

    def snr(omegas: NDArray[np.float64]) -> NDArray[np.float64]:
        values = np.zeros(len(omegas))
        solve = ~(np.isnan(omegas) | _excluded(omegas))
        if solve.any():
            values[solve] = solver.solve(omegas[solve], drifts[solve])[1]
        return values

    scan = {"fallback_cells": int(np.count_nonzero(~trusted)), "max_eigvec_cond": float(cond.max())}
    return (*_refine(snr, grid, best, snr(grid[best]), 1e-6), scan)


def _refine(fun, grid, best, coarse, rel_tol: float):
    """(x*, f*) from a grid's argmax indices `best`, valued `coarse`: golden_section_max of
    `fun` between each one's grid neighbours, or the grid point where its value is higher."""
    lo, hi = grid[np.maximum(best - 1, 0)], grid[np.minimum(best + 1, len(grid) - 1)]
    x, f = golden_section_max(fun, lo, hi, rel_tol)
    on_grid = coarse > f
    return np.where(on_grid, grid[best], x), np.where(on_grid, coarse, f)


@dataclass(frozen=True)
class ComparisonConfig:
    """A tunable three-mode scheme model against a fixed baseline scheme model."""

    cs_model: SystemModel
    ics_model: SystemModel
    omega_range: tuple[float, float] = (-3.0, 3.0)
    #: SnrSolver's readout keywords, for both models.
    readout: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "omega_range", tuple(self.omega_range))
        if self.cs_model.n_modes != 3:
            raise ConfigError(f"fmap tunes the detunings of a three-mode system;"
                              f" this one has {self.cs_model.n_modes}")
        for model in (self.ics_model, self.cs_model):  # SnrSolver checks the readout
            SnrSolver(model, **self.readout)


def _baseline_max(cfg: ComparisonConfig, ics_max: float | None = None) -> float:
    """The baseline scheme's maximal SNR (computed unless given), the denominator of f."""
    if ics_max is None:
        ics_max = max_snr_over_omega(cfg.ics_model, cfg.omega_range, **cfg.readout)[1]
    if ics_max <= 0.0:
        raise numerics.NumericalError(
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
    three-mode scheme, which must be stable with them; ics_max short-circuits
    recomputation of the baseline, which comes first. The value is f_map's one cell.
    """
    ics_max = _baseline_max(cfg, ics_max)
    m, c = (mode.detuning for mode in cfg.cs_model.modes[::2])
    delta_m, delta_c = m if delta_m is None else delta_m, c if delta_c is None else delta_c
    require_stable(build_drift_matrix(cfg.cs_model, (delta_m, delta_c)))
    return float(f_map(cfg, [delta_c], [delta_m], ics_max).values[0, 0])


@dataclass
class MapResult:
    """f (or derived) values over a (delta_c, delta_m) grid, with provenance; `scan`
    (see _search_snr) says how the coarse scans ran and is kept out of artifacts."""

    delta_c: NDArray[np.float64]
    delta_m: NDArray[np.float64]
    values: NDArray[np.float64]
    metadata: dict = field(default_factory=dict)
    scan: dict = field(default_factory=dict)


def f_map(
    cfg: ComparisonConfig, delta_c_grid, delta_m_grid, ics_max: float | None = None
) -> MapResult:
    """
    f over a detuning grid; the baseline maximum is computed once, unless given.

    The frequency-domain formula is evaluated at every grid cell, including cells whose
    linearized drift matrix is unstable (there the value is the algebraic spectrum ratio, not
    a steady-state observable); those cells, by one check_stability of the stacked drift
    matrices, are listed as (delta_c, delta_m) pairs under metadata["unstable_cells"].
    ConfigError, before any solve, unless both grids are non-empty, finite and strictly
    increasing; NumericalError if any f is not finite.
    """
    delta_c_grid = np.asarray(delta_c_grid, dtype=float)
    delta_m_grid = np.asarray(delta_m_grid, dtype=float)
    for grid in (delta_c_grid, delta_m_grid):
        if not (grid.size and np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
            raise ConfigError("map grids must be non-empty, finite and strictly increasing")
    ics_max = _baseline_max(cfg, ics_max)
    cells = [(float(dc), float(dm)) for dm in delta_m_grid for dc in delta_c_grid]
    drifts = build_drift_matrix(cfg.cs_model, detunings=[(dm, dc) for dc, dm in cells])
    unstable = [cell for cell, stable in zip(cells, check_stability(drifts).stable) if not stable]
    solver = SnrSolver(cfg.cs_model, **cfg.readout)
    _, s_star, scan = _search_snr(solver, drifts, cfg.omega_range)
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite f, refused below
        values = s_star.reshape(len(delta_m_grid), len(delta_c_grid)) / ics_max
    if not np.all(np.isfinite(values)):
        raise numerics.NumericalError("map contains non-finite values")
    return MapResult(
        delta_c=delta_c_grid,
        delta_m=delta_m_grid,
        values=values,
        metadata={"baseline_max_snr": ics_max, "unstable_cells": unstable},
        scan=scan,
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
) -> PhaseSearchResult:
    """
    Coupling phase theta* minimizing |R(theta) - target| for the selected
    asymmetry factor, via a theta grid plus golden-section refinement.
    Always returns the best value found with its residual; an extreme
    target only counts as attained when the residual is below 1e-3.
    """
    if not -1.0 <= target <= 1.0:
        raise ConfigError("target asymmetry must lie in [-1, 1]")
    pair = asymmetry_pair(model, which)

    def asymmetries(thetas) -> NDArray[np.float64]:
        gammas = phase_grid(model, omega, {pair[2]: thetas})
        return np.concatenate([pair_asymmetry(g, pair) for g in gammas])

    def score(thetas) -> NDArray[np.float64]:
        return -np.abs(asymmetries(thetas) - target)

    thetas = np.linspace(0.0, 2.0 * np.pi, _PHASE_GRID_POINTS)
    scores = score(thetas)
    best = int(np.argmax(scores))
    theta_star, neg_res = _refine(score, thetas, best, scores[best], 1e-9)
    achieved = asymmetries([theta_star])[0]
    return PhaseSearchResult(
        theta=float(theta_star), achieved=float(achieved),
        residual=float(-neg_res), target=float(target),
    )
