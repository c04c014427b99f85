"""
Exponential scaling of a chain's end-to-end quadrature gain, spectra.snr_spectrum's
S_AP, with the number of modes. The chain task builds one model, its longest length
(`cli.build_system`); scaling_fit reads each length from that model's
leading modes.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .model import STABILITY_MARGIN, SystemModel, check_stability, numerical_abscissa
from .numerics import NumericalError
from .spectra import SnrSolver

__all__ = ["ScalingReport", "scaling_fit"]


@dataclass
class ScalingReport:
    """Least-squares fit ln(gain) = slope N + intercept over chain lengths; base = exp(slope)."""

    n_values: tuple[int, ...]
    gains: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    base: float
    excluded_unstable: tuple[int, ...] = field(default_factory=tuple)


def scaling_fit(model: SystemModel, n_values: Iterable[int], omega: float) -> ScalingReport:
    """
    Fit ln(gain) versus N over the given chain lengths, length n being the
    model's first n modes (SnrSolver.leading): the n-mode chain's S_AP at omega,
    from the leading block of the model's one drift. One numerical_abscissa of that
    drift below -STABILITY_MARGIN certifies every length as stable; otherwise each length
    has its own check_stability gate, and unstable lengths are excluded (and reported)
    rather than silently dropped. The fitted base is exp(slope). A gain below
    the smallest normal float, zero included, has lost its precision or
    underflowed: NumericalError naming the length. A length past the model's
    modes: ConfigError.
    """
    solver = SnrSolver(model)
    try:  # a bound that cannot be computed certifies nothing: each length is then checked
        certified = numerical_abscissa(solver.drift) < -STABILITY_MARGIN
    except NumericalError:
        certified = False
    kept_n: list[int] = []
    gains: list[float] = []
    excluded: list[int] = []
    for n in n_values:
        view = solver.leading(n)
        if not certified and not check_stability(view.drift).stable:
            excluded.append(n)
            continue
        gain = float(view.amplification(view.coefficients([omega]))[0])
        if not gain >= np.finfo(float).tiny:
            raise NumericalError(
                f"scaling_fit requires strictly positive gains of normal floats (at least"
                f" {np.finfo(float).tiny:.4g}); the {n}-mode chain's is {gain:.4g}"
            )
        gains.append(gain)
        kept_n.append(n)
    if len(set(kept_n)) < 3:
        raise NumericalError("scaling_fit needs at least 3 stable chain lengths")
    x, y = np.asarray(kept_n, dtype=float), np.log(gains)
    x_mean, y_mean = x.mean(), y.mean()
    slope = np.sum((x - x_mean) * (y - y_mean)) / np.sum((x - x_mean) ** 2)
    intercept = y_mean - slope * x_mean
    ss_tot = np.sum((y - y_mean) ** 2)
    r_squared = 1.0 - float(np.sum((y - (slope * x + intercept)) ** 2) / ss_tot) if ss_tot else 1.0
    return ScalingReport(
        n_values=tuple(kept_n),
        gains=tuple(gains),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        base=float(np.exp(slope)),
        excluded_unstable=tuple(excluded),
    )
