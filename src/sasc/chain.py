"""
End-to-end quadrature gain of chain models and its exponential scaling with
the number of modes. The chain task's models come from `cli.build_system`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .model import InstabilityError, SystemModel, require_stable
from .numerics import LineFit, NumericalError, fit_line
from .spectra import SnrSolver

__all__ = ["ScalingReport", "end_to_end_gain", "scaling_fit"]


def end_to_end_gain(model: SystemModel, omega: float) -> float:
    """
    Squared first-port-input to last-port-output quadrature transfer
    |C_{1,+} + C_{1,-}|^2, measured at the final mode's port.
    """
    solver = SnrSolver(model)
    require_stable(solver.drift)
    return float(solver.solve([omega])[0][0])


@dataclass
class ScalingReport:
    """Exponential-scaling fit of ln(gain) against chain length."""

    n_values: tuple[int, ...]
    gains: tuple[float, ...]
    fit: LineFit
    base: float
    excluded_unstable: tuple[int, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "gains": list(self.gains),
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "r_squared": self.fit.r_squared,
            "base": self.base,
            "excluded_unstable": list(self.excluded_unstable),
        }


def scaling_fit(models: Iterable[SystemModel], omega: float) -> ScalingReport:
    """
    Fit ln(gain) versus N over the given chain lengths; unstable lengths are
    excluded (and reported) rather than silently dropped. The fitted base is
    exp(slope). A gain below the smallest normal float, zero included, has lost
    its precision or underflowed: NumericalError naming the length.
    """
    kept_n: list[int] = []
    gains: list[float] = []
    excluded: list[int] = []
    for model in models:
        try:
            gain = end_to_end_gain(model, omega)
        except InstabilityError:
            excluded.append(model.n_modes)
            continue
        if not gain >= np.finfo(float).tiny:
            raise NumericalError(
                f"scaling_fit requires strictly positive gains of normal floats (at least"
                f" {np.finfo(float).tiny:.4g}); the {model.n_modes}-mode chain's is {gain:.4g}"
            )
        gains.append(gain)
        kept_n.append(model.n_modes)
    if len(kept_n) < 3:
        raise NumericalError("scaling_fit needs at least 3 stable chain lengths")
    fit = fit_line(kept_n, np.log(gains))
    return ScalingReport(
        n_values=tuple(kept_n),
        gains=tuple(gains),
        fit=fit,
        base=float(np.exp(fit.slope)),
        excluded_unstable=tuple(excluded),
    )
