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

from .model import InstabilityError, SystemModel, require_stable
from .numerics import LineFit, NumericalError, fit_line
from .spectra import SnrSolver

__all__ = ["ScalingReport", "scaling_fit"]


@dataclass
class ScalingReport:
    """Exponential-scaling fit of ln(gain) against chain length."""

    n_values: tuple[int, ...]
    gains: tuple[float, ...]
    fit: LineFit
    base: float
    excluded_unstable: tuple[int, ...] = field(default_factory=tuple)


def scaling_fit(model: SystemModel, n_values: Iterable[int], omega: float) -> ScalingReport:
    """
    Fit ln(gain) versus N over the given chain lengths, length n being the
    model's first n modes (SnrSolver.leading): the n-mode chain's S_AP at omega,
    from the leading block of the model's one drift. Each length has
    its own stability gate; unstable lengths are excluded (and reported)
    rather than silently dropped. The fitted base is exp(slope). A gain below
    the smallest normal float, zero included, has lost its precision or
    underflowed: NumericalError naming the length. A length past the model's
    modes: ConfigError.
    """
    solver = SnrSolver(model)
    kept_n: list[int] = []
    gains: list[float] = []
    excluded: list[int] = []
    for n in n_values:
        view = solver.leading(n)
        try:
            require_stable(view.drift)
        except InstabilityError:
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
