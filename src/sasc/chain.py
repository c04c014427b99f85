"""
Dispersively coupled chains with static alternating detunings: end-to-end
quadrature gain and its exponential scaling with the number of modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    CouplingParams,
    InstabilityError,
    ModeParams,
    SystemModel,
    Topology,
    require_stable,
)
from .numerics import LineFit, fit_line
from .spectra import SnrSolver

__all__ = ["ChainSpec", "ScalingReport", "build_chain_model", "end_to_end_gain", "scaling_fit"]


@dataclass(frozen=True)
class ChainSpec:
    """
    An N-mode alternating high/low chain built from one repeated unit.

    High modes receive detunings alternating between `detuning` and
    `detuning_alt`; every adjacent pair shares the same coupling.
    """

    n_modes: int
    coupling: CouplingParams
    detuning: float
    detuning_alt: float
    kappa_high: float
    kappa_low: float
    temperature: float = 0.0
    absolute_frequency_high: float = 2.0 * np.pi * 10e9
    absolute_frequency_low: float = 2.0 * np.pi * 10e6
    psi: float = 0.0

    def __post_init__(self):
        if self.n_modes < 2:
            raise ValueError("a chain needs at least 2 modes")


def build_chain_model(spec: ChainSpec) -> SystemModel:
    """SystemModel for the chain: modes (high, low, high, ...), shared coupling."""
    modes = []
    for i in range(spec.n_modes):
        if i % 2 == 0:
            delta = spec.detuning if (i // 2) % 2 == 0 else spec.detuning_alt
            modes.append(
                ModeParams(
                    label=f"h{i // 2}",
                    absolute_frequency=spec.absolute_frequency_high,
                    kappa=spec.kappa_high,
                    detuning=delta,
                )
            )
        else:
            modes.append(
                ModeParams(
                    label=f"l{i // 2}",
                    absolute_frequency=spec.absolute_frequency_low,
                    kappa=spec.kappa_low,
                    detuning=1.0,
                )
            )
    couplings = tuple(spec.coupling for _ in range(spec.n_modes - 1))
    return SystemModel(
        topology=Topology.CHAIN,
        modes=tuple(modes),
        couplings=couplings,
        temperature=spec.temperature,
    )


def end_to_end_gain(spec: ChainSpec, omega: float) -> float:
    """
    Squared first-port-input to last-port-output quadrature transfer
    |C_{1,+} + C_{1,-}|^2, measured at the final mode's port.
    """
    solver = SnrSolver(build_chain_model(spec), psi=spec.psi)
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


def scaling_fit(specs: list[ChainSpec], omega: float) -> ScalingReport:
    """
    Fit ln(gain) versus N over the given chain lengths; unstable lengths are
    excluded (and reported) rather than silently dropped. The fitted base is
    exp(slope).
    """
    kept_n: list[int] = []
    gains: list[float] = []
    excluded: list[int] = []
    for spec in specs:
        try:
            gains.append(end_to_end_gain(spec, omega))
            kept_n.append(spec.n_modes)
        except InstabilityError:
            excluded.append(spec.n_modes)
    if len(kept_n) < 3:
        raise ValueError("scaling_fit needs at least 3 stable chain lengths")
    if min(gains) <= 0.0:
        raise ValueError("scaling_fit requires strictly positive gains")
    fit = fit_line(kept_n, np.log(gains))
    return ScalingReport(
        n_values=tuple(kept_n),
        gains=tuple(gains),
        fit=fit,
        base=float(np.exp(fit.slope)),
        excluded_unstable=tuple(excluded),
    )
