"""
The four benchmark workloads, each a fixed sequence of `sasc` CLI
invocations whose configs are generated from the benchmark seed.

Every input lives here, not in the package's figure assets, so that a
change to those assets cannot silently change what the benchmark runs.
The system blocks below copy the fig2/fig3/fig4 parameters and the
criterion-6/7 settings of the acceptance suite.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

HIGH_FREQUENCY = 62831853071.79586  # 2π·10 GHz
LOW_FREQUENCY = 62831853.07179586  # 2π·10 MHz
OPTICAL_FREQUENCY = 1772000000000000.0
TEMPERATURE = 0.01

FMAP_DELTA_POINTS = 15  # 225 cells; the packaged 41 x 41 map runs ~32 s
SNR_GRID = {"min": -3.0, "max": 3.0, "points": 1201}
FIG2_GRID = {"min": -2.0, "max": 2.0, "points": 801}
FIG2_KAPPA_A = (0.01, 1.0, 100.0)
FIG3_GRID = {"min": -3.0, "max": 3.0, "points": 1201}
THETA_POINTS = 2001
ORACLE_STEPS = 131072
ORACLE_ENSEMBLE = 64
ORACLE_DT = 0.002
CHAIN_LENGTHS = tuple(range(2, 41))


def _mode(label: str, kappa: float, detuning: float, frequency: float) -> dict:
    return {"label": label, "kappa": kappa, "detuning": detuning,
            "absolute_frequency": frequency}


def two_mode_system(kappa_a: float, phase: float) -> dict:
    """fig2 two-mode unit (high mode a, low mode b)."""
    return {
        "topology": "du",
        "modes": [_mode("a", kappa_a, 0.0, HIGH_FREQUENCY),
                  _mode("b", 1e-4, 1.0, LOW_FREQUENCY)],
        "couplings": [{"magnitude": 0.1, "phase": phase}],
        "temperature": TEMPERATURE,
    }


def three_mode_system(kappa_m, kappa_c, delta_m, delta_c, g_m, g_c, phase_m, phase_c) -> dict:
    return {
        "topology": "three",
        "modes": [_mode("m", kappa_m, delta_m, HIGH_FREQUENCY),
                  _mode("b", 1e-4, 1.0, LOW_FREQUENCY),
                  _mode("c", kappa_c, delta_c, OPTICAL_FREQUENCY)],
        "couplings": [{"magnitude": g_m, "phase": phase_m},
                      {"magnitude": g_c, "phase": phase_c}],
        "temperature": TEMPERATURE,
    }


def tunable_scheme(phase_m: float = math.pi / 3.0, phase_c: float = 2.0 * math.pi / 3.0) -> dict:
    """fig4 tunable scheme; the default phases are the packaged ones."""
    return three_mode_system(1.0, 0.1, 0.0, 0.0, 0.2, 0.1, phase_m, phase_c)


def baseline_scheme() -> dict:
    """fig4 fixed baseline scheme."""
    return three_mode_system(0.1, 0.1, 1.0, 1.0, 0.2, 0.1, 0.0, 0.0)


@dataclass(frozen=True)
class Invocation:
    """One `sasc <command> --config <basename>.json` call and what it writes."""

    command: str
    config: dict

    @property
    def basename(self) -> str:
        return self.config["output"]["basename"]

    @property
    def artifacts(self) -> tuple[str, ...]:
        if self.command == "oracle":
            return (f"{self.basename}.json",)
        if self.command == "chain":
            return (f"{self.basename}.csv", f"{self.basename}_fit.json")
        return (f"{self.basename}.csv",)

    @property
    def rows(self) -> int | None:
        """Data rows of the CSV artifact, where the config fixes them."""
        if self.command == "fmap":
            return self.config["task"]["delta_points"] ** 2
        if self.command in ("spectrum", "snr", "asymmetry"):
            return self.config["grid"]["points"]
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    sizes: dict
    work: int  # units of work behind work_per_s
    work_unit: str  # what one unit is; the per-workload name of work_per_s


def _invocation(command: str, basename: str, system: dict, task: dict, **extra) -> Invocation:
    config = {"system": copy.deepcopy(system), "task": {"kind": command, **task},
              "output": {"basename": basename}, **extra}
    return Invocation(command, config)


def _phase(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, 2.0 * math.pi))


def fmap(rng: np.random.Generator) -> Workload:
    cs = tunable_scheme(_phase(rng), _phase(rng))
    task = {"delta_min": -2.0, "delta_max": 2.0, "delta_points": FMAP_DELTA_POINTS,
            "omega_range": [-3.0, 3.0], "ics": baseline_scheme()}
    invocations = (
        _invocation("fmap", "fmap", cs, task),
        _invocation("snr", "snr_cs", cs, {}, grid=dict(SNR_GRID)),
        _invocation("snr", "snr_ics", baseline_scheme(), {}, grid=dict(SNR_GRID)),
    )
    cells = FMAP_DELTA_POINTS**2
    return Workload(
        "fmap", invocations,
        {"fmap_cells": cells, "snr_points": 2 * SNR_GRID["points"]},
        cells, "cells",
    )


def sweep(rng: np.random.Generator) -> Workload:
    phase_du = _phase(rng)
    three = three_mode_system(1.0, 1.0, 0.0, 0.0, 0.1, 0.1, _phase(rng), _phase(rng))
    invocations = [
        _invocation("spectrum", f"fig2_{panel}", two_mode_system(kappa_a, phase_du),
                    {"include_output_port": 0}, grid=dict(FIG2_GRID))
        for panel, kappa_a in zip("abc", FIG2_KAPPA_A)
    ]
    invocations.append(_invocation("spectrum", "fig3_spectrum", three, {}, grid=dict(FIG3_GRID)))
    invocations.append(_invocation(
        "asymmetry", "fig3_asymmetry", three, {"coupling_index": 0},
        grid={"min": 0.0, "max": 2.0 * math.pi, "points": THETA_POINTS},
    ))
    omega_points = 3 * FIG2_GRID["points"] + FIG3_GRID["points"]
    return Workload(
        "sweep", tuple(invocations),
        {"omega_points": omega_points, "theta_points": THETA_POINTS},
        omega_points + THETA_POINTS, "points",
    )


def oracle(rng: np.random.Generator) -> Workload:
    block = {"dt": ORACLE_DT, "n_steps": ORACLE_STEPS, "ensemble": ORACLE_ENSEMBLE}
    invocations = (
        _invocation("oracle", "oracle_two_mode", two_mode_system(1.0, 0.0),
                    {"oracle": {**block, "port": 0}}, seed=int(rng.integers(0, 2**31))),
        _invocation("oracle", "oracle_three_mode", tunable_scheme(),
                    {"oracle": {**block, "port": 2}}, seed=int(rng.integers(0, 2**31))),
    )
    return Workload(
        "oracle", invocations,
        {"n_steps": ORACLE_STEPS, "ensemble": ORACLE_ENSEMBLE, "runs": len(invocations)},
        len(invocations) * ORACLE_STEPS * ORACLE_ENSEMBLE, "member_steps",
    )


def chain(rng: np.random.Generator) -> Workload:
    block = {"n_values": list(CHAIN_LENGTHS),
             "coupling": {"magnitude": 0.05, "phase": _phase(rng)},
             "detuning": -0.8, "detuning_alt": 1.2, "kappa_high": 0.5, "kappa_low": 0.4,
             "omega": 0.3}
    # The schema requires a system block; the chain task reads only its temperature.
    invocations = (_invocation("chain", "chain", two_mode_system(1.0, 0.0), {"chain": block}),)
    return Workload(
        "chain", invocations,
        {"lengths": f"{CHAIN_LENGTHS[0]}..{CHAIN_LENGTHS[-1]}", "sum_modes": sum(CHAIN_LENGTHS)},
        sum(CHAIN_LENGTHS), "modes",
    )


BUILDERS = {"fmap": fmap, "sweep": sweep, "oracle": oracle, "chain": chain}


def build(name: str, seed: int) -> Workload:
    """The workload `name` with inputs drawn from `seed` (same seed, same inputs)."""
    index = list(BUILDERS).index(name)
    return BUILDERS[name](np.random.default_rng([seed, index]))
