"""
Layer probes: each public function of one pipeline stage timed directly.

    python3 bench/probes.py CONFIG_JSON

Prints one JSON object of median seconds per call. CONFIG_JSON is the
config whose load and validation the config probe times; every other
probe runs on the fixed fig4 tunable scheme (a 6x6 drift matrix), so the
numbers do not depend on the workload or the seed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from sasc import cli, metrics, model, numerics, spectra
from workloads import baseline_scheme, tunable_scheme

SAMPLES = 5
MIN_SAMPLE_S = 0.02


def median_call_s(fn, samples: int = SAMPLES) -> float:
    """Median over samples of the per-call time, each sample at least MIN_SAMPLE_S long."""
    start = time.perf_counter()
    fn()  # warm-up, and the length of one call
    once = time.perf_counter() - start
    repeat = max(1, int(MIN_SAMPLE_S / max(once, 1e-9)))
    timings = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        timings.append((time.perf_counter() - start) / repeat)
    return statistics.median(timings)


def main() -> None:
    config_path = sys.argv[1]
    cs = cli.build_system(tunable_scheme())
    ics = cli.build_system(baseline_scheme())
    drift = model.build_drift_matrix(cs)
    ell = model.input_coupling_matrix(cs)
    resolvent = 0.3j * np.diag(np.tile([-1.0, 1.0], cs.n_modes)) - drift
    grid = np.linspace(-3.0, 3.0, 401)
    comparison = metrics.ComparisonConfig(cs_model=cs, ics_model=ics)
    _, ics_max = metrics.max_snr_over_omega(ics)
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((131072, 64)) + 1j * rng.standard_normal((131072, 64))
    probes = {
        "probe.config_load_s": lambda: cli.load_config(config_path),
        "probe.drift_build_s": lambda: model.build_drift_matrix(cs),
        "probe.stability_6x6_s": lambda: model.check_stability(drift),
        "probe.resolvent_6x6_s": lambda: numerics.lu_solve(resolvent, ell),
        "probe.output_spectrum_401_s": lambda: spectra.output_spectrum(cs, grid, 2),
        "probe.max_snr_s": lambda: metrics.max_snr_over_omega(cs),
        "probe.fmap_cell_s": lambda: metrics.f_factor(comparison, 0.0, 0.0, ics_max=ics_max),
    }
    result = {name: median_call_s(fn) for name, fn in probes.items()}
    result["probe.welch_131072x64_s"] = median_call_s(
        lambda: numerics.welch_psd(samples, 0.002, 4096, 0.5), samples=3
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
