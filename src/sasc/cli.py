"""
Command-line front end.

Parses JSON scenario configs (schema-validated, unknown keys rejected),
runs the requested pipeline, and writes CSV/JSON artifacts whose data
payloads are deterministic for a fixed config and seed. Every output file
embeds '#'-prefixed metadata lines with the tool version and a hash of
the canonicalized config. A built-in figure (`sasc figures figN`) is the
list of ordinary task configs in configs/figN.json, each run by its task
runner, plus a gnuplot stub naming the files written.

Exit codes: 0 success, 2 config error, 3 instability, 4 numerical
failure, 5 oracle-comparison failure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.resources
import json
import logging
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, chain as chain_mod, metrics, oracle as oracle_mod, spectra
from .model import (
    CouplingParams,
    InstabilityError,
    ModeParams,
    SystemModel,
    Topology,
    coupled_modes,
)
from .numerics import NonConvergenceError, SingularMatrixError
from .oracle import IntegrationQualityError, OracleComparisonError, OracleConfig
from .spectra import UndefinedAsymmetryError

log = logging.getLogger("sasc")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_NUMERICAL = 4
EXIT_ORACLE = 5

_DEFAULT_HIGH_FREQUENCY = 2.0 * np.pi * 10e9
_DEFAULT_LOW_FREQUENCY = 2.0 * np.pi * 10e6


class ConfigError(Exception):
    """Invalid configuration content or structure."""


def _load_schema() -> dict:
    with importlib.resources.files("sasc.configs").joinpath("schema.json").open() as fh:
        return json.load(fh)


def load_config(path: str, overrides: list[str] | None = None) -> dict:
    """Load, override (--set dotted.path=value), and schema-validate a config."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        *parents, leaf = key.split(".")
        try:
            # A list takes only a non-negative index; any other key fails on it.
            for part in parents:
                listed = isinstance(node, list) and part.isdigit()
                node = node[int(part)] if listed else node.setdefault(part, {})
            node[int(leaf) if isinstance(node, list) and leaf.isdigit() else leaf] = value
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"--set {key}: the path does not resolve ({exc})") from exc
    validate_config(config)
    return config


_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER
#: The schema's validator with "number" meaning a finite double, which JSON does not ensure.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=_TYPES.redefine(
        "number", lambda _, v: _TYPES.is_type(v, "number") and abs(v) <= sys.float_info.max
    ),
)


def validate_config(config: dict) -> None:
    schema = _load_schema()
    validator = _Validator(schema)
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(f"config invalid at {first.json_path}: {first.message}")


def canonical_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_system(block: dict) -> SystemModel:
    """SystemModel from the config 'system' block (ω_b units)."""
    topology = Topology(block["topology"])
    modes = []
    for i, entry in enumerate(block["modes"]):
        high = i % 2 == 0
        if not high and entry.get("detuning", 1.0) != 1.0:
            raise ConfigError(
                f"modes.{i}.detuning: a low mode's detuning is its frequency, which"
                f" is 1 in low-mode units (got {entry['detuning']})"
            )
        default_freq = _DEFAULT_HIGH_FREQUENCY if high else _DEFAULT_LOW_FREQUENCY
        modes.append(
            ModeParams(
                label=entry["label"],
                absolute_frequency=entry.get("absolute_frequency", default_freq),
                kappa=entry["kappa"],
                detuning=entry.get("detuning", 0.0 if high else 1.0),
            )
        )
    couplings = [
        CouplingParams(magnitude=c["magnitude"], phase=c.get("phase", 0.0))
        for c in block["couplings"]
    ]
    try:
        return SystemModel(
            topology=topology,
            modes=tuple(modes),
            couplings=tuple(couplings),
            temperature=block.get("temperature", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _metadata(config: dict, extra: dict | None = None) -> dict:
    meta = {
        "tool": f"sasc {__version__}",
        "config_hash": canonical_hash(config),
        "system": json.dumps(config.get("system", {}), sort_keys=True),
    }
    if config.get("seed") is not None:
        meta["seed"] = config["seed"]
    meta.update(extra or {})
    return meta


def _write_json(path: Path, metadata: dict, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"metadata": metadata, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s", path)


def _write_table(outdir: Path, base: str, fmt: str, metadata: dict, columns: dict) -> None:
    """Equal-length named columns as CSV rows, or as the "data" object of a JSON file."""
    if fmt == "json":
        data = {name: [float(v) for v in values] for name, values in columns.items()}
        _write_json(outdir / f"{base}.json", metadata, {"data": data})
        return
    path = outdir / f"{base}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    log.info("wrote %s", path)


def _index(block: dict, key: str, count: int, default: int | None = None):
    """block[key] (or default): an index, or a list of indices, of `count` ports or couplings."""
    value = block.get(key, default)
    for index in value if isinstance(value, list) else [value]:
        if index is not None and not 0 <= index < count:
            raise ConfigError(f"{key} {index} is out of range: the system has {count}")
    return value


def _grid(config: dict, default=(-3.0, 3.0, 1201)) -> np.ndarray:
    block = config.get("grid", {})
    lo = block.get("min", default[0])
    hi = block.get("max", default[1])
    points = block.get("points", default[2])
    if hi <= lo or points < 2:
        raise ConfigError("grid requires max > min and points >= 2")
    return np.linspace(lo, hi, points)


def _basename(config: dict, fallback: str) -> str:
    return config.get("output", {}).get("basename", fallback)


def _port_pair_columns(gamma_stacks, transmissions: dict, asymmetries: dict) -> dict:
    """Transmission then asymmetry columns (see spectra.port_columns) of Gamma stacks."""
    columns: dict = {name: [] for name in (*transmissions, *asymmetries)}
    for gammas in gamma_stacks:
        for name, leg in transmissions.items():
            columns[name].extend(spectra.transmission(gammas, *leg).tolist())
        for name, pair in asymmetries.items():
            columns[name].extend(spectra.pair_asymmetry(gammas, pair).tolist())
    return columns


def run_spectrum(config: dict, outdir: Path, fmt: str) -> None:
    model = build_system(config["system"])
    task = config.get("task", {})
    port = _index(task, "include_output_port", model.n_modes)
    omegas = _grid(config)
    gammas = spectra.transfer_matrices(model, omegas)
    columns = {"omega": omegas, **_port_pair_columns(gammas, *spectra.port_columns(model))}
    if port is not None:
        columns.update(spectra.output_spectrum(model, omegas, port).columns)
    _write_table(outdir, _basename(config, "spectrum"), fmt, _metadata(config), columns)


def run_asymmetry(config: dict, outdir: Path, fmt: str) -> None:
    model = build_system(config["system"])
    task = config.get("task", {})
    coupling = _index(task, "coupling_index", len(model.couplings), 0)
    omega = task.get("omega", spectra.resonance_probe_frequency())
    thetas = _grid(config, (0.0, 2.0 * np.pi, 721))
    if isinstance(coupling, list):
        axes = np.meshgrid(thetas, thetas, indexing="ij")
        names = [f"theta_{model.modes[coupled_modes(i)[0]].label}" for i in coupling]
        columns = {name: axis.ravel() for name, axis in zip(names, axes)}
        phases = dict.fromkeys(coupling, thetas)
    else:
        columns, phases = {"theta": thetas}, {coupling: thetas}
    gammas = spectra.phase_grid(model, omega, phases)
    columns.update(_port_pair_columns(gammas, {}, spectra.port_columns(model)[1]))
    meta = _metadata(config, {"omega": omega})
    _write_table(outdir, _basename(config, "asymmetry"), fmt, meta, columns)


def run_snr(config: dict, outdir: Path, fmt: str) -> None:
    model = build_system(config["system"])
    task = config.get("task", {})
    signal_port = _index(task, "signal_port", model.n_modes, 0)
    readout_port = _index(task, "readout_port", model.n_modes)
    omegas = _grid(config)
    table = spectra.snr_spectrum(model, omegas, signal_port, readout_port, task.get("psi", 0.0))
    columns = {"omega": omegas, **table.columns}
    _write_table(outdir, _basename(config, "snr"), fmt, _metadata(config), columns)


def _comparison_config(config: dict) -> metrics.ComparisonConfig:
    task = config.get("task", {})
    if "ics" not in task:
        raise ConfigError("fmap task requires an 'ics' baseline system block")
    cs_model = build_system(config["system"])
    ics_model = build_system(task["ics"])
    if cs_model.n_modes != 3:
        raise ConfigError(
            f"fmap tunes the detunings of a three-mode system; this one has {cs_model.n_modes}"
        )
    omega_range = tuple(task.get("omega_range", (-3.0, 3.0)))
    if not omega_range[0] < omega_range[1]:
        raise ConfigError(f"omega_range must be increasing, got {list(omega_range)}")
    if metrics.excludes_whole_range(omega_range):
        raise ConfigError(f"omega_range {list(omega_range)} lies inside a resonance band"
                          " that the SNR search excludes: nothing to search")
    n_modes = min(cs_model.n_modes, ics_model.n_modes)
    return metrics.ComparisonConfig(
        cs_model=cs_model,
        ics_model=ics_model,
        omega_range=omega_range,
        signal_port=_index(task, "signal_port", n_modes, 0),
        readout_port=_index(task, "readout_port", n_modes),
        psi=task.get("psi", 0.0),
    )


def run_fmap(config: dict, outdir: Path, fmt: str) -> None:
    task = config.get("task", {})
    cfg = _comparison_config(config)
    lo = task.get("delta_min", -2.0)
    hi = task.get("delta_max", 2.0)
    points = task.get("delta_points", 41)
    if hi <= lo:
        raise ConfigError("fmap requires delta_max > delta_min")
    deltas = np.linspace(lo, hi, points)
    result = metrics.f_map(cfg, deltas, deltas)
    # Every cell, unstable ones included (listed under unstable_cells), holds
    # the algebraic ratio f; lg f is undefined where f <= 0 and written as null/nan.
    with np.errstate(divide="ignore"):
        lg = np.where(result.values > 0.0, np.log10(np.maximum(result.values, 1e-300)), np.nan)
    meta = _metadata(config, result.metadata)
    base = _basename(config, "fmap")
    if fmt == "csv":
        n_m, n_c = lg.shape
        _write_table(outdir, base, fmt, meta, {
            "delta_c": np.tile(result.delta_c, n_m),
            "delta_m": np.repeat(result.delta_m, n_c),
            "lg_f": lg.ravel(),
        })
    else:
        payload = {
            "delta_c": result.delta_c.tolist(),
            "delta_m": result.delta_m.tolist(),
            "lg_f": [[v if np.isfinite(v) else None for v in row] for row in lg],
            "f": result.values.tolist(),
        }
        _write_json(outdir / f"{base}.json", meta, {"data": payload})


def run_chain(config: dict, outdir: Path, fmt: str) -> None:
    task = config.get("task", {})
    block = task.get("chain")
    if block is None:
        raise ConfigError("chain task requires a 'chain' block")
    coupling = CouplingParams(
        magnitude=block["coupling"]["magnitude"],
        phase=block["coupling"].get("phase", 0.0),
    )
    specs = [
        chain_mod.ChainSpec(
            n_modes=n,
            coupling=coupling,
            detuning=block["detuning"],
            detuning_alt=block["detuning_alt"],
            kappa_high=block["kappa_high"],
            kappa_low=block["kappa_low"],
            temperature=config["system"].get("temperature", 0.0) if "system" in config else 0.0,
        )
        for n in block["n_values"]
    ]
    omega = block.get("omega", 0.3)
    report = chain_mod.scaling_fit(specs, omega)
    meta = _metadata(config, {"omega": omega})
    base = _basename(config, "chain")
    if fmt == "csv":
        _write_table(outdir, base, fmt, meta, {"n_modes": report.n_values, "gain": report.gains})
        _write_json(outdir / f"{base}_fit.json", meta, {"fit": report.to_json_dict()})
    else:
        _write_json(outdir / f"{base}.json", meta, {"fit": report.to_json_dict()})


def run_oracle(config: dict, outdir: Path, fmt: str) -> None:
    model = build_system(config["system"])
    task = config.get("task", {})
    block = task.get("oracle", {})
    port = _index(block, "port", model.n_modes, 0)
    seed = config.get("seed")
    if seed is None:
        raise ConfigError("oracle task requires a top-level seed")
    try:
        cfg = OracleConfig(
            model=model,
            dt=block.get("dt", 0.002),
            n_steps=block.get("n_steps", 131072),
            ensemble=block.get("ensemble", 64),
            seed=seed,
            port=port,
            segment_length=block.get("segment_length", 4096),
            overlap=block.get("overlap", 0.5),
            burn_in=block.get("burn_in"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run = oracle_mod.simulate(cfg)
    predicted = spectra.output_spectrum(model, run.omega, cfg.port)
    report = oracle_mod.compare(run, predicted)
    meta = _metadata(config, {"n_segments": run.n_segments})
    base = _basename(config, "oracle")
    _write_json(outdir / f"{base}.json", meta, {
        "fraction_within": report.fraction_within,
        "n_bins": report.n_bins,
        "max_abs_z": report.max_abs_z,
    })
    threshold = block.get("min_fraction", 0.99)
    if report.fraction_within < threshold:
        raise OracleComparisonError(
            f"only {report.fraction_within:.4f} of bins within 3 standard errors"
            f" (needs {threshold})"
        )


def run_optimize(config: dict, outdir: Path, fmt: str) -> None:
    model = build_system(config["system"])
    task = config.get("task", {})
    which = task.get("which", "mb")
    try:
        spectra.asymmetry_pair(model, which)
    except ValueError as exc:
        raise ConfigError(f"which: {exc}") from exc
    target = task.get("target", -1.0)
    omega = task.get("omega", spectra.resonance_probe_frequency())
    result = metrics.find_phase_for_target_R(model, target, which, omega)
    meta = _metadata(config, {"omega": omega})
    base = _basename(config, "optimize")
    _write_json(outdir / f"{base}.json", meta, {
        "which": which,
        "target": result.target,
        "theta": result.theta,
        "achieved": result.achieved,
        "residual": result.residual,
        "hit_extreme": result.hit_extreme,
    })


_TASK_RUNNERS = {
    "spectrum": run_spectrum,
    "asymmetry": run_asymmetry,
    "snr": run_snr,
    "fmap": run_fmap,
    "chain": run_chain,
    "oracle": run_oracle,
    "optimize": run_optimize,
}


def _load_figure_asset(name: str) -> dict:
    with importlib.resources.files("sasc.configs").joinpath(f"{name}.json").open() as fh:
        return json.load(fh)


def _gnuplot_stub(path: Path, names: list[str]) -> None:
    lines = ["set datafile separator ','", "set key outside"]
    for name in names:
        lines.append(f"# plot '{name}' using 1:2 with lines")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_figures(which: str, outdir: Path, fmt: str) -> None:
    """Run each task config of the figure's asset (configs/<which>.json), then its gnuplot stub."""
    written: list[str] = []
    for config in _load_figure_asset(which)["tasks"]:
        validate_config(config)
        kind = config["task"]["kind"]
        _TASK_RUNNERS[kind](config, outdir, fmt)
        written.append(f"{_basename(config, kind)}.{fmt}")
    _gnuplot_stub(outdir / f"{which}.gp", written)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasc",
        description="Frequency-domain simulator for dispersively coupled mode chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _TASK_RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-path config override")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    p = sub.add_parser("figures", help="regenerate built-in figure data")
    p.add_argument("which", choices=("fig2", "fig3", "fig4"))
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("SASC_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "figures":
            run_figures(args.which, outdir, args.format)
        else:
            config = load_config(args.config, args.set)
            if getattr(args, "seed", None) is not None:
                config["seed"] = args.seed
            task_kind = config.get("task", {}).get("kind", args.command)
            if task_kind != args.command:
                raise ConfigError(
                    f"config task kind {task_kind!r} does not match subcommand {args.command!r}"
                )
            _TASK_RUNNERS[args.command](config, outdir, args.format)
        return EXIT_OK
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except InstabilityError as exc:
        log.error("instability: %s", exc)
        return EXIT_INSTABILITY
    except (SingularMatrixError, NonConvergenceError, IntegrationQualityError,
            UndefinedAsymmetryError, FloatingPointError, ValueError) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except OracleComparisonError as exc:
        log.error("oracle comparison failed: %s", exc)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
