"""
Command-line front end.

Parses JSON scenario configs (schema-validated, unknown keys rejected),
runs the requested pipeline, and writes CSV/JSON artifacts whose data
payloads are deterministic for a fixed config and seed. Every output file
embeds '#'-prefixed metadata lines with the tool version and a hash of
the canonicalized config. A built-in figure (`sasc figures figN`) is the
list of ordinary task configs in configs/figN.json, each run by its task
runner, plus a gnuplot stub naming the files written. Each runner imports
the pipeline modules only it uses (metrics, chain, oracle), so a command
loads no other command's code.

Exit codes: 0 success, 2 config error, 3 instability, 4 numerical
failure, 5 oracle-comparison failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib.resources
import json
import logging
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, spectra
from .model import (
    ConfigError,
    CouplingParams,
    InstabilityError,
    ModeParams,
    SystemModel,
    Topology,
    check_range,
    coupled_modes,
)
from .numerics import NumericalError
log = logging.getLogger("sasc")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_NUMERICAL = 4
EXIT_ORACLE = 5

#: A mode entry's defaults by role, high (even index) then low; its other keys are
#: ModeParams fields without a default.
_ROLE_DEFAULTS = (
    {"absolute_frequency": 2.0 * np.pi * 10e9, "detuning": 0.0},
    {"absolute_frequency": 2.0 * np.pi * 10e6, "detuning": 1.0},
)


class OracleComparisonError(Exception):
    """Predicted and simulated spectra disagree beyond the oracle task's threshold."""


@functools.cache
def _load_schema() -> dict:
    with importlib.resources.files("sasc.configs").joinpath("schema.json").open() as fh:
        return _checked_schema(json.load(fh))


def load_config(path: str, overrides: list[str] | None = None) -> dict:
    """Load, override (--set dotted.path=value), and schema-validate a config."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def _bounded(v) -> bool:
    """Whether the bound keywords apply to `v`: any int, compared exactly, or a finite double."""
    return not isinstance(v, bool) and (isinstance(v, int) or isinstance(v, float)
                                        and math.isfinite(v))


#: The JSON types that the schema names. "number" is a finite double, which JSON does not
#: ensure; "integer" is an int, not an integral float such as 2.0. A bool is neither.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: _bounded(v) and abs(v) <= sys.float_info.max,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}
#: Each bound keyword's test for a broken bound, and its message.
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}
#: The JSON Schema keywords that `_errors` reads; `_checked_schema` refuses any other.
_KEYWORDS = {"type", "enum", *_BOUNDS, "required", "properties", "additionalProperties",
             "items", "minItems", "maxItems", "uniqueItems", "oneOf", "$ref"}


def _checked_schema(schema: dict) -> dict:
    """`schema`, or ValueError at a node whose keywords, type or $ref `_errors` cannot read."""
    refs = {f"#/$defs/{name}" for name in schema.get("$defs", {})}
    nodes = [schema]
    while nodes:
        node = nodes.pop()
        unknown = sorted(set(node) - _KEYWORDS - {"$schema", "title", "$defs"})
        if (unknown or str(node.get("type", "object")) not in _TYPES
                or node.get("additionalProperties", False) is not False
                or "$ref" in node and node["$ref"] not in refs):
            raise ValueError(f"the config validator cannot read schema node {node}"
                             + (f": unknown keywords {unknown}" if unknown else ""))
        nodes += [*node.get("properties", {}).values(), *node.get("oneOf", ()),
                  *node.get("$defs", {}).values(), *([node["items"]] if "items" in node else ())]
    return schema


def _json_equal(a, b) -> bool:
    """Equality of JSON values: 1 == 1.0 and 0 == -0.0, but true != 1."""
    if a is b:
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(v, b[k]) for k, v in a.items())
    return not (isinstance(a, bool) or isinstance(b, bool)) and a == b


def _unique(items: list) -> bool:
    """No two items are equal JSON values (_json_equal): scalars in one set keyed on (is bool,
    value), which holds 1 and 1.0 as one key but true and 1 as two; lists and dicts pairwise."""
    scalars = [(isinstance(v, bool), v) for v in items if not isinstance(v, (list, dict))]
    nested = [v for v in items if isinstance(v, (list, dict))]
    return len(set(scalars)) == len(scalars) and not any(
        _json_equal(a, b) for i, a in enumerate(nested) for b in nested[:i])


def _errors(schema: dict, value, path: str, defs: dict):
    """(JSON path, message) for each rule of `schema` that `value` breaks, in schema order."""
    for key, arg in schema.items():
        if key == "$ref":
            yield from _errors(defs[arg.removeprefix("#/$defs/")], value, path, defs)
        elif key == "type" and not _TYPES[arg](value):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum" and not any(_json_equal(value, each) for each in arg):
            yield path, f"{value!r} is not one of {arg!r}"
        elif key == "oneOf":
            valid = [each for each in arg if next(_errors(each, value, path, defs), None) is None]
            if not valid:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                yield path, f"{value!r} is valid under each of {', '.join(map(repr, valid))}"
        elif key in _BOUNDS and _bounded(value) and _BOUNDS[key][0](value, arg):
            yield path, f"{value!r} {_BOUNDS[key][1]} {arg!r}"
        elif isinstance(value, dict):
            if key == "required":
                yield from ((path, f"{name!r} is a required property")
                            for name in arg if name not in value)
            elif key == "properties":
                for name, each in arg.items():
                    if name in value:
                        yield from _errors(each, value[name], f"{path}.{name}", defs)
            elif key == "additionalProperties":
                extras = sorted(set(value) - set(schema.get("properties", ())))
                if extras:
                    yield path, f"unknown keys are not allowed: {', '.join(map(repr, extras))}"
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    yield from _errors(arg, item, f"{path}[{i}]", defs)
            elif key == "minItems" and len(value) < arg:
                yield path, f"{value!r} is too short"
            elif key == "maxItems" and len(value) > arg:
                yield path, f"{value!r} is too long"
            elif key == "uniqueItems" and arg and not _unique(value):
                yield path, f"{value!r} has non-unique elements"


def validate_config(config: dict) -> None:
    """ConfigError at the first, by JSON path, of the schema's rules that `config` breaks."""
    schema = _load_schema()
    first = min(_errors(schema, config, "$", schema.get("$defs", {})), key=lambda e: e[0],
                default=None)
    if first:
        raise ConfigError(f"config invalid at {first[0]}: {first[1]}")


def canonical_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _set_keys(block: dict, *keys: str) -> dict:
    """The `keys` that `block` sets, for a library parameter that owns their defaults."""
    return {key: block[key] for key in keys if key in block}


def build_system(block: dict) -> SystemModel:
    """SystemModel from the config 'system' block (ω_b units)."""
    return SystemModel(
        topology=Topology(block["topology"]),
        modes=tuple(ModeParams(**{**_ROLE_DEFAULTS[i % 2], **entry})
                    for i, entry in enumerate(block["modes"])),
        couplings=tuple(CouplingParams(**c) for c in block["couplings"]),
        **_set_keys(block, "temperature"),
    )


def chain_system(block: dict, n_modes: int, **system) -> dict:
    """
    The 'system' block of the chain task's n-mode chain: modes h0, l0, h1, ...,
    high-mode detunings alternating detuning, detuning_alt per unit, one coupling,
    and the other system keys given (temperature).
    """
    modes = [
        {"label": f"h{i // 2}", "kappa": block["kappa_high"],
         "detuning": block["detuning_alt"] if i % 4 else block["detuning"]}
        if i % 2 == 0 else {"label": f"l{i // 2}", "kappa": block["kappa_low"]}
        for i in range(n_modes)
    ]
    return {"topology": "chain", "modes": modes,
            "couplings": [block["coupling"]] * (n_modes - 1), **system}


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
        data = {name: np.asarray(values, dtype=float).tolist() for name, values in columns.items()}
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


def _grid(config: dict, default=(-3.0, 3.0, 1201)) -> np.ndarray:
    block = config.get("grid", {})
    lo = block.get("min", default[0])
    hi = block.get("max", default[1])
    points = block.get("points", default[2])
    return check_range("grid min, max", lo, hi, points)


def _basename(config: dict, fallback: str) -> str:
    return config.get("output", {}).get("basename", fallback)


def _port_pair_columns(gamma_stacks, rows: int, legs: dict, pairs: dict) -> dict:
    """Transmission then asymmetry float64 columns (see spectra.port_columns) of `rows` Gammas."""
    columns, end = np.empty((len(legs) + len(pairs), rows)), 0
    for g in gamma_stacks:
        end += len(g)
        columns[:, end - len(g):end] = [*(spectra.transmission(g, *leg) for leg in legs.values()),
                                        *(spectra.pair_asymmetry(g, p) for p in pairs.values())]
    return dict(zip([*legs, *pairs], columns))


def run_spectrum(config: dict, outdir: Path, fmt: str) -> None:
    model = build_system(config["system"])
    task = config.get("task", {})
    port = task.get("include_output_port")
    omegas = _grid(config)
    output = {}
    if port is not None:  # output_spectrum checks the port before the label is read
        values = spectra.output_spectrum(model, omegas, port)
        output[f"S_out_{model.modes[port].label}"] = values
    columns = {"omega": omegas, **_port_pair_columns(
        spectra.transfer_matrices(model, omegas), len(omegas), *spectra.port_columns(model))}
    columns.update(output)
    _write_table(outdir, _basename(config, "spectrum"), fmt, _metadata(config), columns)


def run_asymmetry(config: dict, outdir: Path, fmt: str) -> None:
    model = build_system(config["system"])
    task = config.get("task", {})
    coupling = task.get("coupling_index", 0)
    omega = task.get("omega", spectra.resonance_probe_frequency())
    thetas = _grid(config, (0.0, 2.0 * np.pi, 721))
    swept = coupling if isinstance(coupling, list) else [coupling]
    # Two couplings sweep grid.points^2 phase pairs; a table takes at most grid.points' cap.
    cap = _load_schema()["properties"]["grid"]["properties"]["points"]["maximum"]
    if (rows := len(thetas) ** len(swept)) > cap:
        raise ConfigError(f"coupling_index {coupling}: {len(thetas)}^2 phase pairs exceed"
                          f" the {cap} rows of a table")
    gammas = spectra.phase_grid(model, omega, dict.fromkeys(swept, thetas))
    if isinstance(coupling, list):
        axes = np.meshgrid(thetas, thetas, indexing="ij")
        labels = [model.modes[coupled_modes(i)[0]].label for i in coupling]
        if labels[0] == labels[1]:
            raise ConfigError(
                f"coupling_index {coupling}: both couplings join high mode {labels[0]},"
                f" so both phase columns would be named theta_{labels[0]}"
            )
        columns = {f"theta_{label}": axis.ravel() for label, axis in zip(labels, axes)}
    else:
        columns = {"theta": thetas}
    columns.update(_port_pair_columns(gammas, rows, {}, spectra.port_columns(model)[1]))
    meta = _metadata(config, {"omega": omega})
    _write_table(outdir, _basename(config, "asymmetry"), fmt, meta, columns)


#: The snr and fmap task keys that are spectra.SnrSolver's readout keywords.
_READOUT_KEYS = ("signal_port", "readout_port", "psi")


def run_snr(config: dict, outdir: Path, fmt: str) -> None:
    model = build_system(config["system"])
    task = config.get("task", {})
    omegas = _grid(config)
    s_ap, snr = spectra.snr_spectrum(model, omegas, **_set_keys(task, *_READOUT_KEYS))
    columns = {"omega": omegas, "S_AP": s_ap, "S_SNR": snr}
    _write_table(outdir, _basename(config, "snr"), fmt, _metadata(config), columns)


def run_fmap(config: dict, outdir: Path, fmt: str) -> None:
    from . import metrics
    task = config.get("task", {})
    if "ics" not in task:
        raise ConfigError("fmap task requires an 'ics' baseline system block")
    cfg = metrics.ComparisonConfig(
        build_system(config["system"]), build_system(task["ics"]),
        **_set_keys(task, "omega_range"), readout=_set_keys(task, *_READOUT_KEYS),
    )
    lo = task.get("delta_min", -2.0)
    hi = task.get("delta_max", 2.0)
    points = task.get("delta_points", 41)
    deltas = check_range("delta_min, delta_max", lo, hi, points)
    result = metrics.f_map(cfg, deltas, deltas)
    log.debug("fmap coarse scans: %d of %d cells exact, worst cond_1(V) %.3g",
              result.scan["fallback_cells"], result.values.size, result.scan["max_eigvec_cond"])
    # Every cell, unstable ones included (listed under unstable_cells), holds
    # the algebraic ratio f; lg f is undefined where f <= 0 and written as null/nan.
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
    from . import chain
    task = config.get("task", {})
    block = task.get("chain")
    if block is None:
        raise ConfigError("chain task requires a 'chain' block")
    # One model, the longest length; every shorter length is its leading sub-chain.
    n_values = block["n_values"]
    system = chain_system(block, max(n_values), **_set_keys(config["system"], "temperature"))
    omega = block.get("omega", 0.3)
    report = chain.scaling_fit(build_system(system), n_values, omega)
    meta = _metadata(config, {"omega": omega})
    base = _basename(config, "chain")
    fit = dataclasses.asdict(report)
    if fmt == "csv":
        _write_table(outdir, base, fmt, meta, {"n_modes": report.n_values, "gain": report.gains})
        _write_json(outdir / f"{base}_fit.json", meta, {"fit": fit})
    else:
        _write_json(outdir / f"{base}.json", meta, {"fit": fit})


def run_oracle(config: dict, outdir: Path, fmt: str) -> None:
    from . import oracle
    model = build_system(config["system"])
    # The schema's other task.oracle keys are OracleConfig fields, which own their defaults.
    block = dict(config.get("task", {}).get("oracle", {}))
    threshold = block.pop("min_fraction", 0.99)
    seed = config.get("seed")
    if seed is None:
        raise ConfigError("oracle task requires a top-level seed")
    cfg = oracle.OracleConfig(model=model, seed=seed, **block)
    run = oracle.simulate(cfg)
    predicted = spectra.output_spectrum(model, run.omega, cfg.port)
    report = oracle.compare(run, predicted)
    meta = _metadata(config, {"n_segments": run.n_segments})
    base = _basename(config, "oracle")
    _write_json(outdir / f"{base}.json", meta, dataclasses.asdict(report))
    if report.fraction_within < threshold:
        raise OracleComparisonError(
            f"only {report.fraction_within:.4f} of bins within 3 standard errors"
            f" (needs {threshold})"
        )


def run_optimize(config: dict, outdir: Path, fmt: str) -> None:
    from . import metrics
    model = build_system(config["system"])
    task = config.get("task", {})
    which = task.get("which", "mb")
    target = task.get("target", -1.0)
    omega = task.get("omega", spectra.resonance_probe_frequency())
    result = metrics.find_phase_for_target_R(model, target, which, omega)
    meta = _metadata(config, {"omega": omega})
    base = _basename(config, "optimize")
    _write_json(outdir / f"{base}.json", meta, {
        **dataclasses.asdict(result), "which": which, "hit_extreme": result.hit_extreme})


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
            seed = [] if args.seed is None else [f"seed={args.seed}"]
            config = load_config(args.config, [*args.set, *seed])
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
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except OracleComparisonError as exc:
        log.error("oracle comparison failed: %s", exc)
        return EXIT_ORACLE


def console_entry() -> None:
    """
    The process entry (`sasc`, `python -m sasc.cli`): main(), then, once every
    artifact is closed, an exit without interpreter teardown, which only frees
    memory. An exception or argparse's SystemExit escapes as usual, and so
    does every exit under a profiler, tracer or monitoring tool, which writes
    its output at teardown.
    """
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile and coverage use it
    if (sys.getprofile() is not None or sys.gettrace() is not None
            or monitoring is not None and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    logging.shutdown()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    console_entry()
