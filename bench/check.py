"""
Correctness gate for the artifacts of one workload pass.

Each artifact's data payload (CSV rows without the '#' metadata lines,
or a JSON object without its "metadata" key) must satisfy the
invariants of its command, and, when a reference payload is stored for
the seed, match it under a relative tolerance.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Elementwise |a - b| <= RTOL * max(|b|, FLOOR * max|column|). The floor keeps
#: values near a zero crossing (R ~ 0, lg f ~ 0) from turning last-digit
#: differences into large relative errors.
RTOL = 1e-6
FLOOR = 1e-6

#: The oracle agreement threshold that the CLI's `min_fraction` defaults to.
ORACLE_MIN_FRACTION = 0.99


class CheckFailure(Exception):
    """An artifact violates an invariant or departs from its reference."""


def read_payload(path: Path):
    """Data payload of one artifact: {"header", "rows"} for CSV, a dict for JSON."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        data = json.loads(text)
        data.pop("metadata", None)
        return data
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {"header": header, "rows": rows}


def _columns(payload: dict) -> dict[str, np.ndarray]:
    table = np.asarray(payload["rows"], dtype=float).reshape(-1, len(payload["header"]))
    return dict(zip(payload["header"], table.T))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def check_invariants(command: str, name: str, payload: dict, expected_rows: int | None) -> None:
    """Command-specific invariants that hold for every seed."""
    if name.endswith(".csv"):
        cols = _columns(payload)
        if expected_rows is not None:
            _require(len(payload["rows"]) == expected_rows,
                     f"{name}: {len(payload['rows'])} rows, expected {expected_rows}")
        for col, values in cols.items():
            _require(bool(np.all(np.isfinite(values))), f"{name}: non-finite values in {col}")
            if col.startswith("R_"):
                _require(bool(np.all(np.abs(values) <= 1.0)), f"{name}: {col} outside [-1, 1]")
            if col.startswith(("T_", "S_")) or col == "gain":
                _require(bool(np.all(values >= 0.0)), f"{name}: negative {col}")
        if command == "chain":
            _require(bool(np.all(cols["gain"] > 0.0)), f"{name}: non-positive chain gain")
    elif command == "oracle":
        fraction = payload["fraction_within"]
        _require(fraction >= ORACLE_MIN_FRACTION,
                 f"{name}: fraction_within {fraction} < {ORACLE_MIN_FRACTION}")
        _require(payload["n_bins"] > 0 and math.isfinite(payload["max_abs_z"]),
                 f"{name}: empty or non-finite comparison")
    elif command == "chain":
        fit = payload["fit"]
        for key in ("slope", "intercept", "r_squared", "base"):
            _require(math.isfinite(fit[key]), f"{name}: non-finite fit {key}")


def _flatten(value, prefix: str = ""):
    """(path, value) leaves of a JSON payload, numbers as floats."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}/{key}")
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}/{i}")
    elif isinstance(value, list):
        yield prefix, np.asarray([np.nan if v is None else v for v in value], dtype=float)
    elif isinstance(value, str):
        yield prefix, value
    else:
        yield prefix, np.asarray([value], dtype=float)


def compare(name: str, payload, reference) -> tuple[float, int]:
    """
    (max relative error, values compared) of payload against its reference.
    A mismatch in shape or fields raises; the caller judges the error against RTOL.
    """
    if "header" in reference:
        _require(payload["header"] == reference["header"], f"{name}: header differs")
        got = _columns(payload)
        want = _columns(reference)
    else:
        got = dict(_flatten(payload))
        want = dict(_flatten(reference))
    _require(sorted(got) == sorted(want), f"{name}: fields differ from the reference")
    worst, count = 0.0, 0
    for key, ref in want.items():
        val = got[key]
        if isinstance(ref, str):
            _require(val == ref, f"{name}: {key} differs")
            continue
        _require(val.shape == ref.shape, f"{name}: {key} has {val.size} values, expected {ref.size}")
        both_nan = np.isnan(val) & np.isnan(ref)
        finite = np.isfinite(ref)
        scale = float(np.max(np.abs(ref[finite]))) if finite.any() else 0.0
        denom = np.maximum(np.abs(ref), FLOOR * scale)
        with np.errstate(invalid="ignore", divide="ignore"):
            err = np.where(both_nan | (val == ref), 0.0, np.abs(val - ref) / denom)
        # A NaN against a number counts as the largest finite error, so the
        # result stays valid JSON.
        if err.size:
            worst = max(worst, float(np.max(np.nan_to_num(err, nan=np.finfo(float).max))))
        count += err.size
    return worst, count


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}_seed{seed}.json.gz"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(workload: str, seed: int, payloads: dict) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-identical across regenerations.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(payloads, sort_keys=True).encode("utf-8"))
    return path
