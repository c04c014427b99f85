"""
The sasc benchmark.

    python3 bench/run.py --workload fmap --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                      # every workload, untraced then traced

One client in a closed loop: each workload is a fixed sequence of fresh
`sasc` CLI processes (sources from ./src of this checkout), repeated until
--seconds have passed. Every artifact is checked (bench/check.py). With
--trace 0 the last line of standard output carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of two traced passes
(bench/tracer.py), the layer probes (bench/probes.py) and the tracing
overhead against one untraced pass. bench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
SETUP_PER_PASS = 3  # set-up runs before each pass, so they sample the same stretch of time
# Core-speed calibration. The shared host slows a vCPU by 30-50 % for
# seconds to minutes at a time, so raw wall times of identical runs spread
# by 12-28 %. Each child runs pinned to one CPU. Before, after, and every
# SAMPLE_EVERY_S during its run (the child stopped meanwhile), the benchmark
# times a fixed kernel on that CPU. The child's wall time, pauses excluded,
# is scaled by REFERENCE_KERNEL_S over the kernel's mean time: seconds on a
# core as fast as an uncontended one of the 2-vCPU sandbox where the
# benchmark was defined (bench/README.md).
REFERENCE_KERNEL_S = 0.009
KERNEL_LOOPS = 600
SAMPLE_EVERY_S = 0.2
_KERNEL_MATRIX = np.eye(6, dtype=complex) * 2.0 + 0.1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# What the CLI does before any transfer-matrix work: interpreter start,
# import, config load and validation, and the model build.
SETUP_CODE = (
    "import sys; from sasc import cli; config = cli.load_config(sys.argv[1]); "
    "cli.build_system(config['system']); print(cli.__file__)"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
COUNT_SUFFIXES = (".calls", ".systems", ".evals", ".bytes_written")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken interpreter)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["SASC_LOG"] = "INFO"
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), nproc)) if current.isdigit() else "1"
    return env


def kernel_s() -> float:
    """Time of the calibration kernel: small numpy solves inside a Python loop, like sasc."""
    start = time.perf_counter()
    for _ in range(KERNEL_LOOPS):
        np.linalg.solve(_KERNEL_MATRIX, _KERNEL_MATRIX)
        total = 0
        for i in range(150):
            total += i * i
    return time.perf_counter() - start


@dataclass
class ChildRun:
    code: int
    wall_s: float  # start to exit, pauses excluded
    rss_mb: float
    kernel_s: float  # mean calibration-kernel time around and during the run

    @property
    def calibrated_s(self) -> float:
        return self.wall_s * REFERENCE_KERNEL_S / self.kernel_s


def run_child(argv: list[str], log_path: Path, env: dict) -> ChildRun:
    """Run one child to exit, timing the calibration kernel on this CPU as it goes."""
    kernels = [kernel_s()]
    paused = 0.0
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        exited = os.pidfd_open(proc.pid)
        try:
            while True:
                if select.select([exited], [], [], SAMPLE_EVERY_S)[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                stop = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    break
                kernels.append(kernel_s())
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - stop
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(exited)
        wall = time.perf_counter() - start - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    kernels.append(kernel_s())
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0, statistics.mean(kernels))


@dataclass
class PassResult:
    walls: list = field(default_factory=list)  # calibrated seconds, one per invocation
    raw_walls: list = field(default_factory=list)  # measured seconds, one per invocation
    rss_mb: list = field(default_factory=list)  # peak RSS, one per invocation
    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    compared: int = 0
    bytes_written: int = 0
    errors: list = field(default_factory=list)
    payloads: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)


class Runner:
    """Runs one workload's passes inside its own work directory."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        (self.dir / "logs").mkdir()
        self.configs = []
        for inv in workload.invocations:
            path = self.dir / "configs" / f"{inv.basename}.json"
            path.write_text(json.dumps(inv.config, indent=2), encoding="utf-8")
            self.configs.append(path)
        self.reference = check.load_reference(workload.name, seed)
        self.passes = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin_next_cpu(self) -> None:
        """Pin this process, and so its children, to the CPU for the next pass."""
        os.sched_setaffinity(0, {self.cpus[self.passes % len(self.cpus)]})

    def _log(self, stem: str) -> Path:
        return self.dir / "logs" / f"{stem}.log"

    def verify_sources(self) -> None:
        """One untimed set-up run: compiles bytecode and proves ./src is what runs."""
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(self.configs[0])],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not Path(lines[-1]).is_relative_to(ROOT / "src"):
            raise BenchError(f"sasc set-up failed or ran from outside {ROOT / 'src'}:\n{done.stderr}")

    def setup_time(self) -> tuple[float, float]:
        """(calibrated, measured) seconds of one set-up run."""
        log = self._log(f"setup_pass{self.passes + 1}")
        child = run_child([sys.executable, "-c", SETUP_CODE, str(self.configs[0])], log, self.env)
        if child.code != 0:
            raise BenchError(f"set-up run exited {child.code}; see {log}")
        return child.calibrated_s, child.wall_s

    def run_pass(self, traced: bool = False) -> PassResult:
        self.pin_next_cpu()
        self.passes += 1
        tag = f"pass{self.passes}"
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        result = PassResult()
        for inv, config_path in zip(self.workload.invocations, self.configs):
            cli_args = [inv.command, "--config", str(config_path), "--out", str(out)]
            trace_path = self.dir / "logs" / f"{tag}_{inv.basename}.trace.json"
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "sasc.cli", *cli_args]
            child = run_child(argv, self._log(f"{tag}_{inv.basename}"), self.env)
            result.attempted += 1
            result.walls.append(child.calibrated_s)
            result.raw_walls.append(child.wall_s)
            result.rss_mb.append(child.rss_mb)
            try:
                if child.code != 0:
                    raise check.CheckFailure(f"{inv.basename}: exit code {child.code}")
                for name in inv.artifacts:
                    payload = check.read_payload(out / name)
                    check.check_invariants(inv.command, name, payload, inv.rows)
                    result.payloads[name] = payload
                    if self.reference is not None:
                        if name not in self.reference:
                            raise check.CheckFailure(f"{name}: no stored reference payload")
                        err, count = check.compare(name, payload, self.reference[name])
                        result.max_rel_err = max(result.max_rel_err, err)
                        result.compared += count
                        if err > check.RTOL:
                            raise check.CheckFailure(
                                f"{name}: differs from the reference by {err:.3g} (> {check.RTOL})")
            except (check.CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
                result.failed += 1
                result.errors.append(f"{type(exc).__name__}: {exc}")
            if traced and trace_path.is_file():
                result.traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
        result.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        return result


def _merge_traces(traces: list[dict]) -> dict:
    merged = {"calls": {}, "counts": {}, "self_s": {}, "incl_s": {}, "durations_s": {}}
    for trace in traces:
        for key in ("calls", "counts", "self_s", "incl_s"):
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, values in trace["durations_s"].items():
            merged["durations_s"].setdefault(name, []).extend(values)
    return merged


def layer_metrics(trace: dict, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass. `.s` values are self times."""
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]

    def s(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def n(name: str) -> int:
        return calls.get(name, 0)

    snr_ms = np.asarray(trace["durations_s"].get("metrics.max_snr_over_omega", []), float) * 1e3
    batches = n("numerics.solve_batch")
    return {
        "cli.load_config.s": s("cli.load_config", "cli.validate_config"),
        "cli.self_s": s(*(name for name in self_s if name.startswith("cli.run_"))),
        "cli.bytes_written": bytes_written,
        "model.build_drift_matrix.calls": n("model.build_drift_matrix"),
        "model.build_drift_matrix.s": s("model.build_drift_matrix"),
        "model.check_stability.calls": n("model.check_stability"),
        "model.check_stability.s": s("model.check_stability", "model.require_stable"),
        "spectra.transfer_matrix.calls": n("spectra.transfer_matrix"),
        "spectra.transfer_matrix.s": s("spectra.transfer_matrix"),
        "spectra.causal_transfer_matrix.calls": n("spectra.causal_transfer_matrix"),
        "spectra.causal_transfer_matrix.s": s("spectra.causal_transfer_matrix"),
        "spectra.output_spectrum.s": s("spectra.output_spectrum"),
        "spectra.snr_path.s": s("spectra.amplification_spectrum", "spectra.snr_spectrum"),
        "metrics.f_map.s": s("metrics.f_map"),
        "metrics.max_snr_over_omega.calls": n("metrics.max_snr_over_omega"),
        "metrics.max_snr_over_omega.s": s("metrics.max_snr_over_omega"),
        "metrics.max_snr_over_omega.incl_s": trace["incl_s"].get("metrics.max_snr_over_omega", 0.0),
        "metrics.max_snr_over_omega.p50_ms": float(np.percentile(snr_ms, 50)) if snr_ms.size else 0.0,
        "metrics.max_snr_over_omega.p99_ms": float(np.percentile(snr_ms, 99)) if snr_ms.size else 0.0,
        "metrics.golden_section_max.evals": counts.get("metrics.golden_section_max.evals", 0),
        "chain.scaling_fit.s": s("chain.scaling_fit"),
        "chain.end_to_end_gain.calls": n("chain.end_to_end_gain"),
        "chain.end_to_end_gain.s": s("chain.end_to_end_gain"),
        "oracle.simulate.self_s": s("oracle.simulate"),
        "oracle.compare.s": s("oracle.compare"),
        "numerics.lu_solve.calls": n("numerics.lu_solve"),
        "numerics.lu_solve.s": s("numerics.lu_solve", "numerics.lu_factor"),
        "numerics.solve_batch.calls": batches,
        "numerics.solve_batch.s": s("numerics.solve_batch"),
        "numerics.solve_batch.systems": counts.get("numerics.solve_batch.systems", 0),
        "numerics.solve_batch.size1_frac":
            counts.get("numerics.solve_batch.size1", 0) / batches if batches else 0.0,
        "numerics.eigenvalues.calls": n("numerics.eigenvalues"),
        "numerics.eigenvalues.s": s("numerics.eigenvalues"),
        "numerics.welch_psd.s": s("numerics.welch_psd"),
        "numerics.invert.calls": n("numerics.invert"),
    }


def layer_unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES) or name in ("check.compared_values", "trace.count_drift"):
        return "bytes" if name.endswith(".bytes_written") else "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", ".max_rel_err")):
        return "ratio"
    return "s"


def invocation_medians(passes: list[PassResult], attr: str) -> list[float]:
    """Per invocation of the workload, the median of `attr` over the passes."""
    return [statistics.median(values) for values in zip(*(getattr(p, attr) for p in passes))]


def measure(runner: Runner, seconds: float) -> tuple[dict, list[PassResult], dict]:
    """
    End-to-end metrics of whole passes, each after set-up runs, until `seconds`
    have passed; and the same times uncalibrated, for the record.
    """
    runner.verify_sources()
    setup: list[tuple[float, float]] = []
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        runner.pin_next_cpu()
        setup += [runner.setup_time() for _ in range(SETUP_PER_PASS)]
        passes.append(runner.run_pass())
    wall = sum(invocation_medians(passes, "walls"))
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(scaled for scaled, _ in setup),
        "peak_rss_mb": max(invocation_medians(passes, "rss_mb")),
        "work_per_s": runner.workload.work / wall,
    }
    raw = {
        "wall_s": sum(invocation_medians(passes, "raw_walls")),
        "setup_s": statistics.median(raw for _, raw in setup),
    }
    return metrics, passes, raw


def trace(runner: Runner) -> tuple[dict, list[PassResult], dict]:
    """Per-layer metrics: one untraced pass, two traced passes, and the probes."""
    runner.verify_sources()
    plain = runner.run_pass()
    traced = [runner.run_pass(traced=True) for _ in range(2)]
    layers = [layer_metrics(_merge_traces(p.traces), p.bytes_written) for p in traced]
    drifted = [k for k in layers[0] if k.endswith(COUNT_SUFFIXES) and layers[0][k] != layers[1][k]]
    for name in drifted:
        print(f"WARNING: count {name} differs between traced passes: "
              f"{layers[0][name]} != {layers[1][name]}", file=sys.stderr)
    metrics = {
        k: layers[0][k] if k.endswith(COUNT_SUFFIXES) else statistics.mean([layers[0][k], layers[1][k]])
        for k in layers[0]
    }
    passes = [plain, *traced]
    metrics["check.max_rel_err"] = max(p.max_rel_err for p in passes)
    metrics["check.compared_values"] = plain.compared
    metrics["trace.overhead_frac"] = sum(invocation_medians(traced, "walls")) / sum(plain.walls) - 1.0
    metrics["trace.count_drift"] = len(drifted)
    done = subprocess.run(
        [sys.executable, str(BENCH / "probes.py"), str(runner.configs[0])],
        cwd=ROOT, env=runner.env, capture_output=True, text=True, timeout=150,
    )
    if done.returncode != 0:
        raise BenchError(f"probes failed:\n{done.stderr}")
    metrics.update(json.loads(done.stdout.strip().splitlines()[-1]))
    return metrics, passes, {}


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent directory's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(runner: Runner) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": runner.workload.name,
        "seed": runner.seed,
        "sizes": runner.workload.sizes,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads": {var: runner.env[var] for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "reference": runner.reference is not None,
        "reference_kernel_s": REFERENCE_KERNEL_S,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    runner = Runner(workloads.build(name, seed), seed)
    metrics, passes, raw = trace(runner) if traced else measure(runner, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    info = provenance(runner)
    report = {
        "provenance": info,
        "passes": len(passes),
        "failed_frac": failed / attempted,
        "errors": errors,
        "pass_walls_s": [p.walls for p in passes],
        "pass_raw_walls_s": [p.raw_walls for p in passes],
        "metrics": metrics,
        "uncalibrated": raw,
    }
    (runner.dir / f"result_trace{int(traced)}.json").write_text(
        json.dumps(report, indent=2), encoding="utf-8")
    print("# provenance " + json.dumps(info, sort_keys=True))
    for error in errors:
        print(f"# FAILED {error}")
    print(f"# {name}: {len(passes)} passes, failed_frac {failed / attempted:g}")
    units = END_TO_END_UNITS if not traced else {k: layer_unit(k) for k in metrics}
    for key, value in metrics.items():
        label = f"{key} ({runner.workload.work_unit}_per_s)" if key == "work_per_s" else key
        print(f"# {name:7s} {label:44s} {value:>16.6g} {units[key]}")
    for key, value in raw.items():
        print(f"# {name:7s} {key + ' (uncalibrated)':44s} {value:>16.6g} s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.BUILDERS),
                        help="one workload; omit to run all, untraced then traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sasc" / "cli.py").is_file():
        print(f"error: no sasc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            parts = {(name, traced): run_one(name, args.seed, args.seconds, traced)
                     for name in workloads.BUILDERS for traced in (False, True)}
            result = {
                "correct": all(r["correct"] for r in parts.values()),
                "attempted": sum(r["attempted"] for r in parts.values()),
                "failed": sum(r["failed"] for r in parts.values()),
                "metrics": {f"{name}.{key}": value for (name, _), r in parts.items()
                            for key, value in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
