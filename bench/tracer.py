"""
Run the sasc CLI with span and count recorders around its public functions.

    python3 bench/tracer.py TRACE_JSON -- <sasc subcommand and arguments>

Every public function defined in sasc.cli, .model, .spectra, .metrics,
.chain, .oracle and .numerics is wrapped, and the wrapper is bound
wherever the original was: on its own module, on every module that
imported it by name, and in module-level dispatch tables such as the
CLI's task-runner map. Spans nest by call order; a span's self time is its
duration minus the spans it caused. TRACE_JSON receives per-function
call counts, self and inclusive times and the extra counters below;
TRACE_JSON with ".spans.json" appended receives every span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "model", "spectra", "metrics", "chain", "oracle", "numerics")
#: Functions whose every call duration is kept, for percentiles.
TIMED_CALLS = ("metrics.max_snr_over_omega",)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []  # (name, parent span, start, end) ns
        self.stack: list[list] = []  # [span index, start, time in child spans]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        self.incl_ns: defaultdict = defaultdict(int)
        self.durations: defaultdict = defaultdict(list)
        self.hooks = {
            "numerics.solve_batch": self._count_systems,
            "metrics.golden_section_max": self._count_evaluations,
        }

    def _count_systems(self, args, kwargs):
        systems = len(args[0] if args else kwargs["a_stack"])
        self.counts["numerics.solve_batch.systems"] += systems
        self.counts["numerics.solve_batch.size1"] += systems == 1
        return args, kwargs

    def _count_evaluations(self, args, kwargs):
        fun = args[0] if args else kwargs.pop("fun")

        def counted(x):
            self.counts["metrics.golden_section_max.evals"] += 1
            return fun(x)

        return (counted, *args[1:]), kwargs

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        keep = name in TIMED_CALLS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            parent = self.stack[-1][0] if self.stack else -1
            index = len(self.spans)
            self.spans.append((name_id, parent, 0, 0))
            frame = [index, time.perf_counter_ns(), 0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                duration = end - frame[1]
                self.spans[index] = (name_id, parent, frame[1], end)
                self.self_ns[name] += duration - frame[2]
                self.incl_ns[name] += duration
                if keep:
                    self.durations[name].append(duration / 1e9)
                if self.stack:
                    self.stack[-1][2] += duration

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"sasc.{short}") for short in MODULES]
        wrapped = {}
        for short, module in zip(MODULES, modules):
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrapped[value] = self.wrap(f"{short}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if inspect.isfunction(item) and item in wrapped:
                            value[key] = wrapped[item]

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "incl_s": {k: v / 1e9 for k, v in self.incl_ns.items()},
            "durations_s": dict(self.durations),
        }

    def spans_json(self) -> dict:
        origin = self.spans[0][2] if self.spans else 0
        return {
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "names": self.names,
            "spans": [(n, p, s - origin, e - origin) for n, p, s, e in self.spans],
        }


def main() -> int:
    trace_path, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON -- <sasc arguments>")
    recorder = Recorder()
    recorder.install()
    from sasc import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.summary(), fh)
        with open(trace_path + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(recorder.spans_json(), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
