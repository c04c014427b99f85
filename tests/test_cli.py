"""Command-line interface: configs, exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import with_phases
from sasc import cli, spectra


def du_system(kappa_a=1.0, delta_a=0.0, magnitude=0.1, phase=0.0):
    return {
        "topology": "du",
        "modes": [
            {"label": "a", "kappa": kappa_a, "detuning": delta_a,
             "absolute_frequency": 2.0 * np.pi * 10e9},
            {"label": "b", "kappa": 1e-4, "detuning": 1.0,
             "absolute_frequency": 2.0 * np.pi * 10e6},
        ],
        "couplings": [{"magnitude": magnitude, "phase": phase}],
        "temperature": 0.01,
    }


def chain_system(n_modes=5):
    modes = [
        {"label": f"h{i // 2}", "kappa": 0.5, "detuning": -0.8 if i % 4 == 0 else 1.2}
        if i % 2 == 0 else {"label": f"l{i // 2}", "kappa": 0.4, "detuning": 1.0}
        for i in range(n_modes)
    ]
    couplings = [{"magnitude": 0.05, "phase": 0.3 * i} for i in range(n_modes - 1)]
    return {"topology": "chain", "modes": modes, "couplings": couplings,
            "temperature": 0.01}


def fmap_config(**task):
    """A 3x3 fmap task (tunable scheme against a fixed baseline); task keys override."""
    system = {
        "topology": "three",
        "modes": [
            {"label": "m", "kappa": 1.0, "detuning": 0.0},
            {"label": "b", "kappa": 1e-4, "detuning": 1.0},
            {"label": "c", "kappa": 0.1, "detuning": 0.0},
        ],
        "couplings": [{"magnitude": 0.2, "phase": 1.0471975511965976},
                      {"magnitude": 0.1, "phase": 2.0943951023931953}],
        "temperature": 0.01,
    }
    ics = {
        "topology": "three",
        "modes": [
            {"label": "m", "kappa": 0.1, "detuning": 1.0},
            {"label": "b", "kappa": 1e-4, "detuning": 1.0},
            {"label": "c", "kappa": 0.1, "detuning": 1.0},
        ],
        "couplings": [{"magnitude": 0.2}, {"magnitude": 0.1}],
        "temperature": 0.01,
    }
    return {"system": system,
            "task": {"kind": "fmap", "ics": ics, "delta_min": -0.5, "delta_max": 0.5,
                     "delta_points": 3, **task}}


def write_config(path, config):
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def run_cli(tmp_path, command, config, extra=()):
    path = write_config(tmp_path / "config.json", config)
    return cli.main([command, "--config", path, "--out", str(tmp_path), *extra])


class TestConfigValidation:
    def test_invalid_kappa_names_the_key(self, tmp_path, caplog):
        config = {"system": du_system(kappa_a=-1.0),
                  "task": {"kind": "spectrum"}}
        code = run_cli(tmp_path, "spectrum", config)
        assert code == cli.EXIT_CONFIG
        assert "kappa" in caplog.text

    def test_unknown_keys_rejected(self, tmp_path):
        config = {"system": du_system(), "task": {"kind": "spectrum"},
                  "surprise": 1}
        assert run_cli(tmp_path, "spectrum", config) == cli.EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = cli.main(["spectrum", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_task_kind_must_match_subcommand(self, tmp_path):
        config = {"system": du_system(), "task": {"kind": "snr"}}
        assert run_cli(tmp_path, "spectrum", config) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, task", [
        ("spectrum", {"include_output_port": 5}),
        ("snr", {"readout_port": 7}),
        ("snr", {"signal_port": 7}),
        ("asymmetry", {"coupling_index": 3}),
        ("oracle", {"oracle": {"port": 2, "n_steps": 8192, "ensemble": 4,
                               "segment_length": 1024}}),
        ("optimize", {"which": "mb", "target": -1.0}),
    ], ids=["include_output_port", "readout_port", "signal_port",
            "coupling_index", "oracle.port", "which"])
    def test_task_indices_must_exist_in_the_system(self, tmp_path, caplog, command, task):
        config = {"system": du_system(), "task": {"kind": command, **task},
                  "grid": {"min": -1.0, "max": 1.0, "points": 5}, "seed": 1}
        assert run_cli(tmp_path, command, config) == cli.EXIT_CONFIG
        assert "config error" in caplog.text

    def test_low_mode_detuning_is_fixed_at_one(self, tmp_path):
        system = du_system()
        system["modes"][1]["detuning"] = 1.3
        config = {"system": system, "task": {"kind": "spectrum"},
                  "grid": {"min": -1.0, "max": 1.0, "points": 5}}
        assert run_cli(tmp_path, "spectrum", config) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, config", [
        ("fmap", fmap_config(delta_min=0.5, delta_max=-0.5)),
        ("fmap", {**fmap_config(), "system": du_system()}),
        ("oracle", {"system": du_system(), "seed": 1, "task": {"kind": "oracle", "oracle": {
            "n_steps": 512, "ensemble": 4, "segment_length": 1024}}}),
        ("asymmetry", {"system": fmap_config()["system"],
                       "task": {"kind": "asymmetry", "coupling_index": [1, 1]}}),
        ("asymmetry", {"system": fmap_config()["system"],
                       "task": {"kind": "asymmetry", "coupling_index": [0, 2]}}),
    ], ids=["fmap.delta_max", "fmap.two_mode_system", "oracle.n_steps",
            "asymmetry.repeated_coupling", "asymmetry.coupling_out_of_range"])
    def test_inconsistent_task_values_are_config_errors(self, tmp_path, caplog, command, config):
        assert run_cli(tmp_path, command, config) == cli.EXIT_CONFIG
        assert "config error" in caplog.text

    @pytest.mark.parametrize("path", [
        "system.modes.x.kappa", "system.modes.9.kappa", "system.modes.-1.kappa",
        "system.topology.x", "system.couplings.0.magnitude.x", "system.couplings.-1",
    ])
    def test_unresolvable_set_path_is_a_config_error(self, tmp_path, caplog, path):
        config = {"system": du_system(), "task": {"kind": "spectrum"},
                  "grid": {"min": -1.0, "max": 1.0, "points": 5}}
        code = run_cli(tmp_path, "spectrum", config, ("--set", f"{path}=1"))
        assert code == cli.EXIT_CONFIG
        assert f"--set {path}" in caplog.text

    @pytest.mark.parametrize("via", ["file", "set"])
    @pytest.mark.parametrize("command, setting, named", [
        ("fmap", "task.delta_min=NaN", "nan"), ("fmap", "task.delta_max=Infinity", "inf"),
        ("fmap", "task.psi=NaN", "nan"), ("fmap", "task.omega_range=[-Infinity,3.0]", "-inf"),
        ("snr", "grid.min=NaN", "nan"), ("snr", "task.psi=Infinity", "inf"),
        ("snr", "task.psi=" + "9" * 400, "9" * 400),
    ])
    def test_non_finite_numbers_are_config_errors(
        self, tmp_path, caplog, command, setting, named, via
    ):
        config = fmap_config() if command == "fmap" else {
            "system": du_system(), "task": {"kind": "snr"},
            "grid": {"min": -1.0, "max": 1.0, "points": 5}}
        key, _, raw = setting.partition("=")
        extra = ("--set", setting)
        if via == "file":
            *parents, leaf = key.split(".")
            node = config
            for part in parents:
                node = node[part]
            node[leaf] = json.loads(raw)
            extra = ()
        assert run_cli(tmp_path, command, config, extra) == cli.EXIT_CONFIG
        assert f"config invalid at $.{key}" in caplog.text
        assert f"{named} is not of type 'number'" in caplog.text

    def test_config_hash_is_canonical(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert cli.canonical_hash(a) == cli.canonical_hash(b)


class TestStabilityGate:
    def test_unstable_system_exits_3_without_artifacts(self, tmp_path):
        config = {"system": du_system(kappa_a=0.1, delta_a=-1.0, magnitude=0.5),
                  "task": {"kind": "spectrum"},
                  "grid": {"min": -2.0, "max": 2.0, "points": 11}}
        code = run_cli(tmp_path, "spectrum", config)
        assert code == cli.EXIT_INSTABILITY
        assert not list(tmp_path.glob("*.csv"))
        assert not list(tmp_path.glob("spectrum*"))

    def test_eigenvalue_failure_exits_4(self, tmp_path, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        config = {"system": du_system(), "task": {"kind": "spectrum"},
                  "grid": {"min": -2.0, "max": 2.0, "points": 11}}
        assert run_cli(tmp_path, "spectrum", config) == cli.EXIT_NUMERICAL


class TestFmapOmegaRange:
    @pytest.mark.parametrize("omega_range", [[3.0, -3.0], [1.0, 1.0]], ids=["reversed", "empty"])
    def test_non_increasing_range_is_a_config_error(self, tmp_path, omega_range):
        assert run_cli(tmp_path, "fmap", fmap_config(omega_range=omega_range)) == cli.EXIT_CONFIG
        assert not list(tmp_path.glob("fmap*"))

    @pytest.mark.parametrize("omega_range", [[0.9995, 1.0005], [-1.0009, -0.9991]],
                             ids=["upper", "lower"])
    def test_range_inside_a_resonance_band_is_a_config_error(self, tmp_path, caplog, omega_range):
        assert run_cli(tmp_path, "fmap", fmap_config(omega_range=omega_range)) == cli.EXIT_CONFIG
        assert "nothing to search" in caplog.text

    def test_zero_baseline_maximum_is_a_numerical_failure(self, tmp_path, caplog):
        # The range reaches past the excluded band, but the baseline's uncoupled
        # modes carry no signal to the readout port.
        config = fmap_config(omega_range=[0.9995, 1.0011])
        config["task"]["ics"]["couplings"] = [{"magnitude": 0.0}, {"magnitude": 0.0}]
        assert run_cli(tmp_path, "fmap", config) == cli.EXIT_NUMERICAL
        assert "baseline maximum SNR is 0.0" in caplog.text


class TestSpectrumRuns:
    def test_writes_csv_with_metadata_and_hash(self, tmp_path):
        config = {"system": du_system(), "task": {"kind": "spectrum"},
                  "grid": {"min": -2.0, "max": 2.0, "points": 21}}
        assert run_cli(tmp_path, "spectrum", config) == cli.EXIT_OK
        text = (tmp_path / "spectrum.csv").read_text(encoding="utf-8")
        assert f"# config_hash: {cli.canonical_hash(config)}" in text
        header = next(l for l in text.splitlines() if l.startswith("omega"))
        assert header.split(",")[:3] == ["omega", "T_a", "T_b"]
        assert "R_ab" in header

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = {"system": du_system(), "task": {"kind": "spectrum"},
                  "grid": {"min": -1.0, "max": 1.0, "points": 11}}
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        for sub in ("x", "y"):
            path = write_config(tmp_path / sub / "config.json", config)
            assert cli.main(["spectrum", "--config", path,
                             "--out", str(tmp_path / sub)]) == cli.EXIT_OK
        assert ((tmp_path / "x" / "spectrum.csv").read_bytes()
                == (tmp_path / "y" / "spectrum.csv").read_bytes())

    def test_set_override_changes_output_and_hash(self, tmp_path):
        config = {"system": du_system(), "task": {"kind": "spectrum"},
                  "grid": {"min": -1.0, "max": 1.0, "points": 11}}
        assert run_cli(tmp_path, "spectrum", config,
                       ("--set", "system.modes.0.kappa=2.0")) == cli.EXIT_OK
        text = (tmp_path / "spectrum.csv").read_text(encoding="utf-8")
        assert f"# config_hash: {cli.canonical_hash(config)}" not in text
        assert '"kappa": 2.0' in text

    def test_json_format(self, tmp_path):
        config = {"system": du_system(), "task": {"kind": "spectrum"},
                  "grid": {"min": -1.0, "max": 1.0, "points": 5}}
        assert run_cli(tmp_path, "spectrum", config,
                       ("--format", "json")) == cli.EXIT_OK
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["metadata"]["config_hash"] == cli.canonical_hash(config)
        assert len(payload["data"]["omega"]) == 5


class TestOtherTasks:
    def test_asymmetry_task(self, tmp_path):
        config = {"system": du_system(), "task": {"kind": "asymmetry"},
                  "grid": {"min": 0.0, "max": 6.283, "points": 25}}
        assert run_cli(tmp_path, "asymmetry", config) == cli.EXIT_OK
        lines = (tmp_path / "asymmetry.csv").read_text().splitlines()
        header = next(l for l in lines if l.startswith("theta"))
        assert header == "theta,R_ab"

    def test_two_coupling_asymmetry_matches_per_phase_reference(self, tmp_path):
        config = {"system": fmap_config()["system"],
                  "task": {"kind": "asymmetry", "coupling_index": [1, 0], "omega": 0.999999},
                  "grid": {"min": 0.0, "max": 6.0, "points": 5}}
        assert run_cli(tmp_path, "asymmetry", config, ("--format", "json")) == cli.EXIT_OK
        data = json.loads((tmp_path / "asymmetry.json").read_text())["data"]
        assert list(data) == sorted(["theta_c", "theta_m", "R_mb", "R_bc"])
        model = cli.build_system(config["system"])
        thetas = np.linspace(0.0, 6.0, 5)
        pairs = [(tc, tm) for tc in thetas for tm in thetas]  # coupling 1 varies slowest
        assert data["theta_c"] == [tc for tc, _ in pairs]
        assert data["theta_m"] == [tm for _, tm in pairs]
        for k, (tc, tm) in enumerate(pairs):
            probe = with_phases(model, {1: tc, 0: tm})
            gamma = spectra.transfer_matrix(probe, 0.999999).gamma
            for name, pair in spectra.port_columns(model)[1].items():
                assert data[name][k] == spectra.pair_asymmetry(gamma, pair)

    def test_snr_task(self, tmp_path):
        config = {"system": du_system(), "task": {"kind": "snr"},
                  "grid": {"min": -2.0, "max": 2.0, "points": 31}}
        assert run_cli(tmp_path, "snr", config) == cli.EXIT_OK
        header = next(l for l in (tmp_path / "snr.csv").read_text().splitlines()
                      if l.startswith("omega"))
        assert header == "omega,S_AP,S_SNR"

    def test_chain_task(self, tmp_path):
        config = {
            "system": du_system(),
            "task": {"kind": "chain", "chain": {
                "n_values": [2, 3, 4], "coupling": {"magnitude": 0.05},
                "detuning": -0.8, "detuning_alt": 1.2,
                "kappa_high": 0.5, "kappa_low": 0.4, "omega": 0.3,
            }},
        }
        assert run_cli(tmp_path, "chain", config) == cli.EXIT_OK
        fit = json.loads((tmp_path / "chain_fit.json").read_text())["fit"]
        assert fit["n_values"] == [2, 3, 4]
        assert fit["r_squared"] > 0.9

    @pytest.mark.parametrize("command, grid", [
        ("spectrum", {"min": -2.0, "max": 2.0, "points": 41}),
        ("asymmetry", {"min": 0.0, "max": 6.283, "points": 25}),
    ])
    def test_chain_port_pair_columns(self, tmp_path, command, grid):
        config = {"system": chain_system(5), "task": {"kind": command}, "grid": grid}
        assert run_cli(tmp_path, command, config) == cli.EXIT_OK
        lines = [l for l in (tmp_path / f"{command}.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        labels = ["h0", "l0", "h1", "l1", "h2"]
        pairs = list(zip(labels, labels[1:]))
        r_names = [f"R_{x}{y}" for x, y in pairs]
        if command == "spectrum":
            t_names = [name for x, y in pairs for name in (f"T_{y}_to_{x}", f"T_{x}_to_{y}")]
            assert header == ["omega", *t_names, *r_names]
        else:
            assert header == ["theta", *r_names]
        data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        assert data.shape == (grid["points"], len(header))
        columns = dict(zip(header, data.T))
        for name in r_names:
            assert np.all(np.abs(columns[name]) <= 1.0)

    def test_optimize_task(self, tmp_path):
        system = {
            "topology": "three",
            "modes": [
                {"label": "m", "kappa": 1.0, "detuning": 0.0},
                {"label": "b", "kappa": 1e-4, "detuning": 1.0},
                {"label": "c", "kappa": 1.0, "detuning": 0.0},
            ],
            "couplings": [{"magnitude": 0.1}, {"magnitude": 0.1}],
            "temperature": 0.01,
        }
        config = {"system": system,
                  "task": {"kind": "optimize", "which": "mb", "target": -1.0}}
        assert run_cli(tmp_path, "optimize", config) == cli.EXIT_OK
        payload = json.loads((tmp_path / "optimize.json").read_text())
        assert payload["hit_extreme"] is True
        assert abs(payload["achieved"] + 1.0) < 1e-2

    def test_fmap_task_small_grid(self, tmp_path):
        assert run_cli(tmp_path, "fmap", fmap_config()) == cli.EXIT_OK
        lines = (tmp_path / "fmap.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "delta_c,delta_m,lg_f"
        data = [l for l in lines if not l.startswith(("#", "delta"))]
        assert len(data) == 9


class TestOracleTask:
    def config(self, seed):
        return {
            "system": du_system(),
            "seed": seed,
            "task": {"kind": "oracle", "oracle": {
                "n_steps": 8192, "ensemble": 4, "segment_length": 1024,
            }},
        }

    def test_oracle_requires_seed(self, tmp_path):
        config = self.config(0)
        del config["seed"]
        assert run_cli(tmp_path, "oracle", config) == cli.EXIT_CONFIG

    def test_oversized_step_is_a_numerical_failure(self, tmp_path):
        config = self.config(1)
        config["task"]["oracle"]["dt"] = 0.5
        assert run_cli(tmp_path, "oracle", config) == cli.EXIT_NUMERICAL

    def test_short_noisy_run_fails_comparison(self, tmp_path):
        # Deterministic: with this seed the short run leaves >1% of bins
        # outside three standard errors.
        assert run_cli(tmp_path, "oracle", self.config(33)) == cli.EXIT_ORACLE
        report = json.loads((tmp_path / "oracle.json").read_text())
        assert report["fraction_within"] < 0.99


class TestFigures:
    def test_fig2_artifacts(self, tmp_path):
        assert cli.main(["figures", "fig2", "--out", str(tmp_path)]) == cli.EXIT_OK
        for name in ("fig2_a.csv", "fig2_b.csv", "fig2_c.csv", "fig2_d.csv",
                     "fig2.gp"):
            assert (tmp_path / name).exists()

    def test_assets_are_schema_valid_task_lists(self):
        basenames = []
        for name in ("fig2", "fig3", "fig4"):
            for config in cli._load_figure_asset(name)["tasks"]:
                cli.validate_config(config)
                basenames.append(config["output"]["basename"])
        assert len(basenames) == len(set(basenames))

    @pytest.mark.parametrize("which, basenames, fmt", [
        ("fig2", ["fig2_a", "fig2_b", "fig2_c", "fig2_d"], "json"),
        ("fig3", ["fig3_low", "fig3_resonance"], "csv"),
        ("fig3", ["fig3_low", "fig3_resonance"], "json"),
    ], ids=["fig2-json", "fig3-csv", "fig3-json"])
    def test_artifacts_follow_format_and_stub_names_them(self, tmp_path, which, basenames, fmt):
        out = ["figures", which, "--out", str(tmp_path), "--format", fmt]
        assert cli.main(out) == cli.EXIT_OK
        names = [f"{base}.{fmt}" for base in basenames]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*names, f"{which}.gp"])
        stub = (tmp_path / f"{which}.gp").read_text().splitlines()
        assert [line.split("'")[1] for line in stub if "plot" in line] == names


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys, sasc.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert run.stdout.strip() == "[]"
