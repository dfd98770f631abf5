import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nmqubit as nq
from nmqubit import cli
from nmqubit.cli import main, run_command
from nmqubit.config import (
    VERSION,
    ConfigError,
    config_from_mapping,
    config_hash,
    parse_config,
    preset,
    serialize_config,
)
from nmqubit.experiments import decay_time, filter_ingredients, time_grid
from nmqubit.filtering import replay_filter
from nmqubit.operators import readout, readout_weights


def coarse(cfg, **kw):
    fields = {"dt": 0.01, "t_final": 1.0, "n_traj": 6}
    fields.update(kw)
    return dataclasses.replace(cfg, **fields).validate()


MINIMAL = """
omega_q = 2.0
probe.gamma_q = 0.8
ancilla.1.omega = 2.0
ancilla.1.gamma = 0.6
ancilla.1.kappa = 1.0
"""


class TestParsing:
    def test_minimal_text(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL)
        cfg = parse_config(path)
        assert cfg.omega_q == 2.0
        assert cfg.gamma_q == 0.8
        assert len(cfg.ancillas) == 1
        assert cfg.ancillas[0].sigma_kind == "pauli_y"  # documented default
        assert cfg.truncation == 5
        # the preset gives only these five numbers; the rest are the defaults
        assert cfg == preset("paper-fig4")
        assert config_hash(cfg) == config_hash(preset("paper-fig4"))

    def test_round_trip(self, tmp_path):
        cfg = preset("paper-fig4")
        path = tmp_path / "round.cfg"
        path.write_text(serialize_config(cfg))
        assert parse_config(path) == cfg

    def test_round_trip_nontrivial(self, tmp_path):
        cfg = dataclasses.replace(
            preset("paper-fig4"),
            init_bloch=(0.25, -0.5, 0.125),
            dt=2.5e-4,
            probe_scale=0.5 + 0.25j,
            spectrum_grid=(-1.0, 5.0, 99),
            fit_input="samples.csv",
            fit_components=3,
        )
        path = tmp_path / "round.cfg"
        path.write_text(serialize_config(cfg))
        assert parse_config(path) == cfg

    def test_json_alternative(self, tmp_path):
        data = {
            "omega_q": 2.0,
            "probe": {"gamma_q": 0.8, "kind": "pauli_x"},
            "ancilla": [{"omega": 2.0, "gamma": 0.6, "kappa": 1.0}],
            "n_traj": 17,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        cfg = parse_config(path)
        assert cfg.n_traj == 17
        assert cfg.ancillas[0].gamma == 0.6

    def test_zero_dt_names_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "dt = 0\n")
        with pytest.raises(ConfigError, match="dt"):
            parse_config(path)

    def test_single_trajectory_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "n_traj = 1\n")
        with pytest.raises(ConfigError, match="n_traj must be >= 2"):
            parse_config(path)

    def test_zero_workers_named(self, tmp_path):
        # 0 would run serially like 1, under another config hash
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "workers = 0\n")
        with pytest.raises(ConfigError, match="workers must be >= 1, got 0"):
            parse_config(path)

    def test_missing_required_named(self):
        with pytest.raises(ConfigError, match="omega_q"):
            config_from_mapping({"probe.gamma_q": "0.8"})

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL + "frobnicate = 1\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config(path)

    def test_preset_values(self):
        cfg = preset("paper-fig4")
        assert cfg.omega_q == cfg.ancillas[0].omega == 2.0
        assert cfg.ancillas[0].kappa == 1.0
        assert cfg.gamma_q == 0.8
        assert cfg.ancillas[0].gamma == 0.6
        assert cfg.init_bloch == (1.0, 0.0, 0.0)
        assert cfg.n_traj == 500
        assert cfg.truncation == 5

    def test_bloch_norm_invariant(self):
        with pytest.raises(ConfigError, match="bloch"):
            dataclasses.replace(preset("paper-fig4"), init_bloch=(1.0, 0.5, 0.0)).validate()

    @pytest.mark.parametrize("truncation", [1, 3])
    def test_mode_truncation_off_the_config_named(self, truncation):
        # the config's truncation is checked only against its modes', each of
        # which is >= 2, so 1 fails as any other mismatch does
        cfg = dataclasses.replace(preset("paper-fig4"), truncation=truncation)
        assert cfg.ancillas[0].truncation == 5
        with pytest.raises(ConfigError, match=r"^ancilla\.1 truncation differs from config truncation$"):
            cfg.validate()

    def test_repeated_text_key_named_with_line(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text(MINIMAL + "dt = 0.1\ndt = 0.001\n")
        with pytest.raises(ConfigError, match="line 8: repeated key 'dt'"):
            parse_config(path)

    @pytest.mark.parametrize("text,key", [
        ('{"omega_q": 2.0, "omega_q": 3.0}', "omega_q"),
        ('{"probe": {"gamma_q": 0.8, "gamma_q": 0.9}}', "gamma_q"),
        ('{"probe": {"kind": "pauli_x"}, "probe.kind": "pauli_z"}', "probe.kind"),
    ])
    def test_repeated_json_key_named(self, tmp_path, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["ancilla.01.gamma", "ancilla.\u0661.gamma"])
    def test_ancilla_number_spelled_one_way(self, tmp_path, key):
        # another spelling of ancilla.1 would silently override its value
        path = tmp_path / "alias.cfg"
        path.write_text(MINIMAL + f"{key} = 0.9\n")
        with pytest.raises(ConfigError, match=f"unknown field '{key}'"):
            parse_config(path)

    @pytest.mark.parametrize("field,key", [("out_dir", "out_dir"), ("fit_input", "fit.input")])
    @pytest.mark.parametrize("value", ["runs#1", " runs", "runs\n2"])
    def test_string_that_does_not_fit_one_line_named(self, field, key, value):
        # the text form would read such a value back differently
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(preset("paper-fig4"), **{field: value}).validate()

    def test_preset_hash_pinned(self):
        # the hash is embedded in every CSV header; it must not drift
        assert config_hash(preset("paper-fig4")) == "019c88ddb6de5e56"

    def test_hash_tracks_content(self):
        cfg = preset("paper-fig4")
        assert config_hash(cfg) == config_hash(preset("paper-fig4"))
        other = dataclasses.replace(cfg, base_seed=cfg.base_seed + 1)
        assert config_hash(cfg) != config_hash(other)


class TestCommands:
    def test_spectrum_file_reparses(self, tmp_path):
        cfg = dataclasses.replace(preset("paper-fig4"), out_dir=str(tmp_path))
        (path,) = run_command("spectrum", cfg)
        from nmqubit.spectra import SpectrumSamples

        samples = SpectrumSamples.read_csv(path)
        assert len(samples) == 501
        assert samples.values.max() <= 1.0 + 1e-12

    def test_evolve_zero_couplings_precesses(self, tmp_path):
        cfg = coarse(preset("paper-fig4"), out_dir=str(tmp_path), gamma_q=0.0)
        cfg = dataclasses.replace(
            cfg,
            ancillas=(dataclasses.replace(cfg.ancillas[0], kappa=0.0),),
        )
        (path,) = run_command("evolve", cfg)
        rows = np.loadtxt(path, delimiter=",", skiprows=6)
        xy = np.hypot(rows[:, 1], rows[:, 2])
        assert_allclose(xy, 1.0, atol=1e-8)

    def test_filter_writes_record_schema(self, tmp_path):
        cfg = coarse(preset("paper-fig4"), out_dir=str(tmp_path))
        bloch_path, record_path = run_command("filter", cfg)
        assert f"seed{cfg.base_seed}" in record_path.name
        rows = np.loadtxt(record_path, delimiter=",", skiprows=7)
        assert rows.shape[1] == 4  # step, t, dY, dW
        assert rows.shape[0] == 100

    def test_filter_csvs_replay_to_their_bloch_columns(self, tmp_path):
        # the record CSV's dY replayed on the grid read back from the Bloch
        # CSV's 12-digit t column: 4.9e-12 from the Bloch columns when pinned
        cfg = dataclasses.replace(preset("paper-fig4"), out_dir=str(tmp_path))
        bloch_path, record_path = run_command("filter", cfg)
        bloch = np.loadtxt(bloch_path, delimiter=",", skiprows=7)
        record = np.loadtxt(record_path, delimiter=",", skiprows=7)
        rho0, spec, l_op = filter_ingredients(cfg)
        states = replay_filter(rho0, spec, l_op, record[:, 2], bloch[:, 0])
        got = readout(np.array([s.entries for s in states]), readout_weights(spec.layout.dims))
        assert np.max(np.abs(got - bloch[:, 1:])) <= 1e-11

    def test_ensemble_then_compare_bit_identical_means(self, tmp_path):
        cfg = coarse(preset("paper-fig4"), out_dir=str(tmp_path))
        (ens_path,) = run_command("ensemble", cfg)
        (cmp_path,) = run_command("compare", cfg)

        def columns(path, names_wanted):
            lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
            names = lines[0].split(",")
            rows = [l.split(",") for l in lines[1:]]
            return {
                name: [r[names.index(name)] for r in rows] for name in names_wanted
            }

        ens_cols = columns(ens_path, ["mean_x", "mean_y", "mean_z"])
        cmp_cols = columns(cmp_path, ["cond_mean_x", "cond_mean_y", "cond_mean_z"])
        for a, b in zip(("mean_x", "mean_y", "mean_z"),
                        ("cond_mean_x", "cond_mean_y", "cond_mean_z")):
            assert ens_cols[a] == cmp_cols[b]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = coarse(preset("paper-fig4"), out_dir=str(tmp_path))
        (p1,) = run_command("evolve", cfg)
        first = p1.read_bytes()
        (p2,) = run_command("evolve", cfg)
        assert p2.read_bytes() == first

    def test_table_written_in_chunks(self, tmp_path):
        # a 1e5-row record table (4.4 MiB) is written a chunk of rows at a
        # time: 0.59 MiB traced peak measured, where formatting, joining and
        # encoding the whole file peaked at 18.5 MiB.  The row count leaves a
        # partial last chunk, and the bytes are those of the whole-file text
        n = 100_000
        assert n % cli.CSV_CHUNK_ROWS
        rng = np.random.default_rng(1)
        columns = {"step": np.arange(n), "t": 1e-3 * np.arange(n),
                   "dY": 0.03 * rng.normal(size=n), "dW": 0.03 * rng.normal(size=n)}
        cfg = preset("paper-fig4")
        tracemalloc.start()
        try:
            path = cli.write_table(tmp_path / "record.csv", cfg, "filter", columns, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        meta = (f"# artifact: nmqubit {VERSION}\n# command: filter\n"
                f"# config_hash: {config_hash(cfg)}\n# base_seed: {cfg.base_seed}\n"
                f"# field_mode: {cfg.field_mode}\n# seed: 7\nstep,t,dY,dW\n")
        rows = "".join("%.12g,%.12g,%.12g,%.12g\n" % row for row in zip(*columns.values()))
        assert path.read_text() == meta + rows

    def test_fit_command(self, tmp_path):
        from nmqubit.spectra import LorentzianComponent, SpectrumSamples, mixture_psd

        w = np.linspace(-2, 6, 200)
        truth = [LorentzianComponent(1.0, 0.5, 1.0), LorentzianComponent(3.0, 1.2, 0.4)]
        SpectrumSamples(w, mixture_psd(w, truth)).write_csv(tmp_path / "target.csv")
        cfg = dataclasses.replace(
            preset("paper-fig4"),
            out_dir=str(tmp_path),
            fit_input=str(tmp_path / "target.csv"),
            fit_components=2,
        )
        (path,) = run_command("fit", cfg)
        rows = np.loadtxt(path, delimiter=",", skiprows=11)
        centers = sorted(rows[:, 0])
        assert centers == pytest.approx([1.0, 3.0], abs=1e-6)

    def test_compare_summary_decay_times(self, tmp_path):
        cfg = coarse(preset("paper-fig4"), out_dir=str(tmp_path), t_final=2.0)
        (path,) = run_command("compare", cfg)
        header = {
            line.split(":")[0].strip("# "): line.split(":", 1)[1].strip()
            for line in path.read_text().splitlines()
            if line.startswith("#") and ":" in line
        }
        tau_m = float(header["decay_time_markovian"])
        tau_nm = float(header["decay_time_non_markovian"])
        assert tau_m < tau_nm

    def test_decay_time_ignores_sign(self):
        t = np.linspace(0.0, 3.0, 301)
        tau = decay_time(t, np.exp(-t))
        assert tau == pytest.approx(1.0, abs=1e-4)
        assert decay_time(t, -np.exp(-t)) == tau
        assert decay_time(t, -np.ones_like(t)) == math.inf

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            run_command("render", preset("paper-fig4"))


#: command -> (its meta keys after the five common ones, the header of each file)
ARTIFACTS = {
    "spectrum": ([], ["omega,psd"]),
    "evolve": ([], ["t,x,y,z,tr_drift,min_eig"]),
    "baseline": ([], ["t,x,y,z,tr_drift,min_eig"]),
    "filter": (["seed"], ["t,x,y,z", "step,t,dY,dW"]),
    "ensemble": (["n_traj"], ["t,mean_x,mean_y,mean_z,se_x,se_y,se_z"]),
    "fit": (["fit_input", "rmse", "converged", "iterations", "nested_rmse"],
            ["center,linewidth,weight"]),
    "compare": (["decay_time_non_markovian", "decay_time_markovian", "final_bloch_gap"],
                ["t,uncond_x,uncond_y,uncond_z,cond_mean_x,cond_mean_y,cond_mean_z,"
                 "cond_se_x,cond_se_y,cond_se_z,markov_x,markov_y,markov_z"]),
}


@pytest.mark.parametrize("command", list(ARTIFACTS))
def test_artifact_meta_keys_and_columns(tmp_path, command):
    from nmqubit.spectra import LorentzianComponent, SpectrumSamples, mixture_psd

    w = np.linspace(-2, 6, 200)
    target = tmp_path / "target.csv"
    SpectrumSamples(w, mixture_psd(w, [LorentzianComponent(1.0, 0.5, 1.0)])).write_csv(target)
    cfg = coarse(preset("paper-fig4"), out_dir=str(tmp_path), fit_input=str(target))
    extra_keys, headers = ARTIFACTS[command]
    keys = ["artifact", "command", "config_hash", "base_seed", "field_mode"] + extra_keys
    paths = run_command(command, cfg)
    assert len(paths) == len(headers)
    for path, header in zip(paths, headers):
        lines = path.read_text().splitlines()
        assert [line.split(":")[0] for line in lines[:len(keys)]] == [f"# {k}" for k in keys]
        assert lines[0] == f"# artifact: nmqubit {VERSION}"
        assert lines[1] == f"# command: {command}"
        assert lines[len(keys)] == header
        rows = lines[len(keys) + 1:]
        assert rows and all(len(row.split(",")) == len(header.split(",")) for row in rows)


class TestMainEntry:
    def test_requires_source(self, capsys):
        assert main(["evolve"]) == 1
        assert "required" in capsys.readouterr().err

    def test_preset_run(self, tmp_path, capsys):
        rc = main([
            "baseline", "--preset", "paper-fig4",
            "--out", str(tmp_path), "--dt", "0.01",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline.csv" in out

    def test_flag_overrides(self, tmp_path):
        rc = main([
            "filter", "--preset", "paper-fig4", "--out", str(tmp_path),
            "--dt", "0.01", "--seed", "99",
        ])
        assert rc == 0
        assert (tmp_path / "filter_record_seed99.csv").exists()

    @pytest.mark.parametrize("flag, text, field, value", [
        ("--out", "elsewhere", "out_dir", "elsewhere"),
        ("--seed", "99", "base_seed", 99),
        ("--n-traj", "7", "n_traj", 7),
        ("--dt", "0.25", "dt", 0.25),
        ("--workers", "3", "workers", 3),
    ])
    def test_override_flag_sets_its_own_field(self, monkeypatch, flag, text, field, value):
        # the config handed to the command differs from the preset in this
        # one field, which holds the flag's value with the field's type
        seen = []
        monkeypatch.setattr(cli, "run_command", lambda command, config: seen.append(config) or [])
        assert main(["evolve", "--preset", "paper-fig4", flag, text]) == 0
        assert seen == [dataclasses.replace(preset("paper-fig4"), **{field: value})]
        assert type(getattr(seen[0], field)) is type(value)

    def test_zero_workers_flag_rejected(self, tmp_path, capsys):
        # an overridden config is validated once, by run_command, before any output
        out = tmp_path / "out"
        assert main(["evolve", "--preset", "paper-fig4", "--out", str(out), "--workers", "0"]) == 1
        assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"
        assert not out.exists()

    def fit_exit(self, tmp_path, capsys, samples: str) -> str:
        target = tmp_path / "samples.csv"
        target.write_text(samples)
        cfg = dataclasses.replace(preset("paper-fig4"), out_dir=str(tmp_path),
                                  fit_input=str(target))
        path = tmp_path / "fit.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["fit", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        return err

    def test_header_only_spectrum_is_error(self, tmp_path, capsys):
        assert "samples.csv" in self.fit_exit(tmp_path, capsys, "omega,psd\n")

    @pytest.mark.parametrize("row", ["0.5", "0.5,abc"])
    def test_malformed_spectrum_row_names_file_and_line(self, tmp_path, capsys, row):
        err = self.fit_exit(tmp_path, capsys, f"omega,psd\n0.0,1.0\n{row}\n")
        assert "samples.csv, line 3" in err

    @pytest.mark.parametrize("row,reason", [
        ("1.0,-0.5", "nonnegative"),
        ("1.0,nan", "finite"),
        ("-1.0,0.5", "strictly increasing"),
    ])
    def test_invalid_spectrum_row_names_file_and_line(self, tmp_path, capsys, row, reason):
        err = self.fit_exit(tmp_path, capsys, f"omega,psd\n0.0,1.0\n{row}\n2.0,1.0\n")
        assert "samples.csv, line 3" in err and reason in err

    @pytest.mark.parametrize("text,argv,message", [
        ("omega_q = 2.0\nprobe.gamma_q = 0.8\n", ["evolve"],
         "at least one ancilla.<k> group is required"),
        (MINIMAL.replace("ancilla.1.", "ancilla.2."), ["evolve"],
         "ancilla groups must be numbered 1..n, got [2]"),
        (MINIMAL + "field_mode = common\n", ["evolve"],
         "field_mode must be one of ('independent', 'shared')"),
        (None, ["evolve", "--preset", "nope"], "unknown preset 'nope'; available: ['paper-fig4']"),
        (MINIMAL, ["evolve", "--preset", "paper-fig4"],
         "give either --config or --preset, not both"),
        (None, ["fit", "--preset", "paper-fig4"],
         "missing required field 'fit.input' for the fit command"),
        (MINIMAL + "t_final = 0.0004\n", ["evolve"],
         "t_final=0.0004 spans no full step of dt=0.001"),
    ], ids=["no-ancilla", "ancilla-gap", "field-mode", "unknown-preset", "config-and-preset",
            "fit-without-input", "no-full-step"])
    def test_user_error_named(self, tmp_path, capsys, text, argv, message):
        if text is not None:
            path = tmp_path / "run.cfg"
            path.write_text(text)
            argv = argv + ["--config", str(path)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("omega_q = 2.0\n")
        assert main(["evolve", "--config", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_negative_seed_names_field(self, tmp_path, capsys):
        rc = main([
            "filter", "--preset", "paper-fig4", "--out", str(tmp_path),
            "--dt", "0.01", "--seed", "-3",
        ])
        assert rc == 1
        assert "base_seed" in capsys.readouterr().err

    def test_seed_above_philox_key_range_names_field(self, tmp_path, capsys):
        rc = main([
            "filter", "--preset", "paper-fig4", "--out", str(tmp_path),
            "--dt", "0.01", "--seed", str(2**128),
        ])
        assert rc == 1
        assert "base_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["1e-320", "1e-300"])
    def test_unrepresentable_step_count_names_dt(self, tmp_path, capsys, dt):
        # t_final/dt overflows to inf at 1e-320 and exceeds 2**63 at 1e-300
        rc = main(["evolve", "--preset", "paper-fig4", "--out", str(tmp_path), "--dt", dt])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dt" in err and "Traceback" not in err

    def test_grid_too_large_to_allocate_names_dt(self, tmp_path, capsys):
        # 1e16 steps ask np.arange for 80 PB, beyond any address space, so
        # the request fails without allocating
        rc = main(["evolve", "--preset", "paper-fig4", "--out", str(tmp_path), "--dt", "1e-15"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dt=1e-15" in err and "10000000000000000 steps" in err
        assert "Traceback" not in err

    def test_ensemble_abort_names_seed_step_and_time(self, tmp_path, capsys):
        # at dt = 0.5 the path of seed 1000 aborts at its first step, and the
        # ensemble's error names its seed, step and time as ``filter`` does
        rc = main(["ensemble", "--preset", "paper-fig4", "--dt", "0.5", "--n-traj", "4",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trajectories failed for seeds [1000]; first abort: ")
        assert "after step 0 (t=0.5)" in err and "Traceback" not in err

    def test_time_grid_rounds_step_count(self):
        # 0.3/0.1 is 2.9999999999999996, so truncating it would drop a step
        grid = time_grid(0.3, 0.1)
        assert len(grid) == 4 and grid[-1] == pytest.approx(0.3)

    def test_spectrum_too_large_to_allocate_is_out_of_memory(self, tmp_path, capsys):
        # 10**16 points ask np.linspace for 80 PB, beyond any address space, so
        # the request fails without allocating
        path = tmp_path / "huge.cfg"
        path.write_text(MINIMAL + "spectrum.omega_min = 0\nspectrum.omega_max = 4\n"
                        f"spectrum.points = {10**16}\n")
        rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (") and "(10000000000000000,)" in err
        assert err.rstrip().endswith("lower t_final/dt, n_traj or spectrum.points")
        assert "Traceback" not in err

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
    def test_bloch_columns_beyond_address_limit_are_out_of_memory(self, tmp_path):
        # 7.1e7 steps fit the grid (571 MB) and its uniformity check, which
        # holds three arrays of that size at once, but not the 1.6 GiB Bloch
        # columns, which a run allocates before it steps.  The child caps its
        # own address space at 2 GiB, so np.empty fails at once; at dt =
        # 1.2e-7 the uniformity check peaked 0.8 MB under the cap when pinned
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = str(Path(nq.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "nmqubit", "evolve", "--preset", "paper-fig4",
             "--dt", "1.4e-7", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: out of memory (") and "GiB" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "shape (71428572, 3)" in proc.stderr

    @pytest.mark.parametrize("text", [
        '{"ancilla": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"n_traj": ' + "1" * 5000 + "}",
    ], ids=["nested-too-deep", "too-many-digits"])
    def test_json_beyond_parser_limits_names_file(self, tmp_path, capsys, text):
        path = tmp_path / "limits.json"
        path.write_text(text)
        assert main(["evolve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid JSON in {path}") and "Traceback" not in err

    def test_single_trajectory_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_unconditional", lambda cfg: calls.append(cfg))
        rc = main(["compare", "--preset", "paper-fig4", "--out", str(tmp_path), "--n-traj", "1"])
        assert rc == 1
        assert "n_traj" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("key,value", [
        ("t_final", "inf"),
        ("dt", "nan"),
        ("omega_q", "nan"),
        ("probe.gamma_q", "nan"),
        ("probe.scale", "nan"),
        ("ancilla.1.omega", "-inf"),
        ("ancilla.1.gamma", "nan"),
        ("ancilla.1.kappa", "nan"),
        ("ancilla.1.scale", "inf+1j"),
        ("init.bloch", "nan, 0, 0"),
        ("spectrum.omega_min", "nan"),
        ("spectrum.omega_max", "inf"),
    ])
    def test_non_finite_value_names_field(self, tmp_path, capsys, key, value):
        fields = {"spectrum.omega_min": "0", "spectrum.omega_max": "4",
                  "spectrum.points": "11", key: value}
        path = tmp_path / "nonfinite.cfg"
        path.write_text(MINIMAL + "".join(f"{k} = {v}\n" for k, v in fields.items()))
        rc = main(["evolve", "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("data,named", [
        ([1, 2], "bad.json"),
        ({"omega_q": 2.0, "probe": {"gamma_q": 0.8}, "ancilla": [1]}, "ancilla.1"),
        ({"omega_q": 2.0, "probe": {"gamma_q": 0.8}, "init": {"bloch": 5},
          "ancilla": [{"omega": 2.0, "gamma": 0.6, "kappa": 1.0}]}, "init.bloch"),
    ])
    def test_malformed_json_names_key_or_file(self, tmp_path, capsys, data, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["evolve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err

    @pytest.mark.parametrize("data,named", [
        ({"dt": True}, "dt"),
        ({"out_dir": None}, "out_dir"),
        ({"fit": {"input": None}}, "fit.input"),
        ({"n_traj": 2.7}, "n_traj"),
        ({"out_dir": 5}, "out_dir"),
        ({"fit": {"input": 7}}, "fit.input"),
        ({"dt": [0.01]}, "dt"),
        ({"init": {"bloch": [True, 0, 0]}}, "init.bloch"),
    ], ids=["dt-true", "out_dir-null", "fit.input-null", "n_traj-fraction", "out_dir-number",
            "fit.input-number", "dt-list", "init.bloch-true"])
    def test_json_value_of_wrong_kind_names_field(self, tmp_path, capsys, monkeypatch,
                                                  data, named):
        monkeypatch.setattr(cli, "run_command", lambda command, cfg: [])
        path = tmp_path / "kind.json"
        path.write_text(json.dumps({
            "omega_q": 2.0, "probe": {"gamma_q": 0.8},
            "ancilla": [{"omega": 2.0, "gamma": 0.6, "kappa": 1.0}], **data,
        }))
        assert main(["spectrum", "--config", str(path)]) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("ancilla.1.sigma = bogus", "error: ancilla.1.sigma 'bogus' not in ("),
        ("truncation = 1", "error: truncation must be >= 2, got 1"),
    ], ids=["sigma", "truncation"])
    def test_ancilla_error_names_config_key(self, tmp_path, capsys, line, message):
        path = tmp_path / "ancilla.cfg"
        path.write_text(MINIMAL + line + "\n")
        assert main(["evolve", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_json_integer_overflow_names_field(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "omega_q": 2.0, "probe": {"gamma_q": 0.8}, "n_traj": 1e400,
            "ancilla": [{"omega": 2.0, "gamma": 0.6, "kappa": 1.0}],
        }))
        assert main(["evolve", "--config", str(path)]) == 1
        assert "n_traj" in capsys.readouterr().err

    def test_module_entry_point_writes_artifact(self, tmp_path):
        src = str(Path(nq.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "d"
        proc = subprocess.run(
            [sys.executable, "-m", "nmqubit.cli", "spectrum", "--preset", "paper-fig4",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "spectrum.csv").exists()

    def test_package_runs_as_module(self):
        src = str(Path(nq.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "nmqubit", "--help"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: nmqubit")
        assert "compare" in proc.stdout

    def test_cli_imports_only_stdlib_and_numpy(self):
        # the declared dependencies are numpy alone, and scipy alone would add
        # about 0.2 s to every start-up; __mp_main__ is multiprocessing's
        # alias of __main__
        src = str(Path(nq.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import nmqubit.cli\n"
            "print(' '.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert {"nmqubit", "numpy"} <= loaded
        allowed = set(sys.stdlib_module_names) | {"nmqubit", "numpy", "__mp_main__"}
        assert sorted(loaded - allowed) == []
