import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nmqubit as nq
from nmqubit.cli import emit_figure_data, main, run_command
from nmqubit.config import (
    ConfigError,
    config_from_mapping,
    config_hash,
    parse_config,
    preset,
    serialize_config,
)


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

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            run_command("render", preset("paper-fig4"))


class TestFigureData:
    def test_column_count_and_constants(self, tmp_path):
        t = np.linspace(0, 1, 5)
        ones = np.ones((5, 3))
        path = emit_figure_data(
            (t, 0.5 * ones), (t, 0.25 * ones, 0.1 * ones), (t, -ones),
            tmp_path / "merged.csv", ["# test: 1"],
        )
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert len(header) == 13
        for row in lines[1:]:
            assert len(row.split(",")) == 13
            assert row.split(",")[1] == "0.5"

    def test_grid_mismatch(self, tmp_path):
        t = np.linspace(0, 1, 5)
        t2 = np.linspace(0, 2, 5)
        ones = np.ones((5, 3))
        with pytest.raises(ValueError):
            emit_figure_data((t, ones), (t2, ones, ones), (t, ones),
                             tmp_path / "merged.csv", [])


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

    def test_header_only_spectrum_is_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("omega,psd\n")
        cfg = dataclasses.replace(preset("paper-fig4"), out_dir=str(tmp_path),
                                  fit_input=str(empty))
        path = tmp_path / "fit.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["fit", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty.csv" in err

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
