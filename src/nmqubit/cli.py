"""Command-line interface and CSV artifact writers.

Every output file starts with ``#`` comment lines carrying the artifact
version, the command, the config hash, the base seed and the field mode, so a
rerun with an identical configuration reproduces every file byte for byte.
Numeric columns are written with 12 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import (
    VERSION,
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config,
    preset,
)
from .experiments import (
    decay_time,
    run_baseline,
    run_ensemble,
    run_filter_trajectory,
    run_unconditional,
)
from .master import PositivityError
from .spectra import LorentzianComponent, SpectrumSamples, mixture_psd, nested_fits


#: rows ``write_table`` formats per write
CSV_CHUNK_ROWS = 4096


def _fmt(value: float) -> str:
    return "%.12g" % value


def write_table(path: Path, config: ExperimentConfig, command: str, columns: dict,
                **extra) -> Path:
    """Write ``columns`` (header name -> 1-d data) as ``%.12g`` rows under the
    ``#`` meta lines: the five fixed keys, then ``extra`` in the given order."""
    meta = {
        "artifact": f"nmqubit {VERSION}",
        "command": command,
        "config_hash": config_hash(config),
        "base_seed": config.base_seed,
        "field_mode": config.field_mode,
        **extra,
    }
    data = list(columns.values())
    if any(len(col) != len(data[0]) for col in data):
        raise ValueError("all columns must have equal length")
    row_fmt = ",".join(["%.12g"] * len(data)) + "\n"
    with path.open("w") as f:  # rows formatted a chunk at a time, never the whole file
        f.writelines(f"# {k}: {v}\n" for k, v in meta.items())
        f.write(",".join(columns) + "\n")
        for lo in range(0, len(data[0]), CSV_CHUNK_ROWS):
            chunk = (col[lo:lo + CSV_CHUNK_ROWS] for col in data)
            f.write("".join(row_fmt % row for row in zip(*chunk)))
    return path


def _xyz(prefix: str, values: np.ndarray) -> dict[str, np.ndarray]:
    return {f"{prefix}{c}": values[:, i] for i, c in enumerate("xyz")}


def spectrum_components(config: ExperimentConfig) -> list[LorentzianComponent]:
    return [
        LorentzianComponent(center=a.omega, linewidth=a.gamma, weight=a.kappa)
        for a in config.ancillas
    ]


def _spectrum_grid(config: ExperimentConfig) -> np.ndarray:
    if config.spectrum_grid is not None:
        lo, hi, pts = config.spectrum_grid
        return np.linspace(lo, hi, pts)
    comps = spectrum_components(config)
    lo = min(c.center - 6.0 * c.linewidth for c in comps)
    hi = max(c.center + 6.0 * c.linewidth for c in comps)
    return np.linspace(lo, hi, 501)


def cmd_spectrum(config: ExperimentConfig, out: Path) -> list[Path]:
    grid = _spectrum_grid(config)
    psd = mixture_psd(grid, spectrum_components(config))
    return [write_table(out / "spectrum.csv", config, "spectrum", {"omega": grid, "psd": psd})]


def _bloch_table(result, config: ExperimentConfig, command: str, path: Path) -> Path:
    return write_table(path, config, command, {
        "t": result.t_grid, **_xyz("", result.bloch),
        "tr_drift": result.tr_drift, "min_eig": result.min_eig,
    })


def cmd_evolve(config: ExperimentConfig, out: Path) -> list[Path]:
    return [_bloch_table(run_unconditional(config), config, "evolve", out / "evolve.csv")]


def cmd_baseline(config: ExperimentConfig, out: Path) -> list[Path]:
    return [_bloch_table(run_baseline(config), config, "baseline", out / "baseline.csv")]


def cmd_filter(config: ExperimentConfig, out: Path) -> list[Path]:
    traj = run_filter_trajectory(config)
    seed = traj.seed
    return [
        write_table(out / f"filter_bloch_seed{seed}.csv", config, "filter",
                    {"t": traj.t_grid, **_xyz("", traj.bloch)}, seed=seed),
        write_table(out / f"filter_record_seed{seed}.csv", config, "filter", {
            "step": np.arange(len(traj.record)), "t": traj.t_grid[:-1],
            "dY": traj.record, "dW": traj.innovations,
        }, seed=seed),
    ]


def cmd_ensemble(config: ExperimentConfig, out: Path) -> list[Path]:
    ens = run_ensemble(config)
    return [write_table(out / "ensemble.csv", config, "ensemble", {
        "t": ens.t_grid, **_xyz("mean_", ens.mean), **_xyz("se_", ens.stderr),
    }, n_traj=len(ens.seeds))]


def cmd_fit(config: ExperimentConfig, out: Path) -> list[Path]:
    if config.fit_input is None:
        raise ConfigError("missing required field 'fit.input' for the fit command")
    samples = SpectrumSamples.read_csv(config.fit_input)
    fits = nested_fits(samples, config.fit_components)
    final = fits[-1]
    return [write_table(
        out / "fit_components.csv", config, "fit",
        {name: [getattr(c, name) for c in final.components]
         for name in ("center", "linewidth", "weight")},
        fit_input=config.fit_input,
        rmse=_fmt(final.rmse),
        converged=final.converged,
        iterations=final.iterations,
        nested_rmse=";".join(_fmt(f.rmse) for f in fits),
    )]


def cmd_compare(config: ExperimentConfig, out: Path) -> list[Path]:
    # both master-equation runs keep their Bloch columns, not their states
    bloch_u = run_unconditional(config).bloch
    ens = run_ensemble(config)
    markov = run_baseline(config)
    bloch_m = markov.bloch
    summary = {
        "decay_time_non_markovian": _fmt(decay_time(markov.t_grid, bloch_u[:, 0])),
        "decay_time_markovian": _fmt(decay_time(markov.t_grid, bloch_m[:, 0])),
        "final_bloch_gap": _fmt(np.max(np.abs(bloch_u[-1] - bloch_m[-1]))),
    }
    path = write_table(out / "compare.csv", config, "compare", {
        "t": markov.t_grid, **_xyz("uncond_", bloch_u), **_xyz("cond_mean_", ens.mean),
        **_xyz("cond_se_", ens.stderr), **_xyz("markov_", bloch_m),
    }, **summary)
    print(
        f"decay time of <sigma_x>: markovian {summary['decay_time_markovian']}"
        f" vs non-markovian {summary['decay_time_non_markovian']};"
        f" final Bloch gap {summary['final_bloch_gap']}"
    )
    return [path]


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "baseline": cmd_baseline,
    "filter": cmd_filter,
    "ensemble": cmd_ensemble,
    "fit": cmd_fit,
    "compare": cmd_compare,
}


def run_command(command: str, config: ExperimentConfig) -> list[Path]:
    """Execute one command and return the paths it wrote."""
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}; choose from {tuple(_DISPATCH)}")
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _DISPATCH[command](config, out)


#: command-line flag -> (the ExperimentConfig field it overrides, its type)
_OVERRIDES = {"--out": ("out_dir", str), "--seed": ("base_seed", int),
              "--n-traj": ("n_traj", int), "--dt": ("dt", float), "--workers": ("workers", int)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmqubit",
        description="Simulate and filter a qubit driven by Lorentzian colored noise.",
    )
    parser.add_argument("command", choices=tuple(_DISPATCH))
    parser.add_argument("--config", help="path to a key-value or JSON config file")
    parser.add_argument("--preset", help="built-in preset name (e.g. paper-fig4)")
    for flag, (field, kind) in _OVERRIDES.items():
        parser.add_argument(flag, dest=field, type=kind, help=f"override {field}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config and args.preset:
            raise ConfigError("give either --config or --preset, not both")
        if args.config:
            config = parse_config(args.config)
        elif args.preset:
            config = preset(args.preset)
        else:
            raise ConfigError("one of --config or --preset is required")
        overrides = {field: getattr(args, field) for field, _ in _OVERRIDES.values()
                     if getattr(args, field) is not None}
        paths = run_command(args.command, dataclasses.replace(config, **overrides))
    except (PositivityError, ValueError, OSError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc}); lower t_final/dt, n_traj or spectrum.points",
              file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
