"""Command-line interface and CSV artifact writers.

Every output file starts with ``#`` comment lines carrying the artifact
version, the command, the config hash, the base seed and the field mode, so a
rerun with an identical configuration reproduces every file byte for byte.
Numeric columns are written with 12 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
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
from .filtering import EnsembleError
from .spectra import LorentzianComponent, SpectrumSamples, mixture_psd, nested_fits


def _fmt(value: float) -> str:
    return "%.12g" % value


def _meta_lines(config: ExperimentConfig, command: str, extra: dict | None = None) -> list[str]:
    meta = {
        "artifact": f"nmqubit {VERSION}",
        "command": command,
        "config_hash": config_hash(config),
        "base_seed": config.base_seed,
        "field_mode": config.field_mode,
    }
    if extra:
        meta.update(extra)
    return [f"# {k}: {v}" for k, v in meta.items()]


def write_table(path: Path, meta_lines: list[str], names: list[str], columns: list[np.ndarray]) -> Path:
    rows = len(columns[0])
    for col in columns:
        if len(col) != rows:
            raise ValueError("all columns must have equal length")
    row_fmt = ",".join(["%.12g"] * len(columns))
    lines = list(meta_lines)
    lines.append(",".join(names))
    lines.extend(row_fmt % row for row in zip(*columns))
    path.write_text("\n".join(lines) + "\n")
    return path


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
    values = mixture_psd(grid, spectrum_components(config))
    path = write_table(
        out / "spectrum.csv",
        _meta_lines(config, "spectrum"),
        ["omega", "psd"],
        [grid, values],
    )
    return [path]


def _bloch_table(result, config: ExperimentConfig, command: str, path: Path) -> Path:
    bloch = result.qubit_bloch()
    return write_table(
        path,
        _meta_lines(config, command),
        ["t", "x", "y", "z", "tr_drift", "min_eig"],
        [result.t_grid, bloch[:, 0], bloch[:, 1], bloch[:, 2], result.tr_drift, result.min_eig],
    )


def cmd_evolve(config: ExperimentConfig, out: Path) -> list[Path]:
    return [_bloch_table(run_unconditional(config), config, "evolve", out / "evolve.csv")]


def cmd_baseline(config: ExperimentConfig, out: Path) -> list[Path]:
    return [_bloch_table(run_baseline(config), config, "baseline", out / "baseline.csv")]


def cmd_filter(config: ExperimentConfig, out: Path) -> list[Path]:
    traj = run_filter_trajectory(config)
    seed = traj.seed
    meta = _meta_lines(config, "filter", {"seed": seed})
    bloch_path = write_table(
        out / f"filter_bloch_seed{seed}.csv",
        meta,
        ["t", "x", "y", "z"],
        [traj.t_grid, traj.bloch[:, 0], traj.bloch[:, 1], traj.bloch[:, 2]],
    )
    steps = np.arange(len(traj.record))
    record_path = write_table(
        out / f"filter_record_seed{seed}.csv",
        meta,
        ["step", "t", "dY", "dW"],
        [steps, traj.t_grid[:-1], traj.record, traj.innovations],
    )
    return [bloch_path, record_path]


def _ensemble_columns(ens) -> tuple[list[str], list[np.ndarray]]:
    names = ["t", "mean_x", "mean_y", "mean_z", "se_x", "se_y", "se_z"]
    cols = [ens.t_grid] + [ens.mean[:, i] for i in range(3)] + [ens.stderr[:, i] for i in range(3)]
    return names, cols


def cmd_ensemble(config: ExperimentConfig, out: Path) -> list[Path]:
    ens = run_ensemble(config)
    names, cols = _ensemble_columns(ens)
    path = write_table(
        out / "ensemble.csv",
        _meta_lines(config, "ensemble", {"n_traj": ens.n_traj}),
        names,
        cols,
    )
    return [path]


def cmd_fit(config: ExperimentConfig, out: Path) -> list[Path]:
    if config.fit_input is None:
        raise ConfigError("missing required field 'fit.input' for the fit command")
    samples = SpectrumSamples.read_csv(config.fit_input)
    fits = nested_fits(samples, config.fit_components)
    final = fits[-1]
    extra = {
        "fit_input": config.fit_input,
        "rmse": _fmt(final.rmse),
        "converged": final.converged,
        "iterations": final.iterations,
        "nested_rmse": ";".join(_fmt(f.rmse) for f in fits),
    }
    comps = final.components
    path = write_table(
        out / "fit_components.csv",
        _meta_lines(config, "fit", extra),
        ["center", "linewidth", "weight"],
        [
            np.array([c.center for c in comps]),
            np.array([c.linewidth for c in comps]),
            np.array([c.weight for c in comps]),
        ],
    )
    return [path]


def emit_figure_data(uncond, ensemble, markov, path: Path, meta_lines: list[str]) -> Path:
    """Merged table of the three series: (t, bloch), (t, mean, se), (t, bloch).

    All three must share one time grid.
    """
    t_u, bloch_u = uncond
    t_e, mean_e, se_e = ensemble
    t_m, bloch_m = markov
    if not (np.array_equal(t_u, t_e) and np.array_equal(t_u, t_m)):
        raise ValueError("time grids of the three series differ")
    names = (
        ["t"]
        + [f"uncond_{c}" for c in "xyz"]
        + [f"cond_mean_{c}" for c in "xyz"]
        + [f"cond_se_{c}" for c in "xyz"]
        + [f"markov_{c}" for c in "xyz"]
    )
    cols = (
        [t_u]
        + [bloch_u[:, i] for i in range(3)]
        + [mean_e[:, i] for i in range(3)]
        + [se_e[:, i] for i in range(3)]
        + [bloch_m[:, i] for i in range(3)]
    )
    return write_table(path, meta_lines, names, cols)


def cmd_compare(config: ExperimentConfig, out: Path) -> list[Path]:
    # only Bloch columns are written; the unconditional states (16 MB at
    # preset size) are dropped before the ensemble runs
    bloch_u = run_unconditional(config).qubit_bloch()
    ens = run_ensemble(config)
    markov = run_baseline(config)
    t = markov.t_grid
    bloch_m = markov.qubit_bloch()
    tau_nm = decay_time(t, bloch_u[:, 0])
    tau_m = decay_time(t, bloch_m[:, 0])
    final_gap = float(np.max(np.abs(bloch_u[-1] - bloch_m[-1])))
    extra = {
        "decay_time_non_markovian": _fmt(tau_nm) if math.isfinite(tau_nm) else "inf",
        "decay_time_markovian": _fmt(tau_m) if math.isfinite(tau_m) else "inf",
        "final_bloch_gap": _fmt(final_gap),
    }
    path = emit_figure_data(
        (t, bloch_u),
        (ens.t_grid, ens.mean, ens.stderr),
        (t, bloch_m),
        out / "compare.csv",
        _meta_lines(config, "compare", extra),
    )
    print(
        f"decay time of <sigma_x>: markovian {extra['decay_time_markovian']}"
        f" vs non-markovian {extra['decay_time_non_markovian']};"
        f" final Bloch gap {extra['final_bloch_gap']}"
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmqubit",
        description="Simulate and filter a qubit driven by Lorentzian colored noise.",
    )
    parser.add_argument("command", choices=tuple(_DISPATCH))
    parser.add_argument("--config", help="path to a key-value or JSON config file")
    parser.add_argument("--preset", help="built-in preset name (e.g. paper-fig4)")
    parser.add_argument("--out", help="output directory (default from config)")
    parser.add_argument("--seed", type=int, help="override base_seed")
    parser.add_argument("--n-traj", type=int, help="override n_traj")
    parser.add_argument("--dt", type=float, help="override dt")
    parser.add_argument("--workers", type=int, help="override worker count")
    return parser


#: command-line flag (argparse dest) -> the ExperimentConfig field it overrides
_OVERRIDES = {"out": "out_dir", "seed": "base_seed", "n_traj": "n_traj", "dt": "dt",
              "workers": "workers"}


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
        overrides = {field: getattr(args, flag) for flag, field in _OVERRIDES.items()
                     if getattr(args, flag) is not None}
        if overrides:
            config = dataclasses.replace(config, **overrides).validate()
        paths = run_command(args.command, config)
    except (ConfigError, PositivityError, EnsembleError, ValueError, OSError) as exc:
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
