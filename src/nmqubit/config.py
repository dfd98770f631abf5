"""Experiment configuration: flat key-value files (JSON accepted too),
validation, canonical serialization, and built-in presets.

The text format is one ``key = value`` per line with dotted section names,
``#`` comments, and repeated ``ancilla.<k>.*`` groups numbered from 1:

    omega_q = 2.0
    probe.gamma_q = 0.8
    ancilla.1.omega = 2.0
    ancilla.1.gamma = 0.6
    ancilla.1.kappa = 1.0
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .slh import FIELD_MODES, QUBIT_COUPLING_KINDS, AncillaParams

VERSION = "0.2.1"


class ConfigError(ValueError):
    """A configuration file is malformed or violates an invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    omega_q: float
    gamma_q: float
    ancillas: tuple[AncillaParams, ...]
    probe_kind: str = "pauli_x"
    probe_scale: complex = 1.0
    field_mode: str = "independent"
    init_bloch: tuple[float, float, float] = (1.0, 0.0, 0.0)
    truncation: int = 5
    dt: float = 1e-3
    t_final: float = 10.0
    n_traj: int = 500
    base_seed: int = 1000
    out_dir: str = "out"
    workers: int = 1
    spectrum_grid: tuple[float, float, int] | None = None
    fit_input: str | None = None
    fit_components: int = 1

    def validate(self) -> ExperimentConfig:
        if not self.ancillas:
            raise ConfigError("at least one ancilla.<k> group is required")
        numeric = [(k, getattr(self, f)) for k, (f, t) in _SCALARS.items() if t in (float, complex)]
        numeric += [("init.bloch", c) for c in self.init_bloch]
        numeric += zip(_GRID, (self.spectrum_grid or ())[:2])
        numeric += [(f"ancilla.{k}.{f}", v) for k, a in enumerate(self.ancillas, start=1)
                    for f, v in (("omega", a.omega), ("gamma", a.gamma), ("kappa", a.kappa),
                                 ("scale", a.sigma_scale))]
        for key, value in numeric:
            if not cmath.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.t_final <= 0:
            raise ConfigError(f"t_final must be > 0, got {self.t_final}")
        if self.truncation < 2:
            raise ConfigError(f"truncation must be >= 2, got {self.truncation}")
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be >= 1, got {self.n_traj}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.base_seed + self.n_traj > 2**128:
            raise ConfigError(
                f"base_seed + n_traj must be <= 2**128 (each seed keys a Philox stream), "
                f"got base_seed = {self.base_seed}"
            )
        if self.gamma_q < 0:
            raise ConfigError(f"probe.gamma_q must be >= 0, got {self.gamma_q}")
        if self.probe_kind not in QUBIT_COUPLING_KINDS:
            raise ConfigError(f"probe.kind must be one of {QUBIT_COUPLING_KINDS}")
        if self.field_mode not in FIELD_MODES:
            raise ConfigError(f"field_mode must be one of {FIELD_MODES}")
        if math.sqrt(sum(c * c for c in self.init_bloch)) > 1.0 + 1e-12:
            raise ConfigError(f"init.bloch norm exceeds 1: {self.init_bloch}")
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0, got {self.workers}")
        if self.fit_components < 1:
            raise ConfigError(f"fit.components must be >= 1, got {self.fit_components}")
        if self.spectrum_grid is not None:
            lo, hi, pts = self.spectrum_grid
            if hi <= lo or pts < 2:
                raise ConfigError(f"spectrum grid must satisfy max > min, points >= 2")
        for k, a in enumerate(self.ancillas, start=1):
            if a.truncation != self.truncation:
                raise ConfigError(f"ancilla.{k} truncation differs from config truncation")
        return self


def with_truncation(config: ExperimentConfig, n: int) -> ExperimentConfig:
    """The same experiment with every mode truncated at ``n`` levels."""
    ancillas = tuple(dataclasses.replace(a, truncation=n) for a in config.ancillas)
    return dataclasses.replace(config, truncation=n, ancillas=ancillas)


def _paper_fig4() -> ExperimentConfig:
    """The built-in resonant single-mode example in rescaled units: the qubit
    and the mode share frequency 2, with coupling weight 1, probe rate 0.8,
    mode damping 0.6, and the qubit starting along +x."""
    return ExperimentConfig(
        omega_q=2.0,
        gamma_q=0.8,
        ancillas=(
            AncillaParams(omega=2.0, gamma=0.6, kappa=1.0, sigma_kind="pauli_y",
                          truncation=5),
        ),
        probe_kind="pauli_x",
        init_bloch=(1.0, 0.0, 0.0),
        truncation=5,
        dt=1e-3,
        t_final=10.0,
        n_traj=500,
        base_seed=1000,
    ).validate()


PRESETS = {"paper-fig4": _paper_fig4}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()


#: config key -> (ExperimentConfig attribute, value type)
_SCALARS = {
    "omega_q": ("omega_q", float),
    "probe.gamma_q": ("gamma_q", float),
    "probe.kind": ("probe_kind", str),
    "probe.scale": ("probe_scale", complex),
    "field_mode": ("field_mode", str),
    "truncation": ("truncation", int),
    "dt": ("dt", float),
    "t_final": ("t_final", float),
    "n_traj": ("n_traj", int),
    "base_seed": ("base_seed", int),
    "out_dir": ("out_dir", str),
    "workers": ("workers", int),
    "fit.input": ("fit_input", str),
    "fit.components": ("fit_components", int),
}

#: keys that together set ``spectrum_grid``, in tuple order
_GRID = {"spectrum.omega_min": float, "spectrum.omega_max": float, "spectrum.points": int}

_ANCILLA_FIELDS = {
    "omega": float,
    "gamma": float,
    "kappa": float,
    "sigma": str,
    "scale": complex,
}

_REQUIRED = ("omega_q", "probe.gamma_q")


def _coerce(key: str, value, to_type):
    if isinstance(value, str):
        value = value.strip()
    try:
        if to_type is complex and isinstance(value, str):
            return complex(value.replace(" ", ""))
        return to_type(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"field {key!r}: cannot parse {value!r} as {to_type.__name__}") from exc


def _flatten_json(data, prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if key == "ancilla" and isinstance(value, list):
            for i, group in enumerate(value, start=1):
                for f, v in group.items():
                    flat[f"ancilla.{i}.{f}"] = v
        elif isinstance(value, dict):
            flat.update(_flatten_json(value, prefix=f"{name}."))
        elif isinstance(value, list):
            flat[name] = ", ".join(str(v) for v in value)
        else:
            flat[name] = value
    return flat


def _parse_text(text: str) -> dict[str, object]:
    flat: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        flat[key.strip()] = value.strip()
    return flat


def config_from_mapping(flat: dict[str, object]) -> ExperimentConfig:
    flat = dict(flat)
    for req in _REQUIRED:
        if req not in flat:
            raise ConfigError(f"missing required field {req!r}")

    ancilla_groups: dict[int, dict[str, object]] = {}
    for key in list(flat):
        if key.startswith("ancilla."):
            parts = key.split(".")
            if len(parts) != 3 or not parts[1].isdigit() or parts[2] not in _ANCILLA_FIELDS:
                raise ConfigError(f"unknown field {key!r}")
            ancilla_groups.setdefault(int(parts[1]), {})[parts[2]] = flat.pop(key)

    for key in flat:
        if key not in _SCALARS and key not in _GRID and key != "init.bloch":
            raise ConfigError(f"unknown field {key!r}")

    kwargs: dict[str, object] = {}
    for key, (attr, to_type) in _SCALARS.items():
        if key in flat:
            kwargs[attr] = _coerce(key, flat[key], to_type)

    if "init.bloch" in flat:
        value = flat["init.bloch"]
        parts = value.split(",") if isinstance(value, str) else list(value)
        if len(parts) != 3:
            raise ConfigError(f"field 'init.bloch': expected three components, got {value!r}")
        kwargs["init_bloch"] = tuple(_coerce("init.bloch", p, float) for p in parts)

    if any(k in flat for k in _GRID):
        if not all(k in flat for k in _GRID):
            raise ConfigError("spectrum grid needs omega_min, omega_max and points together")
        kwargs["spectrum_grid"] = tuple(_coerce(k, flat[k], t) for k, t in _GRID.items())

    if not ancilla_groups:
        raise ConfigError("missing required field 'ancilla.1.omega' (no ancilla groups)")
    truncation = kwargs.get("truncation", 5)
    ancillas = []
    for k in range(1, max(ancilla_groups) + 1):
        if k not in ancilla_groups:
            raise ConfigError(f"ancilla groups must be numbered 1..n; missing ancilla.{k}")
        group = ancilla_groups[k]
        for req in ("omega", "gamma", "kappa"):
            if req not in group:
                raise ConfigError(f"missing required field 'ancilla.{k}.{req}'")
        try:
            ancillas.append(
                AncillaParams(
                    omega=_coerce(f"ancilla.{k}.omega", group["omega"], float),
                    gamma=_coerce(f"ancilla.{k}.gamma", group["gamma"], float),
                    kappa=_coerce(f"ancilla.{k}.kappa", group["kappa"], float),
                    sigma_kind=_coerce(f"ancilla.{k}.sigma", group.get("sigma", "pauli_y"), str),
                    sigma_scale=_coerce(f"ancilla.{k}.scale", group.get("scale", 1.0), complex),
                    truncation=int(truncation),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"ancilla.{k}: {exc}") from exc
    kwargs["ancillas"] = tuple(ancillas)

    try:
        config = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return config.validate()


def parse_config(path) -> ExperimentConfig:
    """Read a key-value or JSON config file into a validated ExperimentConfig."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        flat = _flatten_json(data)
    else:
        flat = _parse_text(text)
    return config_from_mapping(flat)


def _fmt_complex(z: complex) -> str:
    return repr(z).strip("()")


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; ``parse`` of the result reproduces the config."""
    lines = [
        f"omega_q = {config.omega_q!r}",
        f"probe.gamma_q = {config.gamma_q!r}",
        f"probe.kind = {config.probe_kind}",
        f"probe.scale = {_fmt_complex(config.probe_scale)}",
        f"field_mode = {config.field_mode}",
        "init.bloch = " + ", ".join(repr(c) for c in config.init_bloch),
        f"truncation = {config.truncation}",
        f"dt = {config.dt!r}",
        f"t_final = {config.t_final!r}",
        f"n_traj = {config.n_traj}",
        f"base_seed = {config.base_seed}",
        f"out_dir = {config.out_dir}",
        f"workers = {config.workers}",
    ]
    if config.spectrum_grid is not None:
        lo, hi, pts = config.spectrum_grid
        lines += [
            f"spectrum.omega_min = {lo!r}",
            f"spectrum.omega_max = {hi!r}",
            f"spectrum.points = {pts}",
        ]
    if config.fit_input is not None:
        lines.append(f"fit.input = {config.fit_input}")
    lines.append(f"fit.components = {config.fit_components}")
    for k, a in enumerate(config.ancillas, start=1):
        lines += [
            f"ancilla.{k}.omega = {a.omega!r}",
            f"ancilla.{k}.gamma = {a.gamma!r}",
            f"ancilla.{k}.kappa = {a.kappa!r}",
            f"ancilla.{k}.sigma = {a.sigma_kind}",
            f"ancilla.{k}.scale = {_fmt_complex(a.sigma_scale)}",
        ]
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()[:16]
