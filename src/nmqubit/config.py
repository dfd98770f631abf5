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

VERSION = "0.2.3"


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
        for key, value in _all_items(self):
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, (float, complex)) and not cmath.isfinite(v):
                    raise ConfigError(f"{key} must be finite, got {v}")
            if isinstance(value, str) and (value != value.strip() or "#" in value
                                           or len(value.splitlines()) > 1):
                raise ConfigError(f"{key} {value!r} cannot be written as one config line")
        if self.dt <= 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.t_final <= 0:
            raise ConfigError(f"t_final must be > 0, got {self.t_final}")
        if self.n_traj < 2:  # an ensemble's standard error needs two paths
            raise ConfigError(f"n_traj must be >= 2, got {self.n_traj}")
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
                raise ConfigError("spectrum.omega_max must exceed spectrum.omega_min, "
                                  "and spectrum.points must be >= 2")
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
    mode damping 0.6, and the qubit starting along +x.  Every value not
    given here is an ``ExperimentConfig`` or ``AncillaParams`` default."""
    return ExperimentConfig(
        omega_q=2.0, gamma_q=0.8,
        ancillas=(AncillaParams(omega=2.0, gamma=0.6, kappa=1.0),),
    ).validate()


PRESETS = {"paper-fig4": _paper_fig4}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()


#: config key -> (ExperimentConfig attribute, value type), in the order
#: ``serialize_config`` writes them; consecutive keys sharing an attribute fill
#: its tuple in order, and the ``tuple`` type is three comma-separated floats
_KEYS = {
    "omega_q": ("omega_q", float),
    "probe.gamma_q": ("gamma_q", float),
    "probe.kind": ("probe_kind", str),
    "probe.scale": ("probe_scale", complex),
    "field_mode": ("field_mode", str),
    "init.bloch": ("init_bloch", tuple),
    "truncation": ("truncation", int),
    "dt": ("dt", float),
    "t_final": ("t_final", float),
    "n_traj": ("n_traj", int),
    "base_seed": ("base_seed", int),
    "out_dir": ("out_dir", str),
    "workers": ("workers", int),
    "spectrum.omega_min": ("spectrum_grid", float),
    "spectrum.omega_max": ("spectrum_grid", float),
    "spectrum.points": ("spectrum_grid", int),
    "fit.input": ("fit_input", str),
    "fit.components": ("fit_components", int),
}

#: ancilla.<k>.<key> -> (AncillaParams attribute, value type), in written order
_ANCILLA_KEYS = {
    "omega": ("omega", float),
    "gamma": ("gamma", float),
    "kappa": ("kappa", float),
    "sigma": ("sigma_kind", str),
    "scale": ("sigma_scale", complex),
}


def _by_attr(table: dict) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for key, (attr, _) in table.items():
        grouped.setdefault(attr, []).append(key)
    return grouped


def _coerce(key: str, value, to_type):
    if isinstance(value, str):
        value = value.strip()
    try:
        if value is None or isinstance(value, bool) or (
                to_type is str and not isinstance(value, str)) or (
                to_type is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError  # JSON null, true and false, 5 for a string, 2.7 for an integer
        if to_type is tuple:
            parts = value.split(",") if isinstance(value, str) else value
            x, y, z = (_coerce(key, p, float) for p in parts)
            return x, y, z
        if to_type is complex and isinstance(value, str):
            return complex(value.replace(" ", ""))
        return to_type(value)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "three floats" if to_type is tuple else to_type.__name__
        raise ConfigError(f"field {key!r}: cannot parse {value!r} as {kind}") from exc


def _fields(cls, table: dict, flat: dict[str, object], prefix: str = "") -> dict[str, object]:
    """Keyword arguments of ``cls`` from the ``table`` keys in ``flat``; a key
    whose attribute has no default in ``cls`` is required."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs: dict[str, object] = {}
    for attr, keys in _by_attr(table).items():
        given = [k for k in keys if k in flat]
        if not given:
            if defaults[attr] is dataclasses.MISSING:
                raise ConfigError(f"missing required field {prefix + keys[0]!r}")
            continue
        if len(given) < len(keys):
            raise ConfigError(f"fields {[prefix + k for k in keys]} must be given together")
        values = tuple(_coerce(prefix + k, flat[k], table[k][1]) for k in keys)
        kwargs[attr] = values if len(keys) > 1 else values[0]
    return kwargs


def _items(obj, table: dict, prefix: str = ""):
    """(key, value) of every set ``table`` key of ``obj``, in table order."""
    for attr, keys in _by_attr(table).items():
        value = getattr(obj, attr)
        if value is not None:
            yield from zip((prefix + k for k in keys), value if len(keys) > 1 else (value,))


def _all_items(config: ExperimentConfig):
    yield from _items(config, _KEYS)
    for k, a in enumerate(config.ancillas, start=1):
        yield from _items(a, _ANCILLA_KEYS, f"ancilla.{k}.")


def _unique(pairs) -> dict:
    """A dict of (key, value) pairs, rejecting a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _flatten_json(data: dict, prefix: str = ""):
    """(dotted key, value) pairs of a JSON object; the groups of a top-level
    ``ancilla`` list are numbered from 1, and other lists pass through whole."""
    for key, value in data.items():
        name = f"{prefix}{key}"
        if name == "ancilla" and isinstance(value, list):
            for i, group in enumerate(value, start=1):
                if not isinstance(group, dict):
                    raise ConfigError(f"ancilla.{i}: expected an object, got {group!r}")
                yield from _flatten_json(group, f"ancilla.{i}.")
        elif isinstance(value, dict):
            yield from _flatten_json(value, f"{name}.")
        else:
            yield name, value


def _parse_text(text: str) -> dict[str, object]:
    flat: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in flat:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        flat[key] = value
    return flat


def config_from_mapping(flat: dict[str, object]) -> ExperimentConfig:
    kwargs = _fields(ExperimentConfig, _KEYS, flat)
    groups: dict[int, dict[str, object]] = {}
    for key in flat:
        if key in _KEYS:
            continue
        parts = key.split(".")
        if (len(parts) != 3 or parts[0] != "ancilla" or not parts[1].isdecimal()
                or parts[1] != str(int(parts[1])) or parts[2] not in _ANCILLA_KEYS):
            raise ConfigError(f"unknown field {key!r}")
        groups.setdefault(int(parts[1]), {})[parts[2]] = flat[key]

    truncation = kwargs.get("truncation", ExperimentConfig.truncation)
    ancillas = []
    for k in range(1, len(groups) + 1):
        if k not in groups:
            raise ConfigError(f"ancilla groups must be numbered 1..n, got {sorted(groups)}")
        fields = _fields(AncillaParams, _ANCILLA_KEYS, groups[k], f"ancilla.{k}.")
        try:
            ancillas.append(AncillaParams(**fields, truncation=truncation))
        except ValueError as exc:  # its text starts with the attribute: name the key
            attr, rest = str(exc).split(" ", 1)
            keys = {a: f"ancilla.{k}.{key}" for key, (a, _) in _ANCILLA_KEYS.items()}
            raise ConfigError(f"{keys.get(attr, attr)} {rest}") from exc
    return ExperimentConfig(ancillas=tuple(ancillas), **kwargs).validate()


def parse_config(path) -> ExperimentConfig:
    """Read a key-value or JSON config file into a validated ExperimentConfig.

    A repeated key is an error; a JSON file must hold one object."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            data = json.loads(text, object_pairs_hook=_unique)
        except ConfigError:
            raise
        except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
        flat = _unique(_flatten_json(data))
    else:
        flat = _parse_text(text)
    return config_from_mapping(flat)


def _format(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    if isinstance(value, complex) and value.imag == 0:
        value = value.real  # one form for a real scale, held as float or complex
    return repr(value).strip("()")  # a complex repr is parenthesized


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; ``parse`` of the result reproduces the config."""
    return "".join(f"{key} = {_format(value)}\n" for key, value in _all_items(config))


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()[:16]
