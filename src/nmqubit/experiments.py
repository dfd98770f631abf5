"""Wiring from a configuration to runnable models and simulations."""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig, with_truncation
from .filtering import EnsembleResult, Trajectory, ensemble_average, simulate_trajectory
from .master import (
    MasterResult,
    augmented_initial_state,
    generator_spec,
    integrate_master,
    markovian_baseline_spec,
)
from .operators import DensityMatrix, Operator
from .slh import GeneratorSpec, build_ancilla_bank, build_augmented, build_probed

#: ``truncation_deviation`` compares against every truncation times this
TRUNCATION_FACTOR = 2

#: ``decay_time`` is when a series falls to this share of its initial magnitude
DECAY_FRACTION = 1.0 / math.e


def time_grid(t_final: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, ..., n*dt with n = round(t_final/dt)."""
    steps = t_final / dt
    if not steps < 2**63:  # also inf and nan
        raise ValueError(f"t_final={t_final} over dt={dt} is {steps:g} steps, not a count below 2**63")
    n = int(round(steps))
    if n < 1:
        raise ValueError(f"t_final={t_final} spans no full step of dt={dt}")
    try:
        grid = np.arange(n + 1, dtype=float)
    except MemoryError:
        raise ValueError(f"t_final={t_final} over dt={dt} is {n} steps, "
                         f"a grid too large to allocate") from None
    grid *= dt  # in place: no second grid
    return grid


def config_grid(config: ExperimentConfig) -> np.ndarray:
    return time_grid(config.t_final, config.dt)


def build_probed_model(config: ExperimentConfig) -> GeneratorSpec:
    bank = build_ancilla_bank(config.ancillas, field_mode=config.field_mode)
    augmented = build_augmented(config.omega_q, bank, config.ancillas)
    return build_probed(augmented, config.gamma_q, config.probe_kind, config.probe_scale)


def probe_operator(model: GeneratorSpec) -> Operator:
    if model.probe_index is None:
        raise ValueError("model has no probe channel")
    return model.collapse_ops[model.probe_index]


def initial_state(config: ExperimentConfig, model: GeneratorSpec) -> DensityMatrix:
    return augmented_initial_state(config.init_bloch, model.layout)


def run_unconditional(config: ExperimentConfig) -> MasterResult:
    """Integrate the augmented master equation for the configured experiment."""
    rho0, spec, _ = filter_ingredients(config)
    return integrate_master(rho0, spec, config_grid(config))


def run_baseline(config: ExperimentConfig) -> MasterResult:
    """Integrate the memoryless qubit-only reference dynamics."""
    spec = markovian_baseline_spec(
        config.omega_q, config.ancillas, config.gamma_q,
        config.probe_kind, config.probe_scale,
    )
    x, y, z = config.init_bloch
    rho0 = DensityMatrix.from_bloch(x, y, z)
    return integrate_master(rho0, spec, config_grid(config))


def filter_ingredients(config: ExperimentConfig) -> tuple[DensityMatrix, GeneratorSpec, Operator]:
    model = build_probed_model(config)
    return initial_state(config, model), generator_spec(model), probe_operator(model)


def run_filter_trajectory(config: ExperimentConfig) -> Trajectory:
    rho0, spec, l_op = filter_ingredients(config)
    return simulate_trajectory(rho0, spec, l_op, config_grid(config), config.base_seed)


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    rho0, spec, l_op = filter_ingredients(config)
    return ensemble_average(
        rho0, spec, l_op, config_grid(config),
        config.n_traj, config.base_seed, workers=config.workers,
    )


def truncation_deviation(config: ExperimentConfig) -> float:
    """Max qubit Bloch deviation when every mode's truncation is multiplied by
    ``TRUNCATION_FACTOR``; the convergence check for the finite ladder."""
    base = run_unconditional(config).bloch
    refined = run_unconditional(with_truncation(config, TRUNCATION_FACTOR * config.truncation)).bloch
    return float(np.max(np.abs(base - refined)))


def decay_time(t: np.ndarray, series: np.ndarray) -> float:
    """First time |series| falls below DECAY_FRACTION * |series[0]|, linearly
    interpolated on |series| between grid points; inf if it never does."""
    mag = np.abs(series)
    threshold = DECAY_FRACTION * mag[0]
    below = np.nonzero(mag < threshold)[0]
    if below.size == 0:
        return math.inf
    i = int(below[0])  # >= 1: a magnitude m (or nan) is never below m/e
    s0, s1 = mag[i - 1], mag[i]
    frac = (s0 - threshold) / (s0 - s1)
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))
