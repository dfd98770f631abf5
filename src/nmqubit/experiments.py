"""Wiring from a configuration to runnable models and simulations."""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig, with_truncation
from .filtering import EnsembleResult, Trajectory, ensemble_average, simulate_trajectory
from .master import (
    GeneratorSpec,
    MasterResult,
    augmented_initial_state,
    generator_spec,
    integrate_master,
    markovian_baseline_spec,
)
from .operators import DensityMatrix, Operator
from .slh import SlhModel, build_ancilla_bank, build_augmented, build_probed


def time_grid(t_final: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, ..., n*dt with n = round(t_final/dt)."""
    n = int(round(t_final / dt))
    if n < 1:
        raise ValueError(f"t_final={t_final} spans no full step of dt={dt}")
    return np.arange(n + 1) * dt


def config_grid(config: ExperimentConfig) -> np.ndarray:
    return time_grid(config.t_final, config.dt)


def build_probed_model(config: ExperimentConfig) -> SlhModel:
    bank = build_ancilla_bank(config.ancillas, field_mode=config.field_mode)
    augmented = build_augmented(config.omega_q, bank, config.ancillas)
    return build_probed(augmented, config.gamma_q, config.probe_kind, config.probe_scale)


def probe_operator(model: SlhModel) -> Operator:
    if model.probe_index is None:
        raise ValueError("model has no probe channel")
    return model.couplings[model.probe_index]


def initial_state(config: ExperimentConfig, model: SlhModel) -> DensityMatrix:
    return augmented_initial_state(config.init_bloch, model.layout)


def run_unconditional(config: ExperimentConfig) -> MasterResult:
    """Integrate the augmented master equation for the configured experiment."""
    model = build_probed_model(config)
    spec = generator_spec(model)
    rho0 = initial_state(config, model)
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


def run_filter_trajectory(config: ExperimentConfig, seed: int | None = None,
                          store_states: bool = False) -> Trajectory:
    rho0, spec, l_op = filter_ingredients(config)
    return simulate_trajectory(
        rho0, spec, l_op, config_grid(config),
        config.base_seed if seed is None else seed,
        store_states=store_states,
    )


def run_ensemble(config: ExperimentConfig) -> EnsembleResult:
    rho0, spec, l_op = filter_ingredients(config)
    return ensemble_average(
        rho0, spec, l_op, config_grid(config),
        config.n_traj, config.base_seed, workers=config.workers,
    )


def truncation_deviation(config: ExperimentConfig, factor: int = 2) -> float:
    """Max qubit Bloch deviation when every mode's truncation is multiplied by
    ``factor``; the convergence check for the finite ladder."""
    base = run_unconditional(config).qubit_bloch()
    refined = run_unconditional(with_truncation(config, factor * config.truncation)).qubit_bloch()
    return float(np.max(np.abs(base - refined)))


def decay_time(t: np.ndarray, series: np.ndarray, fraction: float = 1.0 / math.e) -> float:
    """First time the series falls below fraction * series[0], linearly
    interpolated between grid points; inf if it never does."""
    threshold = fraction * series[0]
    below = np.nonzero(series < threshold)[0]
    if below.size == 0:
        return math.inf
    i = int(below[0])
    if i == 0:
        return float(t[0])
    s0, s1 = series[i - 1], series[i]
    frac = (s0 - threshold) / (s0 - s1)
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))
