"""Per-layer probes for the traced run: single-process calls into each layer
at bank sizes K = 1, 2, 3 (ladder truncation 5, so d = 10, 50, 250).

The per-trajectory-step and repair numbers come from here, not from the
traced job, because the job's ensemble runs in pool workers that record no
spans.  ``ROADMAP_BASELINE`` is the cost table this benchmark must
reproduce; an entry more than 2x away from it is flagged.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from nmqubit import experiments, filtering, master
from nmqubit import config as nm_config
from nmqubit.slh import AncillaParams
from nmqubit.spectra import nested_fits

from tracing import LinalgCounter
from workloads import PRESET, bank2_spectrum

# Modes 2 and 3 of the scaling bank; mode 1 is the paper-fig4 mode.
EXTRA_MODES = (
    AncillaParams(omega=1.5, gamma=0.8, kappa=0.5),
    AncillaParams(omega=2.5, gamma=0.4, kappa=0.5),
)

# Microseconds per (trajectory-)step from the ROADMAP baseline table.
ROADMAP_BASELINE = {
    "filtering.sme_us.K1.B50": 33.6,
    "filtering.sme_us.K2.B50": 1130.0,
    "filtering.sme_us.K3.B1": 70000.0,
    "master.rk4_step_us.K1": 150.0,
    "master.rk4_step_us.K2": 1140.0,
    "master.rk4_step_us.K3": 85000.0,
}

SIZES = {
    False: {  # normal
        "build_reps": {1: 20, 2: 10, 3: 3},
        "apply_reps": {1: 2000, 2: 200, 3: 5},
        "rk4_steps": {1: 2000, 2: 200, 3: 4},
        "b50_steps": {1: 1000, 2: 10},
        "b1_steps": {1: 2000, 3: 3},
        "pool_steps": 300,
        "pool_reps": 3,
        "fit_reps": 5,
    },
    True: {  # smoke
        "build_reps": {1: 2, 2: 2, 3: 1},
        "apply_reps": {1: 20, 2: 5, 3: 1},
        "rk4_steps": {1: 20, 2: 5, 3: 1},
        "b50_steps": {1: 20, 2: 2},
        "b1_steps": {1: 50, 3: 1},
        "pool_steps": 10,
        "pool_reps": 1,
        "fit_reps": 1,
    },
}


def bank_config(k: int) -> nm_config.ExperimentConfig:
    base = nm_config.preset(PRESET)
    return dataclasses.replace(base, ancillas=base.ancillas + EXTRA_MODES[: k - 1]).validate()


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def elapsed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def grid(steps: int, dt: float) -> np.ndarray:
    return np.arange(steps + 1) * dt


def run(seed: int, smoke: bool) -> dict:
    size = SIZES[smoke]
    m: dict[str, float] = {}
    models = {}
    for k in (1, 2, 3):
        cfg = bank_config(k)
        m[f"slh.build_s.K{k}"] = median_time(
            lambda: experiments.build_probed_model(cfg), size["build_reps"][k]
        )
        model = experiments.build_probed_model(cfg)
        spec = master.generator_spec(model)
        rho0 = experiments.initial_state(cfg, model)
        models[k] = (cfg, model, spec, rho0, experiments.probe_operator(model))
        if k == 2:
            m["master.compile_s"] = median_time(
                lambda: master.CompiledGenerator(spec), size["build_reps"][k]
            )
        gen = master.CompiledGenerator(spec)
        reps = size["apply_reps"][k]
        rho = rho0.entries
        apply_s = median_time(lambda: gen.apply(rho), reps)
        d = model.layout.total
        # dense count: E rho, rho E^dag and N rho N^dag per collapse operator,
        # 8 real flops per complex multiply-add
        flops = 8.0 * d**3 * (2 + 2 * len(spec.collapse_ops))
        m[f"master.apply_us.K{k}"] = apply_s * 1e6
        m[f"master.apply_gflops.K{k}"] = flops / apply_s / 1e9
        steps = size["rk4_steps"][k]
        t, _ = elapsed(lambda: master.integrate_master(rho0, spec, grid(steps, cfg.dt)))
        m[f"master.rk4_step_us.K{k}"] = t / steps * 1e6
    # the share of an RK4 step spent outside its four generator applies
    m["master.rk4_diag_share.K2"] = (
        1.0 - 4.0 * m["master.apply_us.K2"] / m["master.rk4_step_us.K2"]
    )

    base = nm_config.preset(PRESET)
    m["master.baseline_s"], _ = elapsed(lambda: experiments.run_baseline(base))

    # SME per trajectory-step; the K = 1 calls also give the repair counts.
    def batch50(k: int) -> float:
        cfg, _, spec, rho0, l_op = models[k]
        steps = size["b50_steps"][k]
        t, _ = elapsed(lambda: filtering.ensemble_average(
            rho0, spec, l_op, grid(steps, cfg.dt), 50, seed, workers=1))
        return t / (50 * steps) * 1e6

    def batch1(k: int):
        cfg, _, spec, rho0, l_op = models[k]
        steps = size["b1_steps"][k]
        t, traj = elapsed(lambda: filtering.simulate_trajectory(
            rho0, spec, l_op, grid(steps, cfg.dt), seed, store_states=True))
        return t / steps * 1e6, traj

    counter = LinalgCounter()
    with counter.active():
        m["filtering.sme_us.K1.B50"] = batch50(1)
        split = {"B50": {"steps": size["b50_steps"][1],
                         "cholesky_calls": counter.cholesky_calls,
                         "eigh_calls": counter.eigh_calls}}
        m["filtering.sme_us.K1.B1"], k1_traj = batch1(1)
        split["B1"] = {"steps": size["b1_steps"][1],
                       "cholesky_calls": counter.cholesky_calls - split["B50"]["cholesky_calls"],
                       "eigh_calls": counter.eigh_calls - split["B50"]["eigh_calls"]}
    m["filtering.sme_us.K2.B50"] = batch50(2)
    m["filtering.sme_us.K3.B1"], _ = batch1(3)
    m["filtering.cholesky_calls"] = counter.cholesky_calls
    m["filtering.eigh_calls"] = counter.eigh_calls
    m["filtering.repair_fire_ratio"] = counter.eigh_calls / counter.cholesky_calls
    m["filtering.repair_useful_ratio"] = counter.eigh_negative / max(counter.eigh_matrices, 1)

    cfg, _, spec, rho0, l_op = models[1]
    steps = size["pool_steps"]
    # 1 and 2 workers alternate, so a change in machine speed hits both alike
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(size["pool_reps"]):
        for workers in (1, 2):
            t, _ = elapsed(lambda: filtering.ensemble_average(
                rho0, spec, l_op, grid(steps, cfg.dt), 100, seed, workers=workers))
            times[workers].append(t)
    one, two = statistics.median(times[1]), statistics.median(times[2])
    m["filtering.pool_efficiency"] = one / (2.0 * two)

    n = len(k1_traj.record)
    t, states = elapsed(lambda: filtering.replay_filter(
        rho0, spec, l_op, k1_traj.record, k1_traj.t_grid))
    m["filtering.replay_us_per_sample"] = t / n * 1e6
    t, _ = elapsed(lambda: filtering.conditional_qubit(k1_traj))
    m["filtering.bloch_batch_us_per_state"] = t / (n + 1) * 1e6
    t, _ = elapsed(lambda: [master.reduce_to_qubit(s).bloch() for s in states])
    m["operators.reduce_us_per_state"] = t / (n + 1) * 1e6

    samples = bank2_spectrum(seed)
    m["spectra.fit_s"] = median_time(lambda: nested_fits(samples, 2), size["fit_reps"])
    final = nested_fits(samples, 2)[-1]
    m["spectra.fit_iterations"] = final.iterations
    m["spectra.fit_rmse"] = final.rmse

    scaling = []
    for name, ref in ROADMAP_BASELINE.items():
        ratio = m[name] / ref
        scaling.append({"metric": name, "us": m[name], "roadmap_us": ref,
                        "ratio": ratio, "flag": not 0.5 <= ratio <= 2.0})
    return {"metrics": m, "scaling": scaling, "repair_split": split}

