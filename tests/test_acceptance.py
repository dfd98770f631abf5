"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line; run with
``pytest -s tests/test_acceptance.py`` to see them all.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from nmqubit.cli import run_command
from nmqubit.config import preset, with_truncation
from nmqubit.experiments import (
    build_probed_model,
    config_grid,
    filter_ingredients,
    truncation_deviation,
)
from nmqubit.filtering import replay_filter, simulate_trajectory
from nmqubit.master import (
    generator_spec,
    integrate_master,
    lindblad_apply,
)
from nmqubit.operators import DensityMatrix
from nmqubit.spectra import (
    LorentzianComponent,
    SpectrumSamples,
    lorentzian_psd,
    mixture_psd,
    nested_fits,
)

from conftest import kernel_psd_error, ladder


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def preset_cfg():
    return preset("paper-fig4")


@pytest.fixture(scope="module")
def uncond(preset_cfg):
    t0 = time.perf_counter()
    rho0, spec, _ = filter_ingredients(preset_cfg)
    result = integrate_master(rho0, spec, config_grid(preset_cfg), store_states=True)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def compare_artifact(tmp_path_factory, preset_cfg):
    out = tmp_path_factory.mktemp("acceptance_out")
    cfg = dataclasses.replace(preset_cfg, out_dir=str(out), workers=2)
    t0 = time.perf_counter()
    (path,) = run_command("compare", cfg)
    return path, time.perf_counter() - t0


@pytest.fixture(scope="module")
def probe_trajectory(preset_cfg):
    rho0, spec, l_op = filter_ingredients(preset_cfg)
    grid = config_grid(preset_cfg)
    traj = simulate_trajectory(rho0, spec, l_op, grid, preset_cfg.base_seed,
                               store_states=True)
    return traj, (rho0, spec, l_op, grid)


def load_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if ":" in line:
                key, value = line[1:].split(":", 1)
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows)
    return meta, {name: data[:, j] for j, name in enumerate(header)}


def test_criterion_1_generator_equivalence(preset_cfg):
    t0 = time.perf_counter()
    cfg = with_truncation(preset_cfg, 4)
    model = build_probed_model(cfg)
    spec = generator_spec(model)
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(20):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m + m.conj().T
        rho /= np.trace(rho)
        diff = np.max(np.abs(
            lindblad_apply(rho, spec) - lindblad_apply(rho, generator_spec(model, form="direct"))
        ))
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report("01 generator-equivalence", ok,
                  f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_conservation_suite(uncond):
    result, elapsed = uncond
    drift = float(result.tr_drift.max())
    herm = float(np.abs(result.states - result.states.conj().swapaxes(1, 2)).max())
    mineig = float(result.min_eig.min())
    ok = drift <= 1e-8 and herm <= 1e-10 and mineig >= -1e-8 and elapsed < 60.0
    assert report(
        "02 conservation-suite", ok,
        f"tr drift {drift:.1e}, herm {herm:.1e}, min eig {mineig:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_linear_ancilla_oracle(preset_cfg):
    t0 = time.perf_counter()
    cfg = dataclasses.replace(
        preset_cfg,
        ancillas=(dataclasses.replace(preset_cfg.ancillas[0], kappa=0.0),),
    )
    model = build_probed_model(cfg)
    bank = np.zeros((cfg.truncation,) * 2)
    bank[:2, :2] = 0.5  # the bank ket (|0> + |1>)/sqrt(2), so <a(0)> = 0.5
    qubit = DensityMatrix.from_bloch(*cfg.init_bloch).entries
    rho0 = DensityMatrix(model.layout, np.kron(qubit, bank))
    result = integrate_master(rho0, generator_spec(model), config_grid(cfg), store_states=True)
    a_op = np.kron(np.eye(2), ladder(cfg.truncation))
    got = np.einsum("ij,tji->t", a_op, result.states)
    mode = cfg.ancillas[0]
    want = 0.5 * np.exp(-(mode.gamma / 2 + 1j * mode.omega) * result.t_grid)
    err = float(np.max(np.abs(got - want)))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-6 and elapsed < 10.0
    assert report("03 linear-ancilla-oracle", ok, f"max err {err:.2e}, {elapsed:.1f}s")


def test_criterion_4_lorentzian_identities():
    t0 = time.perf_counter()
    peaks, halves = [], []
    comps = [
        LorentzianComponent(center=2.0, linewidth=0.6, weight=1.0),
        LorentzianComponent(center=10.0, linewidth=0.6, weight=1.0),
    ]
    for c in comps:
        peaks.append(lorentzian_psd(c.center, c))
        halves.append(lorentzian_psd(c.center + c.linewidth / 2, c))
        halves.append(lorentzian_psd(c.center - c.linewidth / 2, c))
    worst_fourier = 0.0
    for c in comps:
        grid = np.linspace(c.center - 3 * c.linewidth, c.center + 3 * c.linewidth, 25)
        err = kernel_psd_error(c, grid, t_max=50 / c.linewidth, dt=1e-3)
        worst_fourier = max(worst_fourier, err)
    elapsed = time.perf_counter() - t0
    ok = (
        all(p == 1.0 for p in peaks)
        and all(abs(h - 0.5) < 1e-12 for h in halves)
        and worst_fourier <= 1e-3
        and elapsed < 10.0
    )
    assert report(
        "04 lorentzian-identities", ok,
        f"peak err {max(abs(p - 1) for p in peaks):.1e}, "
        f"half err {max(abs(h - 0.5) for h in halves):.1e}, "
        f"fourier err {worst_fourier:.1e}, {elapsed:.1f}s",
    )


def test_criterion_5_filter_consistency(compare_artifact):
    path, elapsed = compare_artifact
    _, cols = load_csv(path)
    worst_excess = -np.inf
    for c in "xyz":
        diff = np.abs(cols[f"cond_mean_{c}"] - cols[f"uncond_{c}"])
        tol = np.maximum(3.0 * cols[f"cond_se_{c}"], 0.05)
        worst_excess = max(worst_excess, float((diff - tol).max()))
    ok = worst_excess <= 0.0 and elapsed < 300.0
    assert report(
        "05 filter-consistency", ok,
        f"500 trajectories, worst (|diff|-tol) {worst_excess:.3f}, {elapsed:.0f}s",
    )


def test_criterion_6_innovation_statistics(probe_trajectory):
    traj, _ = probe_trajectory
    dw = traj.innovations
    n = len(dw)
    dt = float(np.diff(traj.t_grid).mean())
    mean_limit = 3.0 * math.sqrt(dt / n)
    mean = abs(float(np.mean(dw)))
    var_err = abs(float(np.var(dw)) / dt - 1.0)
    ok = n == 10_000 and mean <= mean_limit and var_err <= 0.05
    assert report(
        "06 innovation-statistics", ok,
        f"|mean| {mean:.2e} <= {mean_limit:.2e}, |var/dt-1| {var_err:.3f}",
    )


def test_criterion_7_replay_determinism(probe_trajectory):
    traj, (rho0, spec, l_op, grid) = probe_trajectory
    states = replay_filter(rho0, spec, l_op, traj.record, grid)
    dev = max(
        float(np.max(np.abs(s.entries - traj.states[i].entries))) for i, s in enumerate(states)
    )
    rerun = simulate_trajectory(rho0, spec, l_op, grid, traj.seed, store_states=True)
    identical = (
        np.array_equal(rerun.states, traj.states)
        and np.array_equal(rerun.record, traj.record)
        and np.array_equal(rerun.innovations, traj.innovations)
    )
    ok = dev <= 1e-10 and identical
    assert report(
        "07 replay-determinism", ok,
        f"replay dev {dev:.1e}, rerun bit-identical {identical}",
    )


def test_criterion_8_qualitative_comparison(compare_artifact):
    path, _ = compare_artifact
    meta, cols = load_csv(path)
    tau_m = float(meta["decay_time_markovian"])
    tau_nm = float(meta["decay_time_non_markovian"])
    final_gap = max(
        abs(cols[f"uncond_{c}"][-1] - cols[f"markov_{c}"][-1]) for c in "xyz"
    )
    ok = tau_m < tau_nm and final_gap >= 0.01
    assert report(
        "08 qualitative-comparison", ok,
        f"decay markov {tau_m:.3f} < colored {tau_nm:.3f}, final gap {final_gap:.3f}",
    )


def test_criterion_9_spectrum_fitting():
    truth = (
        LorentzianComponent(center=1.0, linewidth=0.5, weight=1.0),
        LorentzianComponent(center=3.0, linewidth=1.2, weight=0.4),
    )
    omega = np.linspace(-3.0, 7.0, 400)
    samples = SpectrumSamples(omega, mixture_psd(omega, truth))
    fits = nested_fits(samples, 3)
    got = sorted(fits[1].components, key=lambda c: c.center)
    rel = []
    for g, r in zip(got, truth):
        rel += [
            (g.center - r.center) / r.center,
            (g.linewidth - r.linewidth) / r.linewidth,
            (g.weight - r.weight) / r.weight,
        ]
    rmse = float(np.sqrt(np.mean(np.square(rel))))
    monotone = fits[1].rmse <= fits[0].rmse and fits[2].rmse <= fits[1].rmse
    ok = rmse <= 1e-4 and monotone
    assert report(
        "09 spectrum-fitting", ok,
        f"param rmse {rmse:.2e}, residuals "
        + " >= ".join(f"{f.rmse:.2e}" for f in fits),
    )


def test_criterion_10_truncation_convergence(preset_cfg):
    dev = truncation_deviation(preset_cfg)
    ok = dev <= 1e-3
    assert report("10 truncation-convergence", ok, f"N=5 vs N=10 deviation {dev:.2e}")
