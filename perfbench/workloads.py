"""The benchmark's three workloads.

Each workload draws its inputs from the seed, runs one job through the
``nmqubit`` CLI (``cli.main``) and the public API, and checks the job's
outputs against oracles that do not share the code under test.  A job runs
in a fresh process (see ``job.py``); ``run.py`` repeats it and reports medians.

    fig4-compare      nmqubit compare on the paper-fig4 preset, 2 pool workers
    bank2-fit-evolve  nmqubit fit on a seeded two-Lorentzian spectrum, then
                      nmqubit evolve on the fitted two-mode bank (d = 50)
    record-replay     nmqubit filter on paper-fig4 with a long t_final, then
                      replay of the record CSV and reduction to Bloch vectors
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from nmqubit import cli, experiments, filtering, master
from nmqubit import config as nm_config
from nmqubit.slh import AncillaParams
from nmqubit.spectra import LorentzianComponent, SpectrumSamples, mixture_psd

PRESET = "paper-fig4"
WARMUP_STEPS = 20  # the untimed warm-up job runs this many steps
ENSEMBLE_BAND_SE = 5.0  # pointwise band of the ensemble mean, in standard errors
ENSEMBLE_MEAN_SQUARE_Z = 2.0  # limit on the mean squared z-score of the ensemble mean


def read_table(path: Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """A CLI CSV: its ``# key: value`` meta lines and its named columns."""
    meta: dict[str, str] = {}
    rows: list[str] = []
    header: list[str] | None = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line)
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    return meta, {name: data[:, i] for i, name in enumerate(header)}


def file_hashes(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def reduced_bloch(rho: np.ndarray) -> np.ndarray:
    """(..., 3) qubit Bloch vectors of joint states whose first factor is the
    qubit; plain numpy, independent of the package's reductions."""
    d = rho.shape[-1]
    r = rho.reshape(rho.shape[:-2] + (2, d // 2, 2, d // 2))
    q = np.trace(r, axis1=-3, axis2=-1)
    return np.stack(
        [2.0 * q[..., 0, 1].real, -2.0 * q[..., 0, 1].imag, (q[..., 0, 0] - q[..., 1, 1]).real],
        axis=-1,
    )


def exact_propagator(spec, dt: float) -> np.ndarray:
    """expm(L dt) of the row-major vectorized Lindblad generator, by scaling
    and squaring a Taylor series; numpy only."""
    h = spec.hamiltonian.entries
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in spec.collapse_ops:
        n = op.entries
        ndn = n.conj().T @ n
        gen += np.kron(n, n.conj()) - 0.5 * (np.kron(ndn, eye) + np.kron(eye, ndn.T))
    a = gen * dt
    squarings = max(0, math.ceil(math.log2(max(np.abs(a).sum(axis=0).max(), 1e-300) / 0.25)))
    a = a / 2.0**squarings
    term = np.eye(d * d, dtype=complex)
    out = term.copy()
    for k in range(1, 24):
        term = term @ a / k
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def plain_rk4(rho0: np.ndarray, spec, dt: float, steps: int) -> np.ndarray:
    """RK4 on ``master.lindblad_apply`` with trace renormalization per step;
    returns the states at steps 0..``steps``."""
    out = [rho0]
    rho = rho0
    for _ in range(steps):
        k1 = master.lindblad_apply(rho, spec)
        k2 = master.lindblad_apply(rho + 0.5 * dt * k1, spec)
        k3 = master.lindblad_apply(rho + 0.5 * dt * k2, spec)
        k4 = master.lindblad_apply(rho + dt * k3, spec)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = rho / np.trace(rho).real
        out.append(rho)
    return np.array(out)


def bloch_columns(cols: dict[str, np.ndarray], prefix: str = "") -> np.ndarray:
    return np.stack([cols[f"{prefix}{c}"] for c in "xyz"], axis=1)


class Check:
    """Collects named pass/fail results; each failure names the seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.results: list[dict] = []

    def __call__(self, name: str, ok: bool, detail: str) -> None:
        self.results.append(
            {"name": name, "ok": bool(ok), "detail": f"seed {self.seed}: {detail}"}
        )


class Workload:
    """One workload at one seed.  ``inputs`` is a directory the orchestrator
    fills once per run with ``write_inputs``; every job reads it."""

    name = ""

    def __init__(self, inputs: Path, seed: int, smoke: bool) -> None:
        self.inputs = inputs
        self.seed = seed
        self.smoke = smoke
        self.config = None

    def write_inputs(self) -> None:
        raise NotImplementedError

    def load_config(self):
        raise NotImplementedError

    def setup(self) -> None:
        """Config load, model build and generator compile: what a user pays
        before the first step."""
        self.config = self.load_config()
        model = experiments.build_probed_model(self.config)
        master.CompiledGenerator(master.generator_spec(model))

    def run(self, out: Path, tracer, warmup: bool = False) -> dict:
        raise NotImplementedError

    def outputs(self, out: Path) -> list[Path]:
        return sorted(out.glob("*.csv"))

    def check(self, out: Path) -> list[dict]:
        raise NotImplementedError

    def cli(self, tracer, argv: list[str]) -> None:
        """Run one ``nmqubit`` command in this process; raise on failure."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with tracer.span("cli.main"), redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(
                f"seed {self.seed}: nmqubit {' '.join(argv[:1])} exited {code}: "
                f"{stderr.getvalue().strip()}"
            )


class Fig4Compare(Workload):
    """``nmqubit compare`` on paper-fig4: K = 1, d = 10, 10^4 steps; 100
    trajectories in two batches of 50, one per pool worker."""

    name = "fig4-compare"
    n_traj = 100
    workers = 2

    @property
    def t_final(self) -> float:
        return 1.0 if self.smoke else nm_config.preset(PRESET).t_final

    def write_inputs(self) -> None:
        # distinct workload seeds get disjoint trajectory seed ranges
        base = dataclasses.replace(nm_config.preset(PRESET), base_seed=self.seed * self.n_traj)
        job = dataclasses.replace(base, t_final=self.t_final, n_traj=self.n_traj,
                                  workers=self.workers)
        warmup = dataclasses.replace(base, t_final=WARMUP_STEPS * base.dt, n_traj=2,
                                     workers=1)
        (self.inputs / "fig4.cfg").write_text(nm_config.serialize_config(job))
        (self.inputs / "warmup.cfg").write_text(nm_config.serialize_config(warmup))

    def load_config(self):
        return nm_config.parse_config(self.inputs / "fig4.cfg")

    def run(self, out: Path, tracer, warmup: bool = False) -> dict:
        path = self.inputs / ("warmup.cfg" if warmup else "fig4.cfg")
        self.cli(tracer, ["compare", "--config", str(path), "--out", str(out)])
        if warmup:
            return {}
        steps = int(round(self.config.t_final / self.config.dt))
        ens = tracer.total("experiments.run_ensemble")
        unc = tracer.total("experiments.run_unconditional")
        return {
            "steps_per_s": self.n_traj * steps / ens,  # trajectory-steps/s
            "rk4_steps_per_s": steps / unc,
        }

    def check(self, out: Path) -> list[dict]:
        check = Check(self.seed)
        meta, cols = read_table(out / "compare.csv")
        cfg = self.config
        model = experiments.build_probed_model(cfg)
        spec = master.generator_spec(model)
        prop = exact_propagator(spec, cfg.dt)
        v = experiments.initial_state(cfg, model).entries.reshape(-1)
        d = model.layout.total
        exact = np.empty((len(cols["t"]), 3))
        exact[0] = reduced_bloch(v.reshape(d, d))
        for i in range(1, len(exact)):
            v = prop @ v
            exact[i] = reduced_bloch(v.reshape(d, d))
        uncond = bloch_columns(cols, "uncond_")
        dev = float(np.max(np.abs(uncond - exact)))
        check("rk4_vs_exact_propagator", dev <= 1e-9, f"max deviation {dev:.3e} (tol 1e-9)")

        mean = bloch_columns(cols, "cond_mean_")
        se = bloch_columns(cols, "cond_se_")
        seeds = f"trajectory seeds {cfg.base_seed}..{cfg.base_seed + cfg.n_traj - 1}"
        # Over 3e4 correlated points a 3 se band was crossed by chance in 4 of
        # 10 disjoint 100-trajectory ensembles of unchanged code; 5 se in
        # none.  The mean square catches a bias sustained over the run that
        # stays inside the band.
        diff = np.abs(mean - uncond)
        excess = float(np.max(diff - np.maximum(ENSEMBLE_BAND_SE * se, 0.05)))
        check("ensemble_mean_within_band", excess <= 0.0,
              f"{seeds}: largest excess over max({ENSEMBLE_BAND_SE:g} se, 0.05) is {excess:.3e}")
        msz = float(np.mean(np.square(diff / np.maximum(se, 0.05 / 3.0))))
        check("ensemble_mean_square_z", msz <= ENSEMBLE_MEAN_SQUARE_Z,
              f"{seeds}: mean of (|mean - uncond| / max(se, 0.05/3))^2 is {msz:.3f} "
              f"(limit {ENSEMBLE_MEAN_SQUARE_Z:g})")

        tau_m = float(meta["decay_time_markovian"])
        tau_nm = float(meta["decay_time_non_markovian"])
        check("markovian_decays_first", tau_m < tau_nm,
              f"markovian decay time {tau_m:.6g}, non-markovian {tau_nm:.6g}")
        return check.results


def bank2_truth(seed: int) -> list[LorentzianComponent]:
    """The two generating Lorentzians of the bank2-fit-evolve spectrum."""
    rng = np.random.default_rng(seed)
    centers = (rng.uniform(1.0, 1.6), rng.uniform(2.4, 3.0))
    return [
        LorentzianComponent(center=c, linewidth=rng.uniform(0.3, 0.6),
                            weight=rng.uniform(0.5, 1.0))
        for c in centers
    ]


def bank2_spectrum(seed: int, samples: int = 2001, noise: float = 0.01) -> SpectrumSamples:
    """The generating mixture on [-1, 5] with multiplicative Gaussian noise."""
    rng = np.random.default_rng([seed, 1])
    omega = np.linspace(-1.0, 5.0, samples)
    values = mixture_psd(omega, bank2_truth(seed))
    return SpectrumSamples(omega, values * (1.0 + noise * rng.standard_normal(samples)))


class Bank2FitEvolve(Workload):
    """``nmqubit fit`` of two Lorentzians to a seeded noisy spectrum, the fit
    written into a two-mode config (truncation 5, d = 50), ``nmqubit evolve``."""

    name = "bank2-fit-evolve"

    def _config(self, components, t_final: float) -> nm_config.ExperimentConfig:
        base = nm_config.preset(PRESET)
        ancillas = tuple(
            AncillaParams(omega=c.center, gamma=c.linewidth, kappa=c.weight,
                          truncation=base.truncation)
            for c in components
        )
        return dataclasses.replace(base, ancillas=ancillas, t_final=t_final,
                                   base_seed=self.seed).validate()

    @property
    def t_final(self) -> float:
        return 0.1 if self.smoke else 2.0

    def write_inputs(self) -> None:
        spectrum = self.inputs / "spectrum.csv"
        bank2_spectrum(self.seed).write_csv(spectrum)
        # The fit command reads only fit.*; the two modes are placeholders that
        # give the parsed config the evolve model's shape for set-up.
        placeholder = [LorentzianComponent(1.0, 1.0, 1.0)] * 2
        fit = dataclasses.replace(self._config(placeholder, self.t_final),
                                  fit_input=str(spectrum), fit_components=2)
        (self.inputs / "fit.cfg").write_text(nm_config.serialize_config(fit))

    def load_config(self):
        return nm_config.parse_config(self.inputs / "fit.cfg")

    def run(self, out: Path, tracer, warmup: bool = False) -> dict:
        self.cli(tracer, ["fit", "--config", str(self.inputs / "fit.cfg"), "--out", str(out)])
        with tracer.span("bench.fit_to_config"):
            _, cols = read_table(out / "fit_components.csv")
            fitted = [
                LorentzianComponent(float(c), float(g), float(w))
                for c, g, w in zip(cols["center"], cols["linewidth"], cols["weight"])
            ]
            t_final = WARMUP_STEPS * self.config.dt if warmup else self.t_final
            cfg = self._config(fitted, t_final)
            path = out / "evolve.cfg"
            path.write_text(nm_config.serialize_config(cfg))
        self.cli(tracer, ["evolve", "--config", str(path), "--out", str(out)])
        if warmup:
            return {}
        steps = int(round(cfg.t_final / cfg.dt))
        return {"steps_per_s": steps / tracer.total("experiments.run_unconditional")}

    def check(self, out: Path) -> list[dict]:
        check = Check(self.seed)
        _, fit = read_table(out / "fit_components.csv")
        order = np.argsort(fit["center"])
        truth = sorted(bank2_truth(self.seed), key=lambda c: c.center)
        c_err = max(abs(fit["center"][j] - t.center) / t.center for j, t in zip(order, truth))
        g_err = max(abs(fit["linewidth"][j] - t.linewidth) / t.linewidth
                    for j, t in zip(order, truth))
        check("fit_recovers_components", c_err <= 0.05 and g_err <= 0.05,
              f"relative error: centers {c_err:.3e}, linewidths {g_err:.3e} (tol 5e-2)")

        cfg = nm_config.parse_config(out / "evolve.cfg")
        _, cols = read_table(out / "evolve.csv")
        model = experiments.build_probed_model(cfg)
        steps = min(200, len(cols["t"]) - 1)
        ref = plain_rk4(experiments.initial_state(cfg, model).entries,
                        master.generator_spec(model, form="direct"), cfg.dt, steps)
        dev = float(np.max(np.abs(bloch_columns(cols)[: steps + 1] - reduced_bloch(ref))))
        check("evolve_vs_plain_direct_rk4", dev <= 1e-10,
              f"max deviation over {steps} steps {dev:.3e} (tol 1e-10)")
        drift = float(np.max(cols["tr_drift"]))
        check("trace_drift", drift <= 1e-10, f"max tr_drift {drift:.3e} (tol 1e-10)")
        return check.results


class RecordReplay(Workload):
    """``nmqubit filter`` on paper-fig4 with a long t_final (one trajectory,
    batch 1), then replay of its record CSV and reduction of the replayed
    states to Bloch vectors."""

    name = "record-replay"

    @property
    def t_final(self) -> float:
        return 0.5 if self.smoke else 30.0

    def write_inputs(self) -> None:
        base = dataclasses.replace(nm_config.preset(PRESET), base_seed=self.seed)
        job = dataclasses.replace(base, t_final=self.t_final)
        warmup = dataclasses.replace(base, t_final=WARMUP_STEPS * base.dt)
        (self.inputs / "filter.cfg").write_text(nm_config.serialize_config(job))
        (self.inputs / "warmup.cfg").write_text(nm_config.serialize_config(warmup))

    def load_config(self):
        return nm_config.parse_config(self.inputs / "filter.cfg")

    def run(self, out: Path, tracer, warmup: bool = False) -> dict:
        path = self.inputs / ("warmup.cfg" if warmup else "filter.cfg")
        self.cli(tracer, ["filter", "--config", str(path), "--out", str(out)])
        with tracer.span("bench.replay"):
            cfg = nm_config.parse_config(path)
            _, rec = read_table(out / f"filter_record_seed{self.seed}.csv")
            rho0, spec, l_op = experiments.filter_ingredients(cfg)
            with tracer.span("filtering.replay_filter"):
                states = filtering.replay_filter(rho0, spec, l_op, rec["dY"],
                                                 experiments.config_grid(cfg))
            with tracer.span("operators.reduce_states"):
                bloch = np.array([master.reduce_to_qubit(s).bloch() for s in states])
        np.save(out / "replay_bloch.npy", bloch)
        if warmup:
            return {}
        steps = len(rec["dY"])
        return {
            "steps_per_s": steps / tracer.total("experiments.run_filter_trajectory"),
            "replay_samples_per_s": steps / tracer.total("bench.replay"),
        }

    def check(self, out: Path) -> list[dict]:
        check = Check(self.seed)
        _, cols = read_table(out / f"filter_bloch_seed{self.seed}.csv")
        replayed = np.load(out / "replay_bloch.npy")
        dev = float(np.max(np.abs(replayed - bloch_columns(cols))))
        check("replay_reproduces_filter", dev <= 1e-9, f"max deviation {dev:.3e} (tol 1e-9)")
        return check.results


WORKLOADS = {w.name: w for w in (Fig4Compare, Bank2FitEvolve, RecordReplay)}
