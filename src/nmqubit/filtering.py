"""Conditional dynamics under continuous homodyne monitoring.

A trajectory propagates the normalized stochastic master equation

    d rho = G(rho) dt + (L rho + rho L^dag - tr[(L+L^dag) rho] rho) dW

with Euler-Maruyama steps and per-step trace renormalization.  The simulated
measurement record obeys dY = tr[(L+L^dag) rho] dt + dW, where the innovation
increments dW are Normal(0, dt) draws from a counter-based stream keyed by the
trajectory seed, so every path is reproducible and independent of execution
order.  Replaying a recorded dY sequence through the same equations recovers
the conditional states, which is the filtering use of the model.

Euler-Maruyama kicks of size |L| |dW| push the near-zero eigenvalues of an
almost-pure conditional state slightly negative; left alone these excursions
accumulate diffusively.  Each step therefore ends with a positivity repair:
when the updated state has an eigenvalue below a small screen, its spectrum is
clipped at zero and the trace renormalized.  A Cholesky screen on the whole
batch finds the steps that need it; only the paths that fail the screen are
then decomposed and repaired, so a path's repair depends on its own state
alone, never on its batch mates.  A raw eigenvalue below ``-SME_ABORT_TOL``
(before repair) is treated as an unrecoverable step - a corrupted record or a
step size far too large - and aborts the trajectory.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .master import CompiledGenerator, GeneratorSpec, PositivityError
from .operators import DensityMatrix, HilbertLayout, Operator, qubit_bloch

SME_ABORT_TOL = 0.25
CLIP_SCREEN = 1e-12


class UnsupportedModeError(RuntimeError):
    """The trajectory was stored without the data this operation needs."""


class EnsembleError(RuntimeError):
    """One or more ensemble members aborted; carries the failing seeds."""

    def __init__(self, failing_seeds):
        self.failing_seeds = tuple(failing_seeds)
        super().__init__(f"trajectories failed for seeds {sorted(self.failing_seeds)}")


def wiener_increments(seed: int, dts) -> np.ndarray:
    """Normal(0, dt_i) increments from a Philox stream keyed by ``seed``.

    The i-th increment is a pure function of (seed, i); parallel callers can
    draw disjoint trajectories without coordination.
    """
    dts = np.asarray(dts, dtype=float)
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return gen.standard_normal(len(dts)) * np.sqrt(dts)


def measurement_signal(states, l_op: Operator) -> np.ndarray:
    """tr[(L + L^dag) rho] for each state of a stack.

    Each state goes through the exact arithmetic path the trajectory engine
    uses per step, so record bookkeeping can be re-verified bit for bit.
    """
    lsum = l_op.entries + l_op.entries.conj().T
    arr = np.asarray(states)
    return np.array(
        [np.einsum("ij,...ji->...", lsum, arr[i:i + 1]).real[0] for i in range(len(arr))]
    )


@dataclass
class Trajectory:
    """One conditional path: qubit Bloch components (and, if stored, the full
    states), the measurement record, the innovations that generated it, and
    the seed."""

    t_grid: np.ndarray
    layout: HilbertLayout
    bloch: np.ndarray
    states: np.ndarray | None
    record: np.ndarray
    innovations: np.ndarray
    seed: int


@dataclass
class EnsembleResult:
    """Per-time mean and standard error of qubit Bloch components over
    independently seeded trajectories."""

    t_grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_traj: int
    seeds: tuple[int, ...]


def _failing_paths(a: np.ndarray) -> np.ndarray:
    """Indices of the matrices in the stack ``a`` that have no Cholesky factor.

    numpy's batched Cholesky kernel fills the factor of each failing matrix
    with NaN and flags an invalid value; ``np.linalg.cholesky`` runs the same
    kernel and turns that flag into one error for the whole stack.
    """
    with np.errstate(invalid="ignore"):
        chol = np.linalg._umath_linalg.cholesky_lo(a, signature="D->D")
    return np.flatnonzero(np.isnan(chol[:, 0, 0].real))


def _evolve(rho0: np.ndarray, gen: CompiledGenerator, l: np.ndarray, dts: np.ndarray,
            *, increments: np.ndarray | None = None, record: np.ndarray | None = None,
            seeds=(), store_states: bool = False):
    """Batched Euler-Maruyama propagation of the normalized SME.

    ``increments`` drives simulation mode (dW given, dY computed); ``record``
    drives replay mode (dY given, dW recovered as dY - tr[(L+L^dag)rho] dt).
    Returns (bloch, states, record_out, innovations_out).
    """
    simulate = increments is not None
    dims = gen.layout.dims
    if dims[0] != 2:
        raise ValueError("layout does not start with a qubit factor")
    b, d, _ = rho0.shape
    n = len(dts)
    ldag = l.conj().T
    lsum = l + ldag
    screen = CLIP_SCREEN * np.eye(d)

    bloch = np.empty((b, n + 1, 3))
    states = np.empty((b, n + 1, d, d), dtype=complex) if store_states else None
    rec_out = np.empty((b, n))
    innov_out = np.empty((b, n))

    rho = np.array(rho0, dtype=complex)
    bloch[:, 0] = qubit_bloch(rho, dims)
    if store_states:
        states[:, 0] = rho

    for i in range(n):
        dt = dts[i]
        m = np.einsum("ij,...ji->...", lsum, rho).real
        dw = increments[:, i] if simulate else record[:, i] - m * dt
        drift = gen.apply(rho)
        gain = l @ rho + rho @ ldag - m[:, None, None] * rho
        rho = rho + dt * drift + dw[:, None, None] * gain
        tr = np.einsum("...ii->...", rho).real
        rho = rho / tr[:, None, None]

        shifted = rho + screen
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            failed = _failing_paths(shifted)
            w, v = np.linalg.eigh(rho[failed])
            bad = np.where(w[:, 0] < -SME_ABORT_TOL)[0]
            if bad.size:
                err = PositivityError(
                    f"conditional state eigenvalue {w[bad[0], 0]:.3e} < -{SME_ABORT_TOL:g} "
                    f"after step {i} (t={float(np.sum(dts[:i + 1])):.6g}); "
                    f"the record is corrupted or the step size far too large"
                )
                err.seeds = tuple(seeds[failed[j]] for j in bad) if len(seeds) else ()
                err.step = i
                raise err
            # positivity repair: clip the offending spectra at zero, renormalize
            fix = np.where(w[:, 0] < -CLIP_SCREEN)[0]
            wc = np.clip(w[fix], 0.0, None)
            rebuilt = np.einsum("bik,bk,bjk->bij", v[fix], wc, v[fix].conj())
            rho[failed[fix]] = rebuilt / wc.sum(axis=1)[:, None, None]

        rec_out[:, i] = m * dt + dw
        innov_out[:, i] = dw
        bloch[:, i + 1] = qubit_bloch(rho, dims)
        if store_states:
            states[:, i + 1] = rho

    return bloch, states, rec_out, innov_out


def _grid_steps(t_grid) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("t_grid must contain at least two times")
    dts = np.diff(t)
    if np.any(dts <= 0):
        raise ValueError("t_grid must be strictly increasing")
    return t, dts


def simulate_trajectory(rho0: DensityMatrix, spec: GeneratorSpec, l_op: Operator,
                        t_grid, seed: int, store_states: bool = False) -> Trajectory:
    """Draw the innovation path from ``seed`` and propagate the SME along it."""
    t, dts = _grid_steps(t_grid)
    dw = wiener_increments(seed, dts)
    bloch, states, rec, innov = _evolve(
        rho0.entries[None, :, :], CompiledGenerator(spec), l_op.entries, dts,
        increments=dw[None, :], seeds=(seed,), store_states=store_states,
    )
    return Trajectory(
        t_grid=t,
        layout=spec.layout,
        bloch=bloch[0],
        states=states[0] if states is not None else None,
        record=rec[0],
        innovations=innov[0],
        seed=seed,
    )


def replay_filter(rho0: DensityMatrix, spec: GeneratorSpec, l_op: Operator,
                  record, t_grid) -> list[DensityMatrix]:
    """Reconstruct the conditional states from a measurement record alone."""
    t, dts = _grid_steps(t_grid)
    rec = np.asarray(record, dtype=float)
    if rec.shape != dts.shape:
        raise ValueError(
            f"record length {rec.shape} does not match the {len(dts)} grid steps"
        )
    bad = np.flatnonzero(~np.isfinite(rec))
    if bad.size:
        raise ValueError(f"record entry {rec[bad[0]]} at step {bad[0]} is not finite")
    _, states, _, _ = _evolve(
        rho0.entries[None, :, :], CompiledGenerator(spec), l_op.entries, dts,
        record=rec[None, :], store_states=True,
    )
    return [DensityMatrix.wrap(spec.layout, s) for s in states[0]]


def conditional_qubit(trajectory: Trajectory) -> np.ndarray:
    """Reduce every stored conditional state to qubit Bloch components."""
    if trajectory.states is None:
        raise UnsupportedModeError(
            "trajectory stores expectations only; rerun with store_states=True"
        )
    return qubit_bloch(trajectory.states, trajectory.layout.dims)


def _ensemble_worker(args):
    rho0e, spec, l_op, dts, seeds = args
    b = len(seeds)
    dw = np.stack([wiener_increments(s, dts) for s in seeds])
    rho0 = np.broadcast_to(rho0e, (b,) + rho0e.shape)
    try:
        bloch, _, _, _ = _evolve(rho0, CompiledGenerator(spec), l_op.entries, dts,
                                 increments=dw, seeds=seeds)
    except PositivityError as err:
        return None, None, tuple(getattr(err, "seeds", ()) or seeds)
    return bloch.sum(axis=0), (bloch * bloch).sum(axis=0), ()


def ensemble_average(rho0: DensityMatrix, spec: GeneratorSpec, l_op: Operator,
                     t_grid, n_traj: int, base_seed: int,
                     workers: int = 1, batch_size: int = 50) -> EnsembleResult:
    """Mean and standard error of the conditional qubit Bloch components over
    ``n_traj`` trajectories seeded base_seed .. base_seed + n_traj - 1.

    Trajectories are partitioned into fixed batches, so the result does not
    depend on ``workers`` or scheduling.  Any aborted trajectory fails the
    whole ensemble with the offending seeds listed.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2")
    t, dts = _grid_steps(t_grid)
    seeds = tuple(int(base_seed) + k for k in range(n_traj))
    tasks = [(rho0.entries, spec, l_op, dts, seeds[i:i + batch_size])
             for i in range(0, n_traj, batch_size)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ensemble_worker, tasks))
    else:
        results = map(_ensemble_worker, tasks)

    failing: list[int] = []
    total = np.zeros((len(t), 3))
    total_sq = np.zeros((len(t), 3))
    for s, sq, failed in results:
        if failed:
            failing.extend(failed)
            continue
        total += s
        total_sq += sq
    if failing:
        raise EnsembleError(failing)

    mean = total / n_traj
    var = (total_sq - n_traj * mean * mean) / (n_traj - 1)
    stderr = np.sqrt(np.maximum(var, 0.0) / n_traj)
    return EnsembleResult(t, mean, stderr, n_traj, seeds)
