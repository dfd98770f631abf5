"""Conditional dynamics under continuous homodyne monitoring.

A trajectory propagates the normalized stochastic master equation

    d rho = G(rho) dt + (L rho + rho L^dag - tr[(L+L^dag) rho] rho) dW

by the Kraus-map step of Rouchon & Ralph, PRA 91, 012118 (2015):
rho -> (M rho M^dag + dt sum_k N_k rho N_k^dag) / tr[...], with
M = I + E dt + L dY + (dY^2 - dt) L^2 / 2, E the generator's non-jump part and
N_k the unmonitored collapse operators.  Each term is a congruence of rho, so
the state stays positive by construction.  The record obeys
dY = tr[(L+L^dag) rho] dt + dW, with Normal(0, dt) innovations dW drawn from a
counter-based stream keyed by the trajectory seed, so every path is
reproducible and independent of execution order; replaying a recorded dY
through the same step recovers the conditional states.  The trace before
normalization stays near 1 on a healthy path; a value outside
[1/NORM_BOUND, NORM_BOUND], or not finite, means a corrupted record or a step
far too large, and aborts the trajectory.

A step of a batch of paths takes one small product per path to build M: its
coefficient row (1, dt, dY, (dY^2 - dt)/2) times the stacked basis
[I, E, L, L^2], built once, on the interleaved real view of the complex
entries.  The state is normalized by multiplying with
the reciprocal trace, and one real contraction (``operators.readout``) reads
the qubit Bloch components and the next signal m = tr[(L+L^dag) rho] together.
Every per-path product is a stacked per-row matmul, (B, 1, k) @ (k, n), never
one 2-D product over the batch: a BLAS 2-D product may round a row
differently depending on how many rows it holds, and a path must not depend
on its batch mates.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .master import CompiledGenerator, GeneratorSpec, JumpGather, PositivityError, grid_steps
from .operators import (
    POSITIVITY_TOL,
    DensityMatrix,
    HilbertLayout,
    Operator,
    qubit_bloch,
    readout,
    readout_weights,
)

#: a path aborts when the trace of its unnormalized Kraus update leaves
#: [1/NORM_BOUND, NORM_BOUND]: healthy preset paths stay in [0.76, 1.34], about
#: 3x inside; dt = 0.4 reaches 15.4 and a 1e6 record kick 1.6e23
NORM_BOUND = 4.0

#: trajectories per ensemble task; fixed, so results do not depend on workers
ENSEMBLE_BATCH = 50


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


def _readout_weights(dims: tuple[int, ...], l: np.ndarray) -> np.ndarray:
    """Weights of the filter's one per-step contraction: the qubit Bloch
    components x, y, z, then the signal m = tr[(L + L^dag) rho]."""
    return readout_weights(dims, l + l.conj().T)


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


def _evolve(rho0: np.ndarray, gen: CompiledGenerator, l: np.ndarray, dts: np.ndarray,
            *, increments: np.ndarray | None = None, record: np.ndarray | None = None,
            seeds=(), store_states: bool = False, t0: float = 0.0):
    """Batched Kraus-map propagation of the normalized SME.

    ``increments`` drives simulation mode (dW given, dY computed); ``record``
    drives replay mode (dY given, dW recovered as dY - tr[(L+L^dag)rho] dt).
    ``l`` must equal exactly one collapse operator of ``gen``; ``t0`` is the
    time of the first grid point, named with the later ones in an abort.
    Returns (bloch, states, record_out, innovations_out).
    """
    b, d, _ = rho0.shape
    n = len(dts)
    w = _readout_weights(gen.layout.dims, l)  # rejects a layout without a leading qubit
    unmonitored = [op for op in gen.collapse if not np.array_equal(op, l)]
    if len(gen.collapse) - len(unmonitored) != 1:
        raise ValueError("the probe operator must equal exactly one collapse operator")
    jumps = JumpGather(unmonitored, d)
    ident = np.eye(d)
    try:  # the Kraus map preserves positivity, so the initial state must have it
        np.linalg.cholesky(rho0 + POSITIVITY_TOL * ident)
    except np.linalg.LinAlgError:
        raise ValueError(f"initial state has an eigenvalue below -{POSITIVITY_TOL:g}") from None
    basis = np.array([ident, gen.e, l, l @ l], dtype=complex)
    basis_re = basis.reshape(4, -1).view(float)
    coef = np.ones((b, 1, 4))

    bloch = np.empty((b, n + 1, 3))
    states = np.empty((b, n + 1, d, d), dtype=complex) if store_states else None
    rec_out = np.empty((b, n))
    innov_out = np.empty((b, n))

    rho = np.array(rho0, dtype=complex)
    out = readout(rho, w)
    bloch[:, 0] = out[:, :3]
    if store_states:
        states[:, 0] = rho

    for i in range(n):
        dt = dts[i]
        m = out[:, 3]
        if increments is not None:
            dw = increments[:, i]
            dy = m * dt + dw
        else:
            dy = record[:, i]
            dw = dy - m * dt
        coef[:, 0, 1] = dt
        coef[:, 0, 2] = dy
        coef[:, 0, 3] = 0.5 * (dy * dy - dt)
        k = (coef @ basis_re).view(complex).reshape(b, d, d)
        rho = k @ rho @ k.conj().transpose(0, 2, 1) + jumps(rho, dt * jumps.w)
        tr = rho.trace(axis1=1, axis2=2).real
        ok = (tr >= 1.0 / NORM_BOUND) & (tr <= NORM_BOUND)
        if not ok.all():
            bad = np.flatnonzero(~ok)
            err = PositivityError(
                f"normalization factor {tr[bad[0]]:.3e} outside [1/{NORM_BOUND:g}, "
                f"{NORM_BOUND:g}] after step {i} (t={t0 + float(np.sum(dts[:i + 1])):.6g}); "
                f"the record is corrupted or the step size far too large"
            )
            err.seeds = tuple(seeds[j] for j in bad) if len(seeds) else ()
            err.step = i
            raise err
        rho *= (1.0 / tr)[:, None, None]
        out = readout(rho, w)

        rec_out[:, i] = m * dt + dw
        innov_out[:, i] = dw
        bloch[:, i + 1] = out[:, :3]
        if store_states:
            states[:, i + 1] = rho

    return bloch, states, rec_out, innov_out


def simulate_trajectory(rho0: DensityMatrix, spec: GeneratorSpec, l_op: Operator,
                        t_grid, seed: int, store_states: bool = False) -> Trajectory:
    """Draw the innovation path from ``seed`` and propagate the SME along it."""
    t, dts = grid_steps(t_grid)
    dw = wiener_increments(seed, dts)
    bloch, states, rec, innov = _evolve(
        rho0.entries[None, :, :], CompiledGenerator(spec), l_op.entries, dts,
        increments=dw[None, :], seeds=(seed,), store_states=store_states, t0=t[0],
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
    t, dts = grid_steps(t_grid)
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
        record=rec[None, :], store_states=True, t0=t[0],
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
                     workers: int = 1) -> EnsembleResult:
    """Mean and standard error of the conditional qubit Bloch components over
    ``n_traj`` trajectories seeded base_seed .. base_seed + n_traj - 1.

    Trajectories are partitioned into batches of ``ENSEMBLE_BATCH``, so the
    result does not depend on ``workers`` or scheduling.  Any aborted
    trajectory fails the whole ensemble with the offending seeds listed.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2")
    t, dts = grid_steps(t_grid)
    seeds = tuple(int(base_seed) + k for k in range(n_traj))
    tasks = [(rho0.entries, spec, l_op, dts, seeds[i:i + ENSEMBLE_BATCH])
             for i in range(0, n_traj, ENSEMBLE_BATCH)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
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
