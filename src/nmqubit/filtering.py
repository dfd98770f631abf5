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

A run steps its uniform grid by one dt (see ``master.grid_steps``).  For an
exactly Hermitian rho, M rho M^dag = (rho M^dag)^dag M^dag, and a right
product with a complex A is one real product with a (2d, 2d) matrix R(A) on
the interleaved real (d, 2d) view of the state.  A step builds W = R(M^dag)
as its coefficient row (1, dY, dY^2 - dt) times R of the adjoint basis
[I + dt E, L, L^2 / 2]^dag, built once, and forms Y = rho W, Y^dag by one
conjugate of Y's transposed complex view, and rho = Y^dag W: BLAS runs real
products about twice as fast as complex ones of the same flops.  The state
enters as rho0's Hermitian part.  Every buffer is allocated once per run and
filled in place with ``out=``: at d = 10 the per-call overhead of small numpy
operations dominates a step.  One real contraction (``operators.readout``)
writes the qubit Bloch components and the next signal m = tr[(L+L^dag) rho];
a simulated record is m dt + dW, formed afterwards.  Every per-path product
is a per-row matmul stacked over the batch, never one 2-D product over its
rows, which BLAS may round differently depending on how many rows it holds.
Stored states are kept as their d^2 real Hermitian coordinates
(``master._HermitianCoordinates``) and handed out as ``StoredStates``.

A step is one loop body whatever B: the products, the jump gather, the
readout and the coordinate store are the same calls on the same (B, ...)
buffers.  B only decides whether the O(B) bookkeeping is scalar: one path
(B = 1: a simulated trajectory, a replay, an ensemble's batch of one) forms
dY and dY^2 - dt as scalars and checks and divides by its trace as one, since
at B = 1 the vector forms' per-call overhead is most of a step.  The scalar
forms do the same arithmetic in the same order, so a path's bits do not
depend on its batch.  An ensemble worker's batch streams: its readouts
(x, y, z, m per path and grid point) go through a ring of about
``DIAG_BLOCK_BYTES`` whose row 0 carries the previous block's last point,
each block goes to the per-time moments, and each block's innovations are
drawn in place, the numbers of ``wiener_increments``: O(B block + n) floats.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .master import (
    DIAG_BLOCK_BYTES, CompiledGenerator, JumpGather, PositivityError, _check_layout,
    _HermitianCoordinates, grid_steps,
)
from .operators import (
    POSITIVITY_TOL,
    DensityMatrix,
    HilbertLayout,
    Operator,
    readout,
    readout_weights,
)
from .slh import GeneratorSpec

#: a path aborts when the trace of its unnormalized Kraus update leaves
#: [1/NORM_BOUND, NORM_BOUND]: healthy preset paths stay in [0.76, 1.34], about
#: 3x inside; dt = 0.4 reaches 15.4 and a 1e6 record kick 1.6e23
NORM_BOUND = 4.0

#: trajectories per ensemble task; fixed, so results do not depend on workers
ENSEMBLE_BATCH = 50


class UnsupportedModeError(RuntimeError):
    """The trajectory was stored without the data this operation needs."""


def wiener_increments(seed: int, n: int, dt: float) -> np.ndarray:
    """``n`` Normal(0, dt) increments from a Philox stream keyed by ``seed``.

    The i-th increment is a pure function of (seed, i, dt); parallel callers
    can draw disjoint trajectories without coordination.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return gen.standard_normal(n) * np.sqrt(dt)


class StoredStates(Sequence):
    """The conditional states of one path, n + 1 read-only ``DensityMatrix``
    items held as one (n + 1, d^2) stack of their real Hermitian coordinates.

    An item is written out as a matrix when it is read: ``[i]`` writes one
    state (a slice is another ``StoredStates`` on a view of the stack),
    iteration one block of about ``DIAG_BLOCK_BYTES`` at a time, and
    ``np.asarray`` the whole (n + 1, d, d) stack.  Every written state is
    exactly Hermitian.
    """

    __slots__ = ("layout", "coords", "_herm", "_block")

    def __init__(self, layout: HilbertLayout, coords: np.ndarray) -> None:
        self.layout = layout
        self.coords = coords
        self._herm = _HermitianCoordinates(layout.total)
        self._block = max(1, DIAG_BLOCK_BYTES // (16 * layout.total ** 2))

    def __len__(self) -> int:
        return len(self.coords)

    def _write(self, lo: int, k: int) -> np.ndarray:
        """States lo .. lo + k - 1 (fewer at the end) as one (k, d, d) stack."""
        v = self.coords[lo:lo + k]
        return self._herm.write(v, np.empty((len(v),) + (self._herm.d,) * 2, dtype=complex))

    def __getitem__(self, i):
        if isinstance(i, slice):  # a view of the coordinates, no copy
            return StoredStates(self.layout, self.coords[i])
        i = range(len(self))[operator.index(i)]  # a negative i counts from the end
        return DensityMatrix.wrap(self.layout, self._write(i, 1)[0])

    def __iter__(self):
        for lo in range(0, len(self), self._block):
            states = self._write(lo, self._block)
            states.setflags(write=False)
            for s in states:
                yield DensityMatrix.wrap(self.layout, s)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty((len(self),) + (self._herm.d,) * 2, dtype=complex)
        for lo in range(0, len(self), self._block):  # by blocks, so no full-size temporary
            hi = lo + self._block
            self._herm.write(self.coords[lo:hi], out[lo:hi])
        return np.asarray(out, dtype=dtype)


@dataclass
class Trajectory:
    """One conditional path: qubit Bloch components (and, if stored, the full
    states), the measurement record, the innovations that generated it, and
    the seed."""

    t_grid: np.ndarray
    bloch: np.ndarray
    states: StoredStates | None
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
    seeds: tuple[int, ...]


def _abort(tr: np.ndarray, i: int, dt: float, t0: float, seeds) -> PositivityError:
    """The abort of step i, given the traces ``tr`` of a batch's rows: names
    the first failing row's trace and every failing row's seed."""
    bad = np.flatnonzero(~((tr >= 1.0 / NORM_BOUND) & (tr <= NORM_BOUND)))
    err = PositivityError(
        f"normalization factor {tr[bad[0]]:.3e} outside [1/{NORM_BOUND:g}, "
        f"{NORM_BOUND:g}] after step {i} (t={t0 + (i + 1) * dt:.6g}); "
        f"the record is corrupted or the step size far too large"
    )
    err.seeds = tuple(seeds[j] for j in bad) if len(seeds) else ()
    err.step = i
    return err


def _evolve(rho0: np.ndarray, gen: CompiledGenerator, l: np.ndarray, dt: float,
            *, increments: np.ndarray | None = None, record: np.ndarray | None = None,
            stream=None, seeds=(), store_states: bool = False, t0: float = 0.0):
    """Batched Kraus-map propagation of the normalized SME, one loop for
    every B, with one path's dY and trace as scalars (see the module
    docstring).  ``increments`` (simulation: dW given, dY computed) or
    ``record`` (replay: dY given) is a (B, n) array for n steps of ``dt``.
    ``l`` must equal exactly one collapse operator of ``gen``; ``t0`` is the
    time of the first grid point, named with the later ones in an abort.
    Returns (bloch, states, signal): the (B, n + 1, 3) Bloch components, the
    states' (B, n + 1, d^2) real Hermitian coordinates or None, and the (B, n)
    signal m = tr[(L+L^dag) rho] before each step, so a simulated record is
    m dt + dW and a replayed innovation dY - m dt.  A ``stream``
    (``_Moments``) replaces ``increments`` and the returned arrays:
    ``draw(out)`` fills the (B, k) ``out`` with the next k increments, and
    ``add(start, bloch)`` takes the (B, k, 3) Bloch rows from grid point start.
    """
    b, d, _ = rho0.shape
    given = record if increments is None else increments
    n = stream.n if given is None else given.shape[1]
    w = readout_weights(gen.layout.dims, l + l.conj().T)  # rejects a layout without a leading qubit
    unmonitored = [op for op in gen.collapse if not np.array_equal(op, l)]
    if len(gen.collapse) - len(unmonitored) != 1:
        raise ValueError("the probe operator must equal exactly one collapse operator")
    jumps = JumpGather(unmonitored, d)
    ident = np.eye(d)
    # rho0's Hermitian part, which the real Kraus products need, C-ordered
    rho = np.empty((b, d, d), dtype=complex)
    np.add(rho0, rho0.conj().swapaxes(1, 2), out=rho)
    rho_re = rho.view(float)
    rho_re *= 0.5
    try:  # the Kraus map preserves positivity, so the initial state must have it
        np.linalg.cholesky(rho + POSITIVITY_TOL * ident)
    except np.linalg.LinAlgError:
        raise ValueError(f"initial state has an eigenvalue below -{POSITIVITY_TOL:g}") from None
    # W = R(M^dag) = coef @ basis_w with the row (1, dY, dY^2 - dt), the
    # basis R([I + dt E, L, L^2 / 2]^dag) and R(A) the (2d, 2d) matrix with
    # x.view(float) @ R(A) = (x @ A).view(float): its 2x2 block (k, j) is
    # [[Re A_kj, Im A_kj], [-Im A_kj, Re A_kj]].  The 1/2 of the last term
    # sits in the basis, where scaling by 1/2 rounds exactly as in coef
    adj = np.array([ident + dt * gen.e, l, 0.5 * (l @ l)], dtype=complex).conj().swapaxes(1, 2)
    re, im = adj.real, adj.imag
    basis_w = np.stack([np.stack([re, im], -1), np.stack([-im, re], -1)], -3).reshape(3, -1)

    # buffers allocated once per call and filled in place every step, most of
    # them through the views named here
    coef = np.ones((b, 1, 3))
    _, dy, quad = coef[:, 0].T  # quad holds dY^2 - dt
    w_flat = np.empty((b, 1, 4 * d * d))
    w_mat = w_flat.reshape(b, 2 * d, 2 * d)  # W = R(M^dag)
    y_re = np.empty((b, d, 2 * d))  # Y = rho M^dag
    y_t = y_re.view(complex).transpose(0, 2, 1)
    ydag = np.empty((b, d, d), dtype=complex)  # Y^dag = M rho
    ydag_re = ydag.view(float)
    rho_flat = rho.reshape(b, d * d)
    rho_reals = rho_flat.view(float)
    rho_row = rho_reals[:, None]
    diag = rho_flat[:, ::d + 1]
    rows = len(jumps.idx)  # rows of the jump gather, 0 without unmonitored channels
    gathered = np.empty((b, rows, d * d), dtype=complex)
    jump_sum = gathered[:, 0] if rows == 1 else np.empty_like(rho_flat)  # one row is its own sum
    w_dt = dt * jumps.w

    one_path = b == 1  # scalar bookkeeping for one path (see the module docstring)
    # readouts (x, y, z, m per path and grid point): a ring if streamed, else all n
    block = n if stream is None else min(n, max(1, DIAG_BLOCK_BYTES // (32 * b)))
    readouts = np.empty((b, block + 1, 4))
    point = readouts.swapaxes(0, 1)[:, :, None]  # point[i]: the (B, 1, 4) rows of grid point i
    given = given if stream is None else np.empty((b, block))
    states = np.empty((b, n + 1, d * d)) if store_states else None
    if store_states:  # the gather of ``_HermitianCoordinates.read``, one per step
        coords = _HermitianCoordinates(d).coords
        np.take(rho_reals, coords, axis=1, out=states[:, 0])
    np.matmul(rho_row, w, out=point[0])
    if stream is not None:
        stream.add(0, readouts[:, :1, :3])

    low = 1.0 / NORM_BOUND
    c, m = coef[0, 0], readouts[0, :, 3]  # one path's coefficient row and signal
    trace = np.empty(b, dtype=complex)
    tr = trace.real
    tr_col = tr[:, None, None]
    inv = np.empty((b, 1, 1))
    for lo in range(0, n, block):
        k = min(block, n - lo)
        if lo:  # row 0 carries the previous block's last point, whose m the next step reads
            readouts[:, 0] = readouts[:, block]
        if stream is not None:
            stream.draw(given[:, :k])
        for i in range(k):
            if one_path:  # m dt, then + dW; dY dY, then - dt
                y = given[0, i] if record is not None else m[i] * dt + given[0, i]
                c[1] = y
                c[2] = y * y - dt
            else:
                if record is None:
                    np.multiply(readouts[:, i, 3], dt, out=dy)
                    dy += given[:, i]
                else:
                    dy[:] = given[:, i]
                np.multiply(dy, dy, out=quad)
                quad -= dt
            np.matmul(coef, basis_w, out=w_flat)
            if rows:
                np.take(rho_flat, jumps.idx, axis=1, out=gathered, mode="clip")
                np.multiply(w_dt, gathered, out=gathered)
                if rows > 1:
                    np.add.reduce(gathered, axis=1, out=jump_sum)
            np.matmul(rho_re, w_mat, out=y_re)
            np.conjugate(y_t, out=ydag)
            np.matmul(ydag_re, w_mat, out=rho_re)
            if rows:
                rho_flat += jump_sum
            np.add.reduce(diag, axis=1, out=trace)
            if one_path:
                t = tr[0]
                if not low <= t <= NORM_BOUND:
                    raise _abort(tr, lo + i, dt, t0, seeds)
                rho_re *= 1.0 / t
            else:
                if not (tr.min() >= low and tr.max() <= NORM_BOUND):
                    raise _abort(tr, lo + i, dt, t0, seeds)
                np.divide(1.0, tr_col, out=inv)
                rho_re *= inv
            np.matmul(rho_row, w, out=point[i + 1])
            if store_states:
                np.take(rho_reals, coords, axis=1, out=states[:, lo + i + 1], mode="clip")
        if stream is not None:
            stream.add(lo + 1, readouts[:, 1:k + 1, :3])
    if stream is None:
        return readouts[..., :3], states, readouts[:, :-1, 3]


def simulate_trajectory(rho0: DensityMatrix, spec: GeneratorSpec, l_op: Operator,
                        t_grid, seed: int, store_states: bool = False) -> Trajectory:
    """Draw the innovation path from ``seed`` and propagate the SME along it."""
    _check_layout(rho0, spec.layout)
    t, dt = grid_steps(t_grid)
    dw = wiener_increments(seed, len(t) - 1, dt)
    bloch, states, signal = _evolve(
        rho0.entries[None, :, :], CompiledGenerator(spec), l_op.entries, dt,
        increments=dw[None, :], seeds=(seed,), store_states=store_states, t0=t[0],
    )
    return Trajectory(
        t_grid=t,
        bloch=bloch[0].copy(),  # contiguous, without the signal column
        states=None if states is None else StoredStates(spec.layout, states[0]),
        record=signal[0] * dt + dw,
        innovations=dw,
        seed=seed,
    )


def replay_filter(rho0: DensityMatrix, spec: GeneratorSpec, l_op: Operator,
                  record, t_grid) -> StoredStates:
    """Reconstruct the conditional states from a measurement record alone."""
    _check_layout(rho0, spec.layout)
    t, dt = grid_steps(t_grid)
    rec = np.asarray(record, dtype=float)
    if rec.shape != (len(t) - 1,):
        raise ValueError(f"record length {rec.shape} does not match the {len(t) - 1} grid steps")
    bad = np.flatnonzero(~np.isfinite(rec))
    if bad.size:
        raise ValueError(f"record entry {rec[bad[0]]} at step {bad[0]} is not finite")
    _, states, _ = _evolve(
        rho0.entries[None, :, :], CompiledGenerator(spec), l_op.entries, dt,
        record=rec[None, :], store_states=True, t0=t[0],
    )
    return StoredStates(spec.layout, states[0])


def conditional_qubit(trajectory: Trajectory) -> np.ndarray:
    """Reduce every stored conditional state to qubit Bloch components."""
    if trajectory.states is None:
        raise UnsupportedModeError(
            "trajectory stores expectations only; rerun with store_states=True"
        )
    states = trajectory.states
    return readout(np.asarray(states), readout_weights(states.layout.dims))


class _Moments:
    """An ensemble worker's ``stream`` for ``_evolve``: the seeds' innovations,
    drawn a block at a time, and per time the sum of the Bloch rows and the
    sum of their squares about the batch's mean."""

    def __init__(self, seeds, n: int, dt: float) -> None:
        self.n = n
        self.gens = [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]
        self.sqrt_dt = np.sqrt(dt)
        self.total = np.zeros((n + 1, 3))
        self.centred = np.zeros((n + 1, 3))

    def draw(self, out: np.ndarray) -> None:
        for gen, row in zip(self.gens, out):
            gen.standard_normal(out=row)
        out *= self.sqrt_dt

    def add(self, start: int, bloch: np.ndarray) -> None:
        at = slice(start, start + bloch.shape[1])
        mean = bloch.sum(axis=0)
        self.total[at] += mean
        dev = bloch - np.divide(mean, len(bloch), out=mean)
        self.centred[at] += np.square(dev, out=dev).sum(axis=0, out=mean)


def _ensemble_worker(args):
    rho0e, spec, l_op, n, dt, t0, seeds = args
    moments = _Moments(seeds, n, dt)
    rho0 = np.broadcast_to(rho0e, (len(seeds),) + rho0e.shape)
    try:
        _evolve(rho0, CompiledGenerator(spec), l_op.entries, dt, stream=moments, seeds=seeds,
                t0=t0)
    except PositivityError as err:
        return None, None, err
    return moments.total, moments.centred, None


def ensemble_average(rho0: DensityMatrix, spec: GeneratorSpec, l_op: Operator,
                     t_grid, n_traj: int, base_seed: int,
                     workers: int = 1) -> EnsembleResult:
    """Mean and standard error of the conditional qubit Bloch components over
    ``n_traj`` trajectories seeded base_seed .. base_seed + n_traj - 1.

    Trajectories are partitioned into batches of ``ENSEMBLE_BATCH``, so the
    result does not depend on ``workers`` or scheduling.  Any aborted
    trajectory fails the whole ensemble with one ``PositivityError``: every
    failing seed, in seed order, and the first abort's step and text.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2")
    _check_layout(rho0, spec.layout)
    t, dt = grid_steps(t_grid)
    seeds = tuple(int(base_seed) + k for k in range(n_traj))
    tasks = [(rho0.entries, spec, l_op, len(t) - 1, dt, t[0], seeds[i:i + ENSEMBLE_BATCH])
             for i in range(0, n_traj, ENSEMBLE_BATCH)]
    pool = (ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
            if workers > 1 and len(tasks) > 1 else None)
    aborts: list[PositivityError] = []
    total = np.zeros((len(t), 3))
    centred = np.zeros((len(t), 3))  # squares about the mean of the paths merged so far
    merged = 0
    # each result is merged as it arrives, in task order, not kept to the end
    with pool or nullcontext():
        results = (pool.map if pool else map)(_ensemble_worker, tasks)
        for (*_, batch), (s, sq, abort) in zip(tasks, results):
            if abort is not None:
                aborts.append(abort)
                continue
            if merged:  # the pairwise update of Chan, Golub & LeVeque (1979)
                delta = s / len(batch) - total / merged
                sq += delta * delta * (merged * len(batch) / (merged + len(batch)))
            total += s
            centred += sq
            merged += len(batch)
    if aborts:
        failing = tuple(s for abort in aborts for s in abort.seeds)
        err = PositivityError(f"trajectories failed for seeds {list(failing)}; first abort: {aborts[0]}")
        err.seeds, err.step = failing, aborts[0].step
        raise err

    stderr = np.sqrt(centred / (n_traj - 1) / n_traj)
    return EnsembleResult(t, total / n_traj, stderr, seeds)
