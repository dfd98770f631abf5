"""Unconditional dynamics: dissipative generators, a fixed-step RK4 integrator,
qubit reduction and the single-qubit memoryless baseline.

The dissipator of a collapse operator N acting on a state rho is the
trace-preserving form N rho N^dag - (N^dag N rho + rho N^dag N)/2.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    QUBIT, DensityMatrix, HilbertLayout, LayoutMismatchError, Operator, qubit_bank, readout,
    readout_weights, real_right,
)
from .slh import GeneratorSpec, qubit_operator

#: smallest eigenvalue an integrated state may reach before the run aborts
POSITIVITY_ABORT = 1e-6

#: largest joint dimension whose RK4 step is a tabulated map of the state's
#: real coordinates; above it a step applies the generator four times.  The
#: map takes d^4 multiply-adds per step against about 4 d^3 for the applies,
#: but numpy's per-call overhead dominates small d (see README, Numerical notes)
TABLE_MAX_DIM = 16

#: largest deviation of a grid step from the grid's one step size h, in units
#: of h: rounding keeps ``arange``/``linspace`` grids below 2e-9, 12 digits 2e-7
GRID_STEP_TOL = 1e-6

#: bytes of stored states written out from their coordinates and checked for
#: eigenvalues in one stacked call.  numpy releases the GIL in that call only
#: when states times d exceeds 500, so the check overlaps the integration
#: only from there: 1 MiB holds 26 states at d = 50 (256 KiB held 6).  It
#: overlaps only while a second core is free: on 2 cores shared with other
#: loads, two concurrent stacked eigvalsh loops took 1.0-2.0x one loop's time,
#: and a threaded d = 50 run of 2,000 steps 0.60-0.74 s (inline 0.84-1.02 s),
#: its CPU time equal to its wall time where the check serialized
DIAG_BLOCK_BYTES = 1 << 20


class PositivityError(RuntimeError):
    """A state left the positive cone beyond tolerance: the result of ``step``,
    grid point step + 1, on the paths ``seeds`` (none for an unconditional run)."""

    def __init__(self, message: str, step: int | None = None, seeds=()) -> None:
        super().__init__(message)  # a pickle rebuilds it from the message, then its attributes
        self.step, self.seeds = step, tuple(seeds)


def _check_layout(rho: DensityMatrix, layout: HilbertLayout) -> None:
    if rho.layout != layout:
        raise LayoutMismatchError(
            f"state layout {rho.layout.dims} does not match generator layout {layout.dims}"
        )


def lindblad_apply(rho, spec: GeneratorSpec) -> np.ndarray:
    """Time derivative -i[H, rho] + sum of dissipators (+ direct terms) of a
    (d, d) array ``rho``.

    This is the term-by-term reference for ``CompiledGenerator``, which every
    integrator and filter applies instead.
    """
    r = np.asarray(rho, dtype=complex)
    h = spec.hamiltonian.entries
    out = -1j * (h @ r - r @ h)
    for op in spec.collapse_ops:
        n = op.entries
        nd = n.conj().T
        ndn = nd @ n
        out = out + n @ r @ nd - 0.5 * (ndn @ r + r @ ndn)
    if spec.direct is not None:
        d = spec.direct.entries
        ddag = d.conj().T
        out = out + (d @ r - r @ d) + (r @ ddag - ddag @ r)
    return out


def generator_spec(model: GeneratorSpec, form: str = "lindblad") -> GeneratorSpec:
    """A model's generator in one of its two equivalent forms.

    ``direct`` is the model as built, with the qubit-bank interaction as
    explicit commutator terms, exactly as the augmented master equation is
    written; ``lindblad`` folds it into the Hamiltonian, H + i(D - D^dag).
    """
    if form not in ("lindblad", "direct"):
        raise ValueError(f"unknown generator form {form!r}")
    d = model.direct
    if form == "direct" and d is None:
        raise ValueError("model carries no direct qubit-bank coupling")
    if form == "direct" or d is None:
        return model
    h, d = model.hamiltonian.entries, d.entries
    return replace(model, hamiltonian=Operator(model.layout, h + (d - d.conj().T) * 1j),
                   direct=None)


class JumpGather:
    """The ``idx`` and ``w`` tables of sum_k N_k rho N_k^dag as one gather on
    the row-major flattened state, out[p] = sum_s w[s, p] rho_flat[idx[s, p]];
    each caller gathers from them into buffers of its own.

    Entry (i, j) of N rho N^dag is sum_{k,l} N[i,k] conj(N[j,l]) rho[k, l], so
    every pair of non-zeros of N adds one weight at source (k, l).  Pairs that
    land on the same (target, source), across rows with several entries (a
    ``shared`` bank) or across operators, are summed; rows are padded with
    zero weights to a common length S.  Every channel of a bank of K modes has
    at most K non-zeros per row, so S is small and the gather costs O(S d^2)
    instead of two dense d^3 products per operator.
    """

    __slots__ = ("idx", "w")

    def __init__(self, ops, d: int) -> None:
        dd = d * d
        keys, weights = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=complex)]
        for n in ops:
            r, c = np.nonzero(n)
            v = n[r, c]
            keys.append(((r[:, None] * d + r) * dd + (c[:, None] * d + c)).ravel())
            weights.append(np.outer(v, v.conj()).ravel())
        key, inv = np.unique(np.concatenate(keys), return_inverse=True)
        wt = np.concatenate(weights)
        w = np.bincount(inv, wt.real, len(key)) + 1j * np.bincount(inv, wt.imag, len(key))
        target, source = np.divmod(key, dd)
        counts = np.bincount(target, minlength=dd)
        rank = np.arange(len(key)) - (np.cumsum(counts) - counts)[target]
        self.idx = np.zeros((counts.max(initial=0), dd), dtype=np.intp)
        self.w = np.zeros(self.idx.shape, dtype=complex)
        self.idx[rank, target] = source
        self.w[rank, target] = w


class CompiledGenerator:
    """Precomputed arrays for fast repeated application.

    The generator is rewritten as E rho + rho E^dag + sum_k N_k rho N_k^dag
    with E = -iH - (1/2) sum N^dag N, H in the folded form of
    ``generator_spec``, so a direct coupling D enters as i(D - D^dag) in H.
    ``apply`` takes one product X = E rho and forms E rho + rho E^dag as
    X + X^dag, which holds only for a Hermitian rho; the jump sum gathers by
    the ``JumpGather`` tables of all channels, built on the first use (the
    filter builds its own over the unmonitored ones and never needs them).
    numpy fancy indexing is used rather than ``scipy.sparse``, whose import
    alone would double the start-up time of the command line.
    """

    __slots__ = ("layout", "e", "collapse", "_jumps")

    def __init__(self, spec: GeneratorSpec) -> None:
        spec = generator_spec(spec)
        self.layout = spec.layout
        e = -1j * spec.hamiltonian.entries
        self.collapse = [op.entries for op in spec.collapse_ops]
        for n in self.collapse:
            e = e - 0.5 * (n.conj().T @ n)
        self.e = e
        self._jumps = None

    @property
    def jumps(self) -> JumpGather:
        if self._jumps is None:
            self._jumps = JumpGather(self.collapse, self.layout.total)
        return self._jumps

    def apply(self, r: np.ndarray) -> np.ndarray:
        """The generator on one Hermitian (d, d) state or a (B, d, d) batch of
        them; a non-Hermitian input gets a wrong result.  The jump rows are
        summed in order, as a loop over them would."""
        x = self.e @ r
        flat = r.reshape(r.shape[:-2] + (-1,))
        gathered = self.jumps.w * np.take(flat, self.jumps.idx, axis=-1, mode="clip")
        return x + x.conj().swapaxes(-1, -2) + np.add.reduce(gathered, axis=-2).reshape(r.shape)


@dataclass
class MasterResult:
    """An unconditional run on its time grid: the reduced qubit's Bloch
    components, the joint states if stored (else ``None``) and per-point
    diagnostics.

    ``tr_drift`` is the pre-renormalization |trace - 1| of each step and
    ``min_eig`` the smallest eigenvalue of each state, which is Hermitian by
    construction.
    """

    t_grid: np.ndarray
    bloch: np.ndarray
    states: np.ndarray | None
    tr_drift: np.ndarray
    min_eig: np.ndarray


class _HermitianCoordinates:
    """The d^2 real coordinates of a Hermitian (d, d) matrix: its diagonal,
    then the real and the imaginary parts of its strict upper triangle.  Both
    directions are one gather on the interleaved real view of the matrix."""

    __slots__ = ("d", "coords", "entries", "sign")

    def __init__(self, d: int) -> None:
        self.d = d
        rows, cols = np.triu_indices(d, 1)
        up = rows * d + cols
        self.coords = np.concatenate([2 * (d + 1) * np.arange(d), 2 * up, 2 * up + 1])
        i, j = np.indices((d, d))
        pos = np.diag(np.arange(d))
        pos[rows, cols] = pos[cols, rows] = d + np.arange(len(up))
        # each real and imaginary entry: the coordinate it holds, and its sign
        # (the imaginary part is negated below the diagonal, zero on it)
        self.entries = np.stack([pos, pos + len(up) * (i != j)], axis=-1).ravel()
        self.sign = np.stack([np.ones((d, d)), np.sign(j - i)], axis=-1).ravel()

    def read(self, x: np.ndarray) -> np.ndarray:
        """(..., d, d) -> (..., d^2); reads the diagonal and upper triangle."""
        return x.view(float).reshape(x.shape[:-2] + (-1,)).take(self.coords, axis=-1)

    def write(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(..., d^2) -> the Hermitian matrices, written into ``out``."""
        np.multiply(v.take(self.entries, axis=-1), self.sign,
                    out=out.view(float).reshape(v.shape[:-1] + (-1,)))
        return out


def _applied_step(gen: CompiledGenerator, coords: _HermitianCoordinates, h: float):
    """The RK4 step with four generator applies, in Horner form
    r + hL(r + h/2 L(r + h/3 L(r + h/4 L r))), the only place the polynomial
    sum_{j<=4} (h L)^j/j! is written.  ``step(v)`` writes the coordinates v
    out as a matrix, steps it by h and returns the coordinates of the result
    and its trace.

    A stage y = r + c L(src) carries its coefficient c in operators built
    here, once per run: Z = src (cE)^dag is one real product of src's
    interleaved (d, 2d) view with R((cE)^dag) (``operators.real_right``), so
    c(E src + src E^dag) = Z^dag + Z for a Hermitian src, and the jump rows
    are gathered with weights c w.  Z^dag, Z, the jump rows and r are rows
    of one buffer that one reduce sums into y, in that order: a stage makes
    no complex product and scales no full matrix.  The four R((cE)^dag) and
    c w take 4 ((2d)^2 8 + S d^2 16) bytes for S jump rows: 0.8-1.1 MB at
    d = 50 (S = 3-5) and 24 MB at d = 250 (S = 4)."""
    d = coords.d
    coefs = np.array([h / 4.0, h / 3.0, h / 2.0, h])[:, None, None]
    jumps = gen.jumps
    ops, weights = real_right(coefs * gen.e.conj().T), coefs * jumps.w
    terms = np.empty((len(jumps.idx) + 3, d, d), dtype=complex)
    zdag, z, rho = terms[0], terms[1], terms[-1]
    gathered = terms[2:-1].reshape(-1, d * d)
    z_re, z_t = z.view(float), z.T
    y = np.empty_like(rho)
    # each stage's input: its interleaved real view and its flat view
    inputs = [(rho.view(float), rho.reshape(-1))] + [(y.view(float), y.reshape(-1))] * 3

    def step(v: np.ndarray):
        coords.write(v, rho)
        for (src_re, src_flat), op, w in zip(inputs, ops, weights):
            np.matmul(src_re, op, out=z_re)
            np.conjugate(z_t, out=zdag)
            np.take(src_flat, jumps.idx, out=gathered, mode="clip")
            np.multiply(w, gathered, out=gathered)
            np.add.reduce(terms, axis=0, out=y)
        u = coords.read(y)
        return u, u[:d].sum()

    return step


def _tabulated_step(gen: CompiledGenerator, coords: _HermitianCoordinates, h: float):
    """The same RK4 step, tabulated.  For a linear, time-independent generator
    the applied step is a map v -> P v of the state's real coordinates, with
    one more row of P for the trace it returns; P is read once, column k as
    the applied step on the k-th basis coordinate vector."""
    applied = _applied_step(gen, coords, h)
    p = np.array([np.append(*applied(e)) for e in np.eye(coords.d ** 2)]).T.copy()

    def step(v: np.ndarray):
        u = p @ v
        return u[:-1], u[-1]

    return step


def _diagnose(block: np.ndarray, lo: int, t: np.ndarray, result: MasterResult,
              weights: np.ndarray) -> None:
    """Bloch rows (by ``readout`` with the qubit's ``weights``) and smallest
    eigenvalue, as one stacked call, of the states of grid points lo.. in
    ``block``; aborts at the first state below -POSITIVITY_ABORT, the result
    of step i - 1 at grid point i."""
    hi = lo + len(block)
    result.bloch[lo:hi] = readout(block, weights)
    w = np.linalg.eigvalsh(block)[:, 0]
    result.min_eig[lo:hi] = w
    bad = np.flatnonzero(w < -POSITIVITY_ABORT)
    if bad.size:
        i = lo + int(bad[0])
        raise PositivityError(
            f"state at t={t[i]:.6g} (grid point {i}) has eigenvalue {w[bad[0]]:.3e} "
            f"< -{POSITIVITY_ABORT:g}; reduce the step size", i - 1)


def grid_steps(t_grid) -> tuple[np.ndarray, float]:
    """The times of ``t_grid`` and its one step size h = (t[-1] - t[0])/(n - 1),
    by which every integrator and filter steps; rejects a grid that is not
    1-d, has fewer than two times, is not increasing or is not uniform."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("t_grid must contain at least two times")
    h = (t[-1] - t[0]) / (len(t) - 1)
    if not h > 0:
        raise ValueError("t_grid must be strictly increasing")
    dev = np.diff(t)  # |step/h - 1|, in place: one array beside the grid
    dev /= h
    dev -= 1.0
    np.abs(dev, out=dev)
    if not dev.max() <= GRID_STEP_TOL:  # also a nan
        i = int(np.argmax(dev))
        raise ValueError(f"t_grid must be uniform: step {i} is {dev[i]:.3g} h off its "
                         f"step size h = {h:.6g}, more than {GRID_STEP_TOL:g} h")
    return t, float(h)


def integrate_master(rho0: DensityMatrix, spec: GeneratorSpec, t_grid,
                     store_states: bool = False) -> MasterResult:
    """Propagate with classic RK4 by the one step size of a uniform time grid.
    The layout's factor 0 must be the qubit, whose Bloch rows the run records.

    The state is carried as its d^2 real Hermitian coordinates, so every
    written state and step input is exactly Hermitian, as
    ``CompiledGenerator.apply`` requires; rho0 enters as its Hermitian part (a
    ``DensityMatrix`` may deviate by up to 1e-10).  Every state is
    renormalized by its trace, with the drift logged.  Up to ``TABLE_MAX_DIM``
    a step is one product with a tabulated map, above it four generator
    applies.  States are written out per block of about ``DIAG_BLOCK_BYTES``,
    reduced to their Bloch rows and checked for eigenvalues, aborting below
    ``-POSITIVITY_ABORT``.  A helper thread does this for each block while
    the next one integrates (see ``DIAG_BLOCK_BYTES`` for when the two
    overlap).  The previous block's check is collected before the next block
    is written, so the first failing grid point is the one named.  Unless
    ``store_states`` asks for the (n, d, d) stack, every block is written
    into one reusable buffer, so a run holds O(block d^2 + n) memory.  A
    block ends early after a state that cannot pass and its check is
    collected at once, so a diverging run stops before it overflows.
    """
    _check_layout(rho0, spec.layout)
    t, h = grid_steps(t_grid)
    n = len(t)
    d = spec.layout.total
    weights = readout_weights(spec.layout.dims)
    coords = _HermitianCoordinates(d)
    step = (_tabulated_step if d <= TABLE_MAX_DIM else _applied_step)(CompiledGenerator(spec), coords, h)
    # the largest per-point array first, so a grid too long to hold fails on it
    bloch = np.empty((n, 3))
    block = max(2, DIAG_BLOCK_BYTES // (16 * d * d))
    stack = np.empty((n if store_states else block, d, d), dtype=complex)
    result = MasterResult(t, bloch, stack if store_states else None, np.empty(n), np.empty(n))
    tr_drift = result.tr_drift
    buf = np.empty((block, d * d))
    # a unit-trace state with no eigenvalue below -POSITIVITY_ABORT has a squared
    # Frobenius norm below this, and v.v is at most that norm
    bound = (1.0 + d * POSITIVITY_ABORT) ** 2

    rho = rho0.entries.astype(complex)
    u = coords.read(0.5 * (rho + rho.conj().T))
    tr = u[:d].sum()
    tr_drift[0] = abs(tr - 1.0)
    v = np.divide(u, tr, out=buf[0])
    lo = 0
    with ThreadPoolExecutor(max_workers=1) as pool:
        checked = None  # the check in flight: at most one block
        for i in range(1, n):
            u, tr = step(v)
            tr_drift[i] = abs(tr - 1.0)
            v = np.divide(u, tr, out=buf[i - lo])
            diverged = not v @ v <= bound
            if i + 1 - lo == block or i + 1 == n or diverged:
                if checked is not None:
                    checked.result()
                # a stored block fills its rows of the stack, else the buffer's first rows
                rows = stack[lo:i + 1] if store_states else stack[:i + 1 - lo]
                checked = pool.submit(_diagnose, coords.write(buf[:i + 1 - lo], rows), lo, t,
                                      result, weights)
                if diverged:
                    checked.result()
                lo = i + 1
        checked.result()
    return result


def reduce_to_qubit(rho: DensityMatrix) -> DensityMatrix:
    """Trace out everything but the leading qubit factor: the state viewed as
    (2, D, 2, D), traced over both bank axes."""
    d = qubit_bank(rho.layout.dims)
    return DensityMatrix.wrap(QUBIT, rho.entries.reshape(2, d, 2, d).trace(axis1=1, axis2=3))


def augmented_initial_state(bloch, layout: HilbertLayout) -> DensityMatrix:
    """Product state: qubit with the given Bloch vector, the bank in its
    vacuum (the first basis state)."""
    vacuum = np.zeros((qubit_bank(layout.dims),) * 2, dtype=complex)
    vacuum[0, 0] = 1.0
    x, y, z = bloch
    return DensityMatrix(layout, np.kron(DensityMatrix.from_bloch(x, y, z).entries, vacuum))


def markovian_baseline_spec(omega_q: float, ancillas, gamma_q: float,
                            probe_kind: str = "pauli_x",
                            probe_scale: complex = 1.0) -> GeneratorSpec:
    """Qubit-only reference model: the bank couplings act directly as white
    noise channels sqrt(kappa_k) sigma_k next to the probe channel."""
    cops = [qubit_operator(p.sigma_kind, p.sigma_scale) * math.sqrt(p.kappa) for p in ancillas]
    cops.append(qubit_operator(probe_kind, probe_scale) * math.sqrt(gamma_q))
    return GeneratorSpec(Operator(QUBIT, qubit_operator("pauli_z") * (0.5 * omega_q)),
                         tuple(Operator(QUBIT, c) for c in cops))
