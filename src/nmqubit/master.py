"""Unconditional dynamics: dissipative generators, a fixed-step RK4 integrator,
qubit reduction, the single-qubit memoryless baseline, and the analytic
first-moment solution for the decoupled mode bank used as an oracle.

The dissipator of a collapse operator N acting on a state rho is the
trace-preserving form N rho N^dag - (N^dag N rho + rho N^dag N)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityMatrix,
    HilbertLayout,
    LayoutMismatchError,
    Operator,
    partial_trace,
    qubit_bloch,
)
from .slh import SlhModel, qubit_operator

#: smallest eigenvalue an integrated state may reach before the run aborts
POSITIVITY_ABORT = 1e-6


class PositivityError(RuntimeError):
    """The integrated state left the positive cone beyond tolerance."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Ingredients of a dissipative generator.

    With ``direct_terms = (D, D^dag)`` the generator carries the explicit
    commutator pair [D, rho] + [rho, D^dag] on top of the Hamiltonian and
    collapse contributions; this is the written-out form of the augmented
    master equation, algebraically equal to folding i(D - D^dag) into H.
    """

    hamiltonian: Operator
    collapse_ops: tuple[Operator, ...]
    direct_terms: tuple[Operator, Operator] | None = None

    def __post_init__(self) -> None:
        lay = self.hamiltonian.layout
        ops = list(self.collapse_ops)
        if self.direct_terms is not None:
            ops += list(self.direct_terms)
        for op in ops:
            if op.layout != lay:
                raise LayoutMismatchError("all generator operators must share one layout")
        if self.hamiltonian.herm_deviation() > 1e-10:
            raise ValueError("generator hamiltonian must be Hermitian to 1e-10")

    @property
    def layout(self) -> HilbertLayout:
        return self.hamiltonian.layout


def _entries(rho) -> np.ndarray:
    if isinstance(rho, (DensityMatrix, Operator)):
        return rho.entries
    return np.asarray(rho, dtype=complex)


def _check_layout(rho, layout: HilbertLayout) -> None:
    if isinstance(rho, (DensityMatrix, Operator)) and rho.layout != layout:
        raise LayoutMismatchError(
            f"state layout {rho.layout.dims} does not match generator layout {layout.dims}"
        )


def lindblad_apply(rho, spec: GeneratorSpec) -> np.ndarray:
    """Time derivative -i[H, rho] + sum of dissipators (+ direct terms).

    This is the term-by-term reference for ``CompiledGenerator``, which every
    integrator and filter applies instead.
    """
    _check_layout(rho, spec.layout)
    r = _entries(rho)
    h = spec.hamiltonian.entries
    out = -1j * (h @ r - r @ h)
    for op in spec.collapse_ops:
        n = op.entries
        nd = n.conj().T
        ndn = nd @ n
        out = out + n @ r @ nd - 0.5 * (ndn @ r + r @ ndn)
    if spec.direct_terms is not None:
        d, ddag = (op.entries for op in spec.direct_terms)
        out = out + (d @ r - r @ d) + (r @ ddag - ddag @ r)
    return out


def collapse_operators(model: SlhModel) -> tuple[Operator, ...]:
    """Collapse operators implied by a model's couplings and field mode.

    ``independent`` treats every field channel as its own dissipation channel;
    ``shared`` merges the bank channels (all non-probe couplings) into the
    single operator sum_k sqrt(gamma_k) a_k, reflecting one common drive field.
    """
    if model.field_mode == "independent":
        return model.couplings
    bank = [op for i, op in enumerate(model.couplings) if i != model.probe_index]
    merged: list[Operator] = []
    if bank:
        total = bank[0]
        for op in bank[1:]:
            total = total + op
        merged.append(total)
    if model.probe_index is not None:
        merged.append(model.couplings[model.probe_index])
    return tuple(merged)


def generator_spec(model: SlhModel, form: str = "lindblad") -> GeneratorSpec:
    """Build the generator of a model in one of its two equivalent forms.

    ``lindblad`` keeps the full Hamiltonian (including the qubit-bank
    interaction); ``direct`` splits that interaction out as explicit
    commutator terms, exactly as the augmented master equation is written.
    """
    cops = collapse_operators(model)
    if form == "lindblad":
        return GeneratorSpec(model.hamiltonian, cops)
    if form == "direct":
        if model.direct_coupling is None:
            raise ValueError("model carries no direct qubit-bank coupling")
        d = model.direct_coupling
        h_i = 1j * (d - d.dag())
        return GeneratorSpec(model.hamiltonian - h_i, cops, direct_terms=(d, d.dag()))
    raise ValueError(f"unknown generator form {form!r}")


class JumpGather:
    """sum_k N_k rho N_k^dag as one gather on the row-major flattened state,
    out[p] = sum_s w[s, p] rho_flat[idx[s, p]].

    Entry (i, j) of N rho N^dag is sum_{k,l} N[i,k] conj(N[j,l]) rho[k, l], so
    every pair of non-zeros of N adds one weight at source (k, l).  Pairs that
    land on the same (target, source), across rows with several entries (a
    ``shared`` bank) or across operators, are summed; rows are padded with
    zero weights to a common length S.  Every operator ``collapse_operators``
    returns for a bank of K modes has at most K non-zeros per row, so S is
    small and the gather costs O(S d^2) instead of two dense d^3 products per
    operator.
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

    def __call__(self, r: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        """The jump sum on one (d, d) state or a (B, d, d) batch; ``w``
        replaces the stored weights, e.g. scaled by a step size."""
        w = self.w if w is None else w
        if not len(w):
            return np.zeros(r.shape, dtype=complex)
        flat = r.reshape(r.shape[:-2] + (-1,))
        out = w[0] * flat[..., self.idx[0]]
        for s in range(1, len(w)):
            out += w[s] * flat[..., self.idx[s]]
        return out.reshape(r.shape)


class CompiledGenerator:
    """Precomputed arrays for fast repeated application.

    The generator is rewritten as E rho + rho E^dag + sum_k N_k rho N_k^dag
    with E = -iH - (1/2) sum N^dag N (+ D - D^dag when direct terms exist).
    ``apply`` takes one product X = E rho and forms E rho + rho E^dag as
    X + X^dag, which holds only for a Hermitian rho; the jump sum is a
    ``JumpGather`` over all channels, built on the first ``apply`` (the filter
    builds its own over the unmonitored ones and never needs it).  numpy fancy
    indexing is used rather than ``scipy.sparse``, whose import alone would
    double the start-up time of the command line.
    """

    __slots__ = ("layout", "e", "edag", "n_pairs", "_jumps")

    def __init__(self, spec: GeneratorSpec) -> None:
        self.layout = spec.layout
        e = -1j * spec.hamiltonian.entries
        self.n_pairs = []
        for op in spec.collapse_ops:
            n = op.entries
            nd = n.conj().T
            e = e - 0.5 * (nd @ n)
            self.n_pairs.append((n, nd))
        if spec.direct_terms is not None:
            d, ddag = (op.entries for op in spec.direct_terms)
            e = e + d - ddag
        self.e = e
        self.edag = e.conj().T
        self._jumps = None

    @property
    def jumps(self) -> JumpGather:
        if self._jumps is None:
            self._jumps = JumpGather([n for n, _ in self.n_pairs], self.layout.total)
        return self._jumps

    def apply(self, r: np.ndarray) -> np.ndarray:
        """The generator on one Hermitian (d, d) state or a (B, d, d) batch of
        them; a non-Hermitian input gets a wrong result."""
        x = self.e @ r
        return x + x.conj().swapaxes(-1, -2) + self.jumps(r)


@dataclass
class MasterResult:
    """Integrated states plus per-point conservation diagnostics.

    ``tr_drift`` is the pre-renormalization |trace - 1| of each step,
    ``herm_dev`` the max |rho - rho^dag| entry, ``min_eig`` the smallest
    eigenvalue, all recorded on the same grid as ``states``.
    """

    t_grid: np.ndarray
    layout: HilbertLayout
    states: np.ndarray
    tr_drift: np.ndarray
    herm_dev: np.ndarray
    min_eig: np.ndarray

    def qubit_bloch(self) -> np.ndarray:
        """(n, 3) Bloch components of the reduced qubit over the grid."""
        return qubit_bloch(self.states, self.layout.dims)


def integrate_master(rho0: DensityMatrix, spec: GeneratorSpec, t_grid) -> MasterResult:
    """Propagate with classic fixed-step RK4 over the given time grid.

    rho0 is made exactly Hermitian first, as ``CompiledGenerator.apply``
    requires; a ``DensityMatrix`` may deviate by up to 1e-10.  Every stored
    state is renormalized by its trace; the pre-normalization drift is
    logged.  Aborts if any state develops an eigenvalue below
    ``-POSITIVITY_ABORT``.
    """
    _check_layout(rho0, spec.layout)
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be a strictly increasing 1-d sequence")
    gen = CompiledGenerator(spec)
    n = len(t)
    d = spec.layout.total
    states = np.empty((n, d, d), dtype=complex)
    tr_drift = np.empty(n)
    herm_dev = np.empty(n)
    min_eig = np.empty(n)

    rho = rho0.entries.astype(complex)
    rho = 0.5 * (rho + rho.conj().T)  # apply needs a Hermitian input

    def record(i: int, r: np.ndarray, pre_trace: float) -> np.ndarray:
        tr_drift[i] = abs(pre_trace - 1.0)
        r = r / pre_trace
        herm_dev[i] = np.max(np.abs(r - r.conj().T))
        w = np.linalg.eigvalsh(r)
        min_eig[i] = w[0]
        if w[0] < -POSITIVITY_ABORT:
            raise PositivityError(
                f"state at t={t[i]:.6g} (grid point {i}) has eigenvalue {w[0]:.3e} "
                f"< -{POSITIVITY_ABORT:g}; reduce the step size"
            )
        states[i] = r
        return r

    rho = record(0, rho, float(np.trace(rho).real))
    for i in range(n - 1):
        dt = t[i + 1] - t[i]
        k1 = gen.apply(rho)
        k2 = gen.apply(rho + 0.5 * dt * k1)
        k3 = gen.apply(rho + 0.5 * dt * k2)
        k4 = gen.apply(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = record(i + 1, rho, float(np.trace(rho).real))

    return MasterResult(t, spec.layout, states, tr_drift, herm_dev, min_eig)


def reduce_to_qubit(rho: DensityMatrix) -> DensityMatrix:
    """Trace out everything but the leading qubit factor."""
    if rho.layout.dims[0] != 2:
        raise ValueError("layout does not start with a qubit factor")
    return partial_trace(rho, keep={0})


def ancilla_moment_oracle(t: float, params, a0) -> np.ndarray:
    """First moments of the decoupled bank: <a_k(t)> = exp(-(gamma_k/2 +
    i omega_k) t) <a_k(0)>, exact for a vacuum drive."""
    if t < 0:
        raise ValueError("t must be >= 0")
    a0 = np.asarray(a0, dtype=complex)
    rates = np.array([p.gamma / 2.0 + 1j * p.omega for p in params])
    return np.exp(-rates * t) * a0


def augmented_initial_state(bloch, layout: HilbertLayout, ancilla_kets=None) -> DensityMatrix:
    """Product state: qubit with the given Bloch vector, each mode in a pure
    ket (vacuum when unspecified)."""
    if layout.dims[0] != 2:
        raise ValueError("layout does not start with a qubit factor")
    x, y, z = bloch
    rho_q = DensityMatrix.from_bloch(x, y, z).entries
    rho = rho_q
    for slot, dim in enumerate(layout.dims[1:]):
        if ancilla_kets is not None and ancilla_kets[slot] is not None:
            v = np.asarray(ancilla_kets[slot], dtype=complex).reshape(-1)
            if v.size != dim:
                raise ValueError(f"ancilla ket {slot} has length {v.size}, expected {dim}")
            v = v / np.linalg.norm(v)
        else:
            v = np.zeros(dim, dtype=complex)
            v[0] = 1.0
        rho = np.kron(rho, np.outer(v, v.conj()))
    return DensityMatrix(layout, rho)


def markovian_baseline_spec(omega_q: float, ancillas, gamma_q: float,
                            probe_kind: str = "pauli_x",
                            probe_scale: complex = 1.0) -> GeneratorSpec:
    """Qubit-only reference model: the bank couplings act directly as white
    noise channels sqrt(kappa_k) sigma_k next to the probe channel."""
    h = 0.5 * omega_q * qubit_operator("pauli_z")
    cops = [math.sqrt(p.kappa) * qubit_operator(p.sigma_kind, p.sigma_scale) for p in ancillas]
    cops.append(math.sqrt(gamma_q) * qubit_operator(probe_kind, probe_scale))
    return GeneratorSpec(h, tuple(cops))
