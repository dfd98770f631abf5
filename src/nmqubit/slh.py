"""The generator of the qubit and its mode bank, and the builders for it.

A ``GeneratorSpec`` holds a Hermitian Hamiltonian ``H``, one collapse operator
per field channel and, for the augmented model, the direct qubit-bank coupling
``D``, all on one layout; no built model scatters fields, so the scattering
matrix of the SLH triple is always the identity and is not stored.  The
builders assemble the physics used throughout this package: a bank of damped
harmonic modes shaping Lorentzian noise, the qubit directly coupled to that
bank, and a probe channel on the qubit for continuous monitoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import HERMITIAN_TOL, HilbertLayout, LayoutMismatchError, Operator, qubit_bank

FIELD_MODES = ("independent", "shared")

_QUBIT_MATRICES = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sigma_plus": np.array([[0, 1], [0, 0]], dtype=complex),
    "sigma_minus": np.array([[0, 0], [1, 0]], dtype=complex),
}
for _m in _QUBIT_MATRICES.values():  # handed out as they are, so no caller may edit them
    _m.setflags(write=False)

#: qubit operators admissible as direct couplings and probes
QUBIT_COUPLING_KINDS = tuple(_QUBIT_MATRICES)


@dataclass(frozen=True)
class AncillaParams:
    """One damped mode: frequency, damping rate, coupling weight to the qubit,
    the qubit-side coupling operator, and its ladder truncation level."""

    omega: float
    gamma: float
    kappa: float
    sigma_kind: str = "pauli_y"
    sigma_scale: complex = 1.0
    truncation: int = 5

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.truncation < 2:
            raise ValueError(f"truncation must be >= 2, got {self.truncation}")
        if self.sigma_kind not in QUBIT_COUPLING_KINDS:
            raise ValueError(
                f"sigma_kind {self.sigma_kind!r} not in {QUBIT_COUPLING_KINDS}"
            )


def qubit_operator(kind: str, scale: complex = 1.0) -> np.ndarray:
    """A menu qubit matrix times an optional complex scalar; the excited
    state is the first basis vector, so sigma_minus maps it to the second.
    Unscaled, it is the shared read-only menu matrix itself."""
    if kind not in QUBIT_COUPLING_KINDS:
        raise ValueError(f"kind {kind!r} not in {QUBIT_COUPLING_KINDS}")
    m = _QUBIT_MATRICES[kind]
    return m if scale == 1.0 else m * scale


def ladder_operators(truncations) -> tuple[np.ndarray, ...]:
    """The annihilation operator of every mode of a bank, on the bank's joint
    basis: the occupation tuples (n_1, ..., n_K) with n_k < truncations[k],
    in lexicographic order with mode 1 most significant, which is the order a
    Kronecker product of per-mode ladders gives.  a_k maps the tuple n to
    n - e_k with weight sqrt(n_k); truncation leaves [a_k, a_k^dag] = 1 - N_k
    at the top level n_k = N_k - 1."""
    dims = tuple(int(t) for t in truncations)
    if not dims or min(dims) < 2:
        raise ValueError(f"every truncation must be >= 2, got {dims}")
    d = math.prod(dims)
    occupation = np.indices(dims).reshape(len(dims), -1)  # n_k of each basis state
    ladders = []
    for k, n in enumerate(occupation):
        src = np.flatnonzero(n)
        a = np.zeros((d, d), dtype=complex)
        a[src - math.prod(dims[k + 1:]), src] = np.sqrt(n[src])
        ladders.append(a)
    return tuple(ladders)


@dataclass(frozen=True)
class GeneratorSpec:
    """A dissipative generator: a Hermitian Hamiltonian, one collapse operator
    per field channel and, optionally, a direct coupling D.

    With ``direct`` the generator carries the explicit commutator pair
    [D, rho] + [rho, D^dag] on top of the Hamiltonian and collapse
    contributions; this is the augmented master equation as written, and
    ``master.generator_spec`` folds it into H as i(D - D^dag).  The optional
    ``probe_index`` marks the measured channel appended by ``build_probed``.
    """

    hamiltonian: Operator
    collapse_ops: tuple[Operator, ...]
    direct: Operator | None = None
    probe_index: int | None = None

    def __post_init__(self) -> None:
        ops = self.collapse_ops if self.direct is None else (*self.collapse_ops, self.direct)
        if any(op.layout != self.layout for op in ops):
            raise LayoutMismatchError("all generator operators must share one layout")
        if self.hamiltonian.herm_deviation() > HERMITIAN_TOL:
            raise ValueError(f"generator hamiltonian must be Hermitian to {HERMITIAN_TOL:g}")

    @property
    def layout(self) -> HilbertLayout:
        return self.hamiltonian.layout


def build_ancilla_bank(params: list[AncillaParams] | tuple[AncillaParams, ...],
                       field_mode: str = "independent") -> GeneratorSpec:
    """The noise-shaping bank: mode k couples to the field as sqrt(gamma_k) a_k
    and oscillates at omega_k.

    ``independent`` gives every mode its own field channel; ``shared`` drives
    the whole bank with one common field, the single channel
    sum_k sqrt(gamma_k) a_k.
    """
    params = tuple(params)
    if not params:
        raise ValueError("at least one ancilla is required")
    if field_mode not in FIELD_MODES:
        raise ValueError(f"field_mode must be one of {FIELD_MODES}")
    ladders = ladder_operators(p.truncation for p in params)
    couplings = [a * math.sqrt(p.gamma) for p, a in zip(params, ladders)]
    h = np.zeros(ladders[0].shape, dtype=complex)
    for p, a in zip(params, ladders):
        h = h + (a.conj().T @ a) * p.omega
    if field_mode == "shared":
        couplings = [sum(couplings[1:], couplings[0])]
    layout = HilbertLayout((len(h),))
    return GeneratorSpec(Operator(layout, h), tuple(Operator(layout, c) for c in couplings))


def build_augmented(omega_q: float, bank: GeneratorSpec,
                    params: list[AncillaParams] | tuple[AncillaParams, ...]) -> GeneratorSpec:
    """Couple a qubit (factor 0 of the layout (2, D)) directly to the bank's
    internal noise channel.

    H = (omega_q/2) sigma_z + H_bank, with the direct coupling
    D = sum_k sqrt(kappa_k) C_k^dag sigma_k, where C_k = -(sqrt(gamma_k)/2) a_k
    is the bank's internal noise channel and sigma_k the qubit coupling.
    """
    params = tuple(params)
    ladders = ladder_operators(p.truncation for p in params)
    d_bank = len(ladders[0])
    if bank.layout.dims != (d_bank,):
        raise ValueError("bank layout does not match the given ancilla parameters")
    eye_q = np.eye(2, dtype=complex)
    eye_b = np.eye(d_bank, dtype=complex)

    h = (np.kron(qubit_operator("pauli_z") * (0.5 * omega_q), eye_b)
         + np.kron(eye_q, bank.hamiltonian.entries))
    direct = np.zeros(h.shape, dtype=complex)
    for p, a in zip(params, ladders):
        c_k = np.kron(eye_q, a) * (-math.sqrt(p.gamma) / 2.0)
        sigma_k = np.kron(qubit_operator(p.sigma_kind, p.sigma_scale), eye_b)
        direct = direct + (c_k.conj().T @ sigma_k) * math.sqrt(p.kappa)
    layout = HilbertLayout((2, d_bank))
    channels = tuple(Operator(layout, np.kron(eye_q, op.entries)) for op in bank.collapse_ops)
    return GeneratorSpec(Operator(layout, h), channels, Operator(layout, direct))


def build_probed(augmented: GeneratorSpec, gamma_q: float, probe_kind: str,
                 probe_scale: complex = 1.0) -> GeneratorSpec:
    """Append the monitored probe channel sqrt(gamma_q) * (qubit operator)."""
    if gamma_q < 0:
        raise ValueError(f"gamma_q must be >= 0, got {gamma_q}")
    probe = Operator(augmented.layout, np.kron(
        qubit_operator(probe_kind, probe_scale) * math.sqrt(gamma_q),
        np.eye(qubit_bank(augmented.layout.dims), dtype=complex)))
    return replace(augmented, collapse_ops=augmented.collapse_ops + (probe,),
                   probe_index=len(augmented.collapse_ops))
