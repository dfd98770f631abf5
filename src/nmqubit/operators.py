"""Dense complex operator algebra on tensor products of small Hilbert spaces.

Everything here is a plain dense matrix tagged with the ordered list of
subsystem dimensions it acts on.  Harmonic modes are represented on a finite
number ladder (lowest ``N`` levels), which makes every reduction computable at
the cost of a known commutator defect at the top level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8


class LayoutMismatchError(ValueError):
    """Two operands do not share the same Hilbert-space layout."""


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered subsystem dimensions; slot 0 is the leftmost tensor factor."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims) if self.dims else 1

    def concat(self, other: HilbertLayout) -> HilbertLayout:
        return HilbertLayout(self.dims + other.dims)

    def check_slot(self, slot: int) -> None:
        if not 0 <= slot < len(self.dims):
            raise ValueError(f"slot {slot} out of range for layout {self.dims}")


def _as_square(entries, total: int) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.shape != (total, total):
        raise ValueError(f"entries must be {total}x{total}, got {m.shape}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Operator:
    """A dense square matrix acting on every factor of ``layout``."""

    layout: HilbertLayout
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _as_square(self.entries, self.layout.total))

    @classmethod
    def zero(cls, layout: HilbertLayout) -> Operator:
        return cls(layout, np.zeros((layout.total, layout.total), dtype=complex))

    @classmethod
    def identity(cls, layout: HilbertLayout) -> Operator:
        return cls(layout, np.eye(layout.total, dtype=complex))

    def dag(self) -> Operator:
        return Operator(self.layout, self.entries.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def herm_deviation(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def _check_same_layout(self, other: Operator) -> None:
        if self.layout != other.layout:
            raise LayoutMismatchError(
                f"layout mismatch: {self.layout.dims} vs {other.layout.dims}"
            )

    def __add__(self, other: Operator) -> Operator:
        self._check_same_layout(other)
        return Operator(self.layout, self.entries + other.entries)

    def __sub__(self, other: Operator) -> Operator:
        self._check_same_layout(other)
        return Operator(self.layout, self.entries - other.entries)

    def __neg__(self) -> Operator:
        return Operator(self.layout, -self.entries)

    def __mul__(self, scalar: complex) -> Operator:
        return Operator(self.layout, self.entries * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: Operator) -> Operator:
        self._check_same_layout(other)
        return Operator(self.layout, self.entries @ other.entries)


class DensityMatrix:
    """Unit-trace, Hermitian, positive state on a layout.

    The constructor validates all three defining properties.  ``wrap`` skips
    the checks for internal hot paths where the caller renormalizes per step.
    """

    __slots__ = ("layout", "entries")

    def __init__(self, layout: HilbertLayout, entries) -> None:
        m = _as_square(entries, layout.total)
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1 beyond {TRACE_TOL}")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > HERMITIAN_TOL:
            raise ValueError(f"density matrix not Hermitian (deviation {dev:.3e})")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        self.layout = layout
        self.entries = m

    @classmethod
    def wrap(cls, layout: HilbertLayout, entries) -> DensityMatrix:
        """Construct without validation; caller guarantees the invariants."""
        obj = object.__new__(cls)
        obj.layout = layout
        obj.entries = _as_square(entries, layout.total)
        return obj

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> DensityMatrix:
        """Qubit state (I + x sigma_x + y sigma_y + z sigma_z)/2."""
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector norm {norm} exceeds 1")
        m = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex)
        return cls(HilbertLayout((2,)), m)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def bloch(self) -> tuple[float, float, float]:
        """Bloch components of a single-qubit state."""
        if self.layout.dims != (2,):
            raise ValueError("bloch() requires a single-qubit layout")
        x, y, z = qubit_bloch(self.entries, self.layout.dims)[0]
        return float(x), float(y), float(z)


def readout_weights(dims: tuple[int, ...], *ops: np.ndarray) -> np.ndarray:
    """Real weights W, shape (2 d^2, 3 + len(ops)), for ``readout``: the
    columns give the Bloch components (2 Re q01, -2 Im q01, q00 - q11) of the
    leading qubit's reduced state q, then Re tr[A rho] for each (d, d) array A
    of ``ops``."""
    if dims[0] != 2:
        raise ValueError("layout does not start with a qubit factor")
    d = math.prod(dims)
    r = np.arange(d // 2)
    top = r + d // 2
    # axis 2 picks Re or Im of rho[i, j], the interleaved pair of a complex
    w = np.zeros((d, d, 2, 3 + len(ops)))
    w[r, top, 0, 0] = 2.0
    w[r, top, 1, 1] = -2.0
    w[r, r, 0, 2] = 1.0
    w[top, top, 0, 2] = -1.0
    for col, a in enumerate(ops, 3):
        w[:, :, 0, col] = a.T.real  # Re tr[A rho] = sum_ij Re A_ji Re rho_ij - Im A_ji Im rho_ij
        w[:, :, 1, col] = -a.T.imag
    return w.reshape(2 * d * d, -1)


def readout(states: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Contract a stack of (d, d) states with ``readout_weights``: shape
    (n, d, d) -> (n, k).  Each state is viewed as 2 d^2 reals and multiplied
    as its own (1, 2 d^2) @ (2 d^2, k) product; a single 2-D product over the
    stack may round a row differently depending on how many rows it holds."""
    flat = np.ascontiguousarray(states, dtype=complex).reshape(-1, 1, w.shape[0] // 2)
    return (flat.view(float) @ w)[:, 0]


@functools.lru_cache(maxsize=8)
def _bloch_weights(dims: tuple[int, ...]) -> np.ndarray:
    w = readout_weights(dims)
    w.setflags(write=False)  # shared by every caller
    return w


def qubit_bloch(states: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Bloch components of the leading qubit factor of a stack of joint states
    on ``dims``: shape (n, d, d) -> (n, 3)."""
    return readout(states, _bloch_weights(tuple(dims)))


_QUBIT_MATRICES = {
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sigma_plus": np.array([[0, 1], [0, 0]], dtype=complex),
    "sigma_minus": np.array([[0, 0], [1, 0]], dtype=complex),
}

STANDARD_KINDS = tuple(_QUBIT_MATRICES) + ("identity", "annihilation")


def make_standard_operator(kind: str, dim: int) -> Operator:
    """Standard single-factor operator: Pauli/ladder matrices, identity, or the
    truncated annihilation operator with entries a[n-1, n] = sqrt(n)."""
    if kind in _QUBIT_MATRICES:
        if dim != 2:
            raise ValueError(f"{kind} requires dim = 2, got {dim}")
        return Operator(HilbertLayout((2,)), _QUBIT_MATRICES[kind])
    if kind == "identity":
        if dim < 1:
            raise ValueError("identity requires dim >= 1")
        return Operator.identity(HilbertLayout((dim,)))
    if kind == "annihilation":
        if dim < 2:
            raise ValueError(f"annihilation requires dim >= 2, got {dim}")
        m = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
        return Operator(HilbertLayout((dim,)), m)
    raise ValueError(f"unknown operator kind {kind!r}; choose from {STANDARD_KINDS}")


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; the layout is the concatenation of both layouts."""
    return Operator(a.layout.concat(b.layout), np.kron(a.entries, b.entries))


def embed(op: Operator, slot: int, layout: HilbertLayout) -> Operator:
    """Lift a single-factor operator to ``layout`` by padding with identities."""
    layout.check_slot(slot)
    if op.layout.dims != (layout.dims[slot],):
        raise ValueError(
            f"operator dim {op.layout.dims} does not match layout slot {slot} "
            f"of dim {layout.dims[slot]}"
        )
    left = math.prod(layout.dims[:slot]) if slot > 0 else 1
    right = math.prod(layout.dims[slot + 1:]) if slot + 1 < len(layout.dims) else 1
    m = np.kron(np.kron(np.eye(left), op.entries), np.eye(right))
    return Operator(layout, m)


def _partial_trace_entries(entries: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> np.ndarray:
    n = len(dims)
    resh = entries.reshape(dims + dims)
    keepset = set(keep)
    row_labels = list(range(n))
    col_labels = [i if i not in keepset else n + i for i in range(n)]
    out_labels = keep + [n + i for i in keep]
    reduced = np.einsum(resh, row_labels + col_labels, out_labels)
    kept_total = math.prod(dims[i] for i in keep)
    return reduced.reshape(kept_total, kept_total)


def partial_trace(state, keep) -> "Operator | DensityMatrix":
    """Trace out every slot not in ``keep``; kept slots stay in ascending order.

    Accepts an Operator or a DensityMatrix and returns the same kind.
    """
    keep_sorted = sorted(set(int(k) for k in keep))
    if not keep_sorted:
        raise ValueError("keep must name at least one slot")
    dims = state.layout.dims
    for k in keep_sorted:
        state.layout.check_slot(k)
    reduced = _partial_trace_entries(state.entries, dims, keep_sorted)
    new_layout = HilbertLayout(tuple(dims[i] for i in keep_sorted))
    if isinstance(state, DensityMatrix):
        return DensityMatrix.wrap(new_layout, reduced)
    return Operator(new_layout, reduced)


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def expectation(rho: DensityMatrix, a: Operator) -> complex:
    if rho.layout != a.layout:
        raise LayoutMismatchError(
            f"layout mismatch: {rho.layout.dims} vs {a.layout.dims}"
        )
    return complex(np.einsum("ij,ji->", rho.entries, a.entries))
