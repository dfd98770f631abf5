"""Dense operators and states on tensor products of small Hilbert spaces.

Everything here is a plain dense matrix tagged with the ordered list of
subsystem dimensions it acts on; the builders compose numpy arrays and tag
the results once.  A model's layout is (2, D): the qubit, then the mode bank
as one factor on its joint occupation basis (``slh.ladder_operators``).
"""

from __future__ import annotations

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


#: the layout of a lone qubit, shared by every qubit-only state and model
QUBIT = HilbertLayout((2,))


def _read_only_square(m: np.ndarray, total: int) -> np.ndarray:
    if m.shape != (total, total):
        raise ValueError(f"entries must be {total}x{total}, got {m.shape}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Operator:
    """A read-only copy of a dense square matrix, tagged with the ``layout``
    it acts on."""

    layout: HilbertLayout
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _read_only_square(
            np.array(self.entries, dtype=complex), self.layout.total))

    def herm_deviation(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))


class DensityMatrix:
    """Unit-trace, Hermitian, positive state on a layout.

    The constructor validates all three defining properties, each written so
    that a NaN fails it.  ``wrap`` skips the checks for internal hot paths
    where the caller renormalizes per step.
    """

    __slots__ = ("layout", "entries")

    def __init__(self, layout: HilbertLayout, entries) -> None:
        m = _read_only_square(np.array(entries, dtype=complex), layout.total)
        tr = np.trace(m)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1 beyond {TRACE_TOL}")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if not dev <= HERMITIAN_TOL:
            raise ValueError(f"density matrix not Hermitian (deviation {dev:.3e})")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if not min_eig >= -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        self.layout = layout
        self.entries = m

    @classmethod
    def wrap(cls, layout: HilbertLayout, entries) -> DensityMatrix:
        """Construct without validation or a copy; caller guarantees the
        invariants.  The entries are a read-only view of ``entries``."""
        obj = object.__new__(cls)
        obj.layout = layout
        obj.entries = _read_only_square(np.asarray(entries, dtype=complex).view(), layout.total)
        return obj

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> DensityMatrix:
        """Qubit state (I + x sigma_x + y sigma_y + z sigma_z)/2."""
        norm = math.sqrt(x * x + y * y + z * z)
        if not norm <= 1.0 + 1e-12:
            raise ValueError(f"Bloch vector ({x}, {y}, {z}) has norm {norm}, not at most 1")
        m = 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex)
        return cls(QUBIT, m)

    def bloch(self) -> tuple[float, float, float]:
        """Bloch components of a single-qubit state."""
        if self.layout.dims != (2,):
            raise ValueError("bloch() requires a single-qubit layout")
        m = self.entries  # tr(sigma_k m), read from the entries
        return (m[0, 1] + m[1, 0]).real, (m[1, 0] - m[0, 1]).imag, (m[0, 0] - m[1, 1]).real


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
