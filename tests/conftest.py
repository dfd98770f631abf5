import dataclasses

import numpy as np
import pytest

from nmqubit.config import preset, with_truncation
from nmqubit.experiments import build_probed_model
from nmqubit.master import lindblad_apply
from nmqubit.operators import DensityMatrix, HilbertLayout, Operator
from nmqubit.slh import AncillaParams
from nmqubit.spectra import lorentzian_psd


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def rand_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def rand_hermitian(rng, d):
    m = rand_matrix(rng, d)
    return m + m.conj().T


def rand_density(rng, dims):
    layout = HilbertLayout(tuple(dims))
    d = layout.total
    m = rand_matrix(rng, d)
    m = m @ m.conj().T
    m /= np.trace(m)
    return DensityMatrix(layout, m)


def ladder(n):
    """The truncated annihilation operator of one mode: a[m - 1, m] = sqrt(m)."""
    return np.diag(np.sqrt(np.arange(1, n)), k=1).astype(complex)


def on_factor(op, k, dims):
    """``op`` on factor k of ``dims``, identities on every other factor."""
    out = np.eye(1)
    for j, d in enumerate(dims):
        out = np.kron(out, op if j == k else np.eye(d))
    return out


def tagged(m):
    """The square matrix ``m`` as an ``Operator`` on one factor of its size."""
    return Operator(HilbertLayout((len(m),)), m)


def reduce_ref(rho):
    """The leading qubit's reduced state of a joint (2 D, 2 D) matrix."""
    d = len(rho) // 2
    return np.trace(rho.reshape(2, d, 2, d), axis1=1, axis2=3)


def bank2_model(field_mode):
    """The paper-fig4 mode plus a second Lorentzian mode, 4 levels each (d = 32),
    probed through sigma_y, whose entries are imaginary."""
    base = with_truncation(preset("paper-fig4"), 4)
    extra = AncillaParams(omega=1.5, gamma=0.8, kappa=0.5, truncation=4)
    cfg = dataclasses.replace(base, ancillas=base.ancillas + (extra,), field_mode=field_mode,
                              probe_kind="pauli_y")
    return build_probed_model(cfg.validate())


def plain_rk4(rho0, spec, t_grid):
    """Classic RK4 on ``lindblad_apply`` with trace renormalization per step."""
    rho = rho0.entries
    out = [rho]
    for dt in np.diff(t_grid):
        k1 = lindblad_apply(rho, spec)
        k2 = lindblad_apply(rho + 0.5 * dt * k1, spec)
        k3 = lindblad_apply(rho + 0.5 * dt * k2, spec)
        k4 = lindblad_apply(rho + dt * k3, spec)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = rho / np.trace(rho).real
        out.append(rho)
    return np.array(out)


def memory_kernel(t, comps):
    """The causal kernel sum_k kappa_k (gamma_k/2) exp(-(gamma_k/2 + i omega_k) t)
    of a Lorentzian mixture, for t >= 0."""
    t = np.asarray(t, dtype=float)
    return sum(c.weight * (c.linewidth / 2.0) * np.exp(-(c.linewidth / 2.0 + 1j * c.center) * t)
               for c in comps)


def kernel_psd_error(comp, omega_grid, t_max, dt):
    """Largest gap over ``omega_grid`` between ``lorentzian_psd`` and the
    squared magnitude of the one-sided Fourier transform of the unit-weight
    kernel of ``comp``, by the trapezoid rule on [0, t_max]."""
    t = np.arange(0.0, t_max + 0.5 * dt, dt)
    weights = np.full(len(t), dt)
    weights[0] = weights[-1] = 0.5 * dt
    xi = memory_kernel(t, [dataclasses.replace(comp, weight=1.0)])
    return max(abs(abs(np.sum(weights * xi * np.exp(1j * w * t))) ** 2 - lorentzian_psd(w, comp))
               for w in np.atleast_1d(np.asarray(omega_grid, dtype=float)).tolist())
