"""An exact oracle for the qubit coupled to its bank (kappa > 0).

With every qubit coupling and the probe along sigma_z, and probe rate 0, the
interaction is sigma_z (x) sum_k c_k (-i a_k^dag + i a_k), c_k =
sqrt(kappa_k gamma_k)/2: each qubit branch drives the bank with a constant
force, so the bank stays Gaussian.  The populations stay put and the coherence
is x - iy = (x0 - i y0) exp(-i omega_q t) f(t) with the real factor

    f(t) = exp(int_0^t [2 c.Re alpha - alpha^dag Gamma alpha] ds - |alpha(t)|^2),
    alpha' = -(i Omega + Gamma/2) alpha - c,  alpha(0) = 0,

where Omega = diag(omega_k), and Gamma = diag(gamma_k) for independent fields
or Gamma_kl = sqrt(gamma_k gamma_l) for one shared field.  The factor does not
depend on the ladder truncation, so the error is the truncation's.
"""

import dataclasses

import numpy as np
import pytest

from nmqubit.config import preset
from nmqubit.experiments import run_unconditional, truncation_deviation
from nmqubit.slh import AncillaParams


def coherence_factor(modes, field_mode, t_grid, substeps=1):
    """f on ``t_grid`` for modes (omega, gamma, kappa): classic RK4 on alpha
    and the integral together, ``substeps`` steps per grid interval."""
    omega, gamma, kappa = (np.array(v, dtype=float) for v in zip(*modes))
    c = np.sqrt(kappa * gamma) / 2.0
    big = np.diag(gamma) if field_mode == "independent" else np.sqrt(np.outer(gamma, gamma))
    drift = -(1j * np.diag(omega) + 0.5 * big)

    def rhs(alpha):
        return drift @ alpha - c, 2.0 * (c @ alpha.real) - np.vdot(alpha, big @ alpha).real

    alpha, integral = np.zeros(len(c), dtype=complex), 0.0
    out = np.empty(len(t_grid))
    out[0] = 1.0
    for n, h in enumerate(np.diff(t_grid) / substeps, 1):
        for _ in range(substeps):
            a1, i1 = rhs(alpha)
            a2, i2 = rhs(alpha + 0.5 * h * a1)
            a3, i3 = rhs(alpha + 0.5 * h * a2)
            a4, i4 = rhs(alpha + h * a3)
            alpha = alpha + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            integral += (h / 6.0) * (i1 + 2.0 * i2 + 2.0 * i3 + i4)
        out[n] = np.exp(integral - np.vdot(alpha, alpha).real)
    return out


OMEGA_Q = 2.0
MODE = (2.0, 0.6, 1.0)
SLOW_MODE = (0.5, 0.3, 2.0)
BANK2 = [MODE, (1.5, 0.8, 0.5)]


def oracle_config(modes, field_mode, truncation, t_final, dt):
    """The oracle's model, started from +x."""
    ancillas = tuple(AncillaParams(omega=w, gamma=g, kappa=k, sigma_kind="pauli_z",
                                   truncation=truncation) for w, g, k in modes)
    return dataclasses.replace(
        preset("paper-fig4"), omega_q=OMEGA_Q, ancillas=ancillas, truncation=truncation,
        field_mode=field_mode, probe_kind="pauli_z", gamma_q=0.0, init_bloch=(1.0, 0.0, 0.0),
        t_final=t_final, dt=dt,
    ).validate()


def evolve_bloch(modes, field_mode, truncation, t_final, dt):
    """``evolve``'s grid and Bloch vectors on the oracle's model."""
    result = run_unconditional(oracle_config(modes, field_mode, truncation, t_final, dt))
    return result.t_grid, result.qubit_bloch()


def max_error(t, bloch, factor):
    coherence = np.exp(-1j * OMEGA_Q * t) * factor  # x - iy
    want = np.stack([coherence.real, -coherence.imag, np.zeros_like(t)], axis=1)
    return float(np.max(np.abs(bloch - want)))


@pytest.fixture(scope="module")
def single_mode_factor():
    return coherence_factor([MODE], "shared", np.arange(10001) * 1e-3)


# errors when pinned: 2.0e-3, 2.9e-6 and 3.9e-11; tighten, never loosen
@pytest.mark.parametrize("truncation, bound", [(3, 2.5e-3), (5, 3.5e-6), (8, 5e-11)])
def test_single_mode_truncation_error(truncation, bound, single_mode_factor):
    # with one mode the two field modes are the same model; the shared one
    # also runs the code that sums the bank's channels
    t, bloch = evolve_bloch([MODE], "shared", truncation, 10.0, 1e-3)
    assert max_error(t, bloch, single_mode_factor) <= bound


def test_two_mode_bank_both_field_modes():
    # errors when pinned (truncation 5): 1.05e-6 independent, 4.1e-7 shared;
    # for the shared field a product of single-mode factors is off by 2.4e-2
    for field_mode, bound in (("independent", 1.3e-6), ("shared", 5e-7)):
        t, bloch = evolve_bloch(BANK2, field_mode, 5, 2.0, 1e-2)
        assert max_error(t, bloch, coherence_factor(BANK2, field_mode, t, substeps=10)) <= bound


def test_truncation_deviation_tracks_oracle_on_slow_mode():
    # a slow, strongly coupled mode fills more ladder levels than truncation 5
    # holds; the doubled-truncation check must read the true error, not pass
    # it.  Pinned: 3.1455e-2 against the oracle's 3.1435e-2 (ratio 1.00064)
    modes = [SLOW_MODE]
    dev = truncation_deviation(oracle_config(modes, "shared", 5, 10.0, 1e-2))
    t, bloch = evolve_bloch(modes, "shared", 5, 10.0, 1e-2)
    error = max_error(t, bloch, coherence_factor(modes, "shared", t, substeps=10))
    assert dev > 1e-3  # criterion 10's tolerance
    assert abs(dev / error - 1.0) <= 2e-3
