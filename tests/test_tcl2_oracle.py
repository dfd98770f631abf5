"""A weak-coupling oracle for the preset's transverse coupling: the
second-order time-convolutionless (TCL2) equation of the bank's memory kernel.

With every qubit coupling along pauli_y (the preset's S = sigma_y), probe rate
0, the qubit from +x and the bank in vacuum, the folded interaction is S B with
B = i sum_k c_k (a_k - a_k^dag) and c_k = sqrt(kappa_k gamma_k)/2.  A damped
mode in vacuum gives the bath correlation
C(tau) = <B(tau) B(0)> = sum_k c_k^2 exp(-(gamma_k/2 + i omega_k) tau), and to
second order in the coupling the qubit obeys

    rho' = -i[H_q, rho] - [S, Lambda_t rho - rho Lambda_t^dag],
    Lambda_t = int_0^t C(tau) S(-tau) dtau,  S(-tau) = e^{-i H_q tau} S e^{i H_q tau}.

In the eigenbasis of H_q = (omega_q/2) sigma_z, entry (j, l) of S(-tau) is
S_jl exp(-i (E_j - E_l) tau), so entry (j, l) of Lambda_t is
S_jl sum_k c_k^2 (1 - e^{-z t})/z with z = gamma_k/2 + i omega_k + i (E_j - E_l).
Lambda_t comes from (omega, gamma, kappa) alone, never from the built model,
and the oracle is integrated by RK4.  With every kappa scaled by s, the run
leaves free precession at order s and TCL2 at order s^2 (the fourth order in
the coupling), so the ratio of the gaps at s = 0.05 and s = 0.025 tends to 4.
"""

import dataclasses

import numpy as np
import pytest

from nmqubit.config import preset
from nmqubit.experiments import run_unconditional
from nmqubit.slh import AncillaParams

OMEGA_Q = 2.0
ENERGY = np.array([0.5, -0.5]) * OMEGA_Q  # H_q's diagonal, the excited state first
H_Q = np.diag(ENERGY).astype(complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])
MODE = (2.0, 0.6, 1.0)  # the preset's mode
DETUNED = (1.0, 0.8, 1.0)
BANK2 = [MODE, (1.5, 0.8, 0.5)]
T_FINAL = 10.0
#: the run's step and the oracle's: at the preset's dt = 1e-3 and an oracle
#: step of 0.01, every gap and ratio below reads the same to three digits
DT, H = 1e-2, 5e-2


def tcl2_config(modes, s, truncation):
    """The oracle's model: pauli_y couplings with every kappa scaled by s,
    probe rate 0, the qubit from +x (the preset's start)."""
    ancillas = tuple(AncillaParams(omega=w, gamma=g, kappa=k * s, truncation=truncation)
                     for w, g, k in modes)
    return dataclasses.replace(
        preset("paper-fig4"), omega_q=OMEGA_Q, ancillas=ancillas, truncation=truncation,
        gamma_q=0.0, dt=DT, t_final=T_FINAL,
    ).validate()


def kernel_integral(modes, s, t):
    """Lambda_t for modes (omega, gamma, kappa) with every kappa scaled by s."""
    omega, gamma, kappa = (np.array(v, dtype=float)[:, None, None] for v in zip(*modes))
    z = gamma / 2 + 1j * omega + 1j * (ENERGY[:, None] - ENERGY)
    return SIGMA_Y * np.sum(s * kappa * gamma / 4 * (1 - np.exp(-z * t)) / z, axis=0)


def tcl2_bloch(modes, s):
    """The TCL2 qubit's Bloch vectors on the grid 0, H, ..., T_FINAL."""
    def rate(rho, t):
        x = kernel_integral(modes, s, t) @ rho  # Lambda_t rho - rho Lambda_t^dag = x - x^dag
        x -= x.conj().T
        return -1j * (H_Q @ rho - rho @ H_Q) - (SIGMA_Y @ x - x @ SIGMA_Y)

    rho = np.full((2, 2), 0.5, dtype=complex)  # +x
    states = [rho]
    for i in range(round(T_FINAL / H)):
        t = i * H
        k1 = rate(rho, t)
        k2 = rate(rho + H / 2 * k1, t + H / 2)
        k3 = rate(rho + H / 2 * k2, t + H / 2)
        k4 = rate(rho + H * k3, t + H)
        rho = rho + H / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(rho)
    r = np.array(states)
    return np.stack([2 * r[:, 0, 1].real, -2 * r[:, 0, 1].imag, (r[:, 0, 0] - r[:, 1, 1]).real],
                    axis=1)


# gaps at s = 0.025 when pinned, in order: 2.492e-3, 5.613e-4 and 2.329e-3
# (d = 18, applied step), against deviations from free precession of 0.158,
# 0.060 and 0.198; gap ratios 3.462, 3.781 and 3.465.  With kappa 5% too
# large in the oracle's kernel the ratios fall to 0.94, 2.04 and 1.05, and 5%
# too small to 2.15, 1.86 and 1.94.  Tighten, never loosen
@pytest.mark.parametrize("modes, truncation, bound", [
    ([MODE], 5, 2.6e-3),
    ([DETUNED], 5, 5.9e-4),
    (BANK2, 3, 2.45e-3),
], ids=["preset-mode", "detuned-mode", "bank2-N3"])
def test_weak_transverse_coupling_follows_tcl2(modes, truncation, bound):
    gaps = {}
    for s in (0.05, 0.025):
        bloch = run_unconditional(tcl2_config(modes, s, truncation)).bloch[::round(H / DT)]
        gaps[s] = np.max(np.abs(bloch - tcl2_bloch(modes, s)))
    # the weak coupling still moves the qubit far more than TCL2 misses it
    assert np.max(np.abs(bloch - tcl2_bloch(modes, 0.0))) >= 25 * gaps[0.025]
    assert gaps[0.025] <= bound
    assert 3.4 <= gaps[0.05] / gaps[0.025] <= 4.0
