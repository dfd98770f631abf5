"""An exact oracle for a coupling the dephasing oracle cannot see: the
one-excitation memory-kernel equation.

With every qubit coupling along sigma_minus, probe rate 0, the qubit from +z
(its excited state e) and the bank in vacuum, the state stays in the span of
|e, vac>, |g, 1_k> and |g, vac>: the interaction trades the qubit's excitation
for one quantum of a mode, and a mode's jump takes the one-excitation part to
|g, vac>, which the generator leaves alone.  In the frame rotating at omega_q
the amplitudes obey

    c_e' = -sum_k c_k b_k,
    b_k' = c_k c_e - i (omega_k - omega_q) b_k - (1/2) sum_l Gamma_kl b_l,

with c_k = sqrt(kappa_k gamma_k)/2, and Gamma = diag(gamma_k) for independent
fields or Gamma_kl = sqrt(gamma_k gamma_l) for one shared field.  This is
c_e' = -int_0^t f(t - s) c_e(s) ds with the bank's memory kernel
f(tau) = c^T exp(-(i Delta + Gamma/2) tau) c, Delta = diag(omega_k - omega_q).
Then z = 2 |c_e|^2 - 1 and x = y = 0 exactly, at any truncation >= 2.  The
(K + 1) x (K + 1) matrix comes from (omega, gamma, kappa) alone, never from
the built model, and is solved by its eigendecomposition.
"""

import dataclasses

import numpy as np
import pytest

from nmqubit.config import preset
from nmqubit.experiments import run_unconditional
from nmqubit.slh import AncillaParams

OMEGA_Q = 2.0
MODE = (2.0, 0.6, 1.0)  # the preset's mode
STRONG = (1.0, 0.3, 4.0)  # detuned and strongly coupled
BANK2 = [MODE, (1.5, 0.8, 0.5)]


def kernel_config(modes, field_mode, truncation, t_final):
    """The oracle's model: sigma_minus couplings, probe rate 0, the qubit from +z."""
    ancillas = tuple(AncillaParams(omega=w, gamma=g, kappa=k, sigma_kind="sigma_minus",
                                   truncation=truncation) for w, g, k in modes)
    return dataclasses.replace(
        preset("paper-fig4"), omega_q=OMEGA_Q, ancillas=ancillas, truncation=truncation,
        field_mode=field_mode, gamma_q=0.0, init_bloch=(0.0, 0.0, 1.0), t_final=t_final,
        dt=1e-3,
    ).validate()


def excited_population(modes, field_mode, t):
    """|c_e(t)|^2 on the times ``t`` for modes (omega, gamma, kappa)."""
    omega, gamma, kappa = (np.array(v, dtype=float) for v in zip(*modes))
    c = np.sqrt(kappa * gamma) / 2.0
    big = np.diag(gamma) if field_mode == "independent" else np.sqrt(np.outer(gamma, gamma))
    m = np.zeros((len(c) + 1,) * 2, dtype=complex)
    m[0, 1:] = -c
    m[1:, 0] = c
    m[1:, 1:] = -1j * np.diag(omega - OMEGA_Q) - 0.5 * big
    lam, v = np.linalg.eig(m)
    start = np.linalg.solve(v, np.eye(len(m))[:, 0])  # c_e(0) = 1, every b_k(0) = 0
    return np.abs((v[0] * start) @ np.exp(np.outer(lam, t))) ** 2


# gaps in z when pinned, in order: 1.04e-13, 1.03e-13, 1.38e-13, 6.45e-14 and
# 8.18e-14 (d = 8, tabulated step), 4.66e-15 and 7.02e-15 (d = 18, applied
# step); the oracle with kappa 5% too large misses by 4e-2, and sigma_plus
# couplings by 2.0.  Tighten, never loosen
@pytest.mark.parametrize("modes, field_mode, truncation, t_final, bound", [
    ([MODE], "independent", 2, 10.0, 2e-13),
    ([MODE], "independent", 3, 10.0, 2e-13),
    ([STRONG], "independent", 3, 10.0, 2.5e-13),
    (BANK2, "independent", 2, 10.0, 1.3e-13),
    (BANK2, "shared", 2, 10.0, 1.6e-13),
    (BANK2, "independent", 3, 2.0, 1e-14),
    (BANK2, "shared", 3, 2.0, 1.4e-14),
], ids=["preset-N2", "preset-N3", "strong-N3", "bank2-independent-N2", "bank2-shared-N2",
        "bank2-independent-N3", "bank2-shared-N3"])
def test_excited_qubit_follows_the_memory_kernel(modes, field_mode, truncation, t_final, bound):
    result = run_unconditional(kernel_config(modes, field_mode, truncation, t_final))
    z = result.bloch[:, 2]
    assert np.all(result.bloch[:, :2] == 0.0)
    assert z.min() < 0.0  # the excitation decays into the bank
    assert np.max(np.abs(z - (2.0 * excited_population(modes, field_mode, result.t_grid) - 1.0))) \
        <= bound
