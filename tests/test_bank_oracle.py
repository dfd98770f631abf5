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
depend on the ladder truncation, so the error is the truncation's.  For
independent fields f is also the dephasing integral of the bank's spectrum
J (``dephasing_factor``), which takes any spectrum, not only Lorentzians.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmqubit.config import preset
from nmqubit.experiments import run_unconditional, truncation_deviation
from nmqubit.slh import AncillaParams
from nmqubit.spectra import LorentzianComponent, SpectrumSamples, mixture_psd, nested_fits


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


def dephasing_factor(spectrum, t_grid, points=20001):
    """f(t) = exp(-(2/pi) int J(nu) (1 - cos nu t) / nu^2 dnu) on ``t_grid``
    for the spectrum J = ``spectrum(nu)``, by the trapezoid rule on
    ``points`` frequencies in [-400, 400]; the kernel is t^2/2 near nu = 0."""
    nu = np.linspace(-400.0, 400.0, points)
    j = spectrum(nu)
    out = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        kernel = np.full(points, 0.5 * t * t)
        far = np.abs(nu * t) >= 1e-4
        kernel[far] = (1.0 - np.cos(nu[far] * t)) / nu[far] ** 2
        out[i] = np.exp(-(2.0 / np.pi) * np.trapezoid(j * kernel, nu))
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
    return result.t_grid, result.bloch


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


#: a few fixed examples each: the two tests below add about 1 s to Tier-1
FEW = settings(derandomize=True, database=None, deadline=None, max_examples=5)


# where truncation 8 converges: the worst of 308 scratch draws over these
# ranges (the 8 corners among them) was 3.8e-8, at (1.5, 1.2, 1.0)
@FEW
@given(st.floats(1.5, 3.0), st.floats(0.3, 1.2), st.floats(0.1, 1.0))
def test_random_single_mode_against_oracle(omega, gamma, kappa):
    t, bloch = evolve_bloch([(omega, gamma, kappa)], "independent", 8, 3.0, 1e-2)
    factor = coherence_factor([(omega, gamma, kappa)], "independent", t, substeps=4)
    assert max_error(t, bloch, factor) <= 5e-8


def bank_psd(modes):
    """The spectrum of modes (omega, gamma, kappa): kappa-weighted Lorentzians."""
    comps = [LorentzianComponent(center=w, linewidth=g, weight=k) for w, g, k in modes]
    return lambda nu: mixture_psd(nu, comps)


def test_dephasing_factor_matches_two_mode_oracle():
    # the integral over the bank's spectrum against the mode equations:
    # 1.5e-9 when pinned, from cutting the 1/nu^4 tails at |nu| = 400
    t = np.linspace(0.0, 2.0, 201)
    want = coherence_factor(BANK2, "independent", t, substeps=10)
    assert np.max(np.abs(dephasing_factor(bank_psd(BANK2), t) - want)) <= 2e-9


mode_params = st.tuples(st.floats(-3.0, 3.0), st.floats(0.3, 1.5), st.floats(0.1, 1.5))


# the worst of 422 scratch draws over these ranges (corner pairs among them)
# was 1.15e-8, at two modes (-3.0, 1.5, 1.5): the cut tails grow with kappa gamma
@settings(FEW, max_examples=10)
@given(st.lists(mode_params, min_size=2, max_size=2))
def test_dephasing_factor_on_random_two_mode_banks(modes):
    t = np.linspace(0.0, 2.0, 51)
    want = coherence_factor(modes, "independent", t, substeps=10)
    assert np.max(np.abs(dephasing_factor(bank_psd(modes), t) - want)) <= 1.5e-8


def test_gaussian_band_through_fitted_bank():
    # a Gaussian band, fitted by two Lorentzians and evolved as a sigma_z
    # bank: evolve matches the fitted spectrum's f to the bank's truncation
    # error (2.65e-5 when pinned, bound 1.3x that), and the target's f only
    # to the fit error (0.198 when pinned, bound 1.26x that); a better fit
    # must tighten the second bound
    def target(nu):
        return 0.8 * np.exp(-(nu - 2.0) ** 2 / (2 * 0.5**2))

    w = np.linspace(-2.0, 6.0, 401)
    fit = nested_fits(SpectrumSamples(w, target(w)), 2)[-1]
    modes = [(c.center, c.linewidth, c.weight) for c in fit.components]
    t, bloch = evolve_bloch(modes, "independent", 4, 5.0, 1e-2)
    assert max_error(t, bloch, dephasing_factor(bank_psd(modes), t)) <= 3.5e-5
    assert max_error(t, bloch, dephasing_factor(target, t)) <= 0.25
