import dataclasses

import numpy as np
import pytest

import nmqubit as nq
from nmqubit.experiments import build_probed_model
from nmqubit.operators import DensityMatrix, HilbertLayout
from nmqubit.slh import AncillaParams


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


def bank2_model(field_mode):
    """The paper-fig4 mode plus a second Lorentzian mode, 4 levels each (d = 32),
    probed through sigma_y, whose entries are imaginary."""
    base = nq.with_truncation(nq.preset("paper-fig4"), 4)
    extra = AncillaParams(omega=1.5, gamma=0.8, kappa=0.5, truncation=4)
    cfg = dataclasses.replace(base, ancillas=base.ancillas + (extra,), field_mode=field_mode,
                              probe_kind="pauli_y")
    return build_probed_model(cfg.validate())
