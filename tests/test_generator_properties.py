"""Randomized invariants of the built generators: its two written forms agree,
the compiled apply equals the term-by-term reference and keeps trace and
Hermiticity, both Bloch reductions agree, and the joint bank ladders are the
per-mode ladders padded with identities.  Both integrators are checked on the
same models: RK4 stores exactly Hermitian, unit-trace states equal to plain
RK4, and every row of a batched filter run equals its single trajectory."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nmqubit.filtering import _evolve, simulate_trajectory, wiener_increments
from nmqubit.master import (
    CompiledGenerator,
    generator_spec,
    grid_steps,
    integrate_master,
    lindblad_apply,
    reduce_to_qubit,
)
from nmqubit.operators import DensityMatrix, readout, readout_weights
from nmqubit.slh import (
    FIELD_MODES,
    QUBIT_COUPLING_KINDS,
    AncillaParams,
    build_ancilla_bank,
    build_augmented,
    build_probed,
    ladder_operators,
)

from conftest import ladder, on_factor, plain_rk4, rand_density

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=100)

values = st.floats(-3.0, 3.0)
kinds = st.sampled_from(QUBIT_COUPLING_KINDS)
scales = st.complex_numbers(max_magnitude=2.0)
truncations = st.integers(2, 4)
modes = st.builds(AncillaParams, omega=values, gamma=st.floats(0.05, 2.0),
                  kappa=st.floats(0.0, 2.0), sigma_kind=kinds, sigma_scale=scales,
                  truncation=truncations)


@st.composite
def models(draw):
    """A probed model of one or two modes, each with its own truncation."""
    params = draw(st.lists(modes, min_size=1, max_size=2))
    bank = build_ancilla_bank(params, draw(st.sampled_from(FIELD_MODES)))
    augmented = build_augmented(draw(values), bank, params)
    return build_probed(augmented, draw(st.floats(0.0, 2.0)), draw(kinds), draw(scales))


def random_states(seed, dims, n):
    rng = np.random.default_rng(seed)
    states = np.stack([rand_density(rng, dims).entries for _ in range(n)])
    return 0.5 * (states + states.conj().swapaxes(1, 2))  # exactly Hermitian, as apply requires


@BOUNDED
@given(models(), st.integers(0, 2**32 - 1))
def test_generator_forms_and_compiled_apply_agree(model, seed):
    (rho,) = random_states(seed, model.layout.dims, 1)
    want = lindblad_apply(rho, generator_spec(model))
    tol = 1e-13 * max(1.0, np.abs(want).max()) * model.layout.total
    for form in ("lindblad", "direct"):
        spec = generator_spec(model, form)
        assert_allclose(lindblad_apply(rho, spec), want, rtol=0, atol=tol)
        got = CompiledGenerator(spec).apply(rho)
        assert_allclose(got, want, rtol=0, atol=tol)
        assert abs(np.trace(got)) <= tol
        assert_allclose(got, got.conj().T, rtol=0, atol=tol)


@BOUNDED
@given(models(), st.integers(0, 2**32 - 1))
def test_qubit_bloch_is_reduced_state_bloch(model, seed):
    states = random_states(seed, model.layout.dims, 3)
    want = [reduce_to_qubit(DensityMatrix.wrap(model.layout, s)).bloch() for s in states]
    assert_allclose(readout(states, readout_weights(model.layout.dims)), want, rtol=0, atol=1e-14)


@BOUNDED
@given(models(), st.integers(0, 2**32 - 1))
def test_rk4_states_hermitian_and_match_plain_rk4(model, seed):
    # the models span d = 4 to 32, so both the tabulated and the applied step run
    spec = generator_spec(model)
    (rho,) = random_states(seed, model.layout.dims, 1)
    rho0 = DensityMatrix.wrap(model.layout, rho)
    t = np.linspace(0.0, 0.2, 21)
    states = integrate_master(rho0, spec, t, store_states=True).states
    want = plain_rk4(rho0, spec, t)
    assert np.array_equal(states, states.conj().swapaxes(1, 2))
    assert_allclose(np.trace(states, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-14)
    assert_allclose(states, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


@BOUNDED
@given(models(), st.integers(0, 2**32 - 4))
def test_batched_filter_rows_match_single_trajectories(model, seed):
    layout = model.layout
    spec = generator_spec(model)
    l_op = model.collapse_ops[model.probe_index]
    t = 1e-3 * np.arange(41)
    _, dt = grid_steps(t)
    rho0 = random_states(seed, layout.dims, 3)
    seeds = (seed, seed + 1, seed + 2)
    dw = np.stack([wiener_increments(s, 40, dt) for s in seeds])
    bloch, _, signal = _evolve(rho0, CompiledGenerator(spec), l_op.entries, dt,
                               increments=dw, seeds=seeds)
    record = signal * dt + dw
    for i, s in enumerate(seeds):
        traj = simulate_trajectory(DensityMatrix.wrap(layout, rho0[i]), spec, l_op, t, s)
        assert np.array_equal(bloch[i], traj.bloch)
        assert np.array_equal(record[i], traj.record)


@BOUNDED
@given(st.lists(truncations, min_size=1, max_size=3))
def test_ladders_match_kron_reference(dims):
    for k, a in enumerate(ladder_operators(dims)):
        assert np.array_equal(a, on_factor(ladder(dims[k]), k, dims))
