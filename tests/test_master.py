import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nmqubit import master
from nmqubit.config import preset, with_truncation
from nmqubit.experiments import (
    build_probed_model,
    config_grid,
    filter_ingredients,
    run_baseline,
    run_unconditional,
    time_grid,
)
from nmqubit.filtering import (
    StoredStates,
    Trajectory,
    conditional_qubit,
    ensemble_average,
    replay_filter,
    simulate_trajectory,
)
from nmqubit.master import (
    CompiledGenerator,
    JumpGather,
    PositivityError,
    augmented_initial_state,
    generator_spec,
    grid_steps,
    integrate_master,
    lindblad_apply,
    markovian_baseline_spec,
    reduce_to_qubit,
)
from nmqubit.operators import (
    DensityMatrix, HilbertLayout, Operator, readout, readout_weights,
)
from nmqubit.slh import AncillaParams, GeneratorSpec, qubit_operator

from conftest import bank2_model, ladder, plain_rk4, rand_density, rand_hermitian, tagged


def unit_trace_hermitian(rng, d):
    m = rand_hermitian(rng, d)
    return m / np.trace(m)


def exact_propagator(spec, dt):
    """expm(L dt) of the row-major vectorized Lindblad generator, by scaling
    and squaring a Taylor series; numpy only."""
    h = spec.hamiltonian.entries
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in spec.collapse_ops:
        n = op.entries
        ndn = n.conj().T @ n
        gen += np.kron(n, n.conj()) - 0.5 * (np.kron(ndn, eye) + np.kron(eye, ndn.T))
    a = gen * dt
    squarings = max(0, math.ceil(math.log2(max(np.abs(a).sum(axis=0).max(), 1e-300) / 0.25)))
    a = a / 2.0**squarings
    term = np.eye(d * d, dtype=complex)
    out = term.copy()
    for k in range(1, 24):
        term = term @ a / k
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def preset_problem(truncation=5, form="lindblad", extra_mode=False, **changes):
    """(spec, rho0) of the preset at a truncation, optionally with a second mode."""
    cfg = dataclasses.replace(preset("paper-fig4"), **changes)
    if extra_mode:
        cfg = dataclasses.replace(cfg, ancillas=cfg.ancillas + (AncillaParams(omega=1.5, gamma=0.8, kappa=0.5),))
    cfg = with_truncation(cfg, truncation).validate()
    model = build_probed_model(cfg)
    return generator_spec(model, form), augmented_initial_state(cfg.init_bloch, model.layout)


def baseline_problem():
    cfg = preset("paper-fig4")
    spec = markovian_baseline_spec(cfg.omega_q, cfg.ancillas, cfg.gamma_q, cfg.probe_kind)
    return spec, DensityMatrix.from_bloch(*cfg.init_bloch)


# name -> (problem, whether integrate_master steps it by the tabulated map)
RK4_PROBLEMS = {
    "baseline-d2": (baseline_problem, True),
    "preset-d10": (preset_problem, True),
    "direct-d10": (lambda: preset_problem(form="direct"), True),
    "independent-d8": (lambda: preset_problem(2, extra_mode=True), True),
    "shared-d8": (lambda: preset_problem(2, extra_mode=True, field_mode="shared"), True),
    "crossover-d16": (lambda: preset_problem(8), True),
    "apply-d18": (lambda: preset_problem(9), False),
    "shared-d18": (lambda: preset_problem(3, extra_mode=True, field_mode="shared"), False),
}


class TestLindbladApply:
    def test_decay_of_excited_state(self):
        # single collapse sqrt(g) sigma_minus on the excited state:
        # rhodot = g (|0><0| - |1><1|), excited = first basis vector
        g = 0.7
        spec = GeneratorSpec(
            tagged(np.zeros((2, 2))),
            (tagged(math.sqrt(g) * qubit_operator("sigma_minus")),),
        )
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = lindblad_apply(rho, spec)
        assert_allclose(out, g * np.diag([-1.0, 1.0]), atol=1e-14)

    def test_maximally_mixed_fixed_point(self, rng):
        # hermitian-unitary collapses are unital, so I/d is stationary
        h = Operator(HilbertLayout((2,)), rand_hermitian(rng, 2))
        spec = GeneratorSpec(h, tuple(tagged(qubit_operator(k)) for k in ("pauli_x", "pauli_y")))
        out = lindblad_apply(np.eye(2) / 2, spec)
        assert_allclose(out, 0, atol=1e-14)

    def test_traceless(self, rng):
        h = Operator(HilbertLayout((3,)), rand_hermitian(rng, 3))
        n1 = Operator(HilbertLayout((3,)), rand_hermitian(rng, 3) + 1j * rand_hermitian(rng, 3))
        spec = GeneratorSpec(h, (n1,))
        out = lindblad_apply(unit_trace_hermitian(rng, 3), spec)
        assert abs(np.trace(out)) < 1e-12

    def test_hermiticity_preserved(self, rng):
        h = Operator(HilbertLayout((3,)), rand_hermitian(rng, 3))
        spec = GeneratorSpec(h, (Operator(HilbertLayout((3,)), rand_hermitian(rng, 3)),))
        out = lindblad_apply(unit_trace_hermitian(rng, 3), spec)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestGeneratorForms:
    def test_equivalence_on_random_states(self, rng):
        cfg = dataclasses.replace(preset("paper-fig4"))
        cfg = with_truncation(cfg, 4)
        model = build_probed_model(cfg)
        spec = generator_spec(model)
        worst = 0.0
        for _ in range(20):
            rho = unit_trace_hermitian(rng, model.layout.total)
            d1 = lindblad_apply(rho, spec)
            d2 = lindblad_apply(rho, generator_spec(model, form="direct"))
            worst = max(worst, float(np.max(np.abs(d1 - d2))))
        assert worst <= 1e-12

    def test_compiled_matches_literal(self, rng):
        cfg = with_truncation(preset("paper-fig4"), 3)
        model = build_probed_model(cfg)
        spec = generator_spec(model)
        gen = CompiledGenerator(spec)
        for _ in range(5):
            rho = unit_trace_hermitian(rng, model.layout.total)
            assert_allclose(gen.apply(rho), lindblad_apply(rho, spec), atol=1e-13)

    def test_shared_field_mode_single_mode_equal(self, rng):
        cfg = preset("paper-fig4")
        shared = dataclasses.replace(cfg, field_mode="shared")
        m1 = build_probed_model(cfg)
        m2 = build_probed_model(shared)
        rho = unit_trace_hermitian(rng, m1.layout.total)
        assert_allclose(
            lindblad_apply(rho, generator_spec(m1)),
            lindblad_apply(rho, generator_spec(m2)),
            atol=1e-14,
        )


class TestJumpGather:
    # CompiledGenerator.apply forms the jump sum as a gather and E rho + rho E^dag
    # as X + X^dag; lindblad_apply is the term-by-term dense reference

    def assert_matches_literal(self, spec, rng):
        gen = CompiledGenerator(spec)
        for _ in range(3):
            rho = unit_trace_hermitian(rng, spec.layout.total)
            assert_allclose(gen.apply(rho), lindblad_apply(rho, spec), rtol=0, atol=1e-13)

    def test_independent_bank(self, rng):
        self.assert_matches_literal(generator_spec(bank2_model("independent")), rng)

    def test_shared_bank(self, rng):
        spec = generator_spec(bank2_model("shared"))
        # the merged bank operator has two entries in some rows
        assert max(np.count_nonzero(op.entries, axis=1).max() for op in spec.collapse_ops) == 2
        self.assert_matches_literal(spec, rng)

    def test_direct_form(self, rng):
        self.assert_matches_literal(generator_spec(bank2_model("independent"), form="direct"), rng)

    def test_no_collapse_operators(self, rng):
        spec = GeneratorSpec(Operator(HilbertLayout((2, 3)), rand_hermitian(rng, 6)), ())
        assert CompiledGenerator(spec).jumps.idx.shape == (0, 36)
        self.assert_matches_literal(spec, rng)

    def test_overlapping_supports_summed(self, rng):
        # sigma_x and sigma_y share their non-zero positions, so both add a
        # weight at the same (target, source) pair
        bank = (AncillaParams(omega=1.0, gamma=0.5, kappa=0.7, sigma_kind="pauli_y"),)
        self.assert_matches_literal(markovian_baseline_spec(1.3, bank, 0.4, "pauli_x"), rng)

    def test_batch_rows_match_single_calls(self, rng):
        spec = generator_spec(bank2_model("shared"))
        gen = CompiledGenerator(spec)
        d = spec.layout.total
        batch = np.stack([unit_trace_hermitian(rng, d) for _ in range(4)])
        out = gen.apply(batch)
        assert out.shape == batch.shape
        for row, rho in zip(out, batch):
            assert np.array_equal(row, gen.apply(rho))
            assert_allclose(row, lindblad_apply(rho, spec), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("spec", [
        lambda: generator_spec(bank2_model("shared")),
        lambda: preset_problem(form="direct")[0],
        lambda: GeneratorSpec(tagged(np.diag([1.0, -1.0, 0.5])), ()),
    ], ids=["shared-bank", "preset-direct", "no-collapse"])
    def test_apply_bits_of_a_row_loop(self, spec, rng):
        # the gather's one take/multiply/reduce sums its rows in the order of
        # a loop over them, so apply keeps the bits of that loop
        spec = spec()
        gen = CompiledGenerator(spec)
        d = spec.layout.total

        def row_loop(r):
            flat = r.reshape(r.shape[:-2] + (-1,))
            jump = np.zeros(flat.shape, dtype=complex)
            if len(gen.jumps.w):
                jump = gen.jumps.w[0] * flat[..., gen.jumps.idx[0]]
                for w, idx in zip(gen.jumps.w[1:], gen.jumps.idx[1:]):
                    jump += w * flat[..., idx]
            x = gen.e @ r
            return x + x.conj().swapaxes(-1, -2) + jump.reshape(r.shape)

        batch = np.stack([unit_trace_hermitian(rng, d) for _ in range(3)])
        assert np.array_equal(gen.apply(batch), row_loop(batch))
        assert np.array_equal(gen.apply(batch[1]), row_loop(batch[1]))

    @pytest.mark.parametrize("field_mode, rows", [("independent", 3), ("shared", 5)])
    def test_applied_step_gathers_into_its_own_buffer(self, field_mode, rows, rng):
        # the applied RK4 step (d = 50) gathers its jump rows into one buffer
        # allocated with its others: a step allocates no (S, d^2) array, and
        # two steps of one generator hold no buffer in common, so called
        # alternately on different inputs each keeps the bits it has alone
        spec, _ = preset_problem(5, extra_mode=True, field_mode=field_mode)
        gen = CompiledGenerator(spec)
        d = spec.layout.total
        assert gen.jumps.w.shape == (rows, d * d) and d == 50
        coords = master._HermitianCoordinates(d)
        step = master._applied_step(gen, coords, 1e-3)
        v = coords.read(unit_trace_hermitian(rng, d))
        step(v)  # first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(v)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < gen.jumps.w.nbytes

        other = master._applied_step(gen, coords, 2e-3)
        w = coords.read(unit_trace_hermitian(rng, d))

        def alone(stepper, x):
            out = []
            for _ in range(5):
                x, tr = stepper(x)
                out.append((x.copy(), tr))
                x = x / tr
            return out

        want_u, want_w = alone(step, v), alone(other, w)
        u = v
        for (want, want_tr), (want_o, want_o_tr) in zip(want_u, want_w):
            (u, tr), (w, tr_w) = step(u), other(w)
            assert np.array_equal(u, want) and tr == want_tr
            assert np.array_equal(w, want_o) and tr_w == want_o_tr
            u, w = u / tr, w / tr_w

    def test_one_build_per_call(self, monkeypatch):
        # the all-channel gather is built on the first apply, so a filter
        # call builds only its own over the unmonitored channels
        builds = []
        init = JumpGather.__init__

        def counting(self, ops, d):
            builds.append(d)
            init(self, ops, d)

        monkeypatch.setattr(JumpGather, "__init__", counting)
        model = bank2_model("independent")
        spec = generator_spec(model)
        rho0 = augmented_initial_state((1, 0, 0), model.layout)
        simulate_trajectory(rho0, spec, model.collapse_ops[model.probe_index], [0.0, 1e-3, 2e-3], seed=1)
        assert len(builds) == 1
        integrate_master(rho0, spec, [0.0, 1e-3, 2e-3])
        assert len(builds) == 2


class TestIntegrate:
    def test_hamiltonian_only_matches_exponential(self, rng):
        # eigendecomposition-based propagation as an independent oracle
        h = rand_hermitian(rng, 4)
        spec = GeneratorSpec(Operator(HilbertLayout((2, 2)), h), ())
        rho0 = rand_density(rng, (2, 2))
        t_grid = np.linspace(0, 1.0, 501)
        result = integrate_master(rho0, spec, t_grid, store_states=True)
        w, v = np.linalg.eigh(h)
        for idx in (100, 250, 500):
            t = t_grid[idx]
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            want = u @ rho0.entries @ u.conj().T
            assert np.max(np.abs(result.states[idx] - want)) < 1e-8

    def test_zero_generator_constant(self, rng):
        spec = GeneratorSpec(Operator(HilbertLayout((2, 3)), np.zeros((6, 6))), ())
        rho0 = rand_density(rng, (2, 3))
        result = integrate_master(rho0, spec, np.linspace(0, 5, 11), store_states=True)
        for s in result.states:
            assert_allclose(s, rho0.entries, atol=1e-14)

    def test_unitary_limit_preserves_purity(self):
        # kappa = 0 and no damping channels: purely Hamiltonian evolution
        params = [AncillaParams(omega=2.0, gamma=0.6, kappa=0.0, truncation=3)]
        h = Operator(HilbertLayout((2, 3)), np.kron(np.diag([1.0, -1.0]), np.eye(3)))
        spec = GeneratorSpec(h, ())
        rho0 = augmented_initial_state((1, 0, 0), HilbertLayout((2, 3)))
        result = integrate_master(rho0, spec, np.linspace(0, 2, 201), store_states=True)
        purity = [float(np.real(np.trace(s @ s))) for s in result.states]
        assert_allclose(purity, purity[0], atol=1e-8)

    def test_conservation_short_run(self):
        spec, rho0 = preset_problem()
        result = integrate_master(rho0, spec, time_grid(1.0, 1e-3), store_states=True)
        assert result.tr_drift.max() <= 1e-8
        assert np.array_equal(result.states, result.states.conj().swapaxes(1, 2))
        assert result.min_eig.min() >= -1e-8

    def test_positivity_abort(self, monkeypatch):
        # an absurd step size must trip the abort diagnostic at the first step,
        # on either stepper; one block holds all 401 stored states, so a run
        # that kept stepping after a state that cannot be positive would
        # overflow and warn before its block is checked, and one that did not
        # wait for that block's check would take a step more
        monkeypatch.setattr(master, "DIAG_BLOCK_BYTES", 401 * 16 * 10**2)
        # whether each stepped state fails the v.v certificate, per run
        over = []

        def recording(make):
            def build(gen, coords, h):
                step = make(gen, coords, h)
                bound = (1.0 + coords.d * master.POSITIVITY_ABORT) ** 2

                def recorded(v):
                    u, tr = step(v)
                    w = u / tr
                    over.append(not w @ w <= bound)
                    return u, tr

                return recorded

            return build

        fig4 = preset("paper-fig4")

        def stored(problem):
            spec, rho0 = problem()
            return lambda cfg: integrate_master(rho0, spec, config_grid(cfg), store_states=True)

        stored_unconditional, stored_baseline = stored(preset_problem), stored(baseline_problem)
        # 0: every run applies the generator.  Only the stepper the loop calls
        # is recorded: the tabulated map is read off applied steps on basis
        # vectors, which are no states of the run
        for table_max_dim, name in ((master.TABLE_MAX_DIM, "_tabulated_step"), (0, "_applied_step")):
            monkeypatch.setattr(master, "TABLE_MAX_DIM", table_max_dim)
            monkeypatch.setattr(master, name, recording(getattr(master, name)))
            for dt in (0.5, 5.0, 50.0):
                cfg = dataclasses.replace(fig4, dt=dt, t_final=400 * dt)
                # each pipeline streams, and the same model is also run with
                # its states stored; the memoryless qubit stays positive at
                # the smallest step
                runs = [run_unconditional, stored_unconditional]
                if dt > 0.5:
                    runs += [run_baseline, stored_baseline]
                for run in runs:
                    over.clear()
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        with pytest.raises(PositivityError,
                                           match=rf"t={dt:.6g} \(grid point 1\)") as err:
                            run(cfg)
                    # no step is taken after the first state that cannot pass
                    assert over.index(True) == len(over) - 1
                    # grid point 1 is the result of step 0, as a filter abort counts
                    assert (err.value.step, err.value.seeds) == (0, ())

    @pytest.mark.parametrize("name", RK4_PROBLEMS)
    @pytest.mark.parametrize("grid", ["linspace", "offset-blocks"])
    def test_steppers_match_plain_rk4(self, name, grid, monkeypatch):
        problem, tabulated = RK4_PROBLEMS[name]
        spec, rho0 = problem()
        assert (spec.layout.total <= master.TABLE_MAX_DIM) == tabulated
        if grid == "linspace":
            t = np.linspace(0.0, 1.0, 201)
        else:  # 120 steps from t0 = 1e-3, checked in blocks of five states
            t = 1e-3 + np.arange(121) * ((1.0 - 1e-3) / 120)
            monkeypatch.setattr(master, "DIAG_BLOCK_BYTES", 5 * 16 * spec.layout.total**2)
        result = integrate_master(rho0, spec, t, store_states=True)
        want = plain_rk4(rho0, spec, t)
        assert_allclose(result.states, want, rtol=0, atol=1e-12)
        assert_allclose(result.min_eig, np.linalg.eigvalsh(want)[:, 0], rtol=0, atol=1e-12)
        assert np.array_equal(result.states, result.states.conj().swapaxes(1, 2))
        assert result.tr_drift.max() <= 1e-12

    @pytest.mark.parametrize("name", ["baseline-d2", "preset-d10", "crossover-d16"])
    def test_tabulated_step_is_the_applied_step(self, name, rng):
        # the map is read off the applied step, so the two agree per step up
        # to the order of summation; over 1,000 states at each of h = 1e-3,
        # 1e-2 and 0.1 (two rng seeds) the gaps measured at most 9.1e-16 (state)
        # and 1.7e-15 (trace) of the result's largest coordinate
        spec, _ = RK4_PROBLEMS[name][0]()
        d = spec.layout.total
        coords = master._HermitianCoordinates(d)
        gen = CompiledGenerator(spec)
        tabulated = master._tabulated_step(gen, coords, 1e-3)
        applied = master._applied_step(gen, coords, 1e-3)
        for _ in range(50):
            v = coords.read(unit_trace_hermitian(rng, d))
            (u, tr), (want, want_tr) = tabulated(v), applied(v)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(u - want)) <= 2e-15 * scale
            assert abs(tr - want_tr) <= 4e-15 * scale

    @pytest.mark.parametrize("name", ["preset-d10", "apply-d18"])
    def test_min_eig_is_one_stacked_call(self, name, monkeypatch):
        # the blocks checked on the helper thread give the bits of one
        # stacked eigvalsh over all states; 201 states in blocks of 40
        spec, rho0 = RK4_PROBLEMS[name][0]()
        monkeypatch.setattr(master, "DIAG_BLOCK_BYTES", 40 * 16 * spec.layout.total**2)
        result = integrate_master(rho0, spec, np.linspace(0.0, 1.0, 201), store_states=True)
        assert np.array_equal(result.min_eig, np.linalg.eigvalsh(result.states)[:, 0])

    @pytest.mark.parametrize("table_max_dim", [master.TABLE_MAX_DIM, 0])
    def test_abort_in_last_block(self, table_max_dim, monkeypatch):
        # half the preset's state mixed with I/d is positive definite, and at
        # dt = 0.3 it loses positivity slowly: grid point 17 is the first
        # below -POSITIVITY_ABORT while every v.v stays inside its bound.  In
        # blocks of five, 20 points put it in the fourth and last block, whose
        # check the run must collect before it returns
        monkeypatch.setattr(master, "TABLE_MAX_DIM", table_max_dim)  # 0: applied step
        cfg = preset("paper-fig4")
        model = build_probed_model(cfg)
        spec, d = generator_spec(model), model.layout.total
        rho0 = DensityMatrix(model.layout, 0.5 * augmented_initial_state(cfg.init_bloch, model.layout).entries
                             + 0.5 * np.eye(d) / d)
        t = 0.3 * np.arange(20)
        want = plain_rk4(rho0, spec, t)
        w = np.linalg.eigvalsh(want)[:, 0]
        assert np.flatnonzero(w < -master.POSITIVITY_ABORT)[0] == 17
        # the squared Frobenius norm bounds v.v from above
        assert np.all(np.sum(np.abs(want) ** 2, axis=(1, 2)) <= (1.0 + d * master.POSITIVITY_ABORT) ** 2)
        monkeypatch.setattr(master, "DIAG_BLOCK_BYTES", 5 * 16 * d**2)
        for store_states in (False, True):
            with pytest.raises(PositivityError, match=rf"t=5.1 \(grid point 17\) has eigenvalue {w[17]:.3e} ") as err:
                integrate_master(rho0, spec, t, store_states=store_states)
            assert (err.value.step, err.value.seeds) == (16, ())

    @pytest.mark.parametrize("name", ["preset-d10", "apply-d18"])
    def test_streamed_equals_stored(self, name, monkeypatch):
        # 101 states in blocks of 30, the last of 11: each block reduced in the
        # one reused buffer gives the bits of the stored stack, row for row
        spec, rho0 = RK4_PROBLEMS[name][0]()
        monkeypatch.setattr(master, "DIAG_BLOCK_BYTES", 30 * 16 * spec.layout.total**2)
        diagnose = master._diagnose

        def held(block, *args):
            # a check that outlasts the next block's steps: that block must
            # not be written into the buffer before this check is collected
            seen = block.copy()
            time.sleep(0.01)
            assert np.array_equal(block, seen)
            diagnose(block, *args)

        monkeypatch.setattr(master, "_diagnose", held)
        t = np.linspace(0.0, 1.0, 101)
        streamed = integrate_master(rho0, spec, t)
        stored = integrate_master(rho0, spec, t, store_states=True)
        assert streamed.states is None
        for field in ("bloch", "min_eig", "tr_drift"):
            assert np.array_equal(getattr(streamed, field), getattr(stored, field))
        assert np.array_equal(streamed.bloch,
                              readout(stored.states, readout_weights(spec.layout.dims)))
        assert np.array_equal(streamed.min_eig, np.linalg.eigvalsh(stored.states)[:, 0])

    def test_streamed_run_holds_no_state_stack(self):
        # a two-mode bank (d = 50) over 2,001 points, whose stored stack would
        # be 76.3 MiB; a streamed run peaked at 3.2 MiB when pinned
        spec, rho0 = preset_problem(5, extra_mode=True)
        t = np.linspace(0.0, 2.0, 2001)
        tracemalloc.start()
        try:
            integrate_master(rho0, spec, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20 < 16 * len(t) * spec.layout.total**2

    def test_layout_without_qubit_factor_rejected(self, rng):
        spec = GeneratorSpec(tagged(rand_hermitian(rng, 3)), ())
        with pytest.raises(ValueError, match="does not start with a qubit factor"):
            integrate_master(rand_density(rng, (3,)), spec, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("truncation", [5, 9])
    def test_weak_error_against_exact_propagator(self, truncation):
        # d = 10 steps by the tabulated map, d = 18 by generator applies
        spec, rho0 = preset_problem(truncation)
        layout = spec.layout

        def bloch_error(dt, steps):
            result = integrate_master(rho0, spec, dt * np.arange(steps + 1))
            prop = exact_propagator(spec, dt)
            exact = [rho0.entries.reshape(-1)]
            for _ in range(steps):
                exact.append(prop @ exact[-1])
            exact = np.array(exact).reshape(-1, layout.total, layout.total)
            exact_bloch = readout(exact, readout_weights(layout.dims))
            return float(np.max(np.abs(result.bloch - exact_bloch)))

        # errors measured when pinned: 2.0e-13 (d = 10) and 2.1e-13 (d = 18)
        # at dt = 1e-3, 1.12e-6 and 6.9e-8 at dt = 0.05 and 0.025 on both
        assert bloch_error(1e-3, 2000) <= 3e-13
        coarse, half = bloch_error(0.05, 40), bloch_error(0.025, 80)
        assert coarse <= 1.2e-6
        assert 15.0 <= coarse / half <= 17.5  # fourth order: 2^4

    def test_bad_grid_rejected(self, rng):
        spec = GeneratorSpec(tagged(np.zeros((2, 2))), ())
        rho0 = rand_density(rng, (2,))
        with pytest.raises(ValueError):
            integrate_master(rho0, spec, [0.0, 0.5, 0.5])
        with pytest.raises(ValueError, match="two times"):
            integrate_master(rho0, spec, [0.0])


#: two grids that step by more than one size, and how far their worst step is off
NON_UNIFORM = {
    "geometric": (np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 120)]), r"step 119 is 5\.77 h off"),
    "alternating": (np.concatenate([[0.0], np.cumsum(np.tile([1e-3, 3e-3], 4))]),
                    r"step 0 is 0\.5 h off"),
}


def step_deviation(t):
    """Largest |t[i+1] - t[i] - h| / h over a grid that ``grid_steps`` accepts."""
    t, h = grid_steps(t)
    return float(np.max(np.abs(np.diff(t) / h - 1.0)))


class TestGridSteps:
    # deviations measured when pinned, at 10^6 steps: 9.0e-11 (arange),
    # 8.2e-11 (linspace), 5.0e-11 (cumsum), 1.1e-9 offset to t0 = 100; and
    # 2.0e-7 for a t column printed to 12 digits, inside GRID_STEP_TOL = 1e-6
    @pytest.mark.parametrize("grid, bound", [
        (lambda n: np.arange(n + 1) * 1e-3, 1.1e-10),
        (lambda n: np.linspace(0.0, 1.0, n + 1), 1.1e-10),
        (lambda n: np.concatenate([[0.0], np.cumsum(np.full(n, 1e-3))]), 1.1e-10),
        (lambda n: np.linspace(100.0, 110.0, n + 1), 1.5e-9),
    ], ids=["arange", "linspace", "cumsum", "offset"])
    @pytest.mark.parametrize("n", [1, 1000, 10**6])
    def test_rounded_uniform_grids_accepted(self, grid, bound, n):
        assert step_deviation(grid(n)) <= bound

    def test_printed_time_column_accepted(self):
        # the t column of a CSV holds 12 significant digits
        t = np.array(["%.12g" % x for x in np.arange(10**5 + 1) * (1 / 30)], dtype=float)
        assert step_deviation(t) <= 2.1e-7

    def test_grid_and_its_check_hold_one_array_beside_the_grid(self):
        # 10^6 steps: a 7.63 MiB grid.  Measured peaks: time_grid 7.63 MiB
        # (the grid alone), grid_steps with the grid held 15.26 MiB
        tracemalloc.start()
        try:
            grid = time_grid(1000.0, 1e-3)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            grid_steps(grid)
            checked = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(grid, np.arange(10**6 + 1) * 1e-3)
        assert built <= 1.05 * grid.nbytes
        assert checked <= 2.05 * grid.nbytes

    def test_two_point_grid(self):
        t, h = grid_steps([0.25, 1.0])
        assert h == 0.75 and list(t) == [0.25, 1.0]

    @pytest.mark.parametrize("grid, message", [
        *NON_UNIFORM.values(),
        ([0.0, 1.0, float("nan"), 3.0], r"step 1 is nan h off"),
    ], ids=[*NON_UNIFORM, "nan"])
    def test_non_uniform_grid_named(self, grid, message):
        with pytest.raises(ValueError, match=rf"t_grid must be uniform: {message}"):
            grid_steps(grid)

    @pytest.mark.parametrize("grid", NON_UNIFORM)
    @pytest.mark.parametrize("entry", ["integrate", "simulate", "replay", "ensemble"])
    def test_entry_points_reject_non_uniform_grid(self, entry, grid):
        t, message = NON_UNIFORM[grid]
        rho0, spec, l_op = filter_ingredients(preset("paper-fig4"))
        run = {
            "integrate": lambda: integrate_master(rho0, spec, t),
            "simulate": lambda: simulate_trajectory(rho0, spec, l_op, t, seed=1),
            "replay": lambda: replay_filter(rho0, spec, l_op, np.zeros(len(t) - 1), t),
            "ensemble": lambda: ensemble_average(rho0, spec, l_op, t, 2, 0),
        }[entry]
        with pytest.raises(ValueError, match=rf"t_grid must be uniform: {message}"):
            run()

    @pytest.mark.parametrize("grid", [[0.0, 0.0], [1.0, 0.0], [0.0, float("nan")]])
    def test_non_increasing_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            grid_steps(grid)


class TestReduce:
    def test_product_state(self, rng):
        rho_a = rand_density(rng, (5,))
        lay = HilbertLayout((2, 5))
        q = DensityMatrix.from_bloch(1, 0, 0)
        joint = DensityMatrix(lay, np.kron(q.entries, rho_a.entries))
        assert_allclose(reduce_to_qubit(joint).entries, q.entries, atol=1e-12)

    def test_bloch_norm_bounded(self, rng):
        rho = rand_density(rng, (2, 4))
        x, y, z = reduce_to_qubit(rho).bloch()
        assert math.sqrt(x * x + y * y + z * z) <= 1 + 1e-10

    @pytest.mark.parametrize("dims", [(2,), (2, 3), (2, 3, 4)])
    def test_bloch_reductions_match_reshape_trace(self, rng, dims):
        layout = HilbertLayout(dims)
        states = np.stack([rand_density(rng, dims).entries for _ in range(4)])
        rest = layout.total // 2
        paulis = [qubit_operator(k) for k in ("pauli_x", "pauli_y", "pauli_z")]
        want = np.array([
            [np.trace(p @ np.trace(s.reshape(2, rest, 2, rest), axis1=1, axis2=3)).real
             for p in paulis]
            for s in states
        ])
        t = np.arange(len(states), dtype=float)
        stored = StoredStates(layout, master._HermitianCoordinates(layout.total).read(states))
        traj = Trajectory(t, None, stored, np.zeros(3), np.zeros(3), seed=0)
        singles = [reduce_to_qubit(DensityMatrix.wrap(layout, s)).bloch() for s in states]
        assert_allclose(readout(states, readout_weights(dims)), want, atol=1e-12)
        assert_allclose(conditional_qubit(traj), want, atol=1e-12)
        assert_allclose(singles, want, atol=1e-12)

    def test_qubit_bloch_row_independent_of_stack(self, rng):
        dims = (2, 5)
        states = np.stack([rand_density(rng, dims).entries for _ in range(64)])
        bloch = readout(states, readout_weights(dims))
        for i in range(len(states)):
            assert np.array_equal(bloch[i], readout(states[i:i + 1], readout_weights(dims))[0])

    def test_linearity(self, rng):
        lay = (2, 3)
        r1, r2 = rand_density(rng, lay), rand_density(rng, lay)
        alpha = 0.3
        mix = DensityMatrix(
            HilbertLayout(lay), alpha * r1.entries + (1 - alpha) * r2.entries
        )
        want = alpha * reduce_to_qubit(r1).entries + (1 - alpha) * reduce_to_qubit(r2).entries
        assert_allclose(reduce_to_qubit(mix).entries, want, atol=1e-12)


class TestMomentOracle:
    """<a(t)> of a mode decoupled from the qubit (kappa = 0), started in the
    bank ket (|0> + |1>)/sqrt(2), against exp(-(gamma/2 + i omega) t) <a(0)>."""

    @pytest.fixture(scope="class")
    def moments(self):
        mode = AncillaParams(omega=10.0, gamma=0.6, kappa=0.0, truncation=5)
        cfg = dataclasses.replace(preset("paper-fig4"), ancillas=(mode,), t_final=5.0)
        model = build_probed_model(cfg)
        bank = np.zeros((5, 5))
        bank[:2, :2] = 0.5
        rho0 = DensityMatrix(model.layout, np.kron(DensityMatrix.from_bloch(0, 0, 1).entries, bank))
        result = integrate_master(rho0, generator_spec(model), config_grid(cfg), store_states=True)
        return result.t_grid, np.einsum("ij,tji->t", np.kron(np.eye(2), ladder(5)), result.states)

    def test_t0(self, moments):
        assert moments[1][0] == pytest.approx(0.5, abs=1e-15)

    def test_scalar_value(self, moments):
        t, a = moments
        assert t[1000] == 1.0
        assert a[1000] == pytest.approx(0.5 * np.exp(-0.3 - 10j), abs=1e-8)

    def test_monotone_magnitude(self, moments):
        assert np.all(np.diff(np.abs(moments[1])) < 0)


class TestMarkovianBaseline:
    def test_sigma_x_rate_hand_value(self):
        # d<sx>/dt = -omega_q <sy> - 2 kappa <sx> from Pauli algebra;
        # the sigma_x probe channel leaves <sx> untouched; at kappa = 1 the
        # channel's sqrt(kappa) equals kappa, so a second kappa tells them apart
        gamma_q, omega_q = 0.8, 2.0
        rho = DensityMatrix.from_bloch(1, 0, 0)
        sx = qubit_operator("pauli_x")
        for kappa in (1.0, 0.7):
            bank = [AncillaParams(omega=2.0, gamma=0.6, kappa=kappa, sigma_kind="pauli_y")]
            spec = markovian_baseline_spec(omega_q, bank, gamma_q, "pauli_x")
            out = lindblad_apply(rho.entries, spec)
            rate = float(np.real(np.trace(sx @ out)))
            assert rate == pytest.approx(-2.0 * kappa)

    def test_pure_precession(self):
        rho = DensityMatrix.from_bloch(1, 0, 0)
        out = lindblad_apply(rho.entries, markovian_baseline_spec(2.0, (), 0.0, "pauli_x"))
        sz = qubit_operator("pauli_z")
        assert abs(np.trace(sz @ out)) < 1e-14

    def test_trace_preserved(self, rng):
        rho = rand_density(rng, (2,))
        bank = [AncillaParams(omega=1.0, gamma=0.5, kappa=1.0, sigma_kind="pauli_y")]
        out = lindblad_apply(rho.entries, markovian_baseline_spec(1.3, bank, 0.25, "pauli_x"))
        assert abs(np.trace(out)) < 1e-13

    def test_spec_builder_matches(self, rng):
        cfg = preset("paper-fig4")
        spec = markovian_baseline_spec(cfg.omega_q, cfg.ancillas, cfg.gamma_q,
                                       cfg.probe_kind)
        rho = rand_density(rng, (2,))
        via_spec = lindblad_apply(rho.entries, spec)
        hand = GeneratorSpec(
            tagged(0.5 * cfg.omega_q * qubit_operator("pauli_z")),
            (tagged(math.sqrt(1.0) * qubit_operator("pauli_y")),
             tagged(math.sqrt(0.8) * qubit_operator("pauli_x"))),
        )
        direct = lindblad_apply(rho.entries, hand)
        assert_allclose(via_spec, direct, atol=1e-14)


    def test_bank_reaches_markov_limit(self):
        # at fixed kappa a faster mode forgets sooner, so the qubit's
        # evolution approaches the memoryless baseline; the gaps are the
        # measured ones (RK4 at dt = 1e-3 is accurate to about 1e-12), and the
        # baseline with kappa in place of sqrt(kappa) reads 0.091, 0.079, 0.11
        base = dataclasses.replace(with_truncation(preset("paper-fig4"), 4), t_final=3.0)
        gaps = []
        for gamma in (5.0, 20.0, 80.0):
            mode = dataclasses.replace(base.ancillas[0], gamma=gamma, kappa=0.5)
            cfg = dataclasses.replace(base, ancillas=(mode,))
            gap = run_unconditional(cfg).bloch - run_baseline(cfg).bloch
            gaps.append(np.abs(gap).max())
        assert gaps[0] > gaps[1] > gaps[2]
        assert_allclose(gaps, [0.1700, 0.0776, 0.0241], rtol=0.01)


class TestInitialState:
    def test_product_layout(self):
        lay = HilbertLayout((2, 4))
        rho = augmented_initial_state((1, 0, 0), lay)
        red = reduce_to_qubit(rho)
        assert_allclose(red.bloch(), (1, 0, 0), atol=1e-12)
