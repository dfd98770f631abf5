import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nmqubit as nq
from nmqubit.experiments import (
    build_probed_model,
    config_grid,
    filter_ingredients,
    run_filter_trajectory,
    run_unconditional,
)
from nmqubit.filtering import (
    EnsembleError,
    UnsupportedModeError,
    _ensemble_worker,
    conditional_qubit,
    ensemble_average,
    measurement_signal,
    replay_filter,
    simulate_trajectory,
    sme_step,
    stochastic_gain,
    wiener_increments,
)
from nmqubit.master import GeneratorSpec, PositivityError, generator_spec, integrate_master
from nmqubit.operators import DensityMatrix, HilbertLayout, Operator, embed, expectation, make_standard_operator
from nmqubit.slh import qubit_operator

from conftest import rand_density


def short_cfg(t_final=0.5, **kw):
    cfg = dataclasses.replace(nq.preset("paper-fig4"), t_final=t_final, **kw)
    return cfg


class TestWienerIncrements:
    def test_deterministic(self):
        dts = np.full(100, 1e-3)
        assert_allclose(wiener_increments(7, dts), wiener_increments(7, dts))

    def test_seed_dependence(self):
        dts = np.full(100, 1e-3)
        assert not np.allclose(wiener_increments(7, dts), wiener_increments(8, dts))

    def test_scaling(self):
        dts = np.full(50000, 4e-3)
        dw = wiener_increments(3, dts)
        assert np.var(dw) == pytest.approx(4e-3, rel=0.05)


class TestSmeStep:
    def test_zero_noise_zero_probe_is_euler_step(self, rng):
        # with dW = 0 and L = 0 a step is one plain Euler step of the
        # deterministic master equation
        cfg = short_cfg()
        model = build_probed_model(dataclasses.replace(cfg, gamma_q=0.0))
        spec = generator_spec(model)
        zero_l = Operator.zero(model.layout)
        rho0 = rand_density(rng, model.layout.dims)
        dt = 1e-3
        new, dy = sme_step(rho0, spec, zero_l, dt, 0.0)
        from nmqubit.master import lindblad_apply

        euler = rho0.entries + dt * lindblad_apply(rho0.entries, spec)
        euler = euler / np.trace(euler).real
        assert_allclose(new.entries, euler, atol=1e-14)
        assert dy == 0.0

    def test_gain_traceless(self, rng):
        cfg = short_cfg()
        rho0, spec, l_op = filter_ingredients(cfg)
        rho = rand_density(rng, spec.layout.dims)
        out = stochastic_gain(rho, l_op)
        assert abs(np.trace(out)) < 1e-12

    def test_single_step_readout_value(self):
        # from the +x product state: tr[(L+L^dag) rho] = 2 sqrt(0.8)
        cfg = nq.preset("paper-fig4")
        rho0, spec, l_op = filter_ingredients(cfg)
        dt = 1e-3
        dw = math.sqrt(dt)
        new, dy = sme_step(rho0, spec, l_op, dt, dw)
        assert dy == pytest.approx(2 * math.sqrt(0.8) * dt + dw, rel=1e-12)

    def test_invalid_arguments(self):
        cfg = short_cfg()
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(ValueError):
            sme_step(rho0, spec, l_op, 0.0, 0.1)
        with pytest.raises(ValueError):
            sme_step(rho0, spec, l_op, 1e-3, float("nan"))

    def test_positivity_abort_on_huge_kick(self):
        # start away from the probe eigenbasis so the gain term is nonzero
        cfg = short_cfg(init_bloch=(0.0, 0.0, 1.0))
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(PositivityError):
            sme_step(rho0, spec, l_op, 1e-3, 1e6)


class TestTrajectory:
    def test_determinism(self):
        cfg = short_cfg()
        t1 = run_filter_trajectory(cfg, seed=5, store_states=True)
        t2 = run_filter_trajectory(cfg, seed=5, store_states=True)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.record, t2.record)
        assert np.array_equal(t1.innovations, t2.innovations)

    def test_zero_probe_matches_unconditional(self):
        # L = 0 carries no information; conditional equals unconditional
        cfg = short_cfg(gamma_q=0.0)
        traj = run_filter_trajectory(cfg, seed=11)
        uncond = run_unconditional(cfg).qubit_bloch()
        assert np.max(np.abs(traj.bloch - uncond)) < 5e-3  # Euler vs RK4 drift only

    def test_bookkeeping_identity_exact(self):
        cfg = short_cfg()
        traj = run_filter_trajectory(cfg, store_states=True)
        _, _, l_op = filter_ingredients(cfg)
        m = measurement_signal(traj.states[:-1], l_op)
        lhs = m * np.diff(traj.t_grid) + traj.innovations
        assert np.array_equal(lhs, traj.record)

    def test_innovation_statistics(self):
        cfg = nq.preset("paper-fig4")
        traj = run_filter_trajectory(cfg)
        dw = traj.innovations
        n = len(dw)
        dt = cfg.dt
        assert n == 10_000
        assert abs(np.mean(dw)) <= 3 * math.sqrt(dt / n)
        assert abs(np.var(dw) / dt - 1) <= 0.05

    def test_bloch_norm_bounded(self):
        cfg = short_cfg(t_final=2.0)
        traj = run_filter_trajectory(cfg, seed=3)
        norms = np.linalg.norm(traj.bloch, axis=1)
        assert norms.max() <= 1 + 1e-8


class TestReplay:
    def test_round_trip(self):
        cfg = short_cfg(t_final=2.0)
        traj = run_filter_trajectory(cfg, seed=9, store_states=True)
        rho0, spec, l_op = filter_ingredients(cfg)
        states = replay_filter(rho0, spec, l_op, traj.record, traj.t_grid)
        dev = max(
            float(np.max(np.abs(s.entries - traj.states[i])))
            for i, s in enumerate(states)
        )
        assert dev <= 1e-10

    def test_zero_probe_record_is_noise(self):
        cfg = short_cfg(gamma_q=0.0)
        traj = run_filter_trajectory(cfg, seed=13)
        assert np.array_equal(traj.record, traj.innovations)

    def test_corrupted_record_aborts(self):
        cfg = short_cfg()
        traj = run_filter_trajectory(cfg, seed=4)
        rho0, spec, l_op = filter_ingredients(cfg)
        bad = traj.record.copy()
        bad[100] += 1e6
        with pytest.raises(PositivityError):
            replay_filter(rho0, spec, l_op, bad, traj.t_grid)

    def test_length_mismatch(self):
        cfg = short_cfg()
        traj = run_filter_trajectory(cfg, seed=4)
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(ValueError):
            replay_filter(rho0, spec, l_op, traj.record[:-5], traj.t_grid)


class TestConditionalQubit:
    def test_matches_direct_expectations(self):
        cfg = short_cfg()
        traj = run_filter_trajectory(cfg, seed=21, store_states=True)
        bloch = conditional_qubit(traj)
        lay = traj.layout
        paulis = [embed(make_standard_operator(k, 2), 0, lay)
                  for k in ("pauli_x", "pauli_y", "pauli_z")]
        for idx in (0, len(traj.t_grid) // 2, -1):
            rho = DensityMatrix.wrap(lay, traj.states[idx])
            direct = [expectation(rho, p).real for p in paulis]
            assert_allclose(bloch[idx], direct, atol=1e-12)

    def test_initial_point_is_input_bloch(self):
        cfg = short_cfg()
        traj = run_filter_trajectory(cfg, seed=2, store_states=True)
        assert_allclose(conditional_qubit(traj)[0], cfg.init_bloch, atol=1e-12)

    def test_requires_states(self):
        cfg = short_cfg()
        traj = run_filter_trajectory(cfg, seed=2, store_states=False)
        with pytest.raises(UnsupportedModeError):
            conditional_qubit(traj)


class TestEnsemble:
    def test_zero_probe_mean_equals_unconditional(self):
        cfg = short_cfg(gamma_q=0.0)
        rho0, spec, l_op = filter_ingredients(cfg)
        ens = ensemble_average(rho0, spec, l_op, config_grid(cfg), 2, 100)
        uncond = run_unconditional(cfg).qubit_bloch()
        # trajectories are seed-independent here, so stderr vanishes
        assert np.max(ens.stderr) < 1e-12
        assert np.max(np.abs(ens.mean - uncond)) < 5e-3

    def test_worker_partition_invariance(self):
        cfg = short_cfg(t_final=0.2)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        a = ensemble_average(rho0, spec, l_op, grid, 12, 40, workers=1, batch_size=5)
        b = ensemble_average(rho0, spec, l_op, grid, 12, 40, workers=2, batch_size=5)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_stderr_scaling(self):
        cfg = short_cfg(t_final=1.0)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        small = ensemble_average(rho0, spec, l_op, grid, 40, 500)
        big = ensemble_average(rho0, spec, l_op, grid, 80, 500)
        # doubling n_traj shrinks the late-time stderr by about 1/sqrt(2)
        idx = len(grid) // 2
        ratio = np.mean(big.stderr[idx:] / np.maximum(small.stderr[idx:], 1e-30))
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.2)

    def test_seed_bookkeeping(self):
        cfg = short_cfg(t_final=0.1)
        rho0, spec, l_op = filter_ingredients(cfg)
        ens = ensemble_average(rho0, spec, l_op, config_grid(cfg), 3, 42)
        assert ens.seeds == (42, 43, 44)
        assert ens.n_traj == 3

    def test_n_traj_minimum(self):
        cfg = short_cfg(t_final=0.1)
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(ValueError):
            ensemble_average(rho0, spec, l_op, config_grid(cfg), 1, 42)

    def test_failures_reported_with_seeds(self):
        # a huge dt makes every trajectory abort; the error must name seeds
        cfg = dataclasses.replace(nq.preset("paper-fig4"), dt=0.4, t_final=8.0)
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(EnsembleError) as err:
            ensemble_average(rho0, spec, l_op, config_grid(cfg), 4, 7)
        assert len(err.value.failing_seeds) >= 1
        assert all(7 <= s <= 10 for s in err.value.failing_seeds)


class TestEngineConsistency:
    def test_batched_matches_single(self):
        # one trajectory simulated alone and inside a batch must agree
        cfg = short_cfg(t_final=0.3)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        single = simulate_trajectory(rho0, spec, l_op, grid, seed=60)
        dts = np.diff(grid)
        idx, s, sq, failed = _ensemble_worker(
            (0, rho0.entries, spec, l_op, dts, (60, 61, 62))
        )
        three = [simulate_trajectory(rho0, spec, l_op, grid, seed=s_) for s_ in (60, 61, 62)]
        total = sum(t.bloch for t in three)
        assert not failed
        assert np.max(np.abs(s - total)) < 1e-12
        assert np.max(np.abs(single.bloch - three[0].bloch)) == 0.0
