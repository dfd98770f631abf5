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
    CLIP_SCREEN,
    EnsembleError,
    UnsupportedModeError,
    _ensemble_worker,
    _evolve,
    _failing_paths,
    conditional_qubit,
    ensemble_average,
    measurement_signal,
    replay_filter,
    simulate_trajectory,
    wiener_increments,
)
from nmqubit.master import CompiledGenerator, GeneratorSpec, PositivityError, generator_spec, integrate_master, lindblad_apply
from nmqubit.operators import DensityMatrix, HilbertLayout, Operator, embed, expectation, make_standard_operator
from nmqubit.slh import qubit_operator

from conftest import rand_density, rand_hermitian


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
        # with dY = 0 and L = 0 a one-step replay is one plain Euler step of
        # the deterministic master equation
        cfg = short_cfg()
        model = build_probed_model(dataclasses.replace(cfg, gamma_q=0.0))
        spec = generator_spec(model)
        zero_l = Operator.zero(model.layout)
        rho0 = rand_density(rng, model.layout.dims)
        dt = 1e-3
        new = replay_filter(rho0, spec, zero_l, [0.0], [0.0, dt])[-1]
        euler = rho0.entries + dt * lindblad_apply(rho0.entries, spec)
        euler = euler / np.trace(euler).real
        assert_allclose(new.entries, euler, atol=1e-14)

    def test_single_step_readout_value(self):
        # from the +x product state: tr[(L+L^dag) rho] = 2 sqrt(0.8)
        cfg = nq.preset("paper-fig4")
        rho0, spec, l_op = filter_ingredients(cfg)
        m = measurement_signal(rho0.entries[None], l_op)[0]
        assert m == pytest.approx(2 * math.sqrt(0.8), rel=1e-12)
        dt = 1e-3
        traj = simulate_trajectory(rho0, spec, l_op, [0.0, dt], seed=1)
        assert traj.record[0] == m * dt + traj.innovations[0]

    def test_invalid_arguments(self):
        cfg = short_cfg()
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(ValueError):
            replay_filter(rho0, spec, l_op, [0.1], [0.0, 0.0])
        with pytest.raises(ValueError):
            replay_filter(rho0, spec, l_op, [float("nan")], [0.0, 1e-3])

    def test_positivity_abort_on_huge_kick(self):
        # start away from the probe eigenbasis so the gain term is nonzero
        cfg = short_cfg(init_bloch=(0.0, 0.0, 1.0))
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(PositivityError):
            replay_filter(rho0, spec, l_op, [1e6], [0.0, 1e-3])

    def test_layout_without_qubit_factor(self):
        lay = HilbertLayout((3,))
        spec = GeneratorSpec(Operator.zero(lay), ())
        rho0 = DensityMatrix(lay, np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="qubit factor"):
            simulate_trajectory(rho0, spec, Operator.zero(lay), [0.0, 1e-3], seed=1)


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_record_rejected(self, value):
        cfg = short_cfg()
        traj = run_filter_trajectory(cfg, seed=4)
        rho0, spec, l_op = filter_ingredients(cfg)
        bad = traj.record.copy()
        bad[10] = value
        with pytest.raises(ValueError, match="step 10"):
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
        s, sq, failed = _ensemble_worker((rho0.entries, spec, l_op, dts, (60, 61, 62)))
        three = [simulate_trajectory(rho0, spec, l_op, grid, seed=s_) for s_ in (60, 61, 62)]
        total = sum(t.bloch for t in three)
        assert not failed
        assert np.max(np.abs(s - total)) < 1e-12
        assert np.max(np.abs(single.bloch - three[0].bloch)) == 0.0

    def test_abort_seeds_map_through_failing_subset(self):
        # only path 1 gets a huge kick, at step 22, where path 0 passes the
        # positivity screen: path 1 is then index 0 of the repaired subset,
        # and the abort must name its seed, not the seed of path 0
        cfg = nq.preset("paper-fig4")
        rho0, spec, l_op = filter_ingredients(cfg)
        seeds = (60, 61, 62)
        dts = np.full(50, cfg.dt)
        dw = np.stack([wiener_increments(s_, dts) for s_ in seeds])
        dw[1, 22] = 1e6
        batch = np.broadcast_to(rho0.entries, (3,) + rho0.entries.shape)
        with pytest.raises(PositivityError) as err:
            _evolve(batch, CompiledGenerator(spec), l_op.entries, dts,
                    increments=dw, seeds=seeds)
        assert err.value.seeds == (61,)
        assert err.value.step == 22

    def test_path_independent_of_batch_mates(self):
        # repairs fire over 3000 steps; each path in a batch of ten must
        # reproduce its own single-trajectory run bit for bit
        cfg = nq.preset("paper-fig4")
        rho0, spec, l_op = filter_ingredients(cfg)
        seeds = tuple(range(60, 70))
        grid = cfg.dt * np.arange(3001)
        dts = np.diff(grid)
        dw = np.stack([wiener_increments(s_, dts) for s_ in seeds])
        batch = np.broadcast_to(rho0.entries, (len(seeds),) + rho0.entries.shape)
        bloch, _, _, _ = _evolve(batch, CompiledGenerator(spec), l_op.entries, dts,
                                 increments=dw, seeds=seeds)
        for row, s_ in zip(bloch, seeds):
            single = simulate_trajectory(rho0, spec, l_op, grid, seed=s_)
            assert np.max(np.abs(row - single.bloch)) == 0.0


class TestFailingPaths:
    @pytest.mark.parametrize("shift", [0.0, CLIP_SCREEN])
    def test_matches_per_matrix_cholesky(self, rng, shift):
        # the private batched kernel must flag exactly the matrices that the
        # public np.linalg.cholesky rejects one at a time
        d = 10
        lowest = [0.1, -1e-3, 0.1, 0.1, -1e-3, 0.0, 0.1, -1e-3]
        mats = []
        for w0 in lowest:
            w, v = np.linalg.eigh(rand_hermitian(rng, d))
            w = np.abs(w) + 0.1
            w[0] = w0
            mats.append((v * w) @ v.conj().T)
        a = np.stack(mats) + shift * np.eye(d)

        expected = []
        for j, m in enumerate(a):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                expected.append(j)
        assert {1, 4, 7} <= set(expected) <= {1, 4, 5, 7}
        assert _failing_paths(a).tolist() == expected
