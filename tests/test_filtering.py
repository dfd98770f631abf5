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
    _evolve,
    _readout_weights,
    conditional_qubit,
    ensemble_average,
    measurement_signal,
    replay_filter,
    simulate_trajectory,
    wiener_increments,
)
from nmqubit.master import CompiledGenerator, GeneratorSpec, PositivityError, generator_spec, integrate_master, lindblad_apply
from nmqubit.operators import (
    DensityMatrix,
    HilbertLayout,
    Operator,
    embed,
    expectation,
    make_standard_operator,
    partial_trace,
    qubit_bloch,
    readout,
)
from nmqubit.slh import qubit_operator

from conftest import bank2_model, rand_density


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
    def test_zero_noise_zero_probe_is_one_kraus_step(self, rng):
        # with dY = 0 and L = 0 a one-step replay is the Kraus map
        # (I + E dt) rho (I + E dt)^dag + dt sum_k N_k rho N_k^dag, i.e. an
        # Euler step of the master equation plus dt^2 E rho E^dag
        cfg = short_cfg()
        model = build_probed_model(dataclasses.replace(cfg, gamma_q=0.0))
        spec = generator_spec(model)
        zero_l = Operator.zero(model.layout)
        rho0 = rand_density(rng, model.layout.dims)
        dt = 1e-3
        new = replay_filter(rho0, spec, zero_l, [0.0], [0.0, dt])[-1]
        e = -1j * spec.hamiltonian.entries
        for op in spec.collapse_ops:
            e = e - 0.5 * (op.entries.conj().T @ op.entries)
        r = rho0.entries
        kraus = r + dt * lindblad_apply(r, spec) + dt * dt * (e @ r @ e.conj().T)
        kraus = kraus / np.trace(kraus).real
        assert_allclose(new.entries, kraus, atol=1e-14)

    def test_one_kraus_step_two_mode_shared_bank(self, rng):
        # one replayed step against the Kraus map written out with dense
        # products: M rho M^dag + dt N rho N^dag for the merged bank operator N,
        # M = I + E dt + dY L + (dY^2 - dt) L^2 / 2, normalized
        base = nq.with_truncation(nq.preset("paper-fig4"), 4)
        extra = dataclasses.replace(base.ancillas[0], omega=1.5, gamma=0.8, kappa=0.5)
        cfg = dataclasses.replace(base, ancillas=base.ancillas + (extra,), field_mode="shared")
        model = build_probed_model(cfg.validate())
        spec = generator_spec(model)
        l_op = model.couplings[model.probe_index]
        (bank,) = [op.entries for op in spec.collapse_ops
                   if not np.array_equal(op.entries, l_op.entries)]
        rho0 = rand_density(rng, model.layout.dims)
        dt, dy = 1e-3, 0.05
        new = replay_filter(rho0, spec, l_op, [dy], [0.0, dt])[-1]
        d = model.layout.total
        e = -1j * spec.hamiltonian.entries
        for op in spec.collapse_ops:
            e = e - 0.5 * (op.entries.conj().T @ op.entries)
        l = l_op.entries
        m = np.eye(d) + dt * e + dy * l + 0.5 * (dy * dy - dt) * (l @ l)
        r = rho0.entries
        want = m @ r @ m.conj().T + dt * (bank @ r @ bank.conj().T)
        want = want / np.trace(want).real
        assert_allclose(new.entries, want, rtol=0, atol=1e-14)

    def test_fused_step_batch_of_three(self, rng):
        # one replayed step of three paths, each with its own state and dY,
        # against the Kraus map written out with dense per-path products; the
        # sigma_y probe makes L complex and the shared bank merges two modes
        model = bank2_model("shared")
        spec = generator_spec(model)
        l = model.couplings[model.probe_index].entries
        (bank,) = [op.entries for op in spec.collapse_ops if not np.array_equal(op.entries, l)]
        rho0 = np.stack([rand_density(rng, model.layout.dims).entries for _ in range(3)])
        dt, dys = 1e-3, np.array([0.05, -0.03, 0.011])
        _, states, _, _ = _evolve(rho0, CompiledGenerator(spec), l, np.array([dt]),
                                  record=dys[:, None], store_states=True)
        d = model.layout.total
        e = -1j * spec.hamiltonian.entries
        for op in spec.collapse_ops:
            e = e - 0.5 * (op.entries.conj().T @ op.entries)
        for r, dy, got in zip(rho0, dys, states[:, 1]):
            m = np.eye(d) + dt * e + dy * l + 0.5 * (dy * dy - dt) * (l @ l)
            want = m @ r @ m.conj().T + dt * (bank @ r @ bank.conj().T)
            assert_allclose(got, want / np.trace(want).real, rtol=0, atol=1e-14)

    def test_readout_columns(self, rng):
        # the filter's one contraction: Bloch components of the reduced qubit,
        # then the signal tr[(L + L^dag) rho]
        model = bank2_model("shared")
        l = model.couplings[model.probe_index].entries
        states = [rand_density(rng, model.layout.dims) for _ in range(4)]
        out = readout(np.stack([s.entries for s in states]), _readout_weights(model.layout.dims, l))
        paulis = [make_standard_operator(k, 2).entries for k in ("pauli_x", "pauli_y", "pauli_z")]
        for row, s in zip(out, states):
            q = partial_trace(s, keep={0}).entries
            assert_allclose(row[:3], [np.trace(p @ q).real for p in paulis], rtol=0, atol=1e-14)
            assert_allclose(row[3], np.trace((l + l.conj().T) @ s.entries).real, rtol=0, atol=1e-14)
            assert_allclose(qubit_bloch(s.entries, s.layout.dims)[0], row[:3], rtol=0, atol=1e-14)

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

    @pytest.mark.parametrize("record, grid, t_abort", [
        ([0.0, 1e6], [5.0, 5.001, 5.002], "5.002"),
        ([1e6], [2.5, 2.501], "2.501"),
    ])
    def test_abort_names_grid_time(self, record, grid, t_abort):
        # the abort names the grid time of the failing step, not the time
        # elapsed since the first grid point
        cfg = short_cfg(init_bloch=(0.0, 0.0, 1.0))
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(PositivityError, match=rf"\(t={t_abort}\)"):
            replay_filter(rho0, spec, l_op, record, grid)

    def test_layout_without_qubit_factor(self):
        lay = HilbertLayout((3,))
        spec = GeneratorSpec(Operator.zero(lay), ())
        rho0 = DensityMatrix(lay, np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="qubit factor"):
            simulate_trajectory(rho0, spec, Operator.zero(lay), [0.0, 1e-3], seed=1)

    def test_probe_not_a_channel_rejected(self):
        # the unmonitored channels are the spec's collapse operators minus
        # the probe, so the probe must be one of them
        cfg = short_cfg()
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(ValueError, match="collapse operator"):
            replay_filter(rho0, spec, 2.0 * l_op, [0.0], [0.0, 1e-3])

    def test_wrapped_non_positive_initial_state_rejected(self):
        # the Kraus map only preserves positivity, so an unvalidated initial
        # state with a negative eigenvalue is refused at entry
        cfg = short_cfg()
        rho0, spec, l_op = filter_ingredients(cfg)
        w, v = np.linalg.eigh(rho0.entries)
        w[0], w[-1] = -1e-3, w[-1] + 1e-3
        bad = DensityMatrix.wrap(rho0.layout, (v * w) @ v.conj().T)
        with pytest.raises(ValueError, match="initial state"):
            replay_filter(bad, spec, l_op, [0.0], [0.0, 1e-3])


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


class TestQndOracle:
    def test_replay_matches_closed_form(self):
        # with every kappa = 0 the bank decouples and stays in vacuum; with
        # L = sqrt(g) sigma_z the unnormalized qubit state depends on the
        # record only through Y = sum dY:
        #   rho00 e^{2 sqrt(g) Y - 2 g t}, rho11 e^{-2 sqrt(g) Y - 2 g t},
        #   rho01 e^{-2 g t - i omega_q t}
        base = nq.preset("paper-fig4")
        cfg = dataclasses.replace(
            base,
            ancillas=tuple(dataclasses.replace(a, kappa=0.0) for a in base.ancillas),
            probe_kind="pauli_z", init_bloch=(0.6, 0.0, 0.8), t_final=2.0, dt=1e-3,
        ).validate()
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        g, t = cfg.gamma_q, grid[-1]
        x0, y0, z0 = cfg.init_bloch
        # the records of seeds 0-19, drawn in one batch
        dts = np.diff(grid)
        dw = np.stack([wiener_increments(s_, dts) for s_ in range(20)])
        batch = np.broadcast_to(rho0.entries, (20,) + rho0.entries.shape)
        _, _, records, _ = _evolve(batch, CompiledGenerator(spec), l_op.entries, dts,
                                   increments=dw, seeds=tuple(range(20)))
        errors = []
        for record in records:
            y = record.sum()
            p0 = 0.5 * (1 + z0) * math.exp(2 * math.sqrt(g) * y - 2 * g * t)
            p1 = 0.5 * (1 - z0) * math.exp(-2 * math.sqrt(g) * y - 2 * g * t)
            c = 0.5 * (x0 - 1j * y0) * np.exp(-2 * g * t - 1j * cfg.omega_q * t)
            want = np.array([2 * c.real, -2 * c.imag, p0 - p1]) / (p0 + p1)
            final = replay_filter(rho0, spec, l_op, record, grid)[-1]
            got = qubit_bloch(final.entries, final.layout.dims)
            errors.append(float(np.max(np.abs(got - want))))
        # Kraus step at dt = 1e-3: median 4.3e-5, max 8.7e-4 (Euler-Maruyama
        # plus repair gave 5.0e-4 and 9.0e-3); tighten, never loosen
        assert np.median(errors) <= 1e-4
        assert max(errors) <= 2e-3


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
        # only path 1 gets a huge kick, at step 22, and only its
        # normalization factor leaves the bound: the abort must name its
        # seed, not the seed of path 0
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
        # over 3000 steps, each path in a batch of ten must reproduce its
        # own single-trajectory run bit for bit
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
