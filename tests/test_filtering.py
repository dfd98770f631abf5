import dataclasses
import math
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nmqubit import filtering
from nmqubit.config import preset, with_truncation
from nmqubit.experiments import (
    build_probed_model,
    config_grid,
    filter_ingredients,
    run_filter_trajectory,
    run_unconditional,
)
from nmqubit.filtering import (
    StoredStates,
    UnsupportedModeError,
    _ensemble_worker,
    _evolve,
    conditional_qubit,
    ensemble_average,
    replay_filter,
    simulate_trajectory,
    wiener_increments,
)
from nmqubit.master import (
    CompiledGenerator,
    PositivityError,
    generator_spec,
    DIAG_BLOCK_BYTES,
    JumpGather,
    _HermitianCoordinates,
    grid_steps,
    integrate_master,
    lindblad_apply,
)
from nmqubit.operators import (
    DensityMatrix, HilbertLayout, LayoutMismatchError, Operator, readout,
    readout_weights,
)
from nmqubit.slh import AncillaParams, GeneratorSpec, qubit_operator

from conftest import bank2_model, rand_density, reduce_ref, tagged
from test_bank_oracle import coherence_factor


def short_cfg(t_final=0.5, **kw):
    cfg = dataclasses.replace(preset("paper-fig4"), t_final=t_final, **kw)
    return cfg


def stored_trajectory(cfg, seed):
    """The filter path of ``cfg`` from ``seed``, with its states stored."""
    rho0, spec, l_op = filter_ingredients(cfg)
    return simulate_trajectory(rho0, spec, l_op, config_grid(cfg), seed, store_states=True)


class TestWienerIncrements:
    def test_deterministic(self):
        assert_allclose(wiener_increments(7, 100, 1e-3), wiener_increments(7, 100, 1e-3))

    def test_seed_dependence(self):
        assert not np.allclose(wiener_increments(7, 100, 1e-3), wiener_increments(8, 100, 1e-3))

    def test_scaling(self):
        dw = wiener_increments(3, 50000, 4e-3)
        assert np.var(dw) == pytest.approx(4e-3, rel=0.05)


class TestSmeStep:
    def test_zero_noise_zero_probe_is_one_kraus_step(self, rng):
        # with dY = 0 and L = 0 a one-step replay is the Kraus map
        # (I + E dt) rho (I + E dt)^dag + dt sum_k N_k rho N_k^dag, i.e. an
        # Euler step of the master equation plus dt^2 E rho E^dag
        cfg = short_cfg()
        model = build_probed_model(dataclasses.replace(cfg, gamma_q=0.0))
        spec = generator_spec(model)
        zero_l = Operator(model.layout, np.zeros((model.layout.total,) * 2))
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
        base = with_truncation(preset("paper-fig4"), 4)
        extra = dataclasses.replace(base.ancillas[0], omega=1.5, gamma=0.8, kappa=0.5)
        cfg = dataclasses.replace(base, ancillas=base.ancillas + (extra,), field_mode="shared")
        model = build_probed_model(cfg.validate())
        spec = generator_spec(model)
        l_op = model.collapse_ops[model.probe_index]
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
        l = model.collapse_ops[model.probe_index].entries
        (bank,) = [op.entries for op in spec.collapse_ops if not np.array_equal(op.entries, l)]
        rho0 = np.stack([rand_density(rng, model.layout.dims).entries for _ in range(3)])
        dt, dys = 1e-3, np.array([0.05, -0.03, 0.011])
        _, coords, _ = _evolve(rho0, CompiledGenerator(spec), l, dt,
                               record=dys[:, None], store_states=True)
        states = np.array([StoredStates(model.layout, c) for c in coords])
        d = model.layout.total
        e = -1j * spec.hamiltonian.entries
        for op in spec.collapse_ops:
            e = e - 0.5 * (op.entries.conj().T @ op.entries)
        for r, dy, got in zip(rho0, dys, states[:, 1]):
            m = np.eye(d) + dt * e + dy * l + 0.5 * (dy * dy - dt) * (l @ l)
            want = m @ r @ m.conj().T + dt * (bank @ r @ bank.conj().T)
            assert_allclose(got, want / np.trace(want).real, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("bank, d", [("fig4", 10), ("bank2-shared", 50)])
    def test_one_step_is_the_dense_kraus_map(self, rng, bank, d, b):
        # M rho M^dag is taken as (rho M^dag)^dag M^dag on interleaved real
        # views, which holds for an exactly Hermitian rho: one step from such
        # states, alone (scalar dY and trace) and as a batch of two, against
        # M rho M^dag + dt sum_k N_k rho N_k^dag written out densely.  The
        # two-mode bank at truncation 5 probes through sigma_y, so L is complex
        base = preset("paper-fig4")
        if bank != "fig4":
            extra = dataclasses.replace(base.ancillas[0], omega=1.5, gamma=0.8, kappa=0.5)
            base = with_truncation(dataclasses.replace(
                base, ancillas=base.ancillas + (extra,), field_mode="shared",
                probe_kind="pauli_y"), 5)
        model = build_probed_model(base.validate())
        spec = generator_spec(model)
        assert model.layout.total == d
        l = model.collapse_ops[model.probe_index].entries
        jumps = [op.entries for op in spec.collapse_ops if not np.array_equal(op.entries, l)]
        rho0 = np.stack([rand_density(rng, model.layout.dims).entries for _ in range(b)])
        rho0 = 0.5 * (rho0 + rho0.conj().swapaxes(1, 2))
        assert np.array_equal(rho0, rho0.conj().swapaxes(1, 2))
        dt, dys = 1e-3, np.array([[0.05], [-0.03]])[:b]
        _, coords, _ = _evolve(rho0, CompiledGenerator(spec), l, dt, record=dys,
                               store_states=True)
        e = -1j * spec.hamiltonian.entries
        for op in spec.collapse_ops:
            e = e - 0.5 * (op.entries.conj().T @ op.entries)
        for r, (dy,), c in zip(rho0, dys, coords):
            m = np.eye(d) + dt * e + dy * l + 0.5 * (dy * dy - dt) * (l @ l)
            want = m @ r @ m.conj().T + dt * sum(n @ r @ n.conj().T for n in jumps)
            got = np.asarray(StoredStates(model.layout, c[1:]))[0]
            assert_allclose(got, want / np.trace(want).real, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("bank", ["fig4", "bank2-shared"])
    def test_eight_steps_batch_of_three(self, rng, bank):
        # a replay of three paths over eight steps of 3e-3: every step is the
        # dense Kraus map, so jump weights or E not scaled by dt fail it.  The
        # preset's jump gather has one row, the shared two-mode bank's two.
        model = (build_probed_model(preset("paper-fig4")) if bank == "fig4"
                 else bank2_model("shared"))
        spec = generator_spec(model)
        l = model.collapse_ops[model.probe_index].entries
        jumps = [op.entries for op in spec.collapse_ops if not np.array_equal(op.entries, l)]
        rho0 = np.stack([rand_density(rng, model.layout.dims).entries for _ in range(3)])
        dt = 3e-3
        dys = rng.normal(size=(3, 8)) * np.sqrt(dt)
        _, coords, _ = _evolve(rho0, CompiledGenerator(spec), l, dt, record=dys,
                               store_states=True)
        states = np.array([StoredStates(model.layout, c) for c in coords])
        d = model.layout.total
        e = -1j * spec.hamiltonian.entries
        for op in spec.collapse_ops:
            e = e - 0.5 * (op.entries.conj().T @ op.entries)
        for path, path_dys in zip(states, dys):
            for r, got, dy in zip(path[:-1], path[1:], path_dys):
                m = np.eye(d) + dt * e + dy * l + 0.5 * (dy * dy - dt) * (l @ l)
                want = m @ r @ m.conj().T + dt * sum(n @ r @ n.conj().T for n in jumps)
                assert_allclose(got, want / np.trace(want).real, rtol=0, atol=1e-13)

    def test_readout_columns(self, rng):
        # the filter's one contraction: Bloch components of the reduced qubit,
        # then the signal tr[(L + L^dag) rho]
        model = bank2_model("shared")
        l = model.collapse_ops[model.probe_index].entries
        states = [rand_density(rng, model.layout.dims) for _ in range(4)]
        out = readout(np.stack([s.entries for s in states]), readout_weights(model.layout.dims, l + l.conj().T))
        paulis = [qubit_operator(k) for k in ("pauli_x", "pauli_y", "pauli_z")]
        for row, s in zip(out, states):
            q = reduce_ref(s.entries)
            assert_allclose(row[:3], [np.trace(p @ q).real for p in paulis], rtol=0, atol=1e-14)
            assert_allclose(row[3], np.trace((l + l.conj().T) @ s.entries).real, rtol=0, atol=1e-14)
            assert_allclose(readout(s.entries, readout_weights(s.layout.dims))[0], row[:3],
                            rtol=0, atol=1e-14)

    def test_single_step_readout_value(self):
        # from the +x product state: tr[(L+L^dag) rho] = 2 sqrt(0.8)
        cfg = preset("paper-fig4")
        rho0, spec, l_op = filter_ingredients(cfg)
        m = readout(rho0.entries[None], readout_weights(l_op.layout.dims, l_op.entries + l_op.entries.conj().T))[0, 3]
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

    def test_trace_below_lower_bound_aborts(self):
        # from the +x eigenstate of L = sqrt(g) sigma_x, dY = -1/sqrt(g) makes
        # M act as 1/2 - g dt, so the trace falls to about 1/4 - g dt, below
        # 1/NORM_BOUND
        cfg = short_cfg()
        rho0, spec, l_op = filter_ingredients(cfg)
        assert cfg.init_bloch == (1.0, 0.0, 0.0) and cfg.probe_kind == "pauli_x"
        message = r"factor 2\.42\de-01 outside \[1/4, 4\] after step 0"
        with pytest.raises(PositivityError, match=message):
            replay_filter(rho0, spec, l_op, [-1 / math.sqrt(cfg.gamma_q)], [0.0, 1e-2])

    def test_trace_below_lower_bound_aborts_in_a_batch(self):
        # the same kick at row 1 of a batch of three, whose other rows stay
        # in the bound: the batched loop's check names row 1's seed
        cfg = short_cfg()
        rho0, spec, l_op = filter_ingredients(cfg)
        record = np.zeros((3, 1))
        record[1, 0] = -1 / math.sqrt(cfg.gamma_q)
        batch = np.broadcast_to(rho0.entries, (3,) + rho0.entries.shape)
        message = r"factor 2\.42\de-01 outside \[1/4, 4\] after step 0"
        with pytest.raises(PositivityError, match=message) as err:
            _evolve(batch, CompiledGenerator(spec), l_op.entries, 1e-2, record=record,
                    seeds=(5, 6, 7))
        assert err.value.seeds == (6,)

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
        zero = tagged(np.zeros((3, 3)))
        spec = GeneratorSpec(zero, ())
        rho0 = DensityMatrix(zero.layout, np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="qubit factor"):
            simulate_trajectory(rho0, spec, zero, [0.0, 1e-3], seed=1)

    def test_probe_not_a_channel_rejected(self):
        # the unmonitored channels are the spec's collapse operators minus
        # the probe, so the probe must be one of them
        cfg = short_cfg()
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(ValueError, match="collapse operator"):
            replay_filter(rho0, spec, Operator(l_op.layout, 2.0 * l_op.entries), [0.0], [0.0, 1e-3])

    @pytest.mark.parametrize("entry", ["simulate", "replay", "ensemble"])
    def test_initial_state_on_another_layout_rejected(self, entry):
        # the preset's model is on (2, 5): its state on (10,) has the right
        # size, and a qubit-only state failed on a bare IndexError
        rho0, spec, l_op = filter_ingredients(short_cfg())
        t = [0.0, 1e-3]
        run = {
            "simulate": lambda r: simulate_trajectory(r, spec, l_op, t, seed=1),
            "replay": lambda r: replay_filter(r, spec, l_op, [0.0], t),
            "ensemble": lambda r: ensemble_average(r, spec, l_op, t, 2, 0),
        }[entry]
        for bad in (DensityMatrix(HilbertLayout((10,)), rho0.entries),
                    DensityMatrix.from_bloch(1.0, 0.0, 0.0)):
            with pytest.raises(LayoutMismatchError, match=r"state layout \((10,|2,)\)"):
                run(bad)

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
        t1 = stored_trajectory(cfg, 5)
        t2 = stored_trajectory(cfg, 5)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.record, t2.record)
        assert np.array_equal(t1.innovations, t2.innovations)

    def test_zero_probe_matches_unconditional(self):
        # L = 0 carries no information; conditional equals unconditional
        cfg = short_cfg(gamma_q=0.0, base_seed=11)
        traj = run_filter_trajectory(cfg)
        uncond = run_unconditional(cfg).bloch
        assert np.max(np.abs(traj.bloch - uncond)) < 5e-3  # Euler vs RK4 drift only

    def test_bookkeeping_identity_exact(self):
        # the record is m dt + dW with the filter's own signal m before each
        # step, bit for bit, and the stored states give back the filter's
        # Bloch columns bit for bit.  The stored states are the Hermitian
        # parts of the propagated ones, while m reads both triangles, so the
        # stored states give back m only to round-off: 3.3e-15 measured on
        # this path, bound 1e-14, where a signal one step late is at least
        # 3.8e-6 off
        cfg = short_cfg()
        traj = stored_trajectory(cfg, cfg.base_seed)
        rho0, spec, l_op = filter_ingredients(cfg)
        dt = grid_steps(traj.t_grid)[1]
        _, _, signal = _evolve(rho0.entries[None], CompiledGenerator(spec), l_op.entries, dt,
                               increments=traj.innovations[None])
        assert np.array_equal(signal[0] * dt + traj.innovations, traj.record)
        assert np.array_equal(conditional_qubit(traj), traj.bloch)
        # the Bloch columns are a contiguous array of their own, which does
        # not keep the filter's readout buffer (and its signal column) alive
        assert traj.bloch.flags.c_contiguous and traj.bloch.base is None
        m = readout(traj.states[:-1], readout_weights(l_op.layout.dims, l_op.entries + l_op.entries.conj().T))[:, 3]
        assert np.max(np.abs(m - signal[0])) <= 1e-14

    def test_innovation_statistics(self):
        cfg = preset("paper-fig4")
        traj = run_filter_trajectory(cfg)
        dw = traj.innovations
        n = len(dw)
        dt = cfg.dt
        assert n == 10_000
        assert abs(np.mean(dw)) <= 3 * math.sqrt(dt / n)
        assert abs(np.var(dw) / dt - 1) <= 0.05

    def test_bloch_norm_bounded(self):
        cfg = short_cfg(t_final=2.0, base_seed=3)
        traj = run_filter_trajectory(cfg)
        norms = np.linalg.norm(traj.bloch, axis=1)
        assert norms.max() <= 1 + 1e-8


class TestReplay:
    def test_round_trip(self):
        cfg = short_cfg(t_final=2.0)
        traj = stored_trajectory(cfg, 9)
        rho0, spec, l_op = filter_ingredients(cfg)
        states = replay_filter(rho0, spec, l_op, traj.record, traj.t_grid)
        dev = max(
            float(np.max(np.abs(s.entries - traj.states[i].entries)))
            for i, s in enumerate(states)
        )
        assert dev <= 1e-10

    def test_states_are_read_only_and_the_coordinate_stack_written_out(self):
        cfg = short_cfg(t_final=0.05, base_seed=9)
        traj = run_filter_trajectory(cfg)
        rho0, spec, l_op = filter_ingredients(cfg)
        states = replay_filter(rho0, spec, l_op, traj.record, traj.t_grid)
        assert isinstance(states, StoredStates) and len(states) == len(traj.t_grid)
        assert not any(s.entries.flags.writeable for s in (states[0], states[-1], *states))
        _, coords, _ = _evolve(rho0.entries[None], CompiledGenerator(spec), l_op.entries,
                               grid_steps(traj.t_grid)[1], record=traj.record[None],
                               store_states=True)
        assert np.array_equal(states.coords, coords[0])
        d = spec.layout.total
        written = _HermitianCoordinates(d).write(coords[0], np.empty((len(states), d, d), dtype=complex))
        assert np.array_equal([s.entries for s in states], written)

    def test_zero_probe_record_is_noise(self):
        cfg = short_cfg(gamma_q=0.0, base_seed=13)
        traj = run_filter_trajectory(cfg)
        assert np.array_equal(traj.record, traj.innovations)

    def test_corrupted_record_aborts(self):
        cfg = short_cfg(base_seed=4)
        traj = run_filter_trajectory(cfg)
        rho0, spec, l_op = filter_ingredients(cfg)
        bad = traj.record.copy()
        bad[100] += 1e6
        with pytest.raises(PositivityError):
            replay_filter(rho0, spec, l_op, bad, traj.t_grid)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_record_rejected(self, value):
        cfg = short_cfg(base_seed=4)
        traj = run_filter_trajectory(cfg)
        rho0, spec, l_op = filter_ingredients(cfg)
        bad = traj.record.copy()
        bad[10] = value
        with pytest.raises(ValueError, match="step 10"):
            replay_filter(rho0, spec, l_op, bad, traj.t_grid)

    def test_length_mismatch(self):
        cfg = short_cfg(base_seed=4)
        traj = run_filter_trajectory(cfg)
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(ValueError):
            replay_filter(rho0, spec, l_op, traj.record[:-5], traj.t_grid)


class TestStoredStates:
    def test_items_iteration_and_array_agree(self):
        # 1501 states at d = 10: two whole blocks of 655 and a partial one
        cfg = short_cfg(t_final=1.5)
        traj = stored_trajectory(cfg, 3)
        states = traj.states
        d = traj.states.layout.total
        block = DIAG_BLOCK_BYTES // (16 * d * d)
        assert len(states) == 1501 and len(states) > block and len(states) % block
        stack = np.asarray(states)
        assert stack.shape == (1501, d, d) and stack.dtype == complex
        iterated = list(states)
        assert len(iterated) == len(states)
        assert np.array_equal([s.entries for s in iterated], stack)
        for i in (0, block - 1, block, 2 * block, len(states) - 1, -1, -len(states)):
            item = states[i]
            assert item.layout == traj.states.layout and not item.entries.flags.writeable
            assert np.array_equal(item.entries, stack[i])
        assert np.array_equal(states[np.int64(-1)].entries, iterated[-1].entries)
        for s in (iterated[0], iterated[block], iterated[-1]):
            assert not s.entries.flags.writeable and not s.entries.base.flags.writeable
        for i in (len(states), -len(states) - 1):
            with pytest.raises(IndexError):
                states[i]
        # a slice is a StoredStates on a view of the same coordinates
        for sl in (slice(None, -1), slice(block - 2, 2 * block + 3), slice(None, None, -7)):
            part = states[sl]
            assert isinstance(part, StoredStates) and np.shares_memory(part.coords, states.coords)
            assert len(part) == len(range(len(states))[sl])
            assert np.array_equal(np.asarray(part), stack[sl])
            assert np.array_equal([s.entries for s in part], stack[sl])

    def test_stored_states_are_the_propagated_states_hermitian_parts(self, rng):
        # under a zero generator and a zero probe M = I, so every propagated
        # state is the Hermitian part (m + m^dag) / 2 that the filter takes
        # of rho0 at entry, bit for bit; rho0 is Hermitian only to 1e-13
        layout = HilbertLayout((2, 2))
        zero = Operator(layout, np.zeros((4, 4)))
        spec = GeneratorSpec(zero, (zero,))
        m = 0.01 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m += m.conj().T
        m[np.diag_indices(4)] = [0.5 + 1e-13j, 0.25, 0.125, 0.125]
        upper = np.triu(np.ones((4, 4), dtype=bool))
        m[~upper] += 1e-13 * (1 + 1j)
        rho0 = DensityMatrix(layout, m)
        assert not np.array_equal(m, m.conj().T) and np.trace(m).real == 1.0
        traj = simulate_trajectory(rho0, spec, zero, np.linspace(0.0, 0.01, 11), seed=2,
                                   store_states=True)
        want = 0.5 * (m + m.conj().T)
        stack = np.asarray(traj.states)
        assert np.array_equal(stack, np.broadcast_to(want, stack.shape))
        assert np.array_equal(stack, stack.conj().swapaxes(1, 2))

    def test_replay_holds_half_the_complex_stack(self):
        # the replay keeps (n + 1) d^2 reals, half the bytes of the complex
        # states: 3001 states at d = 10 held 0.503 of the complex stack and
        # peaked at 0.529 when pinned (1.118 and 1.138 with complex states)
        cfg = short_cfg(t_final=3.0)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        record = np.zeros(len(grid) - 1)
        replay_filter(rho0, spec, l_op, record[:10], grid[:11])  # first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            states = replay_filter(rho0, spec, l_op, record, grid)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        complex_stack = len(grid) * spec.layout.total ** 2 * 16
        assert len(states) == len(grid)
        assert (held - base) / complex_stack <= 0.55
        assert (peak - base) / complex_stack <= 0.6


def qnd_config(ancillas):
    return dataclasses.replace(
        preset("paper-fig4"), ancillas=ancillas, truncation=ancillas[0].truncation,
        probe_kind="pauli_z", init_bloch=(0.6, 0.0, 0.8), t_final=2.0, dt=1e-3,
    ).validate()


def seed_records(rho0, spec, l_op, grid):
    """The records of seeds 0-19, drawn in one batch."""
    _, dt = grid_steps(grid)
    dw = np.stack([wiener_increments(s_, len(grid) - 1, dt) for s_ in range(20)])
    batch = np.broadcast_to(rho0.entries, (20,) + rho0.entries.shape)
    _, _, signal = _evolve(batch, CompiledGenerator(spec), l_op.entries, dt,
                           increments=dw, seeds=tuple(range(20)))
    return signal * dt + dw


def qnd_final_bloch(cfg, y, t, factor=1.0):
    """The final Bloch vector of ``TestQndOracle``'s closed form for the
    record sum y, with the bank's coherence factor applied to rho01."""
    g = cfg.gamma_q
    x0, y0, z0 = cfg.init_bloch
    p0 = 0.5 * (1 + z0) * math.exp(2 * math.sqrt(g) * y - 2 * g * t)
    p1 = 0.5 * (1 - z0) * math.exp(-2 * math.sqrt(g) * y - 2 * g * t)
    c = 0.5 * (x0 - 1j * y0) * np.exp(-2 * g * t - 1j * cfg.omega_q * t) * factor
    return np.array([2 * c.real, -2 * c.imag, p0 - p1]) / (p0 + p1)


class TestQndOracle:
    def test_replay_matches_closed_form(self):
        # with every kappa = 0 the bank decouples and stays in vacuum; with
        # L = sqrt(g) sigma_z the unnormalized qubit state depends on the
        # record only through Y = sum dY:
        #   rho00 e^{2 sqrt(g) Y - 2 g t}, rho11 e^{-2 sqrt(g) Y - 2 g t},
        #   rho01 e^{-2 g t - i omega_q t}
        base = preset("paper-fig4")
        cfg = qnd_config(tuple(dataclasses.replace(a, kappa=0.0) for a in base.ancillas))
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        errors = []
        for record in seed_records(rho0, spec, l_op, grid):
            want = qnd_final_bloch(cfg, record.sum(), grid[-1])
            final = replay_filter(rho0, spec, l_op, record, grid)[-1]
            got = readout(final.entries, readout_weights(final.layout.dims))
            errors.append(float(np.max(np.abs(got - want))))
        # Kraus step at dt = 1e-3: median 4.3e-5, max 8.7e-4 (Euler-Maruyama
        # plus repair gave 5.0e-4 and 9.0e-3); tighten, never loosen
        assert np.median(errors) <= 1e-4
        assert max(errors) <= 2e-3

    # errors when pinned (median, max): 3.8e-5, 7.1e-4 and 2.9e-5, 6.3e-4;
    # without the coherence factor 1.7e-3, 4.8e-2 and 4.2e-3, 1.2e-1.  The
    # kappa = 2 mode tells sqrt(kappa) from kappa in the direct coupling.
    @pytest.mark.parametrize("mode, truncation, median_bound, max_bound", [
        ((2.0, 0.6, 1.0), 5, 1e-4, 2e-3),
        ((0.5, 0.3, 2.0), 8, 8e-5, 1.8e-3),
    ])
    def test_coupled_bank_replay_matches_closed_form(self, mode, truncation,
                                                     median_bound, max_bound):
        # with every coupling along sigma_z the bank stays Gaussian in each
        # qubit branch (see test_bank_oracle): the populations follow the
        # kappa = 0 closed form and rho01 gains the bank's factor f(t)
        omega, gamma, kappa = mode
        cfg = qnd_config((AncillaParams(omega=omega, gamma=gamma, kappa=kappa,
                                        sigma_kind="pauli_z", truncation=truncation),))
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        factor = coherence_factor([mode], "shared", grid)[-1]
        records = seed_records(rho0, spec, l_op, grid)
        batch = np.broadcast_to(rho0.entries, (20,) + rho0.entries.shape)
        bloch, _, _ = _evolve(batch, CompiledGenerator(spec), l_op.entries, grid_steps(grid)[1],
                              record=records)
        errors = [float(np.max(np.abs(got - qnd_final_bloch(cfg, record.sum(), grid[-1], factor))))
                  for got, record in zip(bloch[:, -1], records)]
        assert np.median(errors) <= median_bound
        assert max(errors) <= max_bound


class TestConditionalQubit:
    def test_matches_direct_expectations(self):
        cfg = short_cfg()
        traj = stored_trajectory(cfg, 21)
        bloch = conditional_qubit(traj)
        lay = traj.states.layout
        paulis = [np.kron(qubit_operator(k), np.eye(lay.total // 2))
                  for k in ("pauli_x", "pauli_y", "pauli_z")]
        for idx in (0, len(traj.t_grid) // 2, -1):
            rho = traj.states[idx].entries
            direct = [np.trace(rho @ p).real for p in paulis]
            assert_allclose(bloch[idx], direct, atol=1e-12)

    @pytest.mark.parametrize("modes", [1, 2])
    def test_is_the_filter_readout(self, modes):
        # one Bloch reduction: the stored states reduce to the filter's own
        # per-step Bloch columns bit for bit
        cfg = short_cfg()
        if modes == 2:
            cfg = with_truncation(cfg, 4)
            extra = dataclasses.replace(cfg.ancillas[0], omega=1.5, gamma=0.8, kappa=0.5)
            cfg = dataclasses.replace(cfg, ancillas=cfg.ancillas + (extra,),
                                      probe_kind="pauli_y").validate()
        traj = stored_trajectory(cfg, 4)
        assert traj.states.layout.total == (10 if modes == 1 else 32)
        assert np.array_equal(conditional_qubit(traj), traj.bloch)

    def test_initial_point_is_input_bloch(self):
        cfg = short_cfg()
        traj = stored_trajectory(cfg, 2)
        assert_allclose(conditional_qubit(traj)[0], cfg.init_bloch, atol=1e-12)

    def test_requires_states(self):
        cfg = short_cfg(base_seed=2)
        traj = run_filter_trajectory(cfg)
        with pytest.raises(UnsupportedModeError):
            conditional_qubit(traj)


class SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that runs its tasks in order,
    in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestEnsemble:
    def test_zero_probe_mean_equals_unconditional(self):
        cfg = short_cfg(gamma_q=0.0)
        rho0, spec, l_op = filter_ingredients(cfg)
        ens = ensemble_average(rho0, spec, l_op, config_grid(cfg), 2, 100)
        uncond = run_unconditional(cfg).bloch
        # trajectories are seed-independent here, so stderr vanishes
        assert np.max(ens.stderr) < 1e-12
        assert np.max(np.abs(ens.mean - uncond)) < 5e-3

    def test_worker_partition_invariance(self, monkeypatch):
        monkeypatch.setattr(filtering, "ENSEMBLE_BATCH", 5)  # 12 paths make 3 tasks
        cfg = short_cfg(t_final=0.2)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        a = ensemble_average(rho0, spec, l_op, grid, 12, 40, workers=1)
        b = ensemble_average(rho0, spec, l_op, grid, 12, 40, workers=2)
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

    def test_stderr_is_the_two_pass_standard_error(self):
        # 120 paths make batches of 50, 50 and 20: merged batch by batch, the
        # standard error is std(ddof=1) / sqrt(n) of the paths' Bloch columns
        # at every grid point after t = 0, where all paths start alike; the
        # sum-of-squares formula cancelled there, 1.5e-3 off at the first step
        cfg = dataclasses.replace(preset("paper-fig4"), t_final=0.05)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        ens = ensemble_average(rho0, spec, l_op, grid, 120, 0)
        paths = np.stack([simulate_trajectory(rho0, spec, l_op, grid, seed=s_).bloch
                          for s_ in range(120)])
        two_pass = paths.std(axis=0, ddof=1) / math.sqrt(120)
        assert_allclose(ens.stderr[1:], two_pass[1:], rtol=1e-9, atol=0)

    def test_seed_bookkeeping(self):
        cfg = short_cfg(t_final=0.1)
        rho0, spec, l_op = filter_ingredients(cfg)
        ens = ensemble_average(rho0, spec, l_op, config_grid(cfg), 3, 42)
        assert ens.seeds == (42, 43, 44)
        assert len(ens.seeds) == 3

    def test_n_traj_minimum(self):
        cfg = short_cfg(t_final=0.1)
        rho0, spec, l_op = filter_ingredients(cfg)
        with pytest.raises(ValueError):
            ensemble_average(rho0, spec, l_op, config_grid(cfg), 1, 42)

    def test_pool_capped_at_task_count(self, monkeypatch):
        # a fork pool starts all its workers up front, so 5000 workers must not
        # reach it when there are only two batches to run
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(filtering, "ProcessPoolExecutor", SerialPool)
        cfg = short_cfg(t_final=0.01)
        rho0, spec, l_op = filter_ingredients(cfg)
        ens = ensemble_average(rho0, spec, l_op, config_grid(cfg), 100, 0, workers=5000)
        assert sizes == [2]
        assert len(ens.seeds) == 100

    def test_results_summed_as_they_arrive(self, monkeypatch):
        # when a pool yields a task's (sum, centred squares), no more than one
        # earlier task's arrays may still be alive, and the merge keeps its bits
        live, refs = [], []

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                for task in tasks:
                    s, sq, failed = fn(task)
                    live.append(sum(r() is not None for r in refs) // 2)
                    refs.extend((weakref.ref(s), weakref.ref(sq)))
                    yield s, sq, failed
                    del s, sq

        monkeypatch.setattr(filtering, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(filtering, "ENSEMBLE_BATCH", 2)
        cfg = short_cfg(t_final=0.01)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        pooled = ensemble_average(rho0, spec, l_op, grid, 8, 0, workers=2)
        assert live == [0, 1, 1, 1]
        serial = ensemble_average(rho0, spec, l_op, grid, 8, 0)
        assert np.array_equal(pooled.mean, serial.mean)
        assert np.array_equal(pooled.stderr, serial.stderr)

    def test_failures_reported_with_seeds(self):
        # a huge dt makes the trajectories abort; the ensemble's one
        # PositivityError names the failing seeds in order, and its step and
        # text are those of the first failing path run alone
        cfg = dataclasses.replace(preset("paper-fig4"), dt=0.4, t_final=8.0)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        with pytest.raises(PositivityError) as err:
            ensemble_average(rho0, spec, l_op, grid, 4, 7)
        seeds = err.value.seeds
        assert len(seeds) >= 1
        assert all(7 <= s <= 10 for s in seeds)
        assert list(seeds) == sorted(seeds)
        with pytest.raises(PositivityError) as alone:
            simulate_trajectory(rho0, spec, l_op, grid, seed=seeds[0])
        assert alone.value.step == err.value.step
        assert str(err.value) == f"trajectories failed for seeds {list(seeds)}; first abort: {alone.value}"

    def test_two_failing_batches_raise_one_abort(self, monkeypatch):
        # in batches of two, seeds 7-10 at dt = 0.4 make two batches that
        # abort at steps 0 and 1: the ensemble raises one PositivityError
        # with both batches' failing seeds, in seed order, and the first
        # batch's step and text, alike in this process and on 2 workers
        monkeypatch.setattr(filtering, "ENSEMBLE_BATCH", 2)
        cfg = dataclasses.replace(preset("paper-fig4"), dt=0.4, t_final=8.0)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        _, dt = grid_steps(grid)
        first, second = (
            _ensemble_worker((rho0.entries, spec, l_op, len(grid) - 1, dt, 0.0, batch))[2]
            for batch in ((7, 8), (9, 10)))
        assert (first.step, second.step) == (0, 1)
        raised = []
        for pool in (SerialPool, ProcessPoolExecutor):
            monkeypatch.setattr(filtering, "ProcessPoolExecutor", pool)
            with pytest.raises(PositivityError) as err:
                ensemble_average(rho0, spec, l_op, grid, 4, 7, workers=2)
            raised.append(err.value)
        for err in raised:
            assert err.seeds == first.seeds + second.seeds
            assert err.step == first.step
            assert str(err) == (f"trajectories failed for seeds {list(err.seeds)}; "
                                f"first abort: {first}")
            assert "after step 0 (t=0.4)" in str(err)

    @pytest.mark.parametrize("pool", [SerialPool, ProcessPoolExecutor])
    def test_abort_on_a_shifted_grid_names_grid_time(self, monkeypatch, pool):
        # on a grid from t = 5 the path of seed 1000 aborts at its first
        # step; the ensemble's abort names the same time as the path alone,
        # in this process and on 2 workers
        monkeypatch.setattr(filtering, "ENSEMBLE_BATCH", 2)
        monkeypatch.setattr(filtering, "ProcessPoolExecutor", pool)
        rho0, spec, l_op = filter_ingredients(preset("paper-fig4"))
        grid = 5.0 + 0.5 * np.arange(5)
        with pytest.raises(PositivityError) as alone:
            simulate_trajectory(rho0, spec, l_op, grid, seed=1000)
        with pytest.raises(PositivityError) as ensemble:
            ensemble_average(rho0, spec, l_op, grid, 4, 1000, workers=2)
        assert "after step 0 (t=5.5)" in str(alone.value)
        assert ensemble.value.seeds[0] == 1000
        assert str(ensemble.value).endswith(f"; first abort: {alone.value}")


#: steps per readout ring of a three-path worker in the streaming tests,
#: which set DIAG_BLOCK_BYTES to 32 * 3 * RING (4 floats per path and step)
RING = 8


def spy_on_moments(monkeypatch):
    """The (start, length) of every block of Bloch rows an ensemble worker's
    ``_Moments`` takes, in order."""
    blocks = []
    add = filtering._Moments.add

    def spy(self, start, bloch):
        blocks.append((start, bloch.shape[1]))
        add(self, start, bloch)

    monkeypatch.setattr(filtering._Moments, "add", spy)
    return blocks


class TestEngineConsistency:
    def test_batched_matches_single(self):
        # one trajectory simulated alone and inside a batch must agree
        cfg = short_cfg(t_final=0.3)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        single = simulate_trajectory(rho0, spec, l_op, grid, seed=60)
        _, dt = grid_steps(grid)
        s, sq, failed = _ensemble_worker(
            (rho0.entries, spec, l_op, len(grid) - 1, dt, 0.0, (60, 61, 62)))
        three = [simulate_trajectory(rho0, spec, l_op, grid, seed=s_) for s_ in (60, 61, 62)]
        total = sum(t.bloch for t in three)
        assert not failed
        assert np.max(np.abs(s - total)) < 1e-12
        assert np.max(np.abs(single.bloch - three[0].bloch)) == 0.0

    def test_abort_seeds_map_through_failing_subset(self):
        # only path 1 gets a huge kick, at step 22, and only its
        # normalization factor leaves the bound: the abort must name its
        # seed, not the seed of path 0
        cfg = preset("paper-fig4")
        rho0, spec, l_op = filter_ingredients(cfg)
        seeds = (60, 61, 62)
        dw = np.stack([wiener_increments(s_, 50, cfg.dt) for s_ in seeds])
        dw[1, 22] = 1e6
        batch = np.broadcast_to(rho0.entries, (3,) + rho0.entries.shape)
        with pytest.raises(PositivityError) as err:
            _evolve(batch, CompiledGenerator(spec), l_op.entries, cfg.dt,
                    increments=dw, seeds=seeds)
        assert err.value.seeds == (61,)
        assert err.value.step == 22
        # path 1 alone, with its trace checked as a scalar, aborts with the same text
        with pytest.raises(PositivityError) as alone:
            _evolve(batch[1:2], CompiledGenerator(spec), l_op.entries, cfg.dt,
                    increments=dw[1:2], seeds=seeds[1:2])
        assert str(alone.value) == str(err.value)
        assert (alone.value.seeds, alone.value.step) == ((61,), 22)

    def test_path_independent_of_batch_mates(self):
        # over 3000 steps, each path in a batch of ten must reproduce its
        # own single-trajectory run bit for bit
        cfg = preset("paper-fig4")
        rho0, spec, l_op = filter_ingredients(cfg)
        seeds = tuple(range(60, 70))
        grid = cfg.dt * np.arange(3001)
        _, dt = grid_steps(grid)
        dw = np.stack([wiener_increments(s_, 3000, dt) for s_ in seeds])
        batch = np.broadcast_to(rho0.entries, (len(seeds),) + rho0.entries.shape)
        bloch, _, _ = _evolve(batch, CompiledGenerator(spec), l_op.entries, dt,
                              increments=dw, seeds=seeds)
        for row, s_ in zip(bloch, seeds):
            single = simulate_trajectory(rho0, spec, l_op, grid, seed=s_)
            assert np.max(np.abs(row - single.bloch)) == 0.0

    @pytest.mark.parametrize("bank, rows", [
        ("fig4", 1), ("bank2-independent", 2), ("bank2-shared", 4),
    ])
    def test_path_alone_and_at_row_1_of_three(self, rng, bank, rows):
        # a path alone keeps dY and its trace as scalars, at row 1 of three
        # as vectors: simulated and replayed, its Bloch rows, signal and stored
        # coordinates agree bit for bit.  ``rows`` counts the jump gather's
        # rows, which the step sums when there are several
        model = (build_probed_model(preset("paper-fig4")) if bank == "fig4"
                 else bank2_model(bank.split("-")[1]))
        spec = generator_spec(model)
        gen = CompiledGenerator(spec)
        l_op = model.collapse_ops[model.probe_index]
        unmonitored = [op for op in gen.collapse if not np.array_equal(op, l_op.entries)]
        assert len(JumpGather(unmonitored, model.layout.total).idx) == rows
        rho0 = [rand_density(rng, model.layout.dims) for _ in range(3)]
        seeds = (5, 6, 7)
        grid = 2e-3 * np.arange(401)
        _, dt = grid_steps(grid)
        alone = simulate_trajectory(rho0[1], spec, l_op, grid, seed=6, store_states=True)
        replayed = replay_filter(rho0[1], spec, l_op, alone.record, grid)
        batch = np.stack([r.entries for r in rho0])
        dw = np.stack([wiener_increments(s_, 400, dt) for s_ in seeds])
        bloch, coords, signal = _evolve(batch, gen, l_op.entries, dt, increments=dw,
                                        seeds=seeds, store_states=True)
        assert np.array_equal(bloch[1], alone.bloch)
        assert np.array_equal(signal[1] * dt + dw[1], alone.record)
        assert np.array_equal(coords[1], alone.states.coords)
        _, coords, _ = _evolve(batch, gen, l_op.entries, dt, record=signal * dt + dw,
                               store_states=True)
        assert np.array_equal(coords[1], replayed.coords)

    @pytest.mark.parametrize("n, seeds", [
        *(pytest.param(n, (60, 61, 62), id=str(n)) for n in (RING - 1, RING, 2 * RING + 3)),
        *(pytest.param(n, (60,), id=f"{n}-one-path") for n in (RING - 1, RING, 2 * RING + 3)),
    ])
    def test_worker_moments_are_the_sums_of_full_columns(self, monkeypatch, n, seeds):
        # a worker of three paths or of one keeps its readouts in a ring of
        # RING steps and draws each block's innovations in place: its sums of
        # the Bloch rows and of their squares about the batch mean are those
        # of ``_evolve``'s full columns on ``wiener_increments``, bit for
        # bit, and every grid point is handed over once, block by block
        b = len(seeds)
        monkeypatch.setattr(filtering, "DIAG_BLOCK_BYTES", 32 * b * RING)
        blocks = spy_on_moments(monkeypatch)
        cfg = preset("paper-fig4")
        rho0, spec, l_op = filter_ingredients(cfg)
        total, centred, failed = _ensemble_worker((rho0.entries, spec, l_op, n, cfg.dt, 0.0, seeds))
        assert not failed
        assert blocks == [(0, 1)] + [(lo + 1, min(RING, n - lo)) for lo in range(0, n, RING)]
        dw = np.stack([wiener_increments(s_, n, cfg.dt) for s_ in seeds])
        batch = np.broadcast_to(rho0.entries, (b,) + rho0.entries.shape)
        bloch, _, _ = _evolve(batch, CompiledGenerator(spec), l_op.entries, cfg.dt,
                              increments=dw, seeds=seeds)
        assert np.array_equal(total, bloch.sum(axis=0))
        assert np.array_equal(centred, np.square(bloch - bloch.sum(axis=0) / b).sum(axis=0))

    def test_worker_of_one_path_sums_its_trajectory(self, monkeypatch):
        # a batch of one, whose n steps fit one block of the ring, sums its
        # own trajectory, and its squares about itself are zero
        blocks = spy_on_moments(monkeypatch)
        cfg = short_cfg(t_final=0.3)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        total, centred, failed = _ensemble_worker(
            (rho0.entries, spec, l_op, len(grid) - 1, cfg.dt, 0.0, (60,)))
        bloch = simulate_trajectory(rho0, spec, l_op, grid, seed=60).bloch
        assert not failed and blocks == [(0, 1), (1, len(grid) - 1)]
        assert np.array_equal(total, bloch)
        assert np.array_equal(centred, np.zeros_like(bloch))

    def test_path_kicked_mid_block_names_its_seed(self, monkeypatch):
        # the path of seed 61, of three or alone, gets a huge kick at step 22,
        # inside the ring's third block (steps 16-23): the streamed abort has
        # the text, seeds and step, counted from the start of the run, of the
        # same run on full arrays, and the worker names seed 61 alone
        class Kicked(filtering._Moments):
            drawn = 0

            def draw(self, out):
                super().draw(out)
                lo, self.drawn = self.drawn, self.drawn + out.shape[1]
                if lo <= 22 < self.drawn:
                    out[self.kicked, 22 - lo] = 1e6

        cfg = preset("paper-fig4")
        rho0, spec, l_op = filter_ingredients(cfg)
        gen = CompiledGenerator(spec)
        for seeds in ((60, 61, 62), (61,)):
            b, Kicked.kicked = len(seeds), seeds.index(61)
            monkeypatch.setattr(filtering, "DIAG_BLOCK_BYTES", 32 * b * RING)
            dw = np.stack([wiener_increments(s_, 50, cfg.dt) for s_ in seeds])
            dw[Kicked.kicked, 22] = 1e6
            batch = np.broadcast_to(rho0.entries, (b,) + rho0.entries.shape)
            with pytest.raises(PositivityError) as full:
                _evolve(batch, gen, l_op.entries, cfg.dt, increments=dw, seeds=seeds)
            with pytest.raises(PositivityError) as streamed:
                _evolve(batch, gen, l_op.entries, cfg.dt, stream=Kicked(seeds, 50, cfg.dt),
                        seeds=seeds)
            assert str(streamed.value) == str(full.value)
            assert (streamed.value.seeds, streamed.value.step) == ((61,), 22)
            monkeypatch.setattr(filtering, "_Moments", Kicked)
            task = (rho0.entries, spec, l_op, 50, cfg.dt, 0.0, seeds)
            total, centred, abort = _ensemble_worker(task)
            assert total is None and centred is None
            assert (str(abort), abort.seeds, abort.step) == (str(full.value), (61,), 22)

    def test_ensemble_batches_of_two_and_one(self, monkeypatch):
        # with batches of two, three paths make one batch of two and a last
        # batch of one, whose bookkeeping is scalar: the mean is the single
        # paths' Bloch rows summed in task order, bit for bit
        monkeypatch.setattr(filtering, "ENSEMBLE_BATCH", 2)
        cfg = short_cfg(t_final=0.2)
        rho0, spec, l_op = filter_ingredients(cfg)
        grid = config_grid(cfg)
        ens = ensemble_average(rho0, spec, l_op, grid, 3, 40)
        b0, b1, b2 = (simulate_trajectory(rho0, spec, l_op, grid, seed=s_).bloch
                      for s_ in (40, 41, 42))
        assert np.array_equal(ens.mean, ((b0 + b1) + b2) / 3)
