import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nmqubit as nq
from nmqubit.experiments import build_probed_model, config_grid
from nmqubit.filtering import Trajectory, conditional_qubit, simulate_trajectory
from nmqubit.master import (
    CompiledGenerator,
    GeneratorSpec,
    JumpGather,
    MasterResult,
    PositivityError,
    ancilla_moment_oracle,
    augmented_initial_state,
    generator_spec,
    integrate_master,
    lindblad_apply,
    markovian_baseline_spec,
    reduce_to_qubit,
)
from nmqubit.operators import (
    DensityMatrix,
    HilbertLayout,
    Operator,
    embed,
    expectation,
    make_standard_operator,
)
from nmqubit.slh import AncillaParams, qubit_operator

from conftest import bank2_model, rand_density, rand_hermitian


def unit_trace_hermitian(rng, d):
    m = rand_hermitian(rng, d)
    return m / np.trace(m)


class TestLindbladApply:
    def test_decay_of_excited_state(self):
        # single collapse sqrt(g) sigma_minus on the excited state:
        # rhodot = g (|0><0| - |1><1|), excited = first basis vector
        g = 0.7
        spec = GeneratorSpec(
            Operator.zero(HilbertLayout((2,))),
            (math.sqrt(g) * qubit_operator("sigma_minus"),),
        )
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = lindblad_apply(rho, spec)
        assert_allclose(out, g * np.diag([-1.0, 1.0]), atol=1e-14)

    def test_maximally_mixed_fixed_point(self, rng):
        # hermitian-unitary collapses are unital, so I/d is stationary
        h = Operator(HilbertLayout((2,)), rand_hermitian(rng, 2))
        spec = GeneratorSpec(h, (qubit_operator("pauli_x"), qubit_operator("pauli_y")))
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
        cfg = dataclasses.replace(nq.preset("paper-fig4"))
        cfg = nq.with_truncation(cfg, 4)
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
        cfg = nq.with_truncation(nq.preset("paper-fig4"), 3)
        model = build_probed_model(cfg)
        spec = generator_spec(model)
        gen = CompiledGenerator(spec)
        for _ in range(5):
            rho = unit_trace_hermitian(rng, model.layout.total)
            assert_allclose(gen.apply(rho), lindblad_apply(rho, spec), atol=1e-13)

    def test_shared_field_mode_single_mode_equal(self, rng):
        cfg = nq.preset("paper-fig4")
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
        simulate_trajectory(rho0, spec, model.couplings[model.probe_index], [0.0, 1e-3, 2e-3], seed=1)
        assert len(builds) == 1
        integrate_master(rho0, spec, [0.0, 1e-3, 2e-3])
        assert len(builds) == 2


class TestIntegrate:
    def test_hamiltonian_only_matches_exponential(self, rng):
        # eigendecomposition-based propagation as an independent oracle
        h = rand_hermitian(rng, 4)
        spec = GeneratorSpec(Operator(HilbertLayout((4,)), h), ())
        rho0 = rand_density(rng, (4,))
        t_grid = np.linspace(0, 1.0, 501)
        result = integrate_master(rho0, spec, t_grid)
        w, v = np.linalg.eigh(h)
        for idx in (100, 250, 500):
            t = t_grid[idx]
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            want = u @ rho0.entries @ u.conj().T
            assert np.max(np.abs(result.states[idx] - want)) < 1e-8

    def test_zero_generator_constant(self, rng):
        spec = GeneratorSpec(Operator.zero(HilbertLayout((3,))), ())
        rho0 = rand_density(rng, (3,))
        result = integrate_master(rho0, spec, np.linspace(0, 5, 11))
        for s in result.states:
            assert_allclose(s, rho0.entries, atol=1e-14)

    def test_unitary_limit_preserves_purity(self):
        # kappa = 0 and no damping channels: purely Hamiltonian evolution
        params = [AncillaParams(omega=2.0, gamma=0.6, kappa=0.0, truncation=3)]
        h = embed(1.0 * make_standard_operator("pauli_z", 2), 0, HilbertLayout((2, 3)))
        spec = GeneratorSpec(h, ())
        rho0 = augmented_initial_state((1, 0, 0), HilbertLayout((2, 3)))
        result = integrate_master(rho0, spec, np.linspace(0, 2, 201))
        purity = [float(np.real(np.trace(s @ s))) for s in result.states]
        assert_allclose(purity, purity[0], atol=1e-8)

    def test_conservation_short_run(self):
        cfg = dataclasses.replace(nq.preset("paper-fig4"), t_final=1.0)
        from nmqubit.experiments import run_unconditional

        result = run_unconditional(cfg)
        assert result.tr_drift.max() <= 1e-8
        assert result.herm_dev.max() <= 1e-10
        assert result.min_eig.min() >= -1e-8

    def test_positivity_abort(self):
        # an absurd step size must trip the abort diagnostic
        cfg = dataclasses.replace(nq.preset("paper-fig4"), dt=0.5, t_final=50.0)
        from nmqubit.experiments import run_unconditional

        with pytest.raises(PositivityError):
            run_unconditional(cfg)

    def test_bad_grid_rejected(self, rng):
        spec = GeneratorSpec(Operator.zero(HilbertLayout((2,))), ())
        rho0 = rand_density(rng, (2,))
        with pytest.raises(ValueError):
            integrate_master(rho0, spec, [0.0, 0.5, 0.5])


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
        paulis = [make_standard_operator(k, 2).entries for k in ("pauli_x", "pauli_y", "pauli_z")]
        want = np.array([
            [np.trace(p @ np.trace(s.reshape(2, rest, 2, rest), axis1=1, axis2=3)).real
             for p in paulis]
            for s in states
        ])
        t = np.arange(len(states), dtype=float)
        result = MasterResult(t, layout, states, *(np.zeros(len(t)),) * 3)
        traj = Trajectory(t, layout, None, states, np.zeros(3), np.zeros(3), seed=0)
        singles = [reduce_to_qubit(DensityMatrix.wrap(layout, s)).bloch() for s in states]
        assert_allclose(result.qubit_bloch(), want, atol=1e-12)
        assert_allclose(conditional_qubit(traj), want, atol=1e-12)
        assert_allclose(singles, want, atol=1e-12)

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
    def params(self):
        return [AncillaParams(omega=10.0, gamma=0.6, kappa=0.0, truncation=5)]

    def test_t0(self):
        out = ancilla_moment_oracle(0.0, self.params(), [1.0])
        assert_allclose(out, [1.0])

    def test_scalar_value(self):
        out = ancilla_moment_oracle(1.0, self.params(), [1.0])
        assert out[0] == pytest.approx(np.exp(-0.3 - 10j))

    def test_monotone_magnitude(self):
        ts = np.linspace(0, 5, 20)
        mags = [abs(ancilla_moment_oracle(t, self.params(), [1.0])[0]) for t in ts]
        assert np.all(np.diff(mags) < 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ancilla_moment_oracle(-1.0, self.params(), [1.0])


class TestMarkovianBaseline:
    def test_sigma_x_rate_hand_value(self):
        # d<sx>/dt = -omega_q <sy> - 2 kappa <sx> from Pauli algebra;
        # the sigma_x probe channel leaves <sx> untouched
        kappa, gamma_q, omega_q = 1.0, 0.8, 2.0
        rho = DensityMatrix.from_bloch(1, 0, 0)
        bank = [AncillaParams(omega=2.0, gamma=0.6, kappa=kappa, sigma_kind="pauli_y")]
        out = lindblad_apply(rho, markovian_baseline_spec(omega_q, bank, gamma_q, "pauli_x"))
        sx = qubit_operator("pauli_x").entries
        rate = float(np.real(np.trace(sx @ out)))
        assert rate == pytest.approx(-2.0 * kappa)

    def test_pure_precession(self):
        rho = DensityMatrix.from_bloch(1, 0, 0)
        out = lindblad_apply(rho, markovian_baseline_spec(2.0, (), 0.0, "pauli_x"))
        sz = qubit_operator("pauli_z").entries
        assert abs(np.trace(sz @ out)) < 1e-14

    def test_trace_preserved(self, rng):
        rho = rand_density(rng, (2,))
        bank = [AncillaParams(omega=1.0, gamma=0.5, kappa=1.0, sigma_kind="pauli_y")]
        out = lindblad_apply(rho, markovian_baseline_spec(1.3, bank, 0.25, "pauli_x"))
        assert abs(np.trace(out)) < 1e-13

    def test_spec_builder_matches(self, rng):
        cfg = nq.preset("paper-fig4")
        spec = markovian_baseline_spec(cfg.omega_q, cfg.ancillas, cfg.gamma_q,
                                       cfg.probe_kind)
        rho = rand_density(rng, (2,))
        via_spec = lindblad_apply(rho, spec)
        hand = GeneratorSpec(
            0.5 * cfg.omega_q * qubit_operator("pauli_z"),
            (math.sqrt(1.0) * qubit_operator("pauli_y"), math.sqrt(0.8) * qubit_operator("pauli_x")),
        )
        direct = lindblad_apply(rho, hand)
        assert_allclose(via_spec, direct, atol=1e-14)


class TestInitialState:
    def test_product_layout(self):
        lay = HilbertLayout((2, 4))
        rho = augmented_initial_state((1, 0, 0), lay)
        red = reduce_to_qubit(rho)
        assert_allclose(red.bloch(), (1, 0, 0), atol=1e-12)

    def test_custom_ancilla_ket(self):
        lay = HilbertLayout((2, 4))
        ket = np.zeros(4)
        ket[0] = ket[1] = 1.0
        rho = augmented_initial_state((0, 0, 1), lay, ancilla_kets=[ket])
        a = embed(make_standard_operator("annihilation", 4), 1, lay)
        assert expectation(rho, a) == pytest.approx(0.5)
