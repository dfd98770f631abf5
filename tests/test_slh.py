import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nmqubit.experiments import probe_operator
from nmqubit.master import generator_spec
from nmqubit.operators import HilbertLayout, LayoutMismatchError
from nmqubit.slh import (
    FIELD_MODES,
    AncillaParams,
    GeneratorSpec,
    build_ancilla_bank,
    build_augmented,
    build_probed,
    qubit_operator,
)

from conftest import ladder, on_factor, rand_density, tagged


class TestAncillaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AncillaParams(omega=1.0, gamma=0.0, kappa=1.0)
        with pytest.raises(ValueError):
            AncillaParams(omega=1.0, gamma=1.0, kappa=-0.1)
        with pytest.raises(ValueError):
            AncillaParams(omega=1.0, gamma=1.0, kappa=1.0, truncation=1)
        with pytest.raises(ValueError):
            AncillaParams(omega=1.0, gamma=1.0, kappa=1.0, sigma_kind="pauli_w")


class TestBank:
    def test_single_mode_example(self):
        bank = build_ancilla_bank(
            [AncillaParams(omega=10.0, gamma=0.6, kappa=1.0, truncation=5)]
        )
        a = ladder(5)
        assert bank.layout.dims == (5,)
        assert_allclose(bank.collapse_ops[0].entries, math.sqrt(0.6) * a)
        assert_allclose(bank.hamiltonian.entries, 10.0 * (a.conj().T @ a))

    def test_hamiltonian_commutes_with_number(self):
        params = [
            AncillaParams(omega=1.0, gamma=0.5, kappa=0.2, truncation=3),
            AncillaParams(omega=2.0, gamma=0.8, kappa=0.1, truncation=3),
        ]
        bank = build_ancilla_bank(params)
        num = sum(on_factor(np.diag(np.arange(3.0)), k, (3, 3)) for k in range(2))
        h = bank.hamiltonian.entries
        assert_allclose(h @ num - num @ h, 0, atol=1e-12)

    def test_couplings_commute(self):
        params = [
            AncillaParams(omega=1.0, gamma=0.5, kappa=0.2, truncation=3),
            AncillaParams(omega=2.0, gamma=0.8, kappa=0.1, truncation=3),
        ]
        bank = build_ancilla_bank(params)
        c0, c1 = (op.entries for op in bank.collapse_ops)
        assert_allclose(c0 @ c1 - c1 @ c0, 0, atol=1e-14)

    def test_three_mode_entries(self):
        params = [
            AncillaParams(omega=1.0, gamma=0.4, kappa=0.0, truncation=3),
            AncillaParams(omega=2.0, gamma=0.9, kappa=0.0, truncation=4),
            AncillaParams(omega=3.0, gamma=0.2, kappa=0.0, truncation=2),
        ]
        bank = build_ancilla_bank(params)
        dims = (3, 4, 2)
        assert bank.layout == HilbertLayout((24,))  # one joint factor
        assert len(bank.collapse_ops) == 3
        h = np.zeros((24, 24))
        for k, p in enumerate(params):
            a = on_factor(ladder(p.truncation), k, dims)
            assert np.array_equal(bank.collapse_ops[k].entries, math.sqrt(p.gamma) * a)
            h = h + p.omega * (a.conj().T @ a)
        assert np.array_equal(bank.hamiltonian.entries, h)


    def test_shared_field_is_one_channel(self):
        params = [
            AncillaParams(omega=1.0, gamma=0.4, kappa=0.0, truncation=3),
            AncillaParams(omega=2.0, gamma=0.9, kappa=0.0, truncation=4),
        ]
        independent = build_ancilla_bank(params)
        shared = build_ancilla_bank(params, "shared")
        c0, c1 = independent.collapse_ops
        assert len(shared.collapse_ops) == 1
        assert np.array_equal(shared.collapse_ops[0].entries, c0.entries + c1.entries)
        assert np.array_equal(shared.hamiltonian.entries, independent.hamiltonian.entries)
        with pytest.raises(ValueError, match="field_mode"):
            build_ancilla_bank(params, "common")


class TestAugmented:
    def params(self, kappa=1.0):
        return [AncillaParams(omega=2.0, gamma=0.6, kappa=kappa,
                              sigma_kind="pauli_y", truncation=5)]

    def test_interaction_matches_hand_formula(self):
        params = self.params()
        model = build_augmented(2.0, build_ancilla_bank(params), params)
        assert model.layout.dims == (2, 5)
        a = np.kron(np.eye(2), ladder(5))
        sy = np.kron([[0, -1j], [1j, 0]], np.eye(5))
        h_i = -1j * (math.sqrt(0.6) / 2.0) * (a.conj().T @ sy - sy @ a)
        h_s = np.kron(np.diag([1.0, -1.0]), np.eye(5))
        want = h_s + 2.0 * (a.conj().T @ a) + h_i
        assert_allclose(generator_spec(model).hamiltonian.entries, want, atol=1e-12)
        assert_allclose(model.hamiltonian.entries, want - h_i, atol=1e-12)

    def test_zero_kappa_decouples(self):
        params = self.params(kappa=0.0)
        model = build_augmented(2.0, build_ancilla_bank(params), params)
        assert_allclose(model.direct.entries, 0, atol=1e-14)

    def test_hermitian_for_random_params(self, rng):
        for _ in range(5):
            params = [
                AncillaParams(
                    omega=float(rng.uniform(0.5, 3)),
                    gamma=float(rng.uniform(0.1, 1)),
                    kappa=float(rng.uniform(0, 2)),
                    sigma_kind=str(rng.choice(["pauli_x", "pauli_y", "sigma_minus"])),
                    sigma_scale=complex(rng.normal(), rng.normal()),
                    truncation=4,
                )
            ]
            model = build_augmented(1.7, build_ancilla_bank(params), params)
            assert generator_spec(model).hamiltonian.herm_deviation() < 1e-12

    def test_direct_terms_match_commutator(self, rng):
        # [D, rho] + [rho, D^dag] must equal -i[H_I, rho]
        params = self.params()
        model = build_augmented(2.0, build_ancilla_bank(params), params)
        d = model.direct.entries
        h_i = 1j * (d - d.conj().T)
        for _ in range(5):
            rho = rand_density(rng, model.layout.dims).entries
            lhs = (d @ rho - rho @ d) + (rho @ d.conj().T - d.conj().T @ rho)
            rhs = -1j * (h_i @ rho - rho @ h_i)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestTwoModeModel:
    """A K = 2 model against the paper's formulas written out with np.kron on
    conftest's ladders, bit for bit: H = H_q (x) I + I (x) sum_k omega_k a_k^dag a_k,
    channels sqrt(gamma_k) a_k (one summed channel when shared), the direct
    coupling D = sum_k sqrt(kappa_k) C_k^dag sigma_k with C_k = -(sqrt(gamma_k)/2) a_k,
    and the probe sqrt(gamma_q) L."""

    QUBIT = {"pauli_x": np.array([[0, 1], [1, 0]], dtype=complex),
             "pauli_y": np.array([[0, -1j], [1j, 0]]),
             "pauli_z": np.diag([1.0, -1.0]).astype(complex),
             "sigma_minus": np.array([[0, 0], [1, 0]], dtype=complex)}

    @pytest.mark.parametrize("field_mode", FIELD_MODES)
    def test_every_operator_matches_kron_reference(self, field_mode):
        params = [AncillaParams(omega=2.0, gamma=0.6, kappa=1.0, sigma_kind="sigma_minus",
                                sigma_scale=0.5 + 0.25j, truncation=3),
                  AncillaParams(omega=1.5, gamma=0.8, kappa=0.5, sigma_kind="pauli_x",
                                truncation=4)]
        omega_q, gamma_q, probe_scale = 1.3, 0.7, 0.9j
        bank = build_ancilla_bank(params, field_mode)
        model = build_probed(build_augmented(omega_q, bank, params), gamma_q, "pauli_y",
                             probe_scale)

        q, dims = self.QUBIT, (3, 4)
        eye_q, eye_b = np.eye(2), np.eye(12)
        a = [on_factor(ladder(p.truncation), k, dims) for k, p in enumerate(params)]
        h_bank = sum(p.omega * (a_k.conj().T @ a_k) for p, a_k in zip(params, a))
        h = np.kron(0.5 * omega_q * q["pauli_z"], eye_b) + np.kron(eye_q, h_bank)
        channels = [math.sqrt(p.gamma) * a_k for p, a_k in zip(params, a)]
        if field_mode == "shared":
            channels = [channels[0] + channels[1]]
        direct = 0
        for p, a_k in zip(params, a):
            c_k = -(math.sqrt(p.gamma) / 2.0) * np.kron(eye_q, a_k)
            sigma_k = np.kron(p.sigma_scale * q[p.sigma_kind], eye_b)
            direct = direct + math.sqrt(p.kappa) * (c_k.conj().T @ sigma_k)
        probe = np.kron(math.sqrt(gamma_q) * (probe_scale * q["pauli_y"]), eye_b)

        assert model.layout.dims == (2, 12)
        assert np.array_equal(model.hamiltonian.entries, h)
        assert model.probe_index == len(channels)
        want = [np.kron(eye_q, c) for c in channels] + [probe]
        assert len(model.collapse_ops) == len(want)
        for got, w in zip(model.collapse_ops, want):
            assert np.array_equal(got.entries, w)
        assert np.array_equal(model.direct.entries, direct)
        folded = generator_spec(model).hamiltonian.entries
        assert np.array_equal(folded, h + 1j * (direct - direct.conj().T))


class TestProbed:
    def make(self, gamma_q=0.8):
        params = [AncillaParams(omega=2.0, gamma=0.6, kappa=1.0,
                                sigma_kind="pauli_y", truncation=5)]
        aug = build_augmented(2.0, build_ancilla_bank(params), params)
        return build_probed(aug, gamma_q, "pauli_x")

    def test_probe_coupling(self):
        model = self.make()
        want = np.kron(math.sqrt(0.8) * np.array([[0, 1], [1, 0]]), np.eye(5))
        assert_allclose(model.collapse_ops[model.probe_index].entries, want)

    def test_channel_count(self):
        model = self.make()
        assert len(model.collapse_ops) == 2  # one bank mode + probe
        assert model.probe_index == 1

    def test_zero_gamma_probe(self):
        model = self.make(gamma_q=0.0)
        assert_allclose(model.collapse_ops[model.probe_index].entries, 0, atol=1e-14)

    def test_unprobed_model_has_no_probe_operator(self):
        params = [AncillaParams(omega=2.0, gamma=0.6, kappa=1.0, truncation=3)]
        aug = build_augmented(2.0, build_ancilla_bank(params), params)
        with pytest.raises(ValueError, match="no probe channel"):
            probe_operator(aug)


class TestGeneratorSpec:
    def test_bank_has_no_direct_form(self):
        bank = build_ancilla_bank([AncillaParams(omega=1.0, gamma=0.5, kappa=0.2, truncation=3)])
        assert generator_spec(bank) is bank
        with pytest.raises(ValueError, match="no direct qubit-bank coupling"):
            generator_spec(bank, "direct")

    def test_unknown_form_rejected(self):
        bank = build_ancilla_bank([AncillaParams(omega=1.0, gamma=0.5, kappa=0.2, truncation=3)])
        with pytest.raises(ValueError, match="unknown generator form 'sme'"):
            generator_spec(bank, "sme")

    def test_direct_form_is_the_model(self):
        model = TestProbed().make()
        assert generator_spec(model, "direct") is model
        folded = generator_spec(model)
        assert folded.direct is None and folded.probe_index == model.probe_index
        assert folded.collapse_ops is model.collapse_ops

    def test_mixed_layouts_rejected(self):
        h, sx = tagged(qubit_operator("pauli_z")), tagged(qubit_operator("pauli_x"))
        three = tagged(np.zeros((3, 3)))
        with pytest.raises(LayoutMismatchError):
            GeneratorSpec(h, (sx, three))
        with pytest.raises(LayoutMismatchError):
            GeneratorSpec(h, (sx,), direct=three)

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            GeneratorSpec(tagged(qubit_operator("sigma_minus")), ())


class TestQubitOperatorMenu:
    def test_menu_and_scale(self):
        sy = qubit_operator("pauli_y", scale=2j)
        assert_allclose(sy, 2j * np.array([[0, -1j], [1j, 0]]))
        with pytest.raises(ValueError):
            qubit_operator("identity")
        # the unscaled menu matrix is shared, so no caller may edit it
        with pytest.raises(ValueError, match="read-only"):
            qubit_operator("pauli_y")[0, 0] = 1.0
        assert np.array_equal(qubit_operator("pauli_y"), [[0, -1j], [1j, 0]])
