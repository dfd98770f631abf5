import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nmqubit.filtering import simulate_trajectory
from nmqubit.master import augmented_initial_state, integrate_master, reduce_to_qubit
from nmqubit.operators import DensityMatrix, HilbertLayout, Operator, readout_weights, real_right
from nmqubit.slh import (
    AncillaParams, build_ancilla_bank, build_probed, ladder_operators, qubit_operator,
)

from conftest import ladder, on_factor, rand_density, rand_matrix


def comm(a, b):
    return a @ b - b @ a


class TestLayout:
    def test_total(self):
        assert HilbertLayout((2, 3, 4)).total == 24
        assert HilbertLayout(()).total == 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            HilbertLayout((2, 0))


class TestOperator:
    def test_entries_are_a_read_only_copy(self):
        m = np.eye(2)
        op = Operator(HilbertLayout((2,)), m)
        m[0, 0] = 5.0
        assert op.entries.dtype == complex and op.entries[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            op.entries[0, 0] = 2.0

    def test_shape_must_match_layout(self):
        with pytest.raises(ValueError, match="entries must be 6x6"):
            Operator(HilbertLayout((2, 3)), np.eye(2))


class TestStandardOperators:
    def test_pauli_x_matrix(self):
        assert_allclose(qubit_operator("pauli_x"), [[0, 1], [1, 0]])

    def test_pauli_algebra(self):
        sx, sy, sz = (qubit_operator(k) for k in ("pauli_x", "pauli_y", "pauli_z"))
        assert_allclose(comm(sx, sy), 2j * sz, atol=1e-15)

    def test_ladder_flips(self):
        # excited state is the first basis vector, ground the second
        sm = qubit_operator("sigma_minus")
        excited = np.array([1.0, 0.0])
        assert_allclose(sm @ excited, [0.0, 1.0])

    def test_annihilation_two_levels(self):
        (a,) = ladder_operators([2])
        assert_allclose(a, [[0, 1], [0, 0]])

    def test_annihilation_entries(self):
        (a,) = ladder_operators([6])
        for n in range(1, 6):
            assert a[n - 1, n] == pytest.approx(np.sqrt(n))
        assert np.count_nonzero(a) == 5

    def test_truncated_commutator_n4(self):
        # direct multiplication of the constructed matrices
        a = ladder_operators([4])[0]
        c = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(4)
        expected[3, 3] = 1 - 4
        assert_allclose(c, expected, atol=1e-14)

    def test_truncated_commutator_n8_topentry(self):
        (a,) = ladder_operators([8])
        c = comm(a, a.conj().T)
        assert c[7, 7] == pytest.approx(-7.0)
        assert_allclose(c[:7, :7], np.eye(7), atol=1e-14)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            qubit_operator("hadamard")
        with pytest.raises(ValueError):
            ladder_operators([3, 1])
        with pytest.raises(ValueError):
            ladder_operators([])


class TestEmbed:
    """The joint bank ladders are the per-mode ladders embedded by Kronecker
    products with identities, mode 1 most significant."""

    def test_slot_zero(self):
        a0, _ = ladder_operators([2, 3])
        assert a0.shape == (6, 6)
        assert np.array_equal(a0, np.kron(ladder(2), np.eye(3)))

    def test_disjoint_factors_commute(self):
        a0, a1 = ladder_operators([3, 4])
        assert_allclose(comm(a0, a1), 0, atol=1e-14)
        assert_allclose(comm(a0, a1.conj().T), 0, atol=1e-14)
        sy = np.kron(qubit_operator("pauli_y"), np.eye(12))
        assert_allclose(comm(np.kron(np.eye(2), a1), sy), 0, atol=1e-14)

    def test_identity_any_slot(self):
        dims = (2, 3, 2)
        for k, a in enumerate(ladder_operators(dims)):
            assert np.array_equal(a, on_factor(ladder(dims[k]), k, dims))

    def test_distributes_over_products(self):
        dims = (3, 2)
        for k, a in enumerate(ladder_operators(dims)):
            num = a.conj().T @ a
            assert_allclose(num, on_factor(np.diag(np.arange(dims[k])), k, dims), atol=1e-14)


class TestPartialTrace:
    """`reduce_to_qubit`: the partial trace over the bank factor."""

    def test_product_state(self, rng):
        rho_q = rand_density(rng, (2,))
        rho_a = rand_density(rng, (3,))
        joint = DensityMatrix(
            HilbertLayout((2, 3)), np.kron(rho_q.entries, rho_a.entries)
        )
        out = reduce_to_qubit(joint)
        assert_allclose(out.entries, rho_q.entries, atol=1e-12)

    def test_bell_state(self):
        lay = HilbertLayout((2, 2))
        v = np.zeros(4)
        v[0] = v[3] = 1 / np.sqrt(2)
        bell = DensityMatrix(lay, np.outer(v, v))
        assert_allclose(reduce_to_qubit(bell).entries, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self, rng):
        for dims in ((2,), (2, 3), (2, 12)):
            rho = rand_density(rng, dims)
            assert np.trace(reduce_to_qubit(rho).entries) == pytest.approx(1.0, abs=1e-12)

    def test_arbitrary_matrices(self, rng):
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
        out = reduce_to_qubit(DensityMatrix.wrap(HilbertLayout((2, 3)), np.kron(a, b)))
        assert_allclose(out.entries, a * np.trace(b), atol=1e-12)


class TestCommutatorExpectation:
    """Expectations tr[rho A] of menu matrices and Hermitian matrices."""

    def test_plus_state_x(self):
        rho = DensityMatrix.from_bloch(1, 0, 0)
        sx = qubit_operator("pauli_x")
        assert np.trace(rho.entries @ sx) == pytest.approx(1.0)

    def test_mixed_state_z(self):
        rho = DensityMatrix.from_bloch(0, 0, 0)
        sz = qubit_operator("pauli_z")
        assert np.trace(rho.entries @ sz) == pytest.approx(0.0)

    def test_identity_expectation(self, rng):
        rho = rand_density(rng, (2, 3))
        assert np.trace(rho.entries @ np.eye(6)) == pytest.approx(1.0)

    def test_hermitian_expectation_real(self, rng):
        rho = rand_density(rng, (4,))
        m = rand_matrix(rng, 4)
        assert abs(np.trace(rho.entries @ (m + m.conj().T)).imag) < 1e-10


class TestAdjointAndDensity:
    """`DensityMatrix` validation and its Bloch form."""

    def test_density_validation(self):
        lay = HilbertLayout((2,))
        with pytest.raises(ValueError):
            DensityMatrix(lay, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(lay, np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not hermitian
        with pytest.raises(ValueError):
            DensityMatrix(lay, np.diag([1.5, -0.5]))  # negative eigenvalue

    @pytest.mark.parametrize("entries, match", [
        (np.full((2, 2), math.nan), "trace"),
        ([[0.5, math.nan], [math.nan, 0.5]], "Hermitian"),
        ([[0.5, complex(0, math.nan)], [0.0, 0.5]], "Hermitian"),
    ])
    def test_nan_entries_rejected(self, entries, match):
        with pytest.raises(ValueError, match=match):
            DensityMatrix(HilbertLayout((2,)), entries)

    def test_bloch_roundtrip(self):
        rho = DensityMatrix.from_bloch(0.3, -0.4, 0.5)
        assert_allclose(rho.bloch(), (0.3, -0.4, 0.5), atol=1e-14)

    def test_bloch_norm_check(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_bloch(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bloch", [(math.nan, 0, 0), (0, 0, math.nan), (math.inf, 0, 0)])
    def test_non_finite_bloch_rejected(self, bloch):
        with pytest.raises(ValueError, match=r"Bloch vector \("):
            DensityMatrix.from_bloch(*bloch)


class TestRealRight:
    """R(A): a right product with A on the interleaved real view."""

    @pytest.mark.parametrize("stack, m, d", [((), 4, 5), ((3,), 2, 6), ((2, 3), 7, 3)])
    def test_real_product_is_the_complex_one(self, rng, stack, m, d):
        a = rng.normal(size=stack + (d, d)) + 1j * rng.normal(size=stack + (d, d))
        x = rng.normal(size=stack + (m, d)) + 1j * rng.normal(size=stack + (m, d))
        r = real_right(a)
        assert r.shape == stack + (2 * d, 2 * d) and r.dtype == float
        got = x.view(float) @ r
        want = (x @ a).view(float)
        assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


# a bank on its own, layout (3,): no factor of it is a qubit
BANK = build_ancilla_bank([AncillaParams(omega=1.0, gamma=0.5, kappa=0.7, truncation=3)])
BANK_STATE = DensityMatrix(BANK.layout, np.eye(3) / 3)


@pytest.mark.parametrize("call", [
    lambda: readout_weights(BANK.layout.dims),
    lambda: readout_weights(()),
    lambda: reduce_to_qubit(BANK_STATE),
    lambda: augmented_initial_state((0.0, 0.0, 1.0), BANK.layout),
    lambda: build_probed(BANK, 0.5, "pauli_x"),
    lambda: integrate_master(BANK_STATE, BANK, [0.0, 1e-3]),
    lambda: simulate_trajectory(BANK_STATE, BANK, BANK.collapse_ops[0], [0.0, 1e-3], seed=1),
], ids=["readout_weights", "readout_weights-empty", "reduce_to_qubit", "augmented_initial_state",
        "build_probed", "integrate_master", "simulate_trajectory"])
def test_one_qubit_factor_rule_at_every_entry_point(call):
    # every reduction and builder rests on factor 0 being the qubit, and
    # each refuses another layout with the same error
    with pytest.raises(ValueError, match="^layout does not start with a qubit factor$"):
        call()
