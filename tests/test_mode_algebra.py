import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qnoise as qn
from qnoise.mode_algebra import A, A_DAG, C, C_DAG, ModeOperator

coefficient_vectors = arrays(
    np.complex128,
    (4,),
    elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


class TestBasisTable:
    def test_vacuum_moments(self):
        assert qn.expectation(A, A_DAG) == 1.0
        assert qn.expectation(A_DAG, A) == 0.0
        assert qn.expectation(C_DAG, C) == 1.0
        assert qn.expectation(C, C_DAG) == 0.0
        assert qn.expectation(A, C) == 0.0
        assert qn.expectation(A, C_DAG) == 0.0

    def test_basis_commutators(self):
        assert qn.commutator(A, A_DAG) == 1.0
        assert qn.commutator(C_DAG, C) == 1.0
        assert qn.commutator(A_DAG, C) == 0.0
        assert qn.commutator(A, C) == 0.0


class TestModeOperator:
    def test_dagger_is_involution(self):
        z = ModeOperator(np.array([1 + 2j, 3.0, -1j, 0.5]))
        np.testing.assert_array_equal(z.dagger().dagger().coefficients, z.coefficients)

    def test_dagger_swaps_pairs(self):
        z = ModeOperator(np.array([1 + 2j, 3.0, -1j, 0.5]))
        np.testing.assert_array_equal(
            z.dagger().coefficients, [3.0, 1 - 2j, 0.5, 1j]
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="4 coefficients"):
            ModeOperator(np.ones(3))


class TestThermalPair:
    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.0, 10.0])
    def test_correlation_table(self, n):
        b, b_out = qn.thermal_pair(n)
        assert qn.expectation(b.dagger(), b) == pytest.approx(n, abs=1e-12)
        assert qn.expectation(b, b.dagger()) == pytest.approx(n + 1, abs=1e-12)
        assert qn.expectation(b_out.dagger(), b_out) == pytest.approx(n + 1, abs=1e-12)
        assert qn.expectation(b_out, b_out.dagger()) == pytest.approx(n, abs=1e-12)
        assert qn.expectation(b_out, b.dagger()) == pytest.approx(
            np.sqrt(n * (n + 1)), abs=1e-12
        )

    @pytest.mark.parametrize("n", [0.0, 0.5, 1.0, 2.0, 10.0])
    def test_sectors_commute(self, n):
        b, b_out = qn.thermal_pair(n)
        assert qn.commutator(b_out, b) == pytest.approx(0.0, abs=1e-14)
        assert qn.commutator(b_out, b.dagger()) == pytest.approx(0.0, abs=1e-14)
        assert qn.commutator(b, b.dagger()) == pytest.approx(1.0, abs=1e-14)
        assert qn.commutator(b_out.dagger(), b_out) == pytest.approx(1.0, abs=1e-14)

    def test_vacuum_limit(self):
        b, b_out = qn.thermal_pair(0.0)
        np.testing.assert_array_equal(b.coefficients, A.coefficients)
        np.testing.assert_array_equal(b_out.coefficients, C.coefficients)
        assert qn.expectation(b_out, b.dagger()) == 0.0

    def test_cross_correlation_value(self):
        _, b_out = qn.thermal_pair(2.0)
        b, _ = qn.thermal_pair(2.0)
        assert qn.expectation(b_out, b.dagger()) == pytest.approx(
            2.449489742783178, rel=1e-14
        )

    def test_maximal_correlation_identity(self):
        for n in (0.25, 1.0, 7.5):
            b, b_out = qn.thermal_pair(n)
            cross = qn.expectation(b_out, b.dagger()).real
            occupation = qn.expectation(b.dagger(), b).real
            assert cross == pytest.approx(
                np.sqrt(occupation * (occupation + 1)), abs=1e-12
            )

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            qn.thermal_pair(-0.1)


class TestInvertPair:
    def test_vacuum_limit_identity(self):
        b, b_out = qn.thermal_pair(0.0)
        mode_a, mode_c = qn.invert_pair(b, b_out, 0.0)
        np.testing.assert_array_equal(mode_a.coefficients, b.coefficients)
        np.testing.assert_array_equal(mode_c.coefficients, b_out.coefficients)

    @pytest.mark.parametrize("n", [0.5, 2.0, 5.0, 10.0])
    def test_roundtrip_recovers_canonical_coefficients(self, n):
        b, b_out = qn.thermal_pair(n)
        mode_a, mode_c = qn.invert_pair(b, b_out, n)
        np.testing.assert_allclose(
            mode_a.coefficients, A.coefficients, rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            mode_c.coefficients, C.coefficients, rtol=0, atol=1e-14
        )

    def test_recovered_modes_are_vacuum_canonical(self):
        b, b_out = qn.thermal_pair(5.0)
        mode_a, _ = qn.invert_pair(b, b_out, 5.0)
        assert qn.expectation(mode_a.dagger(), mode_a) == pytest.approx(0.0, abs=1e-14)
        assert qn.expectation(mode_a, mode_a.dagger()) == pytest.approx(1.0, abs=1e-14)

    def test_negative_occupation_rejected(self):
        b, b_out = qn.thermal_pair(1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            qn.invert_pair(b, b_out, -1.0)

    @pytest.mark.parametrize("n", [np.nan, np.inf])
    def test_non_finite_occupation_rejected(self, n):
        b, b_out = qn.thermal_pair(1.0)
        with pytest.raises(qn.NonFiniteError, match="finite"):
            qn.thermal_pair(n)
        with pytest.raises(qn.NonFiniteError, match="finite"):
            qn.invert_pair(b, b_out, n)


class TestAlgebraProperties:
    @given(z1=coefficient_vectors, z2=coefficient_vectors)
    def test_commutator_is_expectation_asymmetry(self, z1, z2):
        op1, op2 = ModeOperator(z1), ModeOperator(z2)
        direct = qn.commutator(op1, op2)
        swapped = qn.expectation(op1, op2) - qn.expectation(op2, op1)
        scale = 1.0 + np.abs(z1).max() * np.abs(z2).max()
        assert abs(direct - swapped) <= 1e-12 * scale

    @given(z=coefficient_vectors)
    def test_self_commutator_vanishes(self, z):
        op = ModeOperator(z)
        scale = 1.0 + np.abs(z).max() ** 2
        assert abs(qn.commutator(op, op)) <= 1e-12 * scale

    @given(z1=coefficient_vectors, z2=coefficient_vectors)
    def test_commutator_antisymmetric(self, z1, z2):
        op1, op2 = ModeOperator(z1), ModeOperator(z2)
        scale = 1.0 + np.abs(z1).max() * np.abs(z2).max()
        assert abs(qn.commutator(op1, op2) + qn.commutator(op2, op1)) <= 1e-12 * scale
