import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrf.grids import Grid1D, POSITION, gaussian_state, random_wavefunction, to_representation, inner_product
from qrf.observables import Observable
from qrf.wigner import partial_trace

from oracles import (
    DenseOperator,
    TooLarge,
    dense_momentum,
    dense_observable,
    dense_position,
    dense_total_momentum,
    fourier_matrix,
    refine_matrix,
    refined_kernel,
)


class TestBuildingBlocks:
    def test_fourier_matrix_unitary(self, grid16):
        f = fourier_matrix(grid16)
        assert np.max(np.abs(f @ f.conj().T - np.eye(grid16.n))) <= 1e-12

    def test_position_is_diagonal(self, grid16):
        matrix = dense_position([("B", grid16)], "B").matrix
        assert_allclose(np.diag(np.diag(matrix)), matrix)
        assert_allclose(np.real(np.diag(matrix)), grid16.positions())

    def test_momentum_is_hermitian(self, grid16):
        matrix = dense_momentum([("B", grid16), ("C", grid16)], "C").matrix
        assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-12

    def test_dimension_cap(self):
        grid = Grid1D(128, 20.0)
        with pytest.raises(TooLarge):
            dense_position([("A", grid), ("B", grid)], "A")


class TestOracleEquivalence:
    def test_matches_spectral_application(self, grid16, rng):
        subsystems = [("B", grid16), ("C", grid16)]
        obs = (
            0.7 * Observable.position("B", 2)
            + Observable.momentum("B") * Observable.momentum("C")
            - 0.4 * Observable.position("C")
        )
        oracle = dense_observable(obs, subsystems)
        for _ in range(5):
            psi = random_wavefunction(subsystems, rng)
            spectral = to_representation(obs.apply(psi), POSITION)
            assert np.max(np.abs(spectral.amplitudes - oracle.apply(psi).amplitudes)) <= 1e-10

    def test_momentum_spread_across_representations(self, grid128):
        # spectral momentum-representation value vs dense position-basis value
        psi = gaussian_state(grid128, "B", alpha=1.7)
        spectral = Observable.momentum("B", 2).expectation(psi)
        oracle = dense_momentum([("B", grid128)], "B", power=2)
        dense_value = inner_product(psi, oracle.apply(psi)).real
        assert abs(spectral - dense_value) <= 1e-8

    @pytest.mark.parametrize("n", [16, 64])
    def test_refinement_matches_spectral_kernel(self, n, rng):
        grid = Grid1D(n, 12.0)
        rho = partial_trace(random_wavefunction([("B", grid), ("C", grid)], rng), "B")
        refine = refine_matrix(grid)
        oracle = refine @ (rho.matrix / grid.dx) @ refine.conj().T
        error = np.max(np.abs(refined_kernel(rho) - oracle)) / np.max(np.abs(oracle))
        assert error <= 1e-13

    def test_total_momentum_assembles_axes(self, grid16):
        subsystems = [("B", grid16), ("C", grid16)]
        total = dense_total_momentum(subsystems).matrix
        parts = dense_momentum(subsystems, "B").matrix + dense_momentum(subsystems, "C").matrix
        assert_allclose(total, parts)


class TestDenseOperator:
    def test_shape_validation(self, grid16):
        with pytest.raises(ValueError):
            DenseOperator(np.eye(7), [("B", grid16)])
