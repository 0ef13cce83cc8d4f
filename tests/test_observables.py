import numpy as np
import pytest

from qrf.classical import FRAME_A, FRAME_C
from qrf.errors import NonHermitianObservable
from qrf.grids import Grid1D, gaussian_state, inner_product, random_wavefunction
from qrf.observables import Observable
from qrf.switching import FrameSwitch

from oracles import conjugate_observable, dense_momentum, dense_observable, dense_position


class TestAlgebra:
    def test_square_expansion(self):
        q = Observable.position("B")
        p = Observable.momentum("C")
        square = (q + p) * (q + p)
        expected = q * q + 2.0 * (q * p) + p * p
        assert square == expected

    def test_power(self):
        q = Observable.position("B")
        assert q**3 == q * q * q

    def test_substitution_expands(self):
        # the A -> C switch sends q_B to q_B - q_A
        q_b = Observable.position("B")
        image = conjugate_observable(q_b * q_b, FrameSwitch(FRAME_A, FRAME_C))
        expected = (
            Observable.position("B", 2)
            - 2.0 * (Observable.position("A") * Observable.position("B"))
            + Observable.position("A", 2)
        )
        assert image == expected

    def test_power_zero_is_the_constant(self):
        assert Observable.position("B", 0) == Observable.constant(1.0)
        assert Observable.momentum("B", 0) == Observable.constant(1.0)
        assert Observable.position("B") ** 0 == Observable.constant(1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Observable.position("B", -1),
            lambda: Observable.momentum("B", -2),
            lambda: Observable.position("B", 2.5),
            lambda: Observable({((("B", "q"), 0),): 1.0}),
            lambda: Observable({((("B", "q"), 1), (("C", "p"), -1)): 1.0}),
            lambda: Observable({((("B", "p"), 1.0),): 1.0}),
        ],
        ids=["position-negative", "momentum-negative", "fractional", "zero-in-a-monomial",
             "negative-second-factor", "float-power"],
    )
    def test_factor_powers_must_be_positive_integers(self, build):
        # q^-1 once read as q^0, the identity; q^2.5 ended in "amplitudes must be finite"
        with pytest.raises(ValueError, match="factor powers must be positive integers"):
            build()

    def test_negative_observable_power_is_rejected(self):
        with pytest.raises(ValueError, match="negative powers are not defined"):
            Observable.position("B") ** -1

    def test_hermiticity_flag(self):
        assert Observable.position("B").is_hermitian()
        assert not Observable({((("B", "q"), 1),): 1j}).is_hermitian()


class TestWeylOrdering:
    def test_mixed_term_expectation(self, grid128):
        # for exp(-a (x-c)^2/2 + i k x) the symmetrized <qp> is exactly c*k
        center, kick = 0.8, -1.3
        psi = gaussian_state(grid128, "B", alpha=1.1, center=center, momentum=kick)
        mixed = Observable.position("B") * Observable.momentum("B")
        assert mixed.expectation(psi) == pytest.approx(center * kick, abs=1e-10)

    def test_mccoy_identity_on_decayed_states(self):
        # Weyl(q^2 p^2) = (Q^2 P^2 + P^2 Q^2)/2 + 1/2 with hbar = 1; the
        # c-number shift is a commutator identity, valid on the grid only
        # between states that decay inside the box
        grid = Grid1D(32, 16.0)
        subsystems = [("B", grid)]
        weyl = dense_observable(
            Observable.position("B", 2) * Observable.momentum("B", 2), subsystems
        ).matrix
        q2 = dense_position(subsystems, "B", power=2).matrix
        p2 = dense_momentum(subsystems, "B", power=2).matrix
        direct = 0.5 * (q2 @ p2 + p2 @ q2) + 0.5 * np.eye(grid.n)
        psi = gaussian_state(grid, "B", alpha=1.0)
        vec = psi.amplitudes * np.sqrt(grid.dx)
        lhs = np.vdot(vec, weyl @ vec)
        rhs = np.vdot(vec, direct @ vec)
        assert abs(lhs - rhs) <= 1e-9

    def test_weyl_matrices_are_hermitian(self, grid16):
        subsystems = [("B", grid16)]
        obs = Observable.position("B", 3) * Observable.momentum("B") + Observable.momentum(
            "B", 2
        )
        assert dense_observable(obs, subsystems).is_hermitian(1e-9)


class TestExpectationContract:
    def test_rejects_complex_coefficients(self, grid128):
        psi = gaussian_state(grid128, "B")
        skew = Observable({((("B", "q"), 1),): 1j})
        with pytest.raises(NonHermitianObservable):
            skew.expectation(psi)

    def test_apply_on_multiple_axes(self, grid64, rng):
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        obs = Observable.momentum("B") * Observable.position("C")
        value = inner_product(psi, obs.apply(psi))
        assert abs(value.imag) <= 1e-10
