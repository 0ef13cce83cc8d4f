import math

import numpy as np
import pytest
import scipy.linalg

from qrf.classical import FRAME_A, FRAME_C
from qrf.errors import AxisClash, GridMismatch, UnknownAxis
from qrf.grids import (
    BOUNDARY_DECAY_TOL,
    MOMENTUM,
    POSITION,
    Grid1D,
    WaveFunction,
    apply_shear_phase,
    change_representation,
    fidelity,
    gaussian_state,
    ho_eigenstate,
    inner_product,
    product_state,
    random_wavefunction,
    reflect_axis,
    to_representation,
    with_axis_order,
)
from qrf.observables import Observable, commutator_expectation

from oracles import (
    allocating_centered_fft,
    allocating_centered_ifft,
    dense_momentum,
    dense_position,
    dense_shear,
    meshgrid_random_wavefunction,
)

SIZES = (64, 128, 256)


class TestGrid1D:
    def test_sample_layout(self):
        grid = Grid1D(16, 8.0)
        assert grid.dx == 0.5
        assert grid.dp == pytest.approx(2 * np.pi / 8.0)
        assert grid.positions()[0] == -4.0
        assert grid.positions()[8] == 0.0
        assert grid.momenta()[8] == 0.0
        assert grid.dx * grid.dp == pytest.approx(2 * np.pi / 16)
        assert Grid1D(np.int64(16), 8.0).dx == 0.5  # numpy integers are sizes too

    @pytest.mark.parametrize("n", [4, 7, 12, 129, 64.0, 64.5])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid1D(n, 10.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Grid1D(16, -1.0)


class TestChangeRepresentation:
    def test_gaussian_analytic_transform(self, grid128):
        alpha = 1.3
        psi = gaussian_state(grid128, "B", alpha=alpha)
        mom = to_representation(psi, MOMENTUM)
        p = grid128.momenta()
        expected = (1.0 / (alpha * np.pi)) ** 0.25 * np.exp(-(p**2) / (2 * alpha))
        assert np.max(np.abs(mom.amplitudes - expected)) <= 1e-8

    def test_round_trip_identity(self, grid128, rng):
        psi = random_wavefunction([("B", grid128), ("C", grid128)], rng)
        back = to_representation(to_representation(psi, MOMENTUM), POSITION)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-12

    def test_norm_preserved(self, grid128, rng):
        for _ in range(5):
            psi = random_wavefunction([("B", grid128), ("C", grid128)], rng)
            assert abs(to_representation(psi, MOMENTUM).norm() - psi.norm()) <= 1e-12

    def test_unknown_axis(self, grid128):
        psi = gaussian_state(grid128, "B")
        with pytest.raises(UnknownAxis):
            change_representation(psi, "Z", MOMENTUM)

    def test_noop_when_already_there(self, grid128):
        psi = gaussian_state(grid128, "B")
        assert change_representation(psi, "B", POSITION) is psi


class TestInnerProduct:
    def test_normalized_state(self, grid128):
        psi = gaussian_state(grid128, "B", alpha=0.9)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_orthogonality(self, grid128):
        ground = ho_eigenstate(grid128, "B", 0)
        excited = ho_eigenstate(grid128, "B", 1)
        assert abs(inner_product(ground, excited)) <= 1e-10

    def test_hermitian_symmetry(self, grid128, rng):
        psi = random_wavefunction([("B", grid128)], rng)
        phi = random_wavefunction([("B", grid128)], rng)
        assert inner_product(psi, phi) == pytest.approx(np.conj(inner_product(phi, psi)))

    def test_grid_mismatch(self, grid128, grid64):
        psi = gaussian_state(grid128, "B")
        phi = gaussian_state(grid64, "B")
        with pytest.raises(GridMismatch):
            inner_product(psi, phi)

    def test_representation_mismatch(self, grid128):
        psi = gaussian_state(grid128, "B")
        with pytest.raises(GridMismatch):
            inner_product(psi, to_representation(psi, MOMENTUM))


class TestExpectation:
    def test_centered_gaussian_position(self, grid128):
        psi = gaussian_state(grid128, "B", alpha=1.4)
        assert abs(Observable.position("B").expectation(psi)) <= 1e-10

    def test_ground_state_momentum_spread(self, grid128):
        alpha = 1.7
        psi = gaussian_state(grid128, "B", alpha=alpha)
        assert abs(Observable.momentum("B", 2).expectation(psi) - alpha / 2) <= 1e-8

    def test_linearity(self, grid128, rng):
        psi = random_wavefunction([("B", grid128)], rng)
        a = Observable.position("B", 2)
        b = Observable.momentum("B")
        combined = (2.5 * a - 0.5 * b).expectation(psi)
        assert combined == pytest.approx(2.5 * a.expectation(psi) - 0.5 * b.expectation(psi))


class TestShearPhase:
    def test_unitary(self, grid128, rng):
        psi = random_wavefunction([("B", grid128), ("C", grid128)], rng)
        sheared = apply_shear_phase(psi, "C", "B", 1)
        assert abs(sheared.norm() - psi.norm()) <= 1e-12
        assert sheared.representation == psi.representation

    def test_matches_dense_matrix_exponential(self, grid16, rng):
        subsystems = [("B", grid16), ("C", grid16)]
        psi = random_wavefunction(subsystems, rng)
        q_c = dense_position(subsystems, "C").matrix
        p_b = dense_momentum(subsystems, "B").matrix
        exponential = scipy.linalg.expm(1j * (q_c @ p_b))
        oracle = dense_shear(subsystems, "C", "B", 1)
        assert np.max(np.abs(oracle.matrix - exponential)) <= 1e-10
        spectral = to_representation(apply_shear_phase(psi, "C", "B", 1), POSITION)
        assert np.max(np.abs(spectral.amplitudes - oracle.apply(psi).amplitudes)) <= 1e-8

    def test_commutes_with_position_functions(self, grid64, rng):
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        weight = np.cos(grid64.positions())[:, None] * np.ones(grid64.n)[None, :]

        def multiply(state):
            work = to_representation(state, POSITION)
            return WaveFunction(work.subsystems, work.amplitudes * weight, POSITION)

        first = multiply(apply_shear_phase(psi, "B", "C", -1))
        second = apply_shear_phase(multiply(psi), "B", "C", -1)
        assert np.max(np.abs(first.amplitudes - to_representation(second, POSITION).amplitudes)) <= 1e-10

    def test_shifts_position_argument(self, grid64):
        # exp(i q_B p_C) maps psi(q_B, q_C) to psi(q_B, q_C + q_B) on the grid
        psi = product_state(
            gaussian_state(grid64, "B", alpha=2.0),
            gaussian_state(grid64, "C", alpha=1.5, center=0.5),
        )
        sheared = to_representation(apply_shear_phase(psi, "B", "C", 1), POSITION)
        amp = to_representation(psi, POSITION).amplitudes
        expected = np.empty_like(amp)
        for row in range(grid64.n):
            shift_cells = row - grid64.n // 2  # x_B / dx
            expected[row] = np.roll(amp[row], -shift_cells)
        assert np.max(np.abs(sheared.amplitudes - expected)) <= 1e-10

    def test_axis_clash(self, grid64):
        psi = gaussian_state(grid64, "B")
        with pytest.raises(AxisClash):
            apply_shear_phase(psi, "B", "B", 1)


class TestReflectAxis:
    def test_involution(self, grid64, rng):
        psi = random_wavefunction([("B", grid64)], rng)
        twice = reflect_axis(reflect_axis(psi, "B"), "B")
        assert np.array_equal(twice.amplitudes, psi.amplitudes)

    def test_parity_commutes_with_fourier(self, grid64, rng):
        psi = random_wavefunction([("B", grid64)], rng)
        a = to_representation(reflect_axis(psi, "B"), MOMENTUM)
        b = reflect_axis(to_representation(psi, MOMENTUM), "B")
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12

    def test_flips_odd_state(self, grid128):
        excited = ho_eigenstate(grid128, "B", 1)
        flipped = reflect_axis(excited, "B")
        assert fidelity(flipped, excited) == pytest.approx(1.0, abs=1e-12)
        # boundary sample is its own mirror image on the periodic grid
        assert np.max(np.abs(flipped.amplitudes[1:] + excited.amplitudes[1:])) <= 1e-12


class TestCommutator:
    def test_canonical_commutator(self, grid128, rng):
        psi = random_wavefunction([("B", grid128), ("C", grid128)], rng)
        value = commutator_expectation(psi, Observable.position("B"), Observable.momentum("B"))
        assert abs(value - 1j) <= 1e-6

    def test_cross_axis_commutes(self, grid64, rng):
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        value = commutator_expectation(psi, Observable.position("B"), Observable.momentum("C"))
        assert abs(value) <= 1e-10


class TestStateBuilders:
    def test_random_states_are_box_adequate(self, grid128, rng):
        for _ in range(10):
            psi = random_wavefunction([("B", grid128), ("C", grid128)], rng)
            assert psi.boundary_ratio() <= BOUNDARY_DECAY_TOL
            assert psi.norm() == pytest.approx(1.0, abs=1e-12)
            mom = to_representation(psi, MOMENTUM)
            assert mom.boundary_ratio() <= BOUNDARY_DECAY_TOL

    def test_product_state(self, grid64):
        a = gaussian_state(grid64, "B", alpha=1.0)
        b = gaussian_state(grid64, "C", alpha=2.0)
        prod = product_state(a, b, frame=FRAME_A)
        assert prod.labels == ("B", "C")
        assert prod.frame == FRAME_A
        assert prod.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan, math.inf])
    def test_widths_must_be_positive_and_finite(self, grid64, alpha):
        # both builders read the oscillator eigenstate's one width rule
        for build in (
            lambda: gaussian_state(grid64, "B", alpha=alpha),
            lambda: ho_eigenstate(grid64, "B", 0, alpha=alpha),
            lambda: ho_eigenstate(grid64, "B", 1, alpha=alpha),
        ):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                build()

    def test_axis_reorder(self, grid64, rng):
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        swapped = with_axis_order(psi, ("C", "B"))
        assert swapped.labels == ("C", "B")
        assert np.array_equal(swapped.amplitudes, psi.amplitudes.T)

    def test_constructor_copies_the_callers_array(self, grid64):
        amp = np.ones(64, dtype=complex)
        psi = WaveFunction([("B", grid64)], amp, POSITION)
        assert amp.flags.writeable
        amp[0] = 5.0
        assert psi.amplitudes[0] == 1.0
        assert not psi.amplitudes.flags.writeable

    def test_library_results_are_frozen(self, grid64, rng):
        # results wrap the arrays they computed without a copy; none is writable
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        results = [
            psi,
            psi.normalized(),
            change_representation(psi, "B", MOMENTUM),
            reflect_axis(psi, "C"),
            with_axis_order(psi, ("C", "B")),
            product_state(gaussian_state(grid64, "B"), ho_eigenstate(grid64, "C", 1)),
        ]
        for result in results:
            assert not result.amplitudes.flags.writeable

    def test_frame_is_read_only(self, grid64):
        # reduction_grid trusts the tag, so it cannot be retagged after the fact
        psi = gaussian_state(grid64, "B", frame=FRAME_A)
        with pytest.raises(AttributeError):
            psi.frame = FRAME_C
        assert psi.frame == FRAME_A

    def test_wavefunction_validation(self, grid64):
        with pytest.raises(ValueError):
            WaveFunction([("B", grid64)], np.zeros(12), POSITION)
        with pytest.raises(ValueError):
            WaveFunction(
                [("B", grid64), ("B", grid64)], np.zeros((64, 64)), POSITION
            )
        with pytest.raises(ValueError):
            WaveFunction([("B", grid64)], np.full(64, np.nan), POSITION)


class TestByteIdentity:
    @pytest.mark.parametrize("n", SIZES)
    def test_random_wavefunction_matches_meshgrid_form(self, n):
        grid = Grid1D(n, 24.0)
        for seed in range(3):
            for subsystems in ([("B", grid), ("C", grid)], [("A", grid)]):
                psi = random_wavefunction(subsystems, np.random.default_rng(seed), frame=FRAME_A)
                ref = meshgrid_random_wavefunction(
                    subsystems, np.random.default_rng(seed), frame=FRAME_A
                )
                # bytes, not array_equal: -0.0 == 0.0, but the two print differently in a CSV
                assert psi.amplitudes.tobytes() == ref.amplitudes.tobytes()
                assert psi.frame == ref.frame and psi.subsystems == ref.subsystems

    @pytest.mark.parametrize("n", SIZES)
    def test_change_representation_matches_allocating_fft(self, n):
        grid = Grid1D(n, 24.0)
        psi = random_wavefunction([("B", grid), ("C", grid)], np.random.default_rng(n))
        root = math.sqrt(2.0 * math.pi)
        for axis, label in enumerate(psi.labels):
            mom = change_representation(psi, label, MOMENTUM)
            ref = allocating_centered_fft(psi.amplitudes, axis) * (grid.dx / root)
            assert mom.amplitudes.tobytes() == ref.tobytes()
            back = change_representation(mom, label, POSITION)
            ref = allocating_centered_ifft(mom.amplitudes, axis) * (root / grid.dx)
            assert back.amplitudes.tobytes() == ref.tobytes()


GRID16 = Grid1D(16, 10.0)


def two_axes():
    return product_state(gaussian_state(GRID16, "B"), gaussian_state(GRID16, "C"))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ho_eigenstate(GRID16, "B", 2), ValueError, "only levels 0 and 1 are provided, got 2"),
        (lambda: with_axis_order(gaussian_state(GRID16, "B"), ("C",)), UnknownAxis, "cannot reorder"),
        (lambda: apply_shear_phase(two_axes(), "B", "C", sign=2), ValueError, "sign must be"),
        (lambda: product_state(two_axes(), gaussian_state(GRID16, "D")), ValueError, "single-axis"),
    ],
    ids=["eigenstate-level", "unknown-axis", "shear-sign", "product-of-products"],
)
def test_each_documented_input_error_raises_its_type(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_fidelity_reorders_the_second_state_to_the_first(grid64, rng):
    psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
    swapped = with_axis_order(psi, ("C", "B"))
    assert swapped.labels != psi.labels
    assert fidelity(psi, swapped) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(swapped, psi) == pytest.approx(1.0, abs=1e-12)
