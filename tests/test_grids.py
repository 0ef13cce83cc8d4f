import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import qrf
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
    to_matching,
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
        (
            lambda: apply_shear_phase(
                product_state(gaussian_state(GRID16, "B"), gaussian_state(Grid1D(32, 10.0), "C")), "B", "C"
            ),
            GridMismatch,
            "different grids",
        ),
    ],
    ids=["eigenstate-level", "unknown-axis", "shear-sign", "product-of-products", "shear-grids"],
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


class TestFusedTransform:
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_one_axis_at_a_time(self, n):
        grid = Grid1D(n, 24.0)
        psi = random_wavefunction([("B", grid), ("C", grid)], np.random.default_rng(n))
        mom = to_representation(psi, MOMENTUM)
        sequential = change_representation(change_representation(psi, "B", MOMENTUM), "C", MOMENTUM)
        assert np.array_equal(mom.amplitudes, sequential.amplitudes)
        sequential = change_representation(change_representation(mom, "B", POSITION), "C", POSITION)
        assert np.array_equal(to_representation(mom, POSITION).amplitudes, sequential.amplitudes)
        # mixed tags: (momentum, position) into (position, momentum), both axes change
        mixed = change_representation(psi, "B", MOMENTUM)
        template = change_representation(psi, "C", MOMENTUM)
        matched = to_matching(mixed, template)
        sequential = change_representation(change_representation(mixed, "B", POSITION), "C", MOMENTUM)
        assert matched.representation == template.representation
        assert np.array_equal(matched.amplitudes, sequential.amplitudes)

    def test_fidelity_does_not_depend_on_the_second_states_tags(self, grid128, rng):
        psi = random_wavefunction([("B", grid128), ("C", grid128)], rng)
        phi = random_wavefunction([("B", grid128), ("C", grid128)], rng)
        same = fidelity(psi, phi)
        mom = to_representation(phi, MOMENTUM)
        for other in (mom, change_representation(phi, "C", MOMENTUM), with_axis_order(mom, ("C", "B"))):
            assert abs(fidelity(psi, other) - same) <= 1e-15
            # computed in the first state's tags: here momentum, with its own rounding
            assert abs(fidelity(other, psi) - same) <= 1e-14

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_shear_phase_is_the_exponential(self, n, sign):
        grid = Grid1D(n, 24.0)
        x, p = grid.positions(), grid.momenta()
        # exp(i x p) in float64 rounds its argument, up to pi n / 2 in size, by about
        # eps |x p|: 1.1e-13 at n = 256.  The table's arguments stay below 2 pi.
        bound = 4 * np.finfo(float).eps * np.pi * n / 2
        ld = np.longdouble  # wider than float64 on x86, where it checks the table to 2e-15
        exact = np.finfo(ld).eps < np.finfo(float).eps
        x_ld = (np.arange(n) - n // 2) * (ld(grid.length) / n)
        p_ld = (np.arange(n) - n // 2) * (8 * np.arctan(ld(1)) / ld(grid.length))
        for tags, pos, mom, xp, xp_ld in (
            ((POSITION, MOMENTUM), "B", "C", np.multiply.outer(x, p), np.multiply.outer(x_ld, p_ld)),
            ((MOMENTUM, POSITION), "C", "B", np.multiply.outer(p, x), np.multiply.outer(p_ld, x_ld)),
        ):
            ones = WaveFunction([("B", grid), ("C", grid)], np.ones((n, n)), tags)
            phase = apply_shear_phase(ones, pos, mom, sign)
            assert phase.representation == tags
            assert np.max(np.abs(phase.amplitudes - np.exp(1j * sign * xp))) <= bound
            if exact:
                reference = np.cos(xp_ld) + 1j * sign * np.sin(xp_ld)
                assert np.max(np.abs(phase.amplitudes - reference)) <= 2e-15


def test_a_finite_state_whose_sum_overflows_is_accepted(grid64):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = np.full(64, complex(1e308, -1e308))
        assert np.array_equal(WaveFunction([("B", grid64)], huge, POSITION).amplitudes, huge)
        for bad in ([np.nan], [np.inf], [-np.inf], [complex(0, np.inf)], [np.inf, -np.inf]):
            amp = np.ones(64, dtype=complex)
            amp[: len(bad)] = bad
            with pytest.raises(ValueError, match="amplitudes must be finite"):
                WaveFunction([("B", grid64)], amp, POSITION)


_OVERLAPS = """
import numpy as np
from qrf.grids import Grid1D, inner_product, random_wavefunction
from qrf.wigner import partial_trace
for n in (128, 256):
    grid = Grid1D(n, 24.0)
    psi, phi = (random_wavefunction([("B", grid), ("C", grid)], np.random.default_rng(s)) for s in (1, 2))
    value = inner_product(psi, phi)
    print(value.real.hex(), value.imag.hex(), partial_trace(psi, "B").purity().hex())
"""


def test_inner_products_do_not_depend_on_the_blas_thread_count():
    # np.vdot's OpenBLAS sum split across threads and moved the last bits at 128^2 and 256^2
    src = str(Path(qrf.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _OVERLAPS], env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].split()) == 6
