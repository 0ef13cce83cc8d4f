import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qrf.classical import FRAME_A, FRAME_B, FRAME_C
from qrf.errors import InvalidDensityMatrix
from qrf.experiments import FIGURE_PRESETS, emit_figure_data
from qrf.grids import (
    MOMENTUM,
    POSITION,
    Grid1D,
    gaussian_state,
    ho_eigenstate,
    product_state,
    random_wavefunction,
    to_representation,
)
from qrf.switching import FrameSwitch, switch_frame
from qrf.wigner import (
    DensityMatrix,
    WignerGrid,
    closed_form_eigenstate_wigner,
    density_matrix_from_pure,
    eigenstate_wigner_values,
    entanglement_entropy,
    marginal_wigner,
    negativity_volume,
    partial_trace,
    transformed_joint_wigner,
    wigner_of_state,
    wigner_transform,
)

from oracles import (
    gather_wigner_transform,
    in_frame_order,
    joint_wigner,
    strided_wigner_transform,
    switched_ground_reduction,
    tensor_marginal,
)

# negativity of the first excited eigenstate's Wigner function; quadrature
# value, cross-checked against the closed contour integral 2 exp(-1/2) - 1
F1_NEGATIVITY = 0.2130613194

# entropy of the frame-switched equal-width product ground state (nats)
SWITCHED_GROUND_ENTROPY = switched_ground_reduction(1.0, 1.0, FRAME_A, "B").entropy

# (alpha_A, alpha_B), grid size and box of the exact Gaussian comparisons
GAUSSIAN_CASES = (((1.0, 1.0), 128, 20.0), ((0.1, 1.0), 256, 60.0), ((0.4, 2.5), 256, 40.0))


def switched_product(grid, level_a, level_b, alpha_a=1.0, alpha_b=1.0, frame=FRAME_A):
    psi = product_state(
        ho_eigenstate(grid, "A", level_a, alpha=alpha_a),
        ho_eigenstate(grid, "B", level_b, alpha=alpha_b),
        frame=FRAME_C,
    )
    return switch_frame(psi, FrameSwitch(FRAME_C, frame))


class TestClosedForms:
    def test_origin_values(self):
        assert abs(eigenstate_wigner_values(0, 1.0, 0.0, 0.0) - 1 / np.pi) <= 1e-9
        assert abs(eigenstate_wigner_values(1, 1.3, 0.0, 0.0) + 1 / np.pi) <= 1e-9

    def test_excited_zero_contour(self):
        alpha = 0.7
        x = np.linspace(-0.5, 0.5, 11)
        xi_sq = (1.0 - 2 * alpha * x**2) * alpha / 2.0
        xi = np.sqrt(xi_sq)
        values = eigenstate_wigner_values(1, alpha, x, xi)
        assert np.max(np.abs(values)) <= 1e-12

    def test_sampled_grid_normalization(self):
        for level in (0, 1):
            grid = closed_form_eigenstate_wigner(level, 1.0)
            assert abs(grid.integral() - 1.0) <= 1e-6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            eigenstate_wigner_values(2, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            eigenstate_wigner_values(0, -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_default_window_rejects_bad_alpha(self, alpha):
        # the default window divides by alpha, so alpha is checked before it
        for level in (0, 1):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                closed_form_eigenstate_wigner(level, alpha)


class TestWignerTransform:
    @pytest.mark.parametrize("level", [0, 1])
    def test_matches_closed_form(self, grid128, level):
        psi = ho_eigenstate(grid128, "B", level, alpha=1.0)
        w = wigner_of_state(psi)
        x, xi = np.meshgrid(w.x, w.xi, indexing="ij")
        reference = eigenstate_wigner_values(level, 1.0, x, xi)
        assert np.max(np.abs(w.values - reference)) <= 1e-6

    def test_marginals_match_densities(self, grid128):
        psi = ho_eigenstate(grid128, "B", 1, alpha=1.4)
        w = wigner_of_state(psi)
        position_density = np.abs(psi.amplitudes) ** 2
        assert np.max(np.abs(w.position_marginal()[::2] - position_density)) <= 1e-6
        momentum_density = np.abs(to_representation(psi, MOMENTUM).amplitudes) ** 2
        assert np.max(np.abs(w.momentum_marginal()[::2] - momentum_density)) <= 1e-6

    def test_purity_identity(self, grid128):
        psi = gaussian_state(grid128, "B", alpha=0.8, center=0.4)
        rho = density_matrix_from_pure(psi)
        w = wigner_transform(rho)
        phase_space_purity = 2 * np.pi * np.sum(w.values**2) * w.dx * w.dxi
        assert abs(phase_space_purity - rho.purity()) <= 1e-4

    def test_bounded_by_inverse_pi(self, grid128):
        psi = ho_eigenstate(grid128, "B", 1, alpha=1.0)
        w = wigner_of_state(psi)
        assert np.max(np.abs(w.values)) <= 1 / np.pi + 1e-6

    def test_mixture_stays_below_pure_peak(self, grid128):
        left = gaussian_state(grid128, "B", alpha=1.0, center=-2.5)
        right = gaussian_state(grid128, "B", alpha=1.0, center=2.5)
        mixture = 0.5 * (
            density_matrix_from_pure(left).matrix + density_matrix_from_pure(right).matrix
        )
        w = wigner_transform(DensityMatrix(mixture, grid128))
        pure_peak = np.max(np.abs(wigner_of_state(left).values))
        assert np.max(np.abs(w.values)) < pure_peak
        assert abs(w.integral() - 1.0) <= 1e-6

    def test_normalization_gate(self, grid128):
        psi = gaussian_state(grid128, "B", alpha=1.1)
        w = wigner_of_state(psi)
        assert abs(w.integral() - 1.0) <= 1e-6


class TestDensityMatrix:
    def test_partial_trace_properties(self, grid64, rng):
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        rho = partial_trace(psi, "B")
        assert rho.grid == grid64
        assert rho.purity() <= 1.0 + 1e-10

    def test_rejects_non_hermitian(self, grid64):
        matrix = np.zeros((grid64.n, grid64.n), dtype=complex)
        matrix[0, 1] = 1.0
        matrix[0, 0] = 1.0
        with pytest.raises(InvalidDensityMatrix):
            DensityMatrix(matrix, grid64)

    def test_rejects_wrong_trace(self, grid64):
        with pytest.raises(InvalidDensityMatrix):
            DensityMatrix(2 * np.eye(grid64.n) / grid64.n, grid64)

    def test_rejects_nan(self, grid64):
        # every comparison with NaN is false, so each check must fail on it
        matrix = np.eye(grid64.n, dtype=complex) / grid64.n
        matrix[0, 0] = np.nan
        with pytest.raises(InvalidDensityMatrix):
            DensityMatrix(matrix, grid64)

    def test_rejects_negative_eigenvalues(self, grid64):
        matrix = np.eye(grid64.n, dtype=complex) / (grid64.n - 2)
        matrix[0, 0] = -1.0 / (grid64.n - 2)
        with pytest.raises(InvalidDensityMatrix):
            DensityMatrix(matrix, grid64)


def switched_reduced_matrices(n):
    """Three seeded frame-A draws on (n, L = 24), switched to frame C, keeping A."""
    grid = Grid1D(n, 24.0)
    for seed in range(3):
        psi = random_wavefunction([("B", grid), ("C", grid)], np.random.default_rng(seed), FRAME_A)
        yield partial_trace(switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C)), "A")


@pytest.mark.parametrize("n", (64, 128, 256))
def test_wigner_transform_matches_gather_form(n):
    # the 0.3.1 forms, gathered and strided, agree byte for byte; the length-n2
    # chord transform differs from them by rounding only (measured 6.0e-16)
    for rho in switched_reduced_matrices(n):
        w = wigner_transform(rho)
        gathered = gather_wigner_transform(rho)
        strided = strided_wigner_transform(rho)
        scale = np.max(np.abs(strided.values))
        for name in ("x", "xi", "values"):
            assert getattr(strided, name).tobytes() == getattr(gathered, name).tobytes()
        for ref in (gathered, strided):
            # bytes, not array_equal: -0.0 == 0.0, but the two print differently in a CSV
            assert w.x.tobytes() == ref.x.tobytes()
            assert w.xi.tobytes() == ref.xi.tobytes()
            assert np.max(np.abs(w.values - ref.values)) <= 1e-15 * scale


def test_wigner_transform_memory_peak():
    # the 0.3.1 doubled box peaked at 9.5 MiB here; the chord table alone, 1.9
    rho = next(switched_reduced_matrices(128))
    wigner_transform(rho)
    tracemalloc.start()
    try:
        wigner_transform(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, peak


def checked_partial_trace(psi, keep):
    """The 0.3.1 ``partial_trace``: the same product, through the checked constructor."""
    work = to_representation(psi, POSITION).normalized()
    axis = work.axis(keep)
    amp = work.amplitudes if axis == 0 else work.amplitudes.T
    grid = work.grid(keep)
    return DensityMatrix((amp @ amp.conj().T) * work.subsystems[1 - axis][1].dx * grid.dx, grid)


class TestPartialTraceContract:
    @pytest.mark.parametrize("n", (64, 128, 256))
    def test_bytes_match_the_checked_constructor(self, n):
        grid = Grid1D(n, 24.0)
        for seed in range(3):
            psi = random_wavefunction([("B", grid), ("C", grid)], np.random.default_rng(seed), FRAME_A)
            out = switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C))
            for keep in out.labels:
                rho = partial_trace(out, keep)
                assert rho.grid == grid
                assert rho.matrix.tobytes() == checked_partial_trace(out, keep).matrix.tobytes()

    def test_output_is_read_only(self, grid64, rng):
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        for rho in (partial_trace(psi, "B"), density_matrix_from_pure(gaussian_state(grid64, "B"))):
            with pytest.raises(ValueError):
                rho.matrix[0, 0] = 0.0

    def test_no_eigenvalue_check(self, grid64, rng, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        rho = partial_trace(psi, "B")
        density_matrix_from_pure(gaussian_state(grid64, "B"))
        assert calls == []
        DensityMatrix(rho.matrix, grid64)  # the public constructor still checks
        assert calls == [1]

    def test_purity_matches_the_trace_of_the_square(self, grid64, rng):
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        for keep in ("B", "C"):
            rho = partial_trace(psi, keep)
            squared = float(np.real(np.trace(rho.matrix @ rho.matrix)))
            assert abs(rho.purity() - squared) <= 1e-14


@pytest.mark.parametrize(("alphas", "n", "length"), GAUSSIAN_CASES)
@pytest.mark.parametrize("frame", [FRAME_A, FRAME_B], ids=["A", "B"])
def test_switched_ground_state_matches_covariance_oracle(alphas, n, length, frame):
    alpha_a, alpha_b = alphas
    switched = switched_product(Grid1D(n, length), 0, 0, alpha_a, alpha_b, frame)
    for keep in switched.labels:
        exact = switched_ground_reduction(alpha_a, alpha_b, frame, keep)
        assert abs(entanglement_entropy(switched, keep) - exact.entropy) <= 1e-12
        assert abs(partial_trace(switched, keep).purity() - exact.purity) <= 1e-12
    if frame == FRAME_A:
        nu = switched_ground_reduction(alpha_a, alpha_b, frame, "B").nu
        assert nu == pytest.approx(math.sqrt((alpha_a + alpha_b) / (4 * alpha_a)), rel=1e-15)


class TestTransformedJoint:
    def test_normalized(self):
        joint = transformed_joint_wigner(0, 0, 0.5, 1.5)
        x = np.linspace(-10, 10, 81)
        xi = np.linspace(-8, 8, 81)
        marginal = marginal_wigner(joint, "B", x, xi)
        assert abs(marginal.integral() - 1.0) <= 1e-4

    def test_slice_factorizes(self):
        joint = transformed_joint_wigner(0, 1, 0.8, 1.2)
        q_b = np.linspace(-2, 2, 9)
        pi_b = np.linspace(-2, 2, 9)
        for qb in q_b:
            for pb in pi_b:
                slice_value = joint_wigner(joint, (qb, 0.0), (pb, -pb))
                expected = eigenstate_wigner_values(0, 0.8, 0.0, 0.0) * eigenstate_wigner_values(
                    1, 1.2, qb, pb
                )
                assert slice_value == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("field", ["level_a", "level_b", "alpha_a", "alpha_b"])
    def test_fields_are_frozen(self, field):
        # validated once, in the constructor; a later assignment would skip it
        joint = transformed_joint_wigner(0, 1, 0.8, 1.2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(joint, field, -5)
        assert joint == transformed_joint_wigner(0, 1, 0.8, 1.2)

    def test_ground_ground_nonnegative(self):
        joint = transformed_joint_wigner(0, 0, 1.0, 1.0)
        axis = np.linspace(-3, 3, 11)
        q = (axis[:, None, None, None], axis[None, :, None, None])
        p = (axis[None, None, :, None], axis[None, None, None, :])
        values = joint_wigner(joint, q, p)
        assert np.min(values) >= 0.0

    @pytest.mark.parametrize("keep", ["A", "D"])
    def test_marginal_rejects_a_particle_outside_the_reduction(self, keep):
        # A is the frame particle of the joint's reduction, D no particle at all
        x = np.linspace(-3.0, 3.0, 5)
        with pytest.raises(ValueError, match="keep must be 'B' or 'C'"):
            marginal_wigner(transformed_joint_wigner(0, 1, 0.8, 1.2), keep, x, x)


def unfactored_marginal(joint, keep, x, xi, quad_points=256, tail=8.0):
    """Reference: the node-by-node trapezoid rule, one (q, q, points) block per row.

    256 nodes resolve every preset (α ≥ 0.1); 64 alias the α_A = 0.1 case.
    """
    sigma_x = 1.0 / math.sqrt(min(joint.alpha_a, joint.alpha_b))
    sigma_p = math.sqrt(max(joint.alpha_a, joint.alpha_b))
    half_x = float(np.max(np.abs(x))) + tail * sigma_x
    half_p = float(np.max(np.abs(xi))) + tail * sigma_p
    u = np.linspace(-half_x, half_x, quad_points)
    v = np.linspace(-half_p, half_p, quad_points)
    du = u[1] - u[0]
    dv = v[1] - v[0]
    values = np.empty((x.shape[0], xi.shape[0]))
    for i, xo in enumerate(x):
        q = in_frame_order(keep, xo, u[:, None, None])
        p = in_frame_order(keep, xi[None, None, :], v[None, :, None])
        values[i] = np.sum(joint_wigner(joint, q, p), axis=(0, 1)) * du * dv
    return values


class TestMarginals:
    def test_matches_unfactored_quadrature(self):
        # unequal, asymmetric output axes so a transposed table cannot pass
        x = np.linspace(-7.0, 6.0, 31)
        xi = np.linspace(-4.5, 5.0, 23)
        for alpha_a, alpha_b in ((0.1, 1.0), (0.4, 2.5)):
            for level_a in (0, 1):
                for level_b in (0, 1):
                    joint = transformed_joint_wigner(level_a, level_b, alpha_a, alpha_b)
                    for keep in ("B", "C"):
                        expected = unfactored_marginal(joint, keep, x, xi)
                        got = marginal_wigner(joint, keep, x, xi)
                        assert got.values.shape == (x.shape[0], xi.shape[0])
                        gap = np.max(np.abs(got.values - expected))
                        assert gap <= 1e-13 * np.max(np.abs(expected)), (
                            level_a, level_b, alpha_a, alpha_b, keep, gap
                        )

    @pytest.mark.parametrize("quad_points", [1, 3, 5])
    @pytest.mark.parametrize("alphas", [(0.1, 1.0), (1.0, 1.0), (0.4, 2.5), (3.0, 0.2)])
    def test_matches_node_pair_rule(self, alphas, quad_points):
        # the per-axis node sums against the same rule evaluated one joint
        # call per node pair, on unequal, asymmetric output axes
        x = np.linspace(-7.0, 6.0, 31)
        xi = np.linspace(-4.5, 5.0, 23)
        for level_a, level_b, keep in itertools.product((0, 1), (0, 1), ("B", "C")):
            joint = transformed_joint_wigner(level_a, level_b, *alphas)
            expected = tensor_marginal(joint, keep, x, xi, quad_points)
            got = marginal_wigner(joint, keep, x, xi, quad_points)
            assert np.array_equal(got.x, x) and np.array_equal(got.xi, xi)
            assert got.values.shape == (x.shape[0], xi.shape[0])
            gap = np.max(np.abs(got.values - expected.values))
            assert gap <= 1e-14 * np.max(np.abs(expected.values)), (level_a, level_b, keep, gap)

    @pytest.mark.parametrize("figure", ["fig6", "fig7", "fig8", "fig9"])
    def test_figure_csvs_match_trapezoid_oracle(self, tmp_path, figure):
        emit_figure_data(figure, tmp_path)
        preset = FIGURE_PRESETS[figure]
        joint = transformed_joint_wigner(
            preset["level_a"], preset["level_b"], preset["alpha_a"], preset["alpha_b"]
        )
        points = preset["points"]
        for keep in ("B", "C"):
            x, xi, w = np.loadtxt(
                tmp_path / f"{figure}_marginal_{keep}.csv", delimiter=",", skiprows=1, unpack=True
            )
            x, xi, w = (col.reshape(points, points)[::10, ::10] for col in (x, xi, w))
            expected = unfactored_marginal(joint, keep, x[:, 0], xi[0])
            gap = np.max(np.abs(w - expected))
            assert gap <= 1e-12 * np.max(np.abs(expected)), (figure, keep, gap)

    @pytest.mark.parametrize("quad_points", [0, -3, 2.0, 3.5, "3", None])
    def test_invalid_quad_points_rejected(self, quad_points):
        joint = transformed_joint_wigner(0, 0, 1.0, 1.0)
        x = np.linspace(-3.0, 3.0, 5)
        with pytest.raises(ValueError):
            marginal_wigner(joint, "B", x, x, quad_points=quad_points)

    def test_oracle_triangle_ground_ground(self, grid128):
        # closed-form quadrature route vs switched-state partial-trace route
        # for the ground-ground study at width ratio 0.1 (scaled so both
        # factors decay inside the box); nodes restricted to the central
        # window where the marginals have support
        alpha_a, alpha_b = 0.4, 4.0
        switched = switched_product(grid128, 0, 0, alpha_a, alpha_b)
        for keep in ("B", "C"):
            transformed = wigner_transform(partial_trace(switched, keep))
            joint = transformed_joint_wigner(0, 0, alpha_a, alpha_b)
            keep_x = np.abs(transformed.x) <= 8.0
            keep_xi = np.abs(transformed.xi) <= 6.0
            x = transformed.x[keep_x][::4]
            xi = transformed.xi[keep_xi][::4]
            quadrature = marginal_wigner(joint, keep, x, xi)
            window = transformed.values[keep_x][:, keep_xi][::4, ::4]
            assert np.max(np.abs(quadrature.values - window)) <= 1e-3

    @pytest.mark.parametrize(
        ("levels", "alphas"),
        [((0, 1), (1.0, 1.0)), ((1, 1), (1.0, 1.0)), ((1, 1), (0.7, 1.3))],
    )
    def test_matches_grid_route(self, levels, alphas):
        # quadrature through frame_map vs the switched state's compositional
        # switch -> partial trace -> Wigner transform, on the transform's grid;
        # a 128-point box of L = 20 is too small for alpha = (0.7, 1.3)
        grid = Grid1D(256, 28.0)
        psi = product_state(
            ho_eigenstate(grid, "A", levels[0], alpha=alphas[0]),
            ho_eigenstate(grid, "B", levels[1], alpha=alphas[1]),
            frame=FRAME_C,
        )
        switched = switch_frame(psi, FrameSwitch(FRAME_C, FRAME_A, "compositional"))
        joint = transformed_joint_wigner(*levels, *alphas)
        for keep in ("B", "C"):
            expected = wigner_transform(partial_trace(switched, keep))
            got = marginal_wigner(joint, keep, expected.x, expected.xi)
            gap = np.max(np.abs(got.values - expected.values))
            assert gap <= 1e-12 * np.max(np.abs(expected.values)), (keep, gap)

    def test_excited_marginal_negativity_reduced(self, grid128):
        # one oscillator excited, equal widths: the frame switch mixes the
        # marginals and washes out most of the negativity
        for level_a, level_b, keep in ((0, 1, "B"), (1, 0, "C")):
            switched = switched_product(grid128, level_a, level_b)
            marginal = wigner_transform(partial_trace(switched, keep))
            negativity = negativity_volume(marginal)
            assert 0.0 < negativity < F1_NEGATIVITY

    def test_marginal_normalization(self):
        joint = transformed_joint_wigner(1, 0, 1.0, 1.0)
        x = np.linspace(-8, 8, 101)
        xi = np.linspace(-8, 8, 101)
        for keep in ("B", "C"):
            assert abs(marginal_wigner(joint, keep, x, xi).integral() - 1.0) <= 1e-4


class TestNegativity:
    def test_ground_state_has_none(self):
        grid = closed_form_eigenstate_wigner(0, 1.0)
        assert negativity_volume(grid) == 0.0

    def test_excited_state_regression_value(self):
        x = np.linspace(-6, 6, 801)
        grid = closed_form_eigenstate_wigner(1, 1.0, x, x)
        assert abs(negativity_volume(grid) - F1_NEGATIVITY) <= 1e-4

    def test_refinement_stable(self):
        coarse = closed_form_eigenstate_wigner(1, 1.0, np.linspace(-6, 6, 401), np.linspace(-6, 6, 401))
        fine = closed_form_eigenstate_wigner(1, 1.0, np.linspace(-6, 6, 801), np.linspace(-6, 6, 801))
        assert abs(negativity_volume(coarse) - negativity_volume(fine)) <= 1e-4


class TestEntanglementEntropy:
    @pytest.mark.parametrize("cut", ["B", "C"])
    def test_density_matrix_entropy_matches_the_schmidt_entropy(self, grid128, cut):
        switched = switched_product(grid128, 0, 1, alpha_a=0.5)
        entropy = partial_trace(switched, cut).entropy()
        assert entropy > 0.1
        assert abs(entropy - entanglement_entropy(switched, cut)) <= 1e-10

    def test_pure_state_density_matrix_has_zero_entropy(self, grid128):
        rho = density_matrix_from_pure(ho_eigenstate(grid128, "B", 1))
        assert abs(rho.entropy()) <= 1e-10

    def test_product_state_is_unentangled(self, grid128):
        psi = product_state(
            ho_eigenstate(grid128, "B", 0), ho_eigenstate(grid128, "C", 1), frame=FRAME_A
        )
        assert abs(entanglement_entropy(psi, "B")) <= 1e-10

    def test_switched_state_regression_value(self, grid128):
        switched = switched_product(grid128, 0, 0)
        assert entanglement_entropy(switched, "B") == pytest.approx(
            SWITCHED_GROUND_ENTROPY, abs=1e-6
        )

    def test_cut_symmetry(self, grid128):
        switched = switched_product(grid128, 0, 0, alpha_a=0.5)
        assert entanglement_entropy(switched, "B") == pytest.approx(
            entanglement_entropy(switched, "C"), abs=1e-10
        )

    def test_broader_frame_state_entangles_more(self):
        # scanned direction: lowering alpha_A/alpha_B (broader frame-particle
        # wavefunction) increases the switched-state entanglement
        grid = Grid1D(256, 40.0)
        narrow = entanglement_entropy(switched_product(grid, 0, 0, 1.0, 1.0), "B")
        broad = entanglement_entropy(switched_product(grid, 0, 0, 0.1, 10.0), "B")
        broadest = entanglement_entropy(switched_product(grid, 0, 0, 0.1 * 0.1, 10.0), "B")
        assert broad > narrow
        assert broadest > broad


class TestWignerGridType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            WignerGrid(np.linspace(0, 1, 4), np.linspace(0, 1, 5), np.zeros((4, 4)))

    def test_value_lookup(self):
        grid = closed_form_eigenstate_wigner(0, 1.0)
        assert grid.value_at(0.0, 0.0) == pytest.approx(1 / np.pi, abs=1e-9)


GRID16 = Grid1D(16, 10.0)


def one_axis():
    return gaussian_state(GRID16, "B")


def two_axes():
    return product_state(gaussian_state(GRID16, "B"), gaussian_state(GRID16, "C"))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: DensityMatrix(np.eye(8) / 8, GRID16), InvalidDensityMatrix, "does not match the grid size 16"),
        (lambda: density_matrix_from_pure(two_axes()), ValueError, "expected a state with 1 axes, got 2"),
        (lambda: partial_trace(one_axis(), "B"), ValueError, "expected a state with 2 axes, got 1"),
        (lambda: entanglement_entropy(one_axis(), "B"), ValueError, "with 2 axes"),
        (lambda: transformed_joint_wigner(0, 2, 1.0, 1.0), ValueError, "only levels 0 and 1"),
        (lambda: transformed_joint_wigner(0, 1, 1.0, np.inf), ValueError, "alpha must be positive and finite"),
    ],
    ids=[
        "density-shape", "pure-two-axes", "trace-one-axis", "entropy-one-axis",
        "joint-level-2", "joint-infinite-width",
    ],
)
def test_each_documented_input_error_raises_its_type(build, error, message):
    with pytest.raises(error, match=message):
        build()
