import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrf.classical import (
    FRAME_A,
    FRAME_B,
    FRAME_C,
    FREE_POTENTIAL,
    ExtendedPhasePoint,
    FrameLabel,
    ParticleSystem,
    Potential,
    ReducedPhasePoint,
    classical_frame_switch,
    dirac_bracket,
    embed_reduced,
    frame_map,
    gauge_flow,
    lagrangian_momenta,
    pin_frame,
    poisson_bracket,
    project_reduced,
    spring_potential,
    total_momentum,
)
from qrf.errors import ConstraintViolation, SameFrame

from oracles import (
    momentum_coordinate,
    padded_spring_potential,
    per_spring_potential,
    position_coordinate,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def on_surface_point(rng, n=3):
    q = rng.uniform(-1, 1, n)
    p = rng.uniform(-1, 1, n)
    p -= p.mean()
    return ExtendedPhasePoint(q, p)


class TestTotalMomentum:
    def test_zero_sum(self):
        assert total_momentum(ExtendedPhasePoint([0, 0, 0], [1, 2, -3])) == 0.0

    def test_plain_sum(self):
        assert total_momentum(ExtendedPhasePoint([0, 0, 0], [1, 1, 1])) == 3.0

    def test_gauge_flow_preserves_momentum(self, rng):
        point = on_surface_point(rng, n=5)
        flowed = gauge_flow(point, 1.7)
        assert total_momentum(flowed) == total_momentum(point)


class TestGaugeFlow:
    def test_translates_positions(self):
        flowed = gauge_flow(ExtendedPhasePoint([0, 0, 0], [1, -1, 0]), 2.0)
        assert_allclose(flowed.q, [2, 2, 2])
        assert_allclose(flowed.p, [1, -1, 0])

    @given(s1=finite, s2=finite)
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, s1, s2):
        point = ExtendedPhasePoint([0.3, -1.2, 2.0], [0.1, 0.2, -0.3])
        twice = gauge_flow(gauge_flow(point, s1), s2)
        once = gauge_flow(point, s1 + s2)
        assert_allclose(twice.q, once.q, atol=1e-12)

    def test_zero_is_identity(self):
        point = ExtendedPhasePoint([0.3, -1.2, 2.0], [0.1, 0.2, -0.3])
        flowed = gauge_flow(point, 0.0)
        assert np.array_equal(flowed.q, point.q)

    def test_preserves_relative_distances(self, rng):
        point = on_surface_point(rng, n=4)
        flowed = gauge_flow(point, -3.21)
        diffs = point.q[:, None] - point.q[None, :]
        flowed_diffs = flowed.q[:, None] - flowed.q[None, :]
        assert_allclose(flowed_diffs, diffs, atol=1e-14, rtol=0)


class TestEmbedProject:
    def test_embedding_example(self):
        rp = ReducedPhasePoint(FRAME_A, [1, 3], [2, 4])
        ext = embed_reduced(rp)
        assert_allclose(ext.q, [0, 1, 3])
        assert_allclose(ext.p, [-6, 2, 4])

    def test_zero_maps_to_zero(self):
        ext = embed_reduced(ReducedPhasePoint(FRAME_B, [0, 0], [0, 0]))
        assert np.all(ext.q == 0) and np.all(ext.p == 0)

    @pytest.mark.parametrize("frame", [FRAME_A, FRAME_B, FRAME_C])
    def test_image_on_gauge_fixed_surface(self, frame, rng):
        rp = ReducedPhasePoint(frame, rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2))
        ext = embed_reduced(rp)
        assert total_momentum(ext) == 0.0
        assert ext.q[frame.index] == 0.0

    def test_project_inverts_embed(self, rng):
        rp = ReducedPhasePoint(FRAME_C, rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3))
        back = project_reduced(embed_reduced(rp), FRAME_C)
        assert np.array_equal(back.q_rel, rp.q_rel)
        assert np.array_equal(back.p_rel, rp.p_rel)

    def test_projection_example(self):
        point = ExtendedPhasePoint([0, 1, 3], [-6, 2, 4])
        rp = project_reduced(point, FRAME_A)
        assert_allclose(rp.q_rel, [1, 3])
        assert_allclose(rp.p_rel, [2, 4])

    def test_gauge_violation_rejected(self):
        point = ExtendedPhasePoint([0.5, 1, 3], [-6, 2, 4])
        with pytest.raises(ConstraintViolation):
            project_reduced(point, FRAME_A)

    def test_momentum_violation_rejected(self):
        point = ExtendedPhasePoint([0, 1, 3], [1, 2, 4])
        with pytest.raises(ConstraintViolation):
            project_reduced(point, FRAME_A)


class TestFrameSwitch:
    def test_switch_example_a_to_c(self):
        rp = ReducedPhasePoint(FRAME_A, [1, 3], [2, 4])
        out = classical_frame_switch(rp, FRAME_C)
        # (q'_A, p'_A, q'_B, p'_B) = (-q_C, -p_B - p_C, q_B - q_C, p_B)
        assert_allclose(out.q_rel, [-3, -2])
        assert_allclose(out.p_rel, [-6, 2])

    def test_zero_is_fixed_point(self):
        rp = ReducedPhasePoint(FRAME_A, [0, 0], [0, 0])
        out = classical_frame_switch(rp, FRAME_B)
        assert np.all(out.q_rel == 0) and np.all(out.p_rel == 0)

    def test_round_trip(self, rng):
        for _ in range(100):
            rp = ReducedPhasePoint(FRAME_A, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
            back = classical_frame_switch(classical_frame_switch(rp, FRAME_C), FRAME_A)
            assert_allclose(back.q_rel, rp.q_rel, atol=1e-15, rtol=0)
            assert_allclose(back.p_rel, rp.p_rel, atol=1e-15, rtol=0)

    def test_same_frame_rejected(self):
        rp = ReducedPhasePoint(FRAME_A, [1, 3], [2, 4])
        with pytest.raises(SameFrame, match="already in frame A"):
            classical_frame_switch(rp, FRAME_A)

    def test_new_frame_out_of_range_rejected(self):
        rp = ReducedPhasePoint(FRAME_A, [1, 3], [2, 4])
        with pytest.raises(ValueError, match=r"frame index 3 out of range for n=3"):
            classical_frame_switch(rp, FrameLabel(3))

    def test_large_momenta_switch(self):
        # the embedded momenta sum to 6e-9 by rounding, above CONSTRAINT_TOL;
        # the switch builds no extended point, so it has no surface to miss
        rp = ReducedPhasePoint(FRAME_A, [0.0, 0.0], [1e8, 0.1])
        out = classical_frame_switch(rp, FRAME_C)
        assert out.p_rel.tolist() == [-(1e8 + 0.1), 1e8]

    def test_general_n(self, rng):
        # five particles: switching is just a relabelled translation
        rp = ReducedPhasePoint(FrameLabel(2), rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4))
        out = classical_frame_switch(rp, FrameLabel(4))
        ext_in = embed_reduced(rp)
        ext_out = embed_reduced(out)
        # relative distances and momenta are frame-independent observables
        for i in range(5):
            for j in range(5):
                assert_allclose(
                    ext_out.q[i] - ext_out.q[j], ext_in.q[i] - ext_in.q[j], atol=1e-12
                )
        assert_allclose(ext_out.p, ext_in.p, atol=1e-12)


def ordered_frame_pairs(n):
    return list(itertools.permutations([FrameLabel(i) for i in range(n)], 2))


class TestFrameMap:
    """``frame_map`` is the paper's embed -> flow -> project, written on arrays."""

    @staticmethod
    def construction(q_rel, p_rel, old, new):
        extended = embed_reduced(ReducedPhasePoint(old, q_rel, p_rel))
        moved = project_reduced(gauge_flow(extended, -extended.q[new.index]), new)
        return moved.q_rel, moved.p_rel

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_embed_flow_project_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for old, new in ordered_frame_pairs(n):
            # magnitudes over six decades, so that the subtractions round
            shape = (2, n - 1, 300)
            q, p = rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-3, 4, shape)
            stacked = frame_map(q, p, old, new)
            for k in range(shape[-1]):
                expected = self.construction(q[:, k], p[:, k], old, new)
                single = frame_map(q[:, k], p[:, k], old, new)
                column = (stacked[0][:, k], stacked[1][:, k])
                for got in (single, column):
                    assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]

    @staticmethod
    def signed_draw(rng, shape):
        """Values over six decades with a third of the entries +0.0 or -0.0."""
        values = rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-3, 4, shape)
        values[rng.random(shape) < 1 / 6] = 0.0
        values[rng.random(shape) < 1 / 6] = -0.0
        return values

    @pytest.mark.parametrize("n", range(2, 9))
    def test_signed_zeros_and_same_frame_bit_for_bit(self, n):
        # every ordered pair and old == new, as single points and as stacks;
        # the old frame's row is 0.0 - q_r, which is +0.0 where -q_r is -0.0
        rng = np.random.default_rng(100 + n)
        frames = [FrameLabel(i) for i in range(n)]
        for old, new in itertools.product(frames, repeat=2):
            q, p = self.signed_draw(rng, (2, n - 1, 40))
            q[:, :2], p[:, :2] = 0.0, -0.0  # all-zero columns, of both signs
            q[:, 2], p[:, 2] = -0.0, 0.0
            stacked = frame_map(q, p, old, new)
            for k in range(q.shape[-1]):
                expected = [a.tobytes() for a in self.construction(q[:, k], p[:, k], old, new)]
                single = frame_map(q[:, k], p[:, k], old, new)
                assert [a.tobytes() for a in single] == expected
                assert [a[:, k].tobytes() for a in stacked] == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stacked_positions_with_one_momentum_list(self, n):
        # fig3's form: a stacked q with a 1-d zero p, mapped in one call
        rng = np.random.default_rng(200 + n)
        q, p = self.signed_draw(rng, (n - 1, 30)), np.zeros(n - 1)
        for old, new in ordered_frame_pairs(n):
            got_q, got_p = frame_map(q, p, old, new)
            assert got_q.shape == q.shape and got_p.shape == p.shape
            for k in range(q.shape[-1]):
                want_q, want_p = self.construction(q[:, k], p, old, new)
                assert got_q[:, k].tobytes() == want_q.tobytes()
                assert got_p.tobytes() == want_p.tobytes()

    @pytest.mark.parametrize("old, new", [(3, 0), (0, 3), (7, 7)])
    def test_frame_out_of_range_raises(self, old, new):
        q = np.zeros(2)  # three particles
        with pytest.raises(IndexError, match="out of range for 3 particles"):
            frame_map(q, q, FrameLabel(old), FrameLabel(new))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_blocks_are_integer_and_symplectic(self, n):
        eye = np.eye(n - 1)
        zero = np.zeros_like(eye)
        omega = np.block([[zero, eye], [-eye, zero]])
        for old, new in ordered_frame_pairs(n):
            q_block, p_block = frame_map(eye, eye, old, new)
            m = np.block([[q_block, zero], [zero, p_block]])
            assert set(np.unique(m)) <= {-1.0, 0.0, 1.0}
            assert np.array_equal(m @ omega @ m.T, omega)
            back_q, back_p = frame_map(q_block, p_block, new, old)
            assert np.array_equal(back_q, eye) and np.array_equal(back_p, eye)

    def test_classical_frame_switch_is_the_map(self, rng):
        rp = ReducedPhasePoint(FrameLabel(1), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        out = classical_frame_switch(rp, FrameLabel(3))
        q, p = frame_map(rp.q_rel, rp.p_rel, FrameLabel(1), FrameLabel(3))
        assert out.frame == FrameLabel(3)
        assert out.q_rel.tobytes() == q.tobytes() and out.p_rel.tobytes() == p.tobytes()


class TestDiracBracket:
    def test_frame_coordinate_pair_vanishes(self, rng):
        for _ in range(20):
            point = on_surface_point(rng)
            value = dirac_bracket(
                position_coordinate(0), momentum_coordinate(0), point, FRAME_A
            )
            assert abs(value) <= 1e-6

    def test_surviving_pairs_are_canonical(self, rng):
        for _ in range(20):
            point = on_surface_point(rng)
            for i in (1, 2):
                for j in (1, 2):
                    value = dirac_bracket(
                        position_coordinate(i), momentum_coordinate(j), point, FRAME_A
                    )
                    assert abs(value - (1.0 if i == j else 0.0)) <= 1e-6

    def test_other_frame(self, rng):
        point = on_surface_point(rng)
        assert abs(dirac_bracket(position_coordinate(1), momentum_coordinate(1), point, FRAME_B)) <= 1e-6
        assert abs(dirac_bracket(position_coordinate(0), momentum_coordinate(0), point, FRAME_B) - 1) <= 1e-6

    @pytest.mark.parametrize("frame", [FRAME_A, FRAME_C], ids=["A", "C"])
    def test_matches_five_bracket_definition(self, rng, frame):
        # the linear brackets with P and chi = q_frame, taken here by finite differences
        def f(q, p):
            return np.sin(q[0] - q[1]) * p[2] + q[2] ** 2 * p[0] ** 3

        def g(q, p):
            return np.exp(0.3 * q[1]) * np.cos(p[1] - p[0]) + q[0] * q[2] * p[2]

        def chi(q, p):
            return q[frame.index]

        def momentum(q, p):
            return float(np.sum(p))

        for _ in range(10):
            point = on_surface_point(rng)
            expected = (
                poisson_bracket(f, g, point)
                - poisson_bracket(f, momentum, point) * poisson_bracket(chi, g, point)
                + poisson_bracket(f, chi, point) * poisson_bracket(momentum, g, point)
            )
            assert abs(dirac_bracket(f, g, point, frame) - expected) <= 1e-9

    def test_poisson_canonical_pairs(self, rng):
        point = on_surface_point(rng)
        assert abs(poisson_bracket(position_coordinate(1), momentum_coordinate(1), point) - 1) <= 1e-6
        assert abs(poisson_bracket(position_coordinate(1), momentum_coordinate(2), point)) <= 1e-6


class TestDiracObservables:
    def test_momenta_and_distances_flow_invariant(self, rng):
        point = on_surface_point(rng, n=4)
        for s in (-2.0, 0.7, 11.3):
            flowed = gauge_flow(point, s)
            assert np.array_equal(flowed.p, point.p)
            diffs = point.q[:, None] - point.q[None, :]
            flowed_diffs = flowed.q[:, None] - flowed.q[None, :]
            assert_allclose(flowed_diffs, diffs, atol=1e-14, rtol=0)


class TestLagrangianMomenta:
    def test_pure_center_of_mass_motion(self):
        assert_allclose(lagrangian_momenta([1.0, 1.0, 1.0]), [0, 0, 0], atol=1e-15)

    def test_single_particle_kick(self):
        assert_allclose(lagrangian_momenta([1.0, 0.0, 0.0]), [2 / 3, -1 / 3, -1 / 3])

    @given(st.lists(finite, min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_image_on_constraint_surface(self, velocities):
        assert abs(np.sum(lagrangian_momenta(velocities))) <= 1e-12


class TestPotential:
    def test_spring_translation_invariance(self, rng):
        potential = spring_potential([(2, 0, 1.0), (2, 1, 2.5)])
        for _ in range(10):
            q = rng.uniform(-3, 3, 3)
            assert abs(potential(q + rng.uniform(-5, 5)) - potential(q)) <= 1e-10

    def test_spring_gradient_sums_to_zero(self, rng):
        potential = spring_potential([(2, 0, 1.0), (2, 1, 2.5)])
        grad = potential.gradient(rng.uniform(-3, 3, 3))
        assert abs(grad.sum()) <= 1e-12

    def test_finite_difference_gradient(self, rng):
        analytic = spring_potential([(1, 0, 1.3)])
        numeric = Potential(lambda q: 0.5 * 1.3 * (q[1] - q[0]) ** 2)
        q = rng.uniform(-2, 2, 2)
        assert_allclose(numeric.gradient(q), analytic.gradient(q), atol=1e-7)

    def test_free_potential(self):
        assert FREE_POTENTIAL([1.0, 2.0, 3.0]) == 0.0
        assert np.all(FREE_POTENTIAL.gradient(np.zeros(3)) == 0)

    @pytest.mark.parametrize(
        "potential",
        [
            FREE_POTENTIAL,
            spring_potential([(2, 0, 1.0), (2, 1, 2.5), (0, 1, 0.7)]),
            Potential(lambda q: 0.5 * 1.3 * (q[1] - q[0]) ** 2 + np.cos(q[2] - q[0])),
        ],
        ids=["free", "springs", "user"],
    )
    def test_energy_broadcasts_over_particle_first_arrays(self, potential, rng):
        q = rng.uniform(-2, 2, (3, 4, 5))
        energy = potential(q)
        assert energy.shape == (4, 5)
        pointwise = [[potential(q[:, i, j]) for j in range(5)] for i in range(4)]
        assert_allclose(energy, pointwise, rtol=1e-14, atol=1e-15)

    def test_non_broadcasting_energy_rejected(self, rng):
        summed = Potential(lambda q: np.sum((q[1] - q[0]) ** 2))
        assert summed(rng.uniform(-1, 1, 3)) >= 0.0
        with pytest.raises(ValueError, match="broadcast"):
            summed(rng.uniform(-1, 1, (3, 4)))


class TestSpringGradient:
    """The stiffness-matrix gradient against the per-spring accumulation."""

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_frame_pinned_star_matches_per_spring_loop(self, n, rng):
        # springs from every particle to the frame, frame pinned at the origin:
        # each surviving row is one product, exact; the frame row is a sum and
        # may differ in the last bit, which no reduced quantity reads
        for frame in range(n):
            springs = [(frame, i, k) for i, k in enumerate(rng.uniform(0.5, 3.0, n)) if i != frame]
            new, old = spring_potential(springs), per_spring_potential(springs)
            for _ in range(50):
                q = rng.uniform(-2, 2, n)
                q[frame] = 0.0
                a, b = new.gradient(q), old.gradient(q)
                assert np.array_equal(np.delete(a, frame), np.delete(b, frame))
                assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_general_springs_match_per_spring_loop(self, rng):
        springs = [(2, 0, 1.0), (2, 1, 2.5), (0, 1, 0.7), (3, 1, 1.1), (1, 3, 0.4)]
        new, old = spring_potential(springs), per_spring_potential(springs)
        for _ in range(50):
            q = rng.uniform(-2, 2, 4)
            assert_allclose(new.gradient(q), old.gradient(q), rtol=1e-12, atol=1e-12)

    def test_particles_beyond_the_springs_feel_no_force(self, rng):
        q = rng.uniform(-2, 2, 3)
        grad = spring_potential([(1, 0, 1.3)]).gradient(q)
        expected = per_spring_potential([(1, 0, 1.3)]).gradient(q)
        assert_allclose(grad, expected, rtol=1e-12, atol=1e-12)
        assert grad[2] == 0.0

    @pytest.mark.parametrize("extra", [0, 2], ids=["springs-span-all", "particles-beyond"])
    def test_bit_identical_to_zero_padded_gradient(self, extra, rng):
        # K @ q returned directly when the springs span every particle, and
        # written into a zeroed array when some particles lie beyond them
        pairs = [(2, 0), (2, 1), (0, 1), (3, 1), (1, 3)]
        for _ in range(20):
            springs = [(i, j, k) for (i, j), k in zip(pairs, rng.uniform(0.5, 3.0, len(pairs)))]
            new, old = spring_potential(springs), padded_spring_potential(springs)
            for _ in range(20):
                q = rng.uniform(-2, 2, 4 + extra)
                assert np.array_equal(new.gradient(q), old.gradient(q))

    @pytest.mark.parametrize("n", [1, 2])
    def test_spring_index_beyond_the_particles_raises(self, n):
        with pytest.raises(ValueError):
            spring_potential([(2, 0, 1.0)]).gradient(np.zeros(n))

    def test_negative_spring_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spring_potential([(-1, 0, 1.0)])


class TestPinFrame:
    @pytest.mark.parametrize("frame", [FRAME_A, FRAME_B, FRAME_C])
    def test_inserts_frame_slot_along_first_axis(self, frame, rng):
        values = rng.uniform(-1, 1, (2, 3, 4))
        pinned = pin_frame(values, frame, fill=7.0)
        assert pinned.shape == (3, 3, 4)
        assert np.all(pinned[frame.index] == 7.0)
        assert np.array_equal(np.delete(pinned, frame.index, axis=0), values)

    @pytest.mark.parametrize("shape", [(2,), (2, 5), (2, 3, 4)])
    @pytest.mark.parametrize("frame", [FRAME_A, FRAME_B, FRAME_C])
    def test_matches_np_insert(self, frame, shape, rng):
        values = rng.uniform(-1, 1, shape)
        pinned = pin_frame(values, frame, fill=-1.5)
        expected = np.insert(values, frame.index, -1.5, axis=0)
        assert pinned.shape == expected.shape
        assert np.array_equal(pinned, expected)

    @pytest.mark.parametrize("index", [3, 4, 9])
    def test_frame_index_out_of_range_raises(self, index, rng):
        with pytest.raises(IndexError):
            pin_frame(rng.uniform(-1, 1, (2, 3)), FrameLabel(index))


class TestTypes:
    def test_frame_label_names(self):
        assert FrameLabel(0).name == "A"

    def test_particle_system_validation(self):
        with pytest.raises(ValueError):
            ParticleSystem(1)
        with pytest.raises(ValueError):
            ParticleSystem(3, masses=[1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            ParticleSystem(3, masses=[1.0, 1.0])

    def test_phase_point_validation(self):
        largest = np.finfo(float).max
        for build in (ExtendedPhasePoint, lambda q, p: ReducedPhasePoint(FRAME_A, q, p)):
            # the shape errors come first, whatever the entries hold
            with pytest.raises(ValueError, match="expected 2 momenta"):
                build([1.0, np.nan], [1.0])
            with pytest.raises(ValueError, match="1-d"):
                build([[np.nan, 0.0]], [[0.0, np.inf]])
            for bad in (np.nan, np.inf, -np.inf):
                for q, p in (([bad, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, bad])):
                    with pytest.raises(ValueError, match="finite"):
                        build(q, p)
            with pytest.raises(ValueError, match="finite"):
                build([np.inf, 0.0], [-np.inf, 0.0])
            # finite entries whose sums overflow: each entry is tested on its own
            build([largest, largest], [-largest, -largest])

    def test_reduced_point_labels(self):
        rp = ReducedPhasePoint(FRAME_B, [1.0, 2.0], [0.0, 0.0])
        assert rp.labels == (0, 2)
        assert rp.n == 3
