import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrf.classical import (
    FRAME_A,
    FRAME_C,
    FREE_POTENTIAL,
    ExtendedPhasePoint,
    FrameLabel,
    ParticleSystem,
    Potential,
    ReducedPhasePoint,
    classical_frame_switch,
    pin_frame,
    spring_potential,
)
from qrf.dynamics import (
    PROPAGATOR_BLOCK,
    OscillatorParams,
    Trajectory,
    analytic_oscillator_frame_a,
    analytic_oscillator_frame_c,
    integrate_reduced,
    kinetic_matrix,
    reduced_hamiltonian,
    total_hamiltonian,
)
from qrf.errors import InvalidStep, NumericalFailure

from oracles import (
    acceleration_identity_check,
    fresh_array_spring_trajectory,
    longdouble_leapfrog,
    padded_spring_potential,
    per_spring_potential,
    two_force_leapfrog,
    without_stiffness,
)

# the three-body system of the classical-ensemble benchmark: masses of A, B, C
# and springs C--A, C--B
ENSEMBLE_MASSES = [1.0, 2.0, 1.5]
ENSEMBLE_SPRINGS = [(2, 0, 1.0), (2, 1, 3.0)]


def matched_initial_conditions(params, frame_c=True):
    """Reduced phase-space point reproducing the decoupled solutions at t=0."""
    x_a, x_b = analytic_oscillator_frame_c(params, 0.0)
    v_a = -params.a0 * params.omega_a * np.sin(params.phi_a)
    v_b = -params.b0 * params.omega_b * np.sin(params.phi_b)
    momenta = np.linalg.solve(
        2 * kinetic_matrix(params.system(), FRAME_C), np.array([v_a, v_b])
    )
    rp_c = ReducedPhasePoint(FRAME_C, [float(x_a), float(x_b)], momenta)
    return rp_c if frame_c else classical_frame_switch(rp_c, FRAME_A)


class TestTotalHamiltonian:
    def test_multiplier_independent_on_surface(self):
        point = ExtendedPhasePoint([0.2, -1.0, 0.5], [1.0, 1.0, -2.0])
        values = {total_hamiltonian(point, FREE_POTENTIAL, lam) for lam in (-3.0, 0.0, 7.0)}
        assert len(values) == 1

    def test_free_value(self):
        point = ExtendedPhasePoint([0, 0, 0], [1.0, 1.0, -2.0])
        assert total_hamiltonian(point, FREE_POTENTIAL, 0.0) == 3.0

    def test_gauge_fixing_multiplier_freezes_frame(self):
        # with lam = -p_A the canonical velocity dq_A/dt = dH/dp_A vanishes
        point = ExtendedPhasePoint([0.0, 0.3, -0.6], [0.4, 0.1, -0.5])
        lam = -point.p[0]
        h = 1e-6
        plus = ExtendedPhasePoint(point.q, [point.p[0] + h, point.p[1], point.p[2]])
        minus = ExtendedPhasePoint(point.q, [point.p[0] - h, point.p[1], point.p[2]])
        velocity = (
            total_hamiltonian(plus, FREE_POTENTIAL, lam)
            - total_hamiltonian(minus, FREE_POTENTIAL, lam)
        ) / (2 * h)
        assert abs(velocity) <= 1e-9


class TestReducedHamiltonian:
    def test_unit_mass_value(self):
        rp = ReducedPhasePoint(FRAME_A, [0.0, 0.0], [1.0, 1.0])
        assert reduced_hamiltonian(rp, FREE_POTENTIAL, ParticleSystem(3)) == pytest.approx(3.0)

    def test_heavy_frame_limit(self):
        rp = ReducedPhasePoint(FRAME_A, [0.3, -0.2], [0.7, -0.4])
        heavy = ParticleSystem(3, masses=[1e12, 1.0, 1.0])
        value = reduced_hamiltonian(rp, FREE_POTENTIAL, heavy)
        usual = 0.5 * (0.7**2 + 0.4**2)
        assert abs(value - usual) / usual <= 1e-9

    def test_zero_point(self):
        rp = ReducedPhasePoint(FRAME_A, [0.0, 0.0], [0.0, 0.0])
        assert reduced_hamiltonian(rp, FREE_POTENTIAL, ParticleSystem(3)) == 0.0

    def test_mass_weighted_form(self):
        # frame C with masses: xi_A^2/2m_A + xi_B^2/2m_B + (xi_A + xi_B)^2/2m_C
        masses = [2.0, 3.0, 5.0]
        system = ParticleSystem(3, masses=masses)
        xi = np.array([0.7, -1.1])
        rp = ReducedPhasePoint(FRAME_C, [0.0, 0.0], xi)
        expected = (
            xi[0] ** 2 / (2 * masses[0])
            + xi[1] ** 2 / (2 * masses[1])
            + (xi[0] + xi[1]) ** 2 / (2 * masses[2])
        )
        assert reduced_hamiltonian(rp, FREE_POTENTIAL, system) == pytest.approx(expected)


class TestIntegrateReduced:
    def test_free_flow_exact(self):
        rp = ReducedPhasePoint(FRAME_A, [0.3, -0.2], [0.5, 0.1])
        traj = integrate_reduced(rp, FREE_POTENTIAL, ParticleSystem(3), 1.0, 0.01)
        expected_b = 0.3 + (2 * 0.5 + 0.1) * traj.times
        expected_c = -0.2 + (2 * 0.1 + 0.5) * traj.times
        assert_allclose(traj.q[:, 0], expected_b, atol=1e-13)
        assert_allclose(traj.q[:, 1], expected_c, atol=1e-13)

    def test_invalid_step(self):
        rp = ReducedPhasePoint(FRAME_A, [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(InvalidStep):
            integrate_reduced(rp, FREE_POTENTIAL, ParticleSystem(3), 1.0, 0.0)

    @pytest.mark.parametrize(
        "t_final, dt",
        [(-5.0, 1e-2), (float("nan"), 1e-2), (float("inf"), 1e-2), (1.0, float("nan")), (1.0, float("inf")),
         (1.0, -1e-2)],
        ids=["t_final-negative", "t_final-nan", "t_final-inf", "dt-nan", "dt-inf", "dt-negative"],
    )
    def test_invalid_span_rejected(self, t_final, dt):
        rp = ReducedPhasePoint(FRAME_A, [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(InvalidStep):
            integrate_reduced(rp, FREE_POTENTIAL, ParticleSystem(3), t_final, dt)

    @pytest.mark.parametrize("springs", [ENSEMBLE_SPRINGS, None], ids=["spring", "free"])
    def test_particle_count_must_match_the_system(self, springs):
        # checked before any arithmetic, on the propagator and the loop alike
        potential = spring_potential(springs) if springs else FREE_POTENTIAL
        rp = ReducedPhasePoint(FRAME_C, [0.3, -0.2], [0.1, 0.4])
        with pytest.raises(ValueError, match="initial point has 3 particles, the system 4"):
            integrate_reduced(rp, potential, ParticleSystem(4), 1.0, 1e-2)

    @pytest.mark.parametrize("t_final", [0.0, 0.004])
    def test_less_than_half_a_step_is_the_initial_point(self, t_final):
        # the loop and the spring propagator, at both orders
        rp = ReducedPhasePoint(FRAME_A, [0.3, -0.2], [0.5, 0.1])
        for potential in (FREE_POTENTIAL, spring_potential(ENSEMBLE_SPRINGS)):
            for order in (2, 4):
                traj = integrate_reduced(rp, potential, ParticleSystem(3), t_final, 0.01, order=order)
                assert traj.times.tolist() == [0.0]
                assert traj.q.tolist() == [[0.3, -0.2]]
                assert traj.p.tolist() == [[0.5, 0.1]]

    def test_matches_analytic_oscillators(self):
        params = OscillatorParams(k_a=1.0, k_b=4.0, a0=1.0, b0=1.0, phi_b=np.pi / 2)
        rp_a = matched_initial_conditions(params, frame_c=False)
        traj = integrate_reduced(rp_a, params.potential(), params.system(), 20.0, 1e-3)
        q_b, q_c = analytic_oscillator_frame_a(params, traj.times)
        error = max(np.max(np.abs(traj.q[:, 0] - q_b)), np.max(np.abs(traj.q[:, 1] - q_c)))
        assert error <= 1e-4

    def test_second_order_convergence(self):
        # frame mass heavy enough that the decoupling floor sits far below
        # the integrator error being measured
        params = OscillatorParams(k_a=1.0, k_b=4.0, a0=1.0, b0=0.5, phi_b=0.3, m_c=1e10)
        rp_a = matched_initial_conditions(params, frame_c=False)

        def max_error(dt):
            traj = integrate_reduced(rp_a, params.potential(), params.system(), 5.0, dt)
            q_b, q_c = analytic_oscillator_frame_a(params, traj.times)
            return max(np.max(np.abs(traj.q[:, 0] - q_b)), np.max(np.abs(traj.q[:, 1] - q_c)))

        coarse, fine = max_error(8e-3), max_error(4e-3)
        assert 3.0 <= coarse / fine <= 5.0

    def test_fourth_order_is_sharper(self):
        params = OscillatorParams(
            k_a=100.0, k_b=1.0, a0=0.3, b0=1.0, phi_b=np.pi / 2, m_c=1e10
        )
        rp_a = matched_initial_conditions(params, frame_c=False)
        errors = {}
        for order in (2, 4):
            traj = integrate_reduced(
                rp_a, params.potential(), params.system(), 5.0, 1e-3, order=order
            )
            q_b, q_c = analytic_oscillator_frame_a(params, traj.times)
            errors[order] = np.max(np.abs(traj.q[:, 0] - q_b))
        assert errors[4] < errors[2] / 10

    def test_energy_conservation_long_run(self):
        params = OscillatorParams()
        rp = ReducedPhasePoint(FRAME_C, [1.0, 0.5], [0.0, 0.3])
        traj = integrate_reduced(rp, params.potential(), params.system(), 100.0, 1e-3)
        energies = traj.energies(params.potential(), params.system())
        drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
        assert drift <= 1e-6

    def test_blow_up_raises_once_without_warnings(self):
        # the explicit steps overflow from step 5 on; no numpy warning may reach the caller
        def gradient(q):
            a, b = 4 * (q[0] - q[2]) ** 3, 4 * (q[1] - q[2]) ** 3
            return np.array([a, b, -a - b])

        quartic = Potential(lambda q: (q[0] - q[2]) ** 4 + (q[1] - q[2]) ** 4, gradient=gradient)
        rp = ReducedPhasePoint(FRAME_C, [3.0, -2.0], [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=r"not finite from step 5 \(t = 2\.5\)"):
                integrate_reduced(rp, quartic, ParticleSystem(3), 5.0, 0.5)


def _nonlinear_potential():
    # no analytic gradient: the integrator sees central differences
    return Potential(
        lambda q: 0.5 * (q[1] - q[0]) ** 2 + (q[2] - q[1]) ** 2 + np.cos(q[2] - q[0])
    )


class TestForceReuse:
    """One force evaluation per substep reproduces the two-force leapfrog bit for bit.

    Spring potentials take the propagator, so the spring cases run through
    ``without_stiffness``: the loop, with the stiffness gradient K @ q.
    """

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize(
        "n, frames, t_final, dt, setup",
        [
            (3, [2], 2.0, 1e-3, "ensemble"),
            (3, [0], 1.0, 1e-2, "nonlinear"),
            (3, [2], 4e-3, 1e-2, "ensemble"),
            (5, range(5), 1.0, 1e-2, "star"),
            (9, range(9), 1.0, 1e-2, "star"),
            (3, range(3), 1.0, 1e-2, "free"),
        ],
        ids=["ensemble-frame-C", "nonlinear-frame-A", "under-half-step", "star-N5", "star-N9", "free"],
    )
    def test_bit_identical_to_two_force_leapfrog(self, n, frames, t_final, dt, setup, order, rng):
        # the star is the integrate kernel's system: unit masses, a unit spring
        # from every particle to the last; it is integrated in every frame
        if setup == "ensemble":
            system = ParticleSystem(3, masses=ENSEMBLE_MASSES)
            potential = without_stiffness(spring_potential(ENSEMBLE_SPRINGS))
            reference = per_spring_potential(ENSEMBLE_SPRINGS)
        elif setup == "star":
            system = ParticleSystem(n)
            star = [(i, n - 1, 1.0) for i in range(n - 1)]
            potential = without_stiffness(spring_potential(star))
            reference = padded_spring_potential(star)
        else:
            system = ParticleSystem(3, masses=ENSEMBLE_MASSES)
            potential = reference = _nonlinear_potential() if setup == "nonlinear" else FREE_POTENTIAL
        for frame in frames:
            rp = ReducedPhasePoint(FrameLabel(frame), rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1))
            traj = integrate_reduced(rp, potential, system, t_final, dt, order=order)
            q, p = two_force_leapfrog(rp, reference, system, t_final, dt, order=order)
            assert len(traj) == len(q)
            assert np.array_equal(traj.q, q)
            assert np.array_equal(traj.p, p)

    @pytest.mark.parametrize("order, substeps", [(2, 1), (4, 3)])
    def test_one_gradient_call_per_substep(self, order, substeps):
        # a Potential is frozen, so the counter wraps it in a new one
        springs, calls = per_spring_potential(ENSEMBLE_SPRINGS), []
        potential = Potential(springs, gradient=lambda q: calls.append(None) or springs.gradient(q))
        rp = ReducedPhasePoint(FRAME_C, [0.3, -0.2], [0.1, 0.4])
        steps = 50
        integrate_reduced(rp, potential, ParticleSystem(3), steps * 1e-2, 1e-2, order=order)
        assert len(calls) == 1 + substeps * steps


class TestSpringPropagator:
    """A spring potential is integrated through the powers of its one-step matrix."""

    @pytest.mark.parametrize("order", [2, 4])
    def test_unstable_spring_step_raises(self, order):
        # leapfrog is unstable beyond omega dt = 2; the propagator's powers overflow
        rp = ReducedPhasePoint(FRAME_C, [0.3, -0.2], [0.1, 0.4])
        potential = spring_potential(ENSEMBLE_SPRINGS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=r"not finite from step \d+ \(t = "):
                integrate_reduced(rp, potential, ParticleSystem(3), 5000.0, 10.0, order=order)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="no 64-bit long double mantissa")
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_long_double_leapfrog(self, order, rng):
        system = ParticleSystem(3, masses=ENSEMBLE_MASSES)
        potential = spring_potential(ENSEMBLE_SPRINGS)
        rp = ReducedPhasePoint(FRAME_C, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        traj = integrate_reduced(rp, potential, system, 20.0, 1e-3, order=order)
        reference = longdouble_leapfrog(rp, potential, system, 20.0, 1e-3, order=order)
        assert len(traj) == 20001
        assert np.max(np.abs(np.hstack([traj.q, traj.p]) - reference)) <= 5e-14

    # order 4 in one frame: the order only changes the one-step matrix, the
    # frame only which rows and columns of K and of the drift are taken
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_matches_two_force_leapfrog(self, n, order, rng):
        # the integrate kernel's star: unit masses, a unit spring from every particle to the last
        system, star = ParticleSystem(n), [(i, n - 1, 1.0) for i in range(n - 1)]
        potential, reference = spring_potential(star), padded_spring_potential(star)
        for frame in range(n) if order == 2 else [0]:
            rp = ReducedPhasePoint(FrameLabel(frame), rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1))
            traj = integrate_reduced(rp, potential, system, 10.0, 1e-3, order=order)
            q, p = two_force_leapfrog(rp, reference, system, 10.0, 1e-3, order=order)
            assert len(traj) == len(q) == 10001
            assert max(np.max(np.abs(traj.q - q)), np.max(np.abs(traj.p - p))) <= 2e-13

    @pytest.mark.parametrize("steps", [37, 2 * PROPAGATOR_BLOCK + 5, 1000])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_matches_fresh_array_recurrence_byte_for_byte(self, n, order, steps, rng):
        # the recurrence writes into preallocated arrays; every sum keeps its two operands
        system, star = ParticleSystem(n), [(i, n - 1, 1.0 + i) for i in range(n - 1)]
        potential = spring_potential(star)
        rp = ReducedPhasePoint(FrameLabel(n - 1), rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1))
        traj = integrate_reduced(rp, potential, system, steps * 1e-2, 1e-2, order=order)
        q, p = fresh_array_spring_trajectory(rp, potential, system, steps * 1e-2, 1e-2, order=order)
        assert len(traj) == steps + 1
        assert traj.q.tobytes() == q.tobytes() and traj.p.tobytes() == p.tobytes()

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 127, 128, 129, 130])
    def test_every_block_length_matches_the_loop(self, steps, rng):
        # partial last blocks and exact multiples of the block length, from
        # one, two and three block heads
        system = ParticleSystem(3, masses=ENSEMBLE_MASSES)
        potential = spring_potential(ENSEMBLE_SPRINGS)
        rp = ReducedPhasePoint(FRAME_C, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        traj = integrate_reduced(rp, potential, system, steps * 1e-2, 1e-2)
        loop = integrate_reduced(rp, without_stiffness(potential), system, steps * 1e-2, 1e-2)
        assert len(traj) == steps + 1
        assert_allclose(traj.q, loop.q, rtol=0, atol=1e-14)
        assert_allclose(traj.p, loop.p, rtol=0, atol=1e-14)

    def test_initial_sample_keeps_signed_zeros(self):
        # the first sample is z_0 as given, not z_0 + D_0 z_0
        rp = ReducedPhasePoint(FRAME_C, [-0.0, 0.3], [0.1, -0.0])
        traj = integrate_reduced(rp, spring_potential(ENSEMBLE_SPRINGS), ParticleSystem(3), 1.0, 1e-2)
        assert np.signbit(traj.q[0]).tolist() == [True, False]
        assert np.signbit(traj.p[0]).tolist() == [False, True]

    def test_never_calls_the_gradient(self, monkeypatch):
        # a Potential is frozen, so the failing force is patched on its class
        monkeypatch.setattr(
            Potential, "gradient", lambda self, q: pytest.fail("the propagator evaluated a force")
        )
        potential = spring_potential(ENSEMBLE_SPRINGS)
        rp = ReducedPhasePoint(FRAME_C, [0.3, -0.2], [0.1, 0.4])
        integrate_reduced(rp, potential, ParticleSystem(3), 1.0, 1e-2, order=4)

    def test_particles_without_springs_move_freely(self, rng):
        # springs on particles 0 and 1 of four: 2 and 3 move freely
        system = ParticleSystem(4)
        potential = spring_potential([(0, 1, 2.0)])
        rp = ReducedPhasePoint(FrameLabel(3), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        traj = integrate_reduced(rp, potential, system, 1.0, 1e-2)
        loop = integrate_reduced(rp, without_stiffness(potential), system, 1.0, 1e-2)
        assert_allclose(np.hstack([traj.q, traj.p]), np.hstack([loop.q, loop.p]), rtol=0, atol=1e-14)

    def test_spring_beyond_the_system_rejected(self):
        # the propagator must not drop the spring by slicing K to the system
        potential = spring_potential([(2, 0, 1.0), (4, 1, 2.0)])
        rp = ReducedPhasePoint(FRAME_C, [0.3, -0.2], [0.1, 0.4])
        message = r"springs \[\(1, 4\)\] name particle 4, but the system has 3 particles"
        with pytest.raises(ValueError, match=message):
            integrate_reduced(rp, potential, ParticleSystem(3), 1.0, 1e-2)


class TestAnalyticOscillators:
    def test_cosine_at_zero(self):
        params = OscillatorParams(a0=0.7, b0=1.2)
        x_a, x_b = analytic_oscillator_frame_c(params, 0.0)
        assert x_a == pytest.approx(0.7)
        assert x_b == pytest.approx(1.2)

    def test_first_figure_parameters(self):
        params = OscillatorParams(k_a=1.0, k_b=100.0, a0=1.0, b0=1.0, phi_b=np.pi / 2)
        assert params.omega_a == pytest.approx(1.0)
        assert params.omega_b == pytest.approx(10.0)
        q_b, q_c = analytic_oscillator_frame_a(params, 0.0)
        assert q_b == pytest.approx(np.cos(np.pi / 2) - 1.0)
        assert q_c == pytest.approx(-1.0)

    def test_second_figure_parameters(self):
        params = OscillatorParams(k_a=100.0, k_b=1.0, a0=0.3, b0=1.0, phi_b=np.pi / 2)
        x_a, x_b = analytic_oscillator_frame_c(params, 0.25)
        assert x_a == pytest.approx(0.3 * np.cos(2.5))
        assert x_b == pytest.approx(np.cos(0.25 + np.pi / 2))

    def test_in_phase_equal_frequency_freezes_b(self):
        params = OscillatorParams(k_a=1.0, k_b=1.0, a0=1.0, b0=1.0)
        t = np.linspace(0.0, 30.0, 2001)
        q_b, _ = analytic_oscillator_frame_a(params, t)
        assert np.max(np.abs(q_b)) <= 1e-10

    def test_frame_a_is_recombination_of_frame_c(self):
        params = OscillatorParams(k_a=2.0, k_b=3.0, a0=1.1, b0=0.4, phi_a=0.2, phi_b=1.0)
        t = np.linspace(0.0, 10.0, 501)
        x_a, x_b = analytic_oscillator_frame_c(params, t)
        q_b, q_c = analytic_oscillator_frame_a(params, t)
        assert np.array_equal(q_b, x_b - x_a)
        assert np.array_equal(q_c, -x_a)


class TestAccelerationIdentities:
    def test_free_motion(self):
        rp = ReducedPhasePoint(FRAME_A, [0.4, -0.7], [0.2, 0.1])
        res_b, res_c = acceleration_identity_check(FREE_POTENTIAL, rp)
        assert res_b <= 1e-10 and res_c <= 1e-10

    def test_harmonic(self):
        potential = spring_potential([(2, 0, 1.0), (2, 1, 2.0)])
        rp = ReducedPhasePoint(FRAME_A, [0.4, -0.7], [0.2, 0.1])
        res_b, res_c = acceleration_identity_check(potential, rp)
        assert res_b <= 1e-3 and res_c <= 1e-3

    # every frame of three and of four particles, free and with springs: the
    # two-body ones of a triangle, then the last particle tied to all others
    SPRINGS = {
        3: [(2, 0, 1.0), (2, 1, 2.0), (0, 1, 0.7)],
        4: [(3, 0, 1.0), (3, 1, 2.0), (3, 2, 0.5), (0, 1, 0.7)],
    }

    @pytest.mark.parametrize(
        "frame, n",
        [(FrameLabel(i), n) for n in (3, 4) for i in range(n)],
        ids=lambda v: str(getattr(v, "name", v)),
    )
    def test_every_frame(self, frame, n):
        rp = ReducedPhasePoint(frame, [0.4, -0.7, 0.9][: n - 1], [0.2, 0.1, -0.3][: n - 1])
        for potential in (FREE_POTENTIAL, spring_potential(self.SPRINGS[n])):
            residuals = acceleration_identity_check(potential, rp)
            assert len(residuals) == n - 1
            assert max(residuals) <= 1e-9

    def test_factor_two_for_single_coordinate_potential(self):
        # V = V(q_B) only exercises the double pull on the relative coordinate
        potential = Potential(
            lambda q: 0.5 * 1.7 * (q[1] - q[0]) ** 2,
            gradient=lambda q: np.array(
                [-1.7 * (q[1] - q[0]), 1.7 * (q[1] - q[0]), 0.0]
            ),
        )
        rp = ReducedPhasePoint(FRAME_A, [0.4, 0.0], [0.0, 0.0])
        res_b, res_c = acceleration_identity_check(potential, rp)
        assert res_b <= 1e-9 and res_c <= 1e-9


class TestFrameSwitchDynamicsConsistency:
    def test_switch_commutes_with_integration(self):
        params = OscillatorParams(k_a=1.0, k_b=2.0)
        system = params.system()
        rp_c = ReducedPhasePoint(FRAME_C, [0.8, -0.3], [0.1, 0.4])
        traj_c = integrate_reduced(rp_c, params.potential(), system, 10.0, 1e-3)
        traj_a = integrate_reduced(
            classical_frame_switch(rp_c, FRAME_A), params.potential(), system, 10.0, 1e-3
        )
        for i in range(0, len(traj_c), 500):
            switched = classical_frame_switch(traj_c.point(i), FRAME_A)
            assert_allclose(switched.q_rel, traj_a.q[i], atol=1e-8)
            assert_allclose(switched.p_rel, traj_a.p[i], atol=1e-8)


class TestTrajectory:
    def test_time_ordering_enforced(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], np.zeros((2, 2)), np.zeros((2, 2)), FRAME_A)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory([0.0, np.nan], np.zeros((2, 2)), np.zeros((2, 2)), FRAME_A)

    def test_frame_is_read_only(self):
        traj = Trajectory([0.0, 1.0], np.zeros((2, 2)), np.zeros((2, 2)), FRAME_A)
        with pytest.raises(AttributeError):
            traj.frame = FRAME_C
        assert traj.frame == FRAME_A

    def test_point_accessor(self):
        traj = Trajectory([0.0, 1.0], [[1, 2], [3, 4]], [[5, 6], [7, 8]], FRAME_A)
        point = traj.point(1)
        assert point.frame == FRAME_A
        assert_allclose(point.q_rel, [3, 4])

    def test_caller_arrays_stay_writeable(self):
        times = np.array([0.0, 1.0])
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = np.array([[5.0, 6.0], [7.0, 8.0]])
        traj = Trajectory(times, q, p, FRAME_A)
        assert times.flags.writeable and q.flags.writeable and p.flags.writeable
        assert not (traj.times.flags.writeable or traj.q.flags.writeable or traj.p.flags.writeable)
        q[0, 0] = -1.0
        assert traj.q[0, 0] == 1.0

    @pytest.mark.parametrize("frame", [FRAME_A, FRAME_C])
    def test_energies_match_pointwise_hamiltonian(self, frame):
        system = ParticleSystem(3, masses=[1.0, 2.0, 1.5])
        potential = spring_potential([(2, 0, 1.0), (2, 1, 2.5), (0, 1, 0.7)])
        rp = ReducedPhasePoint(frame, [0.8, -0.3], [0.1, 0.4])
        traj = integrate_reduced(rp, potential, system, 2.0, 1e-2)
        pointwise = [reduced_hamiltonian(traj.point(i), potential, system) for i in range(len(traj))]
        assert_allclose(traj.energies(potential, system), pointwise, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_energies_match_einsum_on_the_strided_momenta_bit_for_bit(self, n, rng):
        # both paths store each coordinate's history as a contiguous row; the
        # energies must keep the bits einsum gives on the strided transpose of
        # a sample-first (samples, N - 1) copy
        system = ParticleSystem(n, masses=rng.uniform(0.5, 2.0, n))
        springs = spring_potential([(i, n - 1, 1.0 + i) for i in range(n - 1)])
        frame = FrameLabel(n - 1)
        rp = ReducedPhasePoint(frame, rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1))
        for potential in (springs, without_stiffness(springs)):
            traj = integrate_reduced(rp, potential, system, 2000 * 1e-3, 1e-3)
            assert len(traj) == 2001 and traj.p.T.strides[-1] == traj.p.itemsize
            q, p = np.ascontiguousarray(traj.q).T, np.ascontiguousarray(traj.p).T
            kinetic = np.einsum("i...,ij,j...->...", p, kinetic_matrix(system, frame), p)
            reference = kinetic + potential(pin_frame(q, frame))
            assert traj.energies(potential, system).tobytes() == reference.tobytes()


REST_A = ReducedPhasePoint(FRAME_A, [0.0, 0.0], [0.0, 0.0])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: integrate_reduced(REST_A, FREE_POTENTIAL, ParticleSystem(3), 1.0, 0.1, order=3),
         ValueError, "order must be 2 or 4, got 3"),
        (lambda: OscillatorParams(m_c=0.0), ValueError, "m_c must be positive and finite"),
        (lambda: OscillatorParams(a0=np.nan), ValueError, "a0 must be finite"),
        (lambda: Trajectory(np.arange(3.0), np.zeros((2, 2)), np.zeros((2, 2)), FRAME_A),
         ValueError, "inconsistent trajectory shapes"),
    ],
    ids=["order-3", "zero-mass", "nan-amplitude", "trajectory-shapes"],
)
def test_each_documented_input_error_raises_its_type(build, error, message):
    with pytest.raises(error, match=message):
        build()
