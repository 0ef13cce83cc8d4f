"""Every qrf value is frozen and owns its arrays.

A public constructor copies the arrays its caller passes in: the caller's
arrays stay writable, and a later write to them does not reach the value,
whose own arrays are read-only.  No field of a value can be reassigned.
A result the library has just built is adopted uncopied, and is read-only too.
"""

import numpy as np
import pytest

from qrf.classical import (
    FRAME_A,
    FRAME_C,
    ExtendedPhasePoint,
    ParticleSystem,
    Potential,
    ReducedPhasePoint,
    classical_frame_switch,
    embed_reduced,
    gauge_flow,
    project_reduced,
)
from qrf.dynamics import Trajectory
from qrf.grids import MOMENTUM, Grid1D, WaveFunction
from qrf.physical import GridHamiltonian, physical_state
from qrf.wigner import (
    DensityMatrix,
    WignerGrid,
    closed_form_eigenstate_wigner,
    marginal_wigner,
    transformed_joint_wigner,
)

GRID = Grid1D(8, 4.0)
AXES = [("B", GRID), ("C", GRID)]


def _wave_function():
    amp = np.ones((8, 8), dtype=complex)
    psi = WaveFunction(AXES, amp, MOMENTUM, FRAME_A)
    return psi, ("subsystems", "amplitudes", "representation", "frame"), [amp], [psi.amplitudes]


def _density_matrix():
    matrix = np.eye(8, dtype=complex) / 8
    rho = DensityMatrix(matrix, GRID)
    return rho, ("matrix", "grid"), [matrix], [rho.matrix]


def _wigner_grid():
    x, xi, values = np.linspace(-1, 1, 5), np.linspace(-2, 2, 4), np.zeros((5, 4))
    w = WignerGrid(x, xi, values)
    return w, ("x", "xi", "values"), [x, xi, values], [w.x, w.xi, w.values]


def _closed_form_wigner():
    x = np.linspace(-1, 1, 5)
    w = closed_form_eigenstate_wigner(0, 1.0, x, x)
    return w, ("x", "xi", "values"), [x], [w.x, w.xi, w.values]


def _marginal_wigner():
    x, xi = np.linspace(-1, 1, 5), np.linspace(-2, 2, 4)
    w = marginal_wigner(transformed_joint_wigner(0, 0, 1.0, 1.0), "B", x, xi)
    return w, ("x", "xi", "values"), [x, xi], [w.x, w.xi, w.values]


def _trajectory():
    times, q, p = np.array([0.0, 1.0]), np.zeros((2, 2)), np.ones((2, 2))
    traj = Trajectory(times, q, p, FRAME_A)
    return traj, ("times", "q", "p", "frame"), [times, q, p], [traj.times, traj.q, traj.p]


def _grid_hamiltonian():
    kinetic, potential = np.ones((8, 8)), np.zeros((8, 8))
    h = GridHamiltonian(AXES, kinetic, potential)
    fields = ("subsystems", "kinetic_grid", "potential_grid")
    return h, fields, [kinetic, potential], [h.kinetic_grid, h.potential_grid]


def _particle_system():
    masses = np.array([1.0, 2.0, 3.0])
    system = ParticleSystem(3, masses=masses)
    return system, ("n", "masses"), [masses], [system.masses]


def _extended_point():
    q, p = np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, 0.0])
    point = ExtendedPhasePoint(q, p)
    return point, ("q", "p"), [q, p], [point.q, point.p]


def _reduced_point():
    q, p = np.array([1.0, 2.0]), np.array([1.0, -1.0])
    point = ReducedPhasePoint(FRAME_A, q, p)
    return point, ("frame", "q_rel", "p_rel"), [q, p], [point.q_rel, point.p_rel]


def _physical_state():
    amp = np.ones((8, 8), dtype=complex)
    state = physical_state(WaveFunction(AXES, amp, MOMENTUM, FRAME_A))
    return state, ("canonical", "frame"), [amp], [state.canonical.amplitudes]


def _potential():
    stiffness = np.array([[1.0, -1.0], [-1.0, 1.0]])
    potential = Potential(lambda q: 0.5 * (q[1] - q[0]) ** 2, stiffness=stiffness)
    return potential, ("stiffness",), [stiffness], [potential.stiffness]


BUILDERS = pytest.mark.parametrize(
    "build",
    [
        _wave_function,
        _density_matrix,
        _wigner_grid,
        _closed_form_wigner,
        _marginal_wigner,
        _trajectory,
        _grid_hamiltonian,
        _particle_system,
        _extended_point,
        _reduced_point,
        _physical_state,
        _potential,
    ],
    ids=lambda build: build.__name__.lstrip("_"),
)


@BUILDERS
def test_value_is_frozen_and_owns_its_arrays(build):
    value, fields, callers, held = build()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    assert not any(arr.flags.writeable for arr in held)
    assert all(arr.flags.writeable for arr in callers)
    before = [arr.copy() for arr in held]
    for arr in callers:
        arr[...] = 99.0
    for arr, copy in zip(held, before):
        assert np.array_equal(arr, copy)


@BUILDERS
def test_value_compares_by_identity_and_hashes(build):
    # comparing array fields elementwise would raise, or say nothing useful
    value, twin = build()[0], build()[0]
    assert value == value
    assert value != twin
    assert hash(value) == hash(value)
    assert len({value, twin}) == 2


def test_point_results_are_read_only_and_adopted():
    point = ReducedPhasePoint(FRAME_C, np.array([1.0, 2.0]), np.array([0.5, -1.5]))
    extended = embed_reduced(point)
    q, p = np.arange(6.0).reshape(3, 2), np.ones((3, 2))
    traj = Trajectory(np.arange(3.0), q, p, FRAME_C)
    switched = classical_frame_switch(point, FRAME_A)
    sample = traj.point(1)
    flowed = gauge_flow(extended, 0.5)
    projected = project_reduced(extended, FRAME_C)
    held = [
        switched.q_rel, switched.p_rel, sample.q_rel, sample.p_rel, extended.q, extended.p,
        flowed.q, flowed.p, projected.q_rel, projected.p_rel,
    ]
    assert not any(arr.flags.writeable for arr in held)
    # a sample views the trajectory's rows; a switch builds new arrays
    assert np.shares_memory(sample.q_rel, traj.q) and np.shares_memory(sample.p_rel, traj.p)
    assert np.array_equal(sample.q_rel, q[1]) and np.array_equal(sample.p_rel, p[1])
    for new in switched.q_rel, switched.p_rel:
        assert not any(np.shares_memory(new, old) for old in (point.q_rel, point.p_rel))


def test_adopted_points_are_still_checked():
    # q_B - q_A overflows: the switched point's coordinates are not finite
    largest = np.finfo(float).max
    point = ReducedPhasePoint(FRAME_C, np.array([largest, -largest]), np.zeros(2))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        classical_frame_switch(point, FRAME_A)
    with pytest.raises(ValueError, match="finite"):
        Trajectory(np.arange(1.0), np.full((1, 2), np.nan), np.zeros((1, 2)), FRAME_C).point(0)
