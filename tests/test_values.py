"""Every qrf value is frozen and owns its arrays.

A public constructor copies the arrays its caller passes in: the caller's
arrays stay writable, and a later write to them does not reach the value,
whose own arrays are read-only.  No field of a value can be reassigned.
"""

import numpy as np
import pytest

from qrf.classical import (
    FRAME_A,
    ExtendedPhasePoint,
    ParticleSystem,
    Potential,
    ReducedPhasePoint,
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
