"""Dense-matrix oracles over the flattened grid basis.

These matrices exist only for cross-validation at small grid sizes: every
spectral operation in the library has a brute-force counterpart here, and
they ship with the tests, not with the ``qrf`` package.  The convention is the flattened
*position* basis in subsystem order (C-order), with amplitudes weighted by
sqrt(cell volume) so that unitary operators are unitary matrices.

Besides the per-axis operators, the module holds the explicit reduced
Hamiltonian matrix and its ground energy, and the band-limited refinement
matrix behind the Wigner transform with the refined kernel it checks.  The
frame change is defined here twice, and the strided gather of
``qrf.physical.momentum_substitution`` must match both byte for byte: the
n^3 perspective-neutral embedding ``constraint_surface_amplitude``, whose sum
over frame j's axis is the frame-j reduction, and
``meshgrid_momentum_substitution``, the gather through int64 index grids
that the production code replaced.  The k-shifted ``trivialized_reduction``
is built on the embedding, and ``trivialization_family_check`` confirms its
per-block dense algebra.  Three classical references ride along, and the
production code must match them bit for bit: the spring potential with its
per-spring gradient loop, the earlier spring gradient that wrote K @ q into
a zeroed array, and the leapfrog that evaluates the force twice per Strang
substep; the coordinate functions q_i and p_i fill the bracket tables.  The
spring propagator is held to that leapfrog and to a long-double one to
rounding, and byte for byte to ``fresh_array_spring_trajectory``, its one
doubling with a fresh array per sum; ``without_stiffness`` sends a spring
potential through the loop that the leapfrog checks bit for bit, and
``acceleration_identity_check`` holds second-differenced trajectories to
the potential's gradient.  The production code must also match these
phase-space references byte for byte: ``random_wavefunction`` over an n^d
meshgrid, the centered FFTs that allocate a fresh array per step, and
``contiguous_strang_steps``, the fused split-step loop on unpadded grids.
The Wigner transform has two earlier forms, which agree with each other
byte for byte and with the production transform to rounding: the full
doubled-box chord table gathered through modulo index grids, and the same
table read through one strided view.  ``joint_wigner`` evaluates the
frame-switched product state's 4-d Wigner function pointwise, through
``frame_map``.  ``tensor_marginal`` is the marginal quadrature's earlier
form, one such evaluation on the whole output grid per node pair, which the
separable production rule matches to rounding.  Two checks read the switch
through observables and dynamics: ``conjugate_observable`` substitutes the
classical map's dictionary into a Weyl-ordered observable, and
``commutation_paths`` returns a state evolved then switched and the same
state switched then evolved.  The exact Gaussian reference for the
frame-switched product ground state (its covariance matrix, reduced entropy
and purity) closes the module.  Test modules import it as ``oracles``:
pytest puts this directory on ``sys.path``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from qrf.classical import (
    FRAME_A,
    FRAME_C,
    FrameLabel,
    ParticleSystem,
    Potential,
    ReducedPhasePoint,
    frame_map,
    pin_frame,
)
from qrf.dynamics import _YOSHIDA_W0, _YOSHIDA_W1, integrate_reduced, kinetic_matrix
from qrf.errors import QRFError
from qrf.grids import MOMENTUM, POSITION, Grid1D, WaveFunction, _alternating, to_representation
from qrf.observables import Observable
from qrf.physical import GridHamiltonian, PhysicalState, reduced_labels, reduced_quantum_hamiltonian
from qrf.switching import FrameSwitch, switch_frame
from qrf.wigner import DensityMatrix, WignerGrid, _half_step, eigenstate_wigner_values

MAX_DENSE_DIM = 4096


class TooLarge(QRFError):
    """A dense-matrix oracle was requested above the supported dimension."""


class KOutOfRange(QRFError):
    """Momentum offset is outside the grid range or not grid-commensurate."""


def _check_dim(subsystems) -> int:
    dim = 1
    for _, grid in subsystems:
        dim *= grid.n
    if dim > MAX_DENSE_DIM:
        raise TooLarge(f"flattened dimension {dim} exceeds the oracle cap {MAX_DENSE_DIM}")
    return dim


def fourier_matrix(grid: Grid1D) -> np.ndarray:
    """Unitary DFT matrix sending weighted position to weighted momentum amplitudes."""
    x = grid.positions()
    p = grid.momenta()
    return np.exp(-1j * np.outer(p, x)) / math.sqrt(grid.n)


class DenseOperator:
    """Explicit matrix over the flattened weighted position basis."""

    def __init__(self, matrix: np.ndarray, subsystems):
        self.subsystems = tuple((str(label), grid) for label, grid in subsystems)
        dim = _check_dim(self.subsystems)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match dimension {dim}")
        self.matrix = matrix

    def apply(self, psi: WaveFunction) -> WaveFunction:
        """Matrix action on a state; returns the result in position representation."""
        work = to_representation(psi, POSITION)
        if work.subsystems != self.subsystems:
            raise ValueError("state and operator subsystems differ")
        weight = math.sqrt(work.cell_volume())
        vector = work.amplitudes.ravel() * weight
        out = (self.matrix @ vector) / weight
        return WaveFunction(
            work.subsystems,
            out.reshape(work.amplitudes.shape),
            POSITION,
            frame=work.frame,
        )

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)


def _kron_all(blocks) -> np.ndarray:
    out = blocks[0]
    for block in blocks[1:]:
        out = np.kron(out, block)
    return out


def _axis_blocks(subsystems, label, block) -> np.ndarray:
    blocks = []
    for name, grid in subsystems:
        blocks.append(block if name == label else np.eye(grid.n))
    return _kron_all(blocks)


def dense_position(subsystems, label: str, power: int = 1) -> DenseOperator:
    """Position operator on one axis: diagonal in the position basis."""
    _check_dim(subsystems)
    grid = dict((str(l), g) for l, g in subsystems)[str(label)]
    block = np.diag(grid.positions().astype(complex) ** power)
    return DenseOperator(_axis_blocks(subsystems, str(label), block), subsystems)


def dense_momentum(subsystems, label: str, power: int = 1) -> DenseOperator:
    """Momentum operator on one axis: Fourier-conjugated diagonal."""
    _check_dim(subsystems)
    grid = dict((str(l), g) for l, g in subsystems)[str(label)]
    fourier = fourier_matrix(grid)
    block = fourier.conj().T @ np.diag(grid.momenta().astype(complex) ** power) @ fourier
    return DenseOperator(_axis_blocks(subsystems, str(label), block), subsystems)


def dense_observable(obs: Observable, subsystems) -> DenseOperator:
    """Brute-force matrix of a polynomial observable, Weyl ordering included."""
    dim = _check_dim(subsystems)
    labels = [str(label) for label, _ in subsystems]
    position = {label: dense_position(subsystems, label).matrix for label in labels}
    momentum = {label: dense_momentum(subsystems, label).matrix for label in labels}
    total = np.zeros((dim, dim), dtype=complex)
    for mono, coeff in obs.terms.items():
        term = np.eye(dim, dtype=complex)
        powers: dict[str, dict[str, int]] = {}
        for (label, kind), power in mono:
            if label not in labels:
                raise ValueError(f"observable references unknown axis {label!r}")
            powers.setdefault(label, {})[kind] = power
        for label in sorted(powers):
            m = powers[label].get("q", 0)
            n = powers[label].get("p", 0)
            q_mat = position[label]
            p_mat = momentum[label]
            if m == 0 or n == 0:
                factor = np.linalg.matrix_power(q_mat if n == 0 else p_mat, max(m, n))
            else:
                factor = np.zeros((dim, dim), dtype=complex)
                p_n = np.linalg.matrix_power(p_mat, n)
                for r in range(m + 1):
                    left = np.linalg.matrix_power(q_mat, r)
                    right = np.linalg.matrix_power(q_mat, m - r)
                    factor += (math.comb(m, r) / 2.0**m) * (left @ p_n @ right)
            term = term @ factor
        total += coeff * term
    return DenseOperator(total, subsystems)


def dense_shear(subsystems, pos_label: str, mom_label: str, sign: int = 1) -> DenseOperator:
    """exp(sign * i q_pos p_mom) built from its mixed-basis diagonalization.

    The generator is diagonal once pos_label is read in position and mom_label
    in momentum, so the exponential is the Fourier conjugation of a pure phase.
    Tests cross-check this against ``scipy.linalg.expm`` of the generator.
    """
    _check_dim(subsystems)
    grids = dict((str(l), g) for l, g in subsystems)
    x = grids[str(pos_label)].positions()
    p = grids[str(mom_label)].momenta()
    mixed = []
    phase_axes = []
    for name, grid in subsystems:
        if name == mom_label:
            mixed.append(fourier_matrix(grid))
            phase_axes.append(p)
        elif name == pos_label:
            mixed.append(np.eye(grid.n))
            phase_axes.append(x)
        else:
            mixed.append(np.eye(grid.n))
            phase_axes.append(np.zeros(grid.n))
    transform = _kron_all(mixed)
    # phase = exp(i sign x * p) over the (pos, mom) axes, constant elsewhere
    exponent = np.zeros(tuple(len(v) for v in phase_axes))
    pos_axis = [i for i, (name, _) in enumerate(subsystems) if name == pos_label][0]
    mom_axis = [i for i, (name, _) in enumerate(subsystems) if name == mom_label][0]
    shape_x = [1] * len(phase_axes)
    shape_x[pos_axis] = len(x)
    shape_p = [1] * len(phase_axes)
    shape_p[mom_axis] = len(p)
    exponent = exponent + x.reshape(shape_x) * p.reshape(shape_p)
    diag = np.exp(1j * sign * exponent).ravel()
    matrix = transform.conj().T @ (diag[:, None] * transform)
    return DenseOperator(matrix, subsystems)


def dense_total_momentum(subsystems) -> DenseOperator:
    """Sum of the momentum operators of every axis."""
    dim = _check_dim(subsystems)
    total = np.zeros((dim, dim), dtype=complex)
    for label, _ in subsystems:
        total += dense_momentum(subsystems, label).matrix
    return DenseOperator(total, subsystems)


def refine_matrix(grid: Grid1D) -> np.ndarray:
    """Band-limited interpolation of amplitudes onto the doubled grid.

    Dense reference for the spectral refinement of :func:`refined_kernel`.
    """
    n = grid.n
    fine = grid.refined()
    # forward transform on the coarse grid
    coarse_momenta = np.exp(
        -1j * np.outer(grid.momenta(), grid.positions())
    ) * (grid.dx / math.sqrt(2 * math.pi))
    # zero-pad the momentum window and transform back on the fine grid
    pad = np.zeros((fine.n, n), dtype=complex)
    pad[n // 2 : n // 2 + n] = coarse_momenta
    back = np.exp(1j * np.outer(fine.positions(), fine.momenta())) * (
        fine.dp / math.sqrt(2 * math.pi)
    )
    return back @ pad


def refined_kernel(rho: DensityMatrix) -> np.ndarray:
    """Density kernel rho(x, x') band-limited onto the doubled grid on both axes.

    Equals R (rho / dx) R^dagger for the refinement matrix R: its four
    parity blocks are rho, S rho, rho S^dagger and S rho S^dagger (over dx),
    with S the half-step shift of ``qrf.wigner._half_step``.  The Wigner
    transform reads only the even-even and odd-odd blocks.
    """
    n = rho.grid.n
    matrix = rho.matrix / rho.grid.dx
    shifted = _half_step(matrix, 0)
    kernel = np.empty((2 * n, 2 * n), dtype=complex)
    kernel[0::2, 0::2] = matrix
    kernel[0::2, 1::2] = _half_step(matrix, 1, adjoint=True)
    kernel[1::2, 0::2] = shifted
    kernel[1::2, 1::2] = _half_step(shifted, 1, adjoint=True)
    return kernel


def dense_hamiltonian(h: GridHamiltonian) -> DenseOperator:
    """Brute-force matrix of a grid Hamiltonian (small grids only)."""
    transform = np.kron(*[fourier_matrix(grid) for _, grid in h.subsystems])
    kinetic = transform.conj().T @ (h.kinetic_grid.ravel()[:, None] * transform)
    matrix = kinetic + np.diag(h.potential_grid.ravel())
    return DenseOperator(matrix, h.subsystems)


def ground_energy(h: GridHamiltonian) -> float:
    """Smallest eigenvalue by dense diagonalization (small grids only)."""
    matrix = dense_hamiltonian(h).matrix
    matrix = 0.5 * (matrix + matrix.conj().T)
    return float(np.linalg.eigvalsh(matrix)[0])


# ---------------------------------------------------------------------------
# The frame change through the perspective-neutral state, and the
# k-parametrized trivialization family built on it
# ---------------------------------------------------------------------------


def meshgrid_momentum_substitution(psi: WaveFunction, new_frame) -> WaveFunction:
    """``momentum_substitution`` gathering through int64 meshgrid/modulo index grids.

    Each output point (m_1, m_2) names its own momenta and solves the new
    frame's, wrapped into the grid window; the input is read there.  No
    validation: the state must be a frame reduction on one shared grid.
    """
    grid = psi.subsystems[0][1]
    work = to_representation(psi, MOMENTUM)
    n = grid.n
    out_labels = reduced_labels(new_frame)
    m = np.arange(n) - n // 2
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    values = {out_labels[0]: m1, out_labels[1]: m2}
    values[new_frame.name] = (-m1 - m2 + n // 2) % n - n // 2
    source = [(values[label] + n // 2) % n for label in work.labels]
    return WaveFunction(
        [(label, grid) for label in out_labels],
        work.amplitudes[source[0], source[1]],
        MOMENTUM,
        frame=new_frame,
    )


def constraint_surface_amplitude(state: PhysicalState) -> np.ndarray:
    """Three-axis momentum amplitude with the frame momentum solved for.

    Index order is (A, B, C); entry (m_A, m_B, m_C) is populated only on the
    grid image of the constraint surface m_A + m_B + m_C = 0 (mod n).  This is
    the perspective-neutral state: summing out frame j's axis gives the
    frame-j reduction.
    """
    n = state.grid.n
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    frame_idx = ((-(ii - n // 2) - (jj - n // 2)) + n // 2) % n
    full = np.zeros((n, n, n), dtype=complex)
    index = [ii, jj]
    index.insert(state.frame.index, frame_idx)
    full[tuple(index)] = state.canonical.amplitudes
    return full


def trivialized_reduction(state: PhysicalState, kappa: int) -> np.ndarray:
    """Apply the k-shifted redundancy removal and project out the frame slot."""
    n = state.grid.n
    full = constraint_surface_amplitude(state)
    frame_axis = state.frame.index
    idx = np.indices((n, n, n))
    m = [axis - n // 2 for axis in idx]
    other_axes = [a for a in range(3) if a != frame_axis]
    shift = m[other_axes[0]] + m[other_axes[1]] + kappa
    source = list(idx)
    source[frame_axis] = (idx[frame_axis] - shift) % n
    shifted = full[tuple(source)]
    return shifted.sum(axis=frame_axis)


@dataclass(frozen=True)
class TrivializationReport:
    """Outcome of checking one member of the trivialization family."""

    k: float
    kappa: int
    reduced_fidelity_vs_base: float
    oracle_action_residual: float
    windowed_diagonal_deviation: float
    oracle_offdiagonal_deviation: float
    wrapped_fraction: float
    oracle_n: int


@lru_cache(maxsize=2)
def _oracle_statics(n: int, length: float):
    grid = Grid1D(n, length)
    fourier = fourier_matrix(grid)
    momenta = grid.momenta()
    positions = grid.positions()
    # one-axis momentum operator in the position basis
    p_op = fourier.conj().T @ np.diag(momenta.astype(complex)) @ fourier
    return grid, fourier, momenta, positions, p_op


def _truncated_oracle_amplitude(grid: Grid1D, kappa: int) -> np.ndarray:
    """Momentum-space Gaussian restricted to indices that never wrap.

    Support is limited so that both the frame-momentum solve and the k-shift
    stay inside the momentum window; on this sector the constraint algebra is
    exact on the grid.
    """
    n = grid.n
    m = np.arange(n) - n // 2
    m1, m2 = np.meshgrid(m, m, indexing="ij")
    sigma = n / 8.0
    amp = np.exp(-(m1**2 + m2**2) / (2.0 * sigma**2)).astype(complex)
    total = m1 + m2
    inside = (-total >= -n // 2) & (-total <= n // 2 - 1)
    inside &= (-total - kappa >= -n // 2) & (-total - kappa <= n // 2 - 1)
    amp[~inside] = 0.0
    return amp / np.linalg.norm(amp)


def trivialization_family_check(
    state: PhysicalState, k: float, oracle_n: int = 16, oracle_length: float = 12.0
) -> TrivializationReport:
    """Verify that the k-shifted redundancy removal has no physical effect.

    Two independent checks:

    * On the state's own grids, the reduced amplitude extracted after the
      k-shifted trivialization and projection is compared against the k = 0
      extraction (fidelity, phase-insensitive).
    * On a small three-axis oracle grid, dense per-block matrices confirm
      that conjugating the total momentum yields p_frame - k.  On a periodic
      grid this identity holds up to the Brillouin wrap of the momentum
      window, so the diagonal comparison is windowed to non-wrapped index
      triples (their fraction is reported) and the operator action is checked
      exactly on a wrap-free decayed state.

    ``k`` must be an integer multiple of the state grid's dp and inside the
    momentum window.
    """
    grid = state.grid
    dp = grid.dp
    kappa_real = k / dp
    kappa = int(round(kappa_real))
    if abs(kappa_real - kappa) > 1e-9:
        raise KOutOfRange(f"k={k} is not an integer multiple of dp={dp}")
    if abs(kappa) > grid.n // 2 - 1:
        raise KOutOfRange(f"k={k} lies outside the momentum window")

    base = trivialized_reduction(state, 0)
    shifted = trivialized_reduction(state, kappa)
    overlap = abs(np.vdot(base, shifted)) ** 2
    fidelity = overlap / (np.linalg.norm(base) ** 2 * np.linalg.norm(shifted) ** 2)

    oracle_grid, fourier, momenta, positions, p_op = _oracle_statics(oracle_n, oracle_length)
    n = oracle_n
    k_oracle = kappa * oracle_grid.dp
    m = np.arange(n) - n // 2

    # Per (p_b, p_c) block: T restricted to the frame axis is the dense
    # conjugation of exp(i x (p_b + p_c + k)); compare F t p t^dag F^dag + p_b
    # + p_c + k against diag(p_a) on non-wrapped entries.
    diag_dev = 0.0
    offdiag_dev = 0.0
    wrapped = 0
    amp = _truncated_oracle_amplitude(oracle_grid, kappa)
    action_residual = 0.0
    for ib in range(n):
        for ic in range(n):
            a_shift = momenta[ib] + momenta[ic] + k_oracle
            t_block = np.diag(np.exp(1j * positions * a_shift))
            conj_block = fourier @ (t_block @ p_op @ t_block.conj().T) @ fourier.conj().T
            target = momenta - a_shift
            source_m = m - (m[ib] + m[ic] + kappa)
            in_window = (source_m >= -n // 2) & (source_m <= n // 2 - 1)
            wrapped += int(np.sum(~in_window))
            diag = np.real(np.diag(conj_block))
            if np.any(in_window):
                diag_dev = max(diag_dev, float(np.max(np.abs(diag[in_window] - target[in_window]))))
            off = conj_block - np.diag(np.diag(conj_block))
            offdiag_dev = max(offdiag_dev, float(np.max(np.abs(off))))
            # transformed oracle state: frame-momentum column with p_a solved,
            # shifted by the dense block; residual of (p_a - k) on it
            column = np.zeros(n, dtype=complex)
            target_idx = (-(m[ib] + m[ic]) + n // 2) % n
            column[target_idx] = amp[ib, ic]
            shifted_column = (fourier @ t_block @ fourier.conj().T) @ column
            action = (momenta - k_oracle) * shifted_column
            action_residual = max(action_residual, float(np.max(np.abs(action))))

    total_triples = n**3
    return TrivializationReport(
        k=k,
        kappa=kappa,
        reduced_fidelity_vs_base=float(fidelity),
        oracle_action_residual=action_residual,
        windowed_diagonal_deviation=diag_dev,
        oracle_offdiagonal_deviation=offdiag_dev,
        wrapped_fraction=wrapped / total_triples,
        oracle_n=oracle_n,
    )


def per_spring_potential(springs) -> Potential:
    """Pairwise springs whose gradient accumulates one spring at a time."""
    springs = [(int(i), int(j), float(k)) for i, j, k in springs]

    def energy(q):
        return sum(0.5 * k * (q[i] - q[j]) ** 2 for i, j, k in springs)

    def gradient(q):
        grad = np.zeros_like(q)
        for i, j, k in springs:
            pull = k * (q[i] - q[j])
            grad[i] += pull
            grad[j] -= pull
        return grad

    return Potential(energy, gradient=gradient)


def padded_spring_potential(springs) -> Potential:
    """Pairwise springs whose gradient writes K @ q[:n] into a zeroed array.

    The form ``spring_potential`` used before it returned ``K @ q`` directly
    when the springs span every particle; both must agree bit for bit.
    """
    springs = [(int(i), int(j), float(k)) for i, j, k in springs]
    n = 1 + max(max(i, j) for i, j, _ in springs)
    stiffness = np.zeros((n, n))
    for i, j, k in springs:
        stiffness[[i, j], [i, j]] += k
        stiffness[[i, j], [j, i]] -= k

    def energy(q):
        return sum(0.5 * k * (q[i] - q[j]) ** 2 for i, j, k in springs)

    def gradient(q):
        grad = np.zeros(q.shape)
        grad[:n] = stiffness @ q[:n]
        return grad

    return Potential(energy, gradient=gradient)


def position_coordinate(i: int):
    """Phase-space function q_i, for bracket tables."""
    return lambda q, p: q[i]


def momentum_coordinate(i: int):
    """Phase-space function p_i, for bracket tables."""
    return lambda q, p: p[i]


def two_force_leapfrog(initial, potential, system, t_final, dt, order=2):
    """Sampled (q, p) of the leapfrog that evaluates the force at both half kicks.

    Every Strang substep calls ``potential.gradient`` twice, although the
    closing kick's force is the next substep's opening one.  The span checks
    of ``integrate_reduced`` are left out.
    """
    steps = int(round(t_final / dt))
    others = list(initial.labels)
    drift = 2.0 * kinetic_matrix(system, initial.frame)  # dq/dt = dT/dp
    pinned = pin_frame(initial.q_rel, initial.frame)  # one buffer; frame slot stays 0

    def force(q):
        pinned[others] = q
        return potential.gradient(pinned)[others]

    def strang(q, p, h):
        p = p - (0.5 * h) * force(q)
        q = q + h * (drift @ p)
        p = p - (0.5 * h) * force(q)
        return q, p

    qs = np.empty((steps + 1, len(others)))
    ps = np.empty_like(qs)
    qs[0] = initial.q_rel
    ps[0] = initial.p_rel
    q, p = qs[0].copy(), ps[0].copy()
    for step in range(steps):
        if order == 2:
            q, p = strang(q, p, dt)
        else:
            q, p = strang(q, p, _YOSHIDA_W1 * dt)
            q, p = strang(q, p, _YOSHIDA_W0 * dt)
            q, p = strang(q, p, _YOSHIDA_W1 * dt)
        qs[step + 1] = q
        ps[step + 1] = p
    return qs, ps


def without_stiffness(potential) -> Potential:
    """The same energy and gradient with no stiffness, so ``integrate_reduced`` loops."""
    return Potential(potential, gradient=potential.gradient)


def longdouble_leapfrog(initial, potential, system, t_final, dt, order=2):
    """Sampled (q, p) of the kick-drift-kick leapfrog in long double, shape (steps + 1, 2 (N - 1)).

    The force is -K q from ``potential.stiffness``.  K, the drift matrix and
    the substep sizes are the float64 values ``integrate_reduced`` uses,
    widened exactly, so the two differ only by the rounding of float64
    arithmetic.  Worth it only where long double has a 64-bit mantissa.
    """
    steps = int(round(t_final / dt))
    others = list(initial.labels)
    stiffness = np.zeros((system.n, system.n))
    size = len(potential.stiffness)
    stiffness[:size, :size] = potential.stiffness
    force = -np.asarray(stiffness[np.ix_(others, others)], dtype=np.longdouble)
    drift = np.asarray(2.0 * kinetic_matrix(system, initial.frame), dtype=np.longdouble)
    sizes = (dt,) if order == 2 else (_YOSHIDA_W1 * dt, _YOSHIDA_W0 * dt, _YOSHIDA_W1 * dt)
    q = np.asarray(initial.q_rel, dtype=np.longdouble)
    p = np.asarray(initial.p_rel, dtype=np.longdouble)
    out = np.empty((steps + 1, 2 * len(others)), dtype=np.longdouble)
    out[0] = np.concatenate([q, p])
    for step in range(steps):
        for h in map(np.longdouble, sizes):
            p = p + (h / 2) * (force @ q)
            q = q + h * (drift @ p)
            p = p + (h / 2) * (force @ q)
        out[step + 1] = np.concatenate([q, p])
    return out


def fresh_array_spring_trajectory(initial, potential, system, t_final, dt, order=2):
    """Sampled (q, p) of ``integrate_reduced``'s spring propagator, one fresh array per sum.

    The same increment E_1 = M - I, the same rounds
    z_{k+j} = z_j + E_k z_j over every sample z_j so far, with
    E_{2k} = E_k + (E_k + E_k E_k), and z_0 kept as given, as the production
    propagator, but every product and sum allocates its result, and each
    round is concatenated to the samples so far, instead of writing into a
    preallocated array.  Each sum has the same two operands, so the
    production path must match it byte for byte.  E_1 is built with the
    kicks unrolled across the substep boundaries, a closing and an opening
    half kick back to back.  That order is kept on purpose: the production
    loop, a half kick, a drift and a half kick per substep, is checked
    against a second spelling of the same schedule.  The span checks are
    left out.
    """
    steps = int(round(t_final / dt))
    others = list(initial.labels)
    m = len(others)
    stiffness = np.zeros((system.n, system.n))
    size = len(potential.stiffness)
    stiffness[:size, :size] = potential.stiffness
    stiffness = stiffness[np.ix_(others, others)]
    drift = 2.0 * kinetic_matrix(system, initial.frame)
    sizes = (dt,) if order == 2 else (_YOSHIDA_W1 * dt, _YOSHIDA_W0 * dt, _YOSHIDA_W1 * dt)
    eye = np.eye(2 * m)
    dz = np.zeros((2 * m, 2 * m))

    def kick(a):
        dz[m:] -= a * stiffness.dot(eye[:m] + dz[:m])

    def flow(h):
        dz[:m] += h * drift.dot(eye[m:] + dz[m:])

    kick(0.5 * sizes[0])
    flow(sizes[0])
    for a, b in zip(sizes, sizes[1:]):
        kick(0.5 * a)
        kick(0.5 * b)
        flow(b)
    kick(0.5 * sizes[-1])

    z, e = np.concatenate([initial.q_rel, initial.p_rel])[:, None], dz
    while z.shape[1] <= steps:
        earlier = z[:, : steps + 1 - z.shape[1]]
        z = np.concatenate([z, earlier + np.matmul(e, earlier)], axis=1)
        e = e + (e + np.matmul(e, e))
    z = z.T
    return z[:, :m], z[:, m:]


def acceleration_identity_check(
    potential: Potential, rp: ReducedPhasePoint
) -> tuple[float, ...]:
    """Residuals of the relative accelerations against the potential gradients.

    For unit masses the reduced equations of motion give qdd = -2 M dV/dq, M the
    frame's ``kinetic_matrix`` (qdd_B = -2 dV/dq_B - dV/dq_C for three particles
    in frame A).  The left side is obtained by second-differencing a three-sample
    integrated trajectory of step 1e-3.  One residual per surviving particle.
    """
    dt = 1e-3
    system = ParticleSystem(rp.n)
    traj = integrate_reduced(rp, potential, system, 2 * dt, dt)
    qdd = (traj.q[0] - 2 * traj.q[1] + traj.q[2]) / dt**2
    grad = potential.gradient(pin_frame(traj.q[1], rp.frame))
    rhs = -2 * kinetic_matrix(system, rp.frame) @ grad[list(rp.labels)]
    return tuple(float(r) for r in np.abs(qdd - rhs))


# ---------------------------------------------------------------------------
# Phase-space path: the unoptimized forms
# ---------------------------------------------------------------------------


def meshgrid_random_wavefunction(subsystems, rng: np.random.Generator, frame=None):
    """``random_wavefunction`` with every Gaussian factor evaluated on the n^d meshgrid."""
    subsystems = tuple((str(label), grid) for label, grid in subsystems)
    grids = [grid for _, grid in subsystems]
    meshes = np.meshgrid(*[g.positions() for g in grids], indexing="ij")
    total = np.zeros(tuple(g.n for g in grids), dtype=complex)
    for _ in range(4):
        coeff = rng.normal() + 1j * rng.normal()
        term = np.ones_like(total) * coeff
        for mesh in meshes:
            alpha = rng.uniform(0.8, 2.5)
            center = rng.uniform(-1.5, 1.5)
            kick = rng.uniform(-1.5, 1.5)
            term = term * np.exp(-0.5 * alpha * (mesh - center) ** 2 + 1j * kick * mesh)
        total += term
    return WaveFunction(subsystems, total, POSITION, frame=frame).normalized()


def _signs(arr: np.ndarray, axis: int) -> np.ndarray:
    shape = [1] * arr.ndim
    shape[axis] = arr.shape[axis]
    signs = np.ones(arr.shape[axis])
    signs[1::2] = -1.0
    return signs.reshape(shape)


def allocating_centered_fft(arr: np.ndarray, axis: int) -> np.ndarray:
    """Centered DFT as signs * fft(arr * signs), one fresh array per step."""
    signs = _signs(arr, axis)
    return signs * np.fft.fft(arr * signs, axis=axis)


def allocating_centered_ifft(arr: np.ndarray, axis: int) -> np.ndarray:
    signs = _signs(arr, axis)
    return signs * np.fft.ifft(arr * signs, axis=axis)


def contiguous_strang_steps(h: GridHamiltonian, amplitudes: np.ndarray, steps: int, dt: float) -> np.ndarray:
    """``GridHamiltonian._strang_steps`` of 0.6.2: the fused loop on contiguous n^2 grids."""
    kick = np.exp(-0.5j * dt * h.potential_grid)
    edge = kick * _alternating(kick.shape[0])[:, None]
    edge *= _alternating(kick.shape[1])
    kick *= kick
    drift = np.exp(-1j * dt * h.kinetic_grid)
    drift /= drift.size
    arr = amplitudes * edge
    for step in range(steps):
        if step:
            arr *= kick
        np.fft.fft(arr, axis=1, out=arr)
        np.fft.fft(arr, axis=0, out=arr)
        arr *= drift
        np.fft.ifft(arr, axis=0, out=arr, norm="forward")
        np.fft.ifft(arr, axis=1, out=arr, norm="forward")
    arr *= edge
    return arr


def _allocating_refine(arr: np.ndarray, axis: int) -> np.ndarray:
    n = arr.shape[axis]
    widths = [(n // 2, n // 2) if a == axis else (0, 0) for a in range(arr.ndim)]
    return 2.0 * allocating_centered_ifft(np.pad(allocating_centered_fft(arr, axis), widths), axis)


def _doubled_box(rho: DensityMatrix) -> np.ndarray:
    """The refined kernel rho / dx, zero-padded into a (2 n2, 2 n2) box."""
    grid = rho.grid
    kernel = _allocating_refine(_allocating_refine(rho.matrix / grid.dx, 0).conj(), 1).conj()
    n2 = 2 * grid.n
    padded = np.zeros((2 * n2, 2 * n2), dtype=complex)
    padded[n2 // 2 : n2 // 2 + n2, n2 // 2 : n2 // 2 + n2] = kernel
    return padded


def _doubled_box_wigner(rho: DensityMatrix, chords: np.ndarray) -> WignerGrid:
    """Every other sample of the centred length-2 n2 DFT of each chord row."""
    grid = rho.grid
    fine = grid.refined()
    spectrum = allocating_centered_fft(chords, 1)
    values = np.real(spectrum[:, ::2]) * (fine.dx / math.pi)
    xi = (np.arange(fine.n) - fine.n // 2) * (grid.dp / 2.0)
    return WignerGrid(fine.positions(), xi, values)


def gather_wigner_transform(rho: DensityMatrix) -> WignerGrid:
    """``wigner_transform`` reading every chord through modulo index grids."""
    padded = _doubled_box(rho)
    n4 = padded.shape[0]
    n2 = n4 // 2
    centers = (np.arange(n2) + n2 // 2)[:, None]
    offsets = np.arange(n4)[None, :] - n4 // 2
    chords = padded[(centers + offsets) % n4, (centers - offsets) % n4]
    return _doubled_box_wigner(rho, chords)


def strided_wigner_transform(rho: DensityMatrix) -> WignerGrid:
    """``wigner_transform`` of 0.3.1: the chord band read through one strided view.

    Row c, column j of the band (chord offset j - n2/2) is flat element
    n2 + c (N + 1) + j (N - 1) of the N = 2 n2 box; the rest of each row of
    the (n2, N) chord table is zero.
    """
    padded = _doubled_box(rho)
    n4 = padded.shape[0]
    n2 = n4 // 2
    step = padded.itemsize
    band = np.lib.stride_tricks.as_strided(
        padded.reshape(-1)[n2:],
        shape=(n2, n2),
        strides=((n4 + 1) * step, (n4 - 1) * step),
        writeable=False,
    )
    chords = np.zeros((n2, n4), dtype=complex)
    chords[:, n2 // 2 : n2 // 2 + n2] = band
    return _doubled_box_wigner(rho, chords)


def joint_wigner(joint, q, p) -> np.ndarray:
    """A ``TransformedJointWigner`` at frame-A points, W(S^-1 z), through ``frame_map``.

    ``q`` = (q_B, q_C) and ``p`` = (pi_B, pi_C) broadcast together.  The rows of
    ``frame_map(eye, eye, FRAME_A, FRAME_C)``'s blocks give the frame-C
    arguments of the factors A and B.  An argument sums only the coordinates
    with a nonzero entry, so it keeps their broadcast shape alone.
    """
    blocks = frame_map(np.eye(2), np.eye(2), FRAME_A, FRAME_C)
    (q_a, q_b), (p_a, p_b) = (
        [sum(c * z for c, z in zip(row, coords) if c) for row in block]
        for block, coords in zip(blocks, (q, p))
    )
    f_a = eigenstate_wigner_values(joint.level_a, joint.alpha_a, q_a, p_a)
    return f_a * eigenstate_wigner_values(joint.level_b, joint.alpha_b, q_b, p_b)


def in_frame_order(keep: str, kept, discarded) -> tuple:
    """The kept and the discarded coordinate in frame A's (B, C) order."""
    return (kept, discarded) if keep == reduced_labels(FRAME_A)[0] else (discarded, kept)


def tensor_marginal(joint, keep: str, x, xi, quad_points: int) -> WignerGrid:
    """The tensor Gauss-Hermite marginal node pair by node pair.

    The rule ``qrf.wigner.marginal_wigner`` evaluates through its separable
    form: here each of the quad_points^2 node pairs evaluates the 4-d joint on
    the whole (len(x), len(xi)) output grid through ``joint_wigner``, with the
    same nodes and weights.  The discarded pair's Gaussian has the precision
    matrices Q^T diag(alpha) Q and P^T diag(1/alpha) P, from the blocks of
    ``frame_map`` with columns (kept, discarded), and the conditional means.
    """
    out_x = np.array(x, dtype=float)[:, None]
    out_xi = np.array(xi, dtype=float)[None, :]
    k = reduced_labels(FRAME_A).index(keep)
    unit = np.eye(2)[:, [k, 1 - k]]
    q_block, p_block = frame_map(unit, unit, FRAME_A, FRAME_C)
    alphas = np.array([joint.alpha_a, joint.alpha_b])
    g_q = q_block.T @ np.diag(alphas) @ q_block
    g_p = p_block.T @ np.diag(1.0 / alphas) @ p_block
    s_u, s_v = g_q[1, 1], g_p[1, 1]
    u_centre, v_centre = -g_q[1, 0] / s_u * out_x, -g_p[1, 0] / s_v * out_xi
    nodes, weights = np.polynomial.hermite.hermgauss(quad_points)
    weights = weights * np.exp(nodes**2)
    values = np.zeros((out_x.shape[0], out_xi.shape[1]))
    for (t_u, w_u), (t_v, w_v) in itertools.product(zip(nodes, weights), repeat=2):
        u = u_centre + t_u / math.sqrt(s_u)
        v = v_centre + t_v / math.sqrt(s_v)
        q = in_frame_order(keep, out_x, u)
        p = in_frame_order(keep, out_xi, v)
        values += (w_u * w_v) * joint_wigner(joint, q, p)
    return WignerGrid(out_x[:, 0], out_xi[0], values / math.sqrt(s_u * s_v))


# ---------------------------------------------------------------------------
# The quantum switch seen through observables and dynamics
# ---------------------------------------------------------------------------


def conjugate_observable(obs: Observable, sw: FrameSwitch) -> Observable:
    """S O S^dagger of a polynomial observable, by substituting its symbols.

    Each old symbol becomes a row of the reverse classical map's integer
    blocks, ``frame_map(eye, eye, F2, F1)``: with old frame F1, new frame F2
    and remaining particle R,

        q_F2 -> -q'_F1,          p_F2 -> -p'_F1 - p'_R,
        q_R  -> q'_R - q'_F1,    p_R  -> p'_R.

    Weyl ordering is covariant under this linear map, so the symbol
    substitution is the operator transformation.
    """
    new = reduced_labels(sw.to_frame)
    blocks = frame_map(np.eye(2), np.eye(2), sw.to_frame, sw.from_frame)
    image = {
        (old, kind): Observable({(((name, kind), 1),): c for name, c in zip(new, row)})
        for kind, block in zip("qp", blocks)
        for old, row in zip(reduced_labels(sw.from_frame), block)
    }
    result = Observable()
    for mono, coeff in obs.terms.items():
        term = Observable.constant(coeff)
        for key, power in mono:
            term = term * image[key] ** power
        result = result + term
    return result


def commutation_paths(psi: WaveFunction, params, t: float, sw: FrameSwitch, dt: float = 1e-3):
    """The evolve-then-switch and the switch-then-evolve state, in that order.

    The state evolves under the old frame's oscillator Hamiltonian and is then
    switched, or is switched and then evolves under the new frame's
    Hamiltonian for the same springs and masses.  Time evolution commutes
    with the switch when the two agree.
    """
    system, potential = params.system(), params.potential()
    h_old = reduced_quantum_hamiltonian(sw.from_frame, potential, system, psi.subsystems)
    switched = switch_frame(psi, sw)
    h_new = reduced_quantum_hamiltonian(sw.to_frame, potential, system, switched.subsystems)
    return switch_frame(h_old.evolve(psi, t, dt), sw), h_new.evolve(switched, t, dt)


# ---------------------------------------------------------------------------
# Exact Gaussian reference for perspective-dependent entanglement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianReduction:
    """One particle's reduced state of a Gaussian pure state, in closed form."""

    nu: float  # symplectic eigenvalue, 1/2 for a pure reduced state
    entropy: float  # von Neumann entropy in nats
    purity: float


def switched_ground_reduction(
    alpha_a: float, alpha_b: float, frame: FrameLabel, keep: str
) -> GaussianReduction:
    """Reduced state of ``keep`` after switching the frame-C product ground state.

    The state exp(-(alpha_A q_A^2 + alpha_B q_B^2) / 2) has the covariance
    sigma = diag(1/(2 alpha_A), 1/(2 alpha_B), alpha_A/2, alpha_B/2) over
    (q_A, q_B, p_A, p_B).  The switch is linear and symplectic; its matrix M
    is block-diagonal, with the integer blocks ``frame_map(eye, eye, C,
    frame)``, and the switched covariance is M sigma M^T.  The kept
    particle's 2 x 2 block has the
    symplectic eigenvalue nu = sqrt(det), entropy
    (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2) and purity 1/(2 nu)
    (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).  Switching to frame
    A and keeping B gives nu = sqrt((alpha_A + alpha_B) / (4 alpha_A)).
    """
    q_block, p_block = frame_map(np.eye(2), np.eye(2), FRAME_C, frame)
    m = np.block([[q_block, np.zeros((2, 2))], [np.zeros((2, 2)), p_block]])
    omega = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    if not np.array_equal(m @ omega @ m.T, omega):
        raise AssertionError("the frame switch is not symplectic")
    sigma = np.diag([0.5 / alpha_a, 0.5 / alpha_b, 0.5 * alpha_a, 0.5 * alpha_b])
    switched = m @ sigma @ m.T
    i = reduced_labels(frame).index(keep)
    block = switched[np.ix_((i, i + 2), (i, i + 2))]
    nu = math.sqrt(float(np.linalg.det(block)))
    entropy = (nu + 0.5) * math.log(nu + 0.5)
    if nu > 0.5:
        entropy -= (nu - 0.5) * math.log(nu - 0.5)
    return GaussianReduction(nu, entropy, 0.5 / nu)
