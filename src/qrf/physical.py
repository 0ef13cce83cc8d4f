"""Gauge-invariant quantum states for three particles and their frame reductions.

A translation-invariant three-particle state is fully described, relative to a
chosen frame particle F, by a two-axis amplitude over the other particles'
momenta; the frame's momentum is fixed by the vanishing total momentum.  The
three reductions of one state are related by the unimodular substitutions

    psi_{AB|C}(p_A, p_B) = psi_{BC|A}(p_B, -p_A - p_B)   (and label permutations),

which on commensurate momentum grids (equal dp on all axes) map grid points to
grid points: they are ``frame_map``'s integer momentum block on the lattice.  The
physical inner product is the plain two-axis inner product of any common reduction.
A frame-F reduction is tagged F, has the axes ``reduced_labels(F)`` and one
shared grid; :func:`reduction_grid` is the one check of that contract.

The redundancy-removing map behind these reductions is the unitary
exp(i q_F (sum of other momenta + k)): it shifts the frame momentum so the
constraint acts on the frame slot alone, after which projecting that slot out
leaves the reduced amplitude.  Any k gives the same reduction.  The n^3
constraint-surface embedding, the k-parametrized family built on it and its
dense-matrix check (``trivialization_family_check``) live in the test suite's
``tests/oracles.py``, where they define what :func:`momentum_substitution`
must reproduce.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .classical import (
    FREE_POTENTIAL,
    FrameLabel,
    ParticleSystem,
    Potential,
    _adopt,
    _hold,
    frame_map,
    pin_frame,
)
from .dynamics import _step_count, reduced_energy
from .errors import FrameMismatch, GridMismatch, SameFrame
from .grids import (
    MOMENTUM,
    POSITION,
    Grid1D,
    WaveFunction,
    _alternating,
    inner_product,
    to_matching,
    to_representation,
)


@functools.cache  # up to 5 reads per switch: 2 reduction checks, the output's labels, remaining x2
def reduced_labels(frame: FrameLabel) -> tuple[str, str]:
    """Axis labels of the frame's reduction, in ascending particle order."""
    if frame.index not in (0, 1, 2):
        raise ValueError("quantum reductions are defined for three particles")
    names = (FrameLabel(i).name for i in range(3) if i != frame.index)
    return tuple(names)  # type: ignore[return-value]


def reduction_grid(psi: WaveFunction, frame: FrameLabel | None) -> Grid1D:
    """The one grid of psi as a frame-``frame`` reduction, checking that it is one.

    Raises :class:`FrameMismatch` unless psi is tagged ``frame`` and has the
    axes ``reduced_labels(frame)``, and :class:`GridMismatch` unless its axes
    share one grid (equal n and length).
    """
    if frame is None or psi.frame != frame:
        tag = psi.frame.name if psi.frame else None
        raise FrameMismatch(f"state is tagged {tag}, expected {frame.name if frame else 'a tag'}")
    if psi.labels != reduced_labels(frame):
        raise FrameMismatch(
            f"frame {frame.name} reduction must have axes {reduced_labels(frame)}, got {psi.labels}"
        )
    grids = {grid for _, grid in psi.subsystems}
    if len(grids) != 1:
        raise GridMismatch("all axes must share one grid (equal n and length)")
    return next(iter(grids))


@functools.cache  # one 2x2 block per ordered frame pair, at most six
def _momentum_block(old: FrameLabel, new: FrameLabel) -> tuple[tuple[int, int], ...]:
    """``frame_map``'s momentum block from frame ``new`` back to ``old``, as plain ints.

    A frame-``new`` momentum point m (axes ``reduced_labels(new)``) is the
    frame-``old`` point ``block @ m`` (axes ``reduced_labels(old)``).
    """
    return tuple(tuple(int(x) for x in row) for row in frame_map(np.eye(2), np.eye(2), new, old)[1])


def momentum_substitution(psi: WaveFunction, new_frame: FrameLabel) -> WaveFunction:
    """Re-express a reduced two-axis amplitude relative to another frame.

    Each output momentum point reads the input at its image under
    :func:`_momentum_block`.  The block's entries are integers, so on
    commensurate grids the map permutes grid points and preserves the norm
    identically (the amplitudes that wrap around the momentum window are the
    ones the boundary decay requirement makes negligible).
    """
    old_frame = psi.frame
    grid = reduction_grid(psi, old_frame)
    if new_frame == old_frame:
        raise SameFrame(f"already reduced relative to {old_frame.name}")
    out_labels = reduced_labels(new_frame)  # its message precedes frame_map's range check
    n = grid.n
    m = np.arange(n, dtype=np.int32) - n // 2  # int32: n^2 < 2^31 on any grid that fits in memory
    block = _momentum_block(old_frame, new_frame)
    rows, cols = (np.add.outer(a * m + n // 2, b * m) for a, b in block)  # the axis index m + n/2
    rows &= n - 1  # wrapped by a mask: Grid1D's n is a power of two
    rows *= n
    cols &= n - 1
    rows += cols
    out = to_representation(psi, MOMENTUM).amplitudes.take(rows)
    return _adopt(WaveFunction, [(label, grid) for label in out_labels], out, MOMENTUM, new_frame)


@dataclass(frozen=True)
class PhysicalState:
    """A gauge-invariant state stored through one canonical frame reduction."""

    canonical: WaveFunction

    def __post_init__(self):
        psi = self.canonical
        reduction_grid(psi, psi.frame)
        if any(rep != MOMENTUM for rep in psi.representation):
            raise ValueError("canonical amplitudes must be stored in momentum representation")
        if abs(psi.norm() - 1.0) > 1e-9:
            raise ValueError(f"canonical amplitude not normalized: norm={psi.norm():.3e}")

    @property
    def frame(self) -> FrameLabel:
        return self.canonical.frame

    @property
    def grid(self) -> Grid1D:
        return self.canonical.subsystems[0][1]


def physical_state(psi: WaveFunction, frame: FrameLabel | None = None) -> PhysicalState:
    """Normalize a two-axis amplitude into a canonical physical state."""
    work = to_representation(psi, MOMENTUM).normalized()
    work = work._with(work.amplitudes, frame=frame)  # frame None keeps psi's tag
    return PhysicalState(work)


def reexpress(state: PhysicalState, new_frame: FrameLabel) -> PhysicalState:
    """The same physical state described relative to another particle."""
    return PhysicalState(momentum_substitution(state.canonical, new_frame))


def physical_inner_product(s1: PhysicalState, s2: PhysicalState) -> complex:
    """Inner product of physical states via a common reduction.

    The value does not depend on which frame's reduction carries it out; the
    second state is re-expressed into the first's frame automatically.
    """
    if s2.frame != s1.frame:
        s2 = reexpress(s2, s1.frame)
    return inner_product(s1.canonical, s2.canonical)


# ---------------------------------------------------------------------------
# Reduced Hamiltonians on the grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridHamiltonian:
    """H = T(p) + V(q) applied spectrally on a two-axis grid.

    The kinetic part multiplies in momentum representation, the potential in
    position representation; split-step evolution alternates the two.

    :meth:`evolve` runs the Strang steps as one fused loop that allocates
    nothing per step.  It relies on three invariants.  The alternating signs
    that center each FFT are diagonal, so they commute with both phase grids
    and cancel between consecutive transforms: they are applied once on entry
    and once on exit.  The closing half kick of one step and the opening half
    kick of the next merge into one full kick exp(-i V dt).  The state lives
    in a buffer with one spare column that no FFT reads, so the column passes
    never step through memory at a power-of-two stride, which aliases cache
    sets at n >= 128.  The phase grids share that padded shape with a finite
    spare column, so every product is one contiguous pass over the whole
    buffer (numpy buffers a strided operand), and the state's spare column
    stays 0.
    """

    subsystems: tuple[tuple[str, Grid1D], ...]
    kinetic_grid: np.ndarray
    potential_grid: np.ndarray

    def __post_init__(self, adopt: bool = False):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        _hold(self, "kinetic_grid", "potential_grid", copy=not adopt)
        shape = tuple(grid.n for _, grid in self.subsystems)
        if self.kinetic_grid.shape != shape or self.potential_grid.shape != shape:
            raise ValueError("kinetic/potential grids do not match the subsystem shape")

    def _check(self, psi: WaveFunction):
        if psi.subsystems != self.subsystems:
            raise GridMismatch("state does not live on this Hamiltonian's grids")

    def apply(self, psi: WaveFunction) -> WaveFunction:
        self._check(psi)
        mom = to_representation(psi, MOMENTUM)
        pos = to_representation(psi, POSITION)
        kinetic = to_matching(mom._with(mom.amplitudes * self.kinetic_grid), psi)
        potential = to_matching(pos._with(pos.amplitudes * self.potential_grid), psi)
        return psi._with(kinetic.amplitudes + potential.amplitudes)

    def expectation(self, psi: WaveFunction) -> float:
        self._check(psi)
        value = inner_product(psi, self.apply(psi))
        if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
            raise AssertionError(f"energy expectation has imaginary part {value.imag:.3e}")
        return value.real / psi.norm() ** 2

    def evolve(self, psi: WaveFunction, t: float, dt: float = 1e-3) -> WaveFunction:
        """Strang-split propagation exp(-i H t) to second order in dt.

        Runs round(t / dt) steps of exp(-i V dt/2) exp(-i T dt) exp(-i V dt/2)
        in position representation and returns the state in psi's
        representation tags.  ``t`` must be finite and non-negative and ``dt``
        finite and positive (:class:`InvalidStep` otherwise); fewer than half
        a step returns psi itself.
        """
        self._check(psi)
        steps = _step_count(t, dt)
        if steps == 0:
            return psi
        arr = self._strang_steps(to_representation(psi, POSITION).amplitudes, steps, dt)
        out = _adopt(WaveFunction, self.subsystems, arr, POSITION, psi.frame)
        return to_matching(out, psi)

    def _strang_steps(self, amplitudes: np.ndarray, steps: int, dt: float) -> np.ndarray:
        """Position amplitudes after ``steps`` fused Strang steps (class docstring).

        Every grid is copied into the padded layout, its spare column 0, and
        every FFT reads the ``[:, :cols]`` view of the work buffer.  The phase
        grids are locals, so they are freed before the caller wraps the
        result in a WaveFunction.
        """
        rows, cols = self.potential_grid.shape

        def padded(grid: np.ndarray) -> np.ndarray:
            buf = np.empty((rows, cols + 1), complex)
            buf[:, :cols] = grid
            buf[:, cols] = 0.0
            return buf

        kick = padded(self.potential_grid)
        # the scalar stays the left operand, as in -0.5j * dt * V
        np.exp(np.multiply(-0.5j * dt, kick, out=kick), out=kick)
        # the outer half kicks with the centering signs folded in, broadcast
        # from the 1-D sign vectors so no n^2 sign grid is allocated
        edge = kick * _alternating(rows)[:, None]
        edge *= _alternating(cols + 1)  # a sign for the spare column too
        kick *= kick  # the merged full kick between steps
        # ifft runs unscaled (norm="forward"); its 1/N rides on the kinetic phase
        drift = padded(self.kinetic_grid)
        np.exp(np.multiply(-1j * dt, drift, out=drift), out=drift)
        # a real multiply, exact since N is a power of two
        np.multiply(drift.view(float), 1.0 / (rows * cols), out=drift.view(float))
        work = padded(amplitudes)
        work *= edge
        arr = work[:, :cols]
        for step in range(steps):
            if step:
                work *= kick
            np.fft.fft(arr, axis=1, out=arr)
            np.fft.fft(arr, axis=0, out=arr)
            work *= drift
            np.fft.ifft(arr, axis=0, out=arr, norm="forward")
            np.fft.ifft(arr, axis=1, out=arr, norm="forward")
        work *= edge
        del kick, edge, drift  # so the contiguous copy is not the peak
        return arr.copy()


def reduced_quantum_hamiltonian(
    frame: FrameLabel,
    potential: Potential,
    system: ParticleSystem,
    subsystems,
) -> GridHamiltonian:
    """Quantized reduced Hamiltonian for three particles in the given frame.

    Kinetic energy is the mass-weighted quadratic form of the frame's
    reduction (p_B^2 + p_C^2 + p_B p_C for unit masses in frame A); the
    potential is evaluated with the frame particle pinned at the origin.
    """
    if system.n != 3:
        raise ValueError("quantum reductions are fixed to three particles")
    subsystems = tuple((str(label), grid) for label, grid in subsystems)
    labels = tuple(label for label, _ in subsystems)
    if labels != reduced_labels(frame):
        raise FrameMismatch(
            f"frame {frame.name} expects axes {reduced_labels(frame)}, got {labels}"
        )
    grids = [grid for _, grid in subsystems]
    momenta = np.stack(np.meshgrid(*(grid.momenta() for grid in grids), indexing="ij"))
    positions = np.stack(np.meshgrid(*(grid.positions() for grid in grids), indexing="ij"))
    kinetic_grid = reduced_energy(np.zeros_like(momenta), momenta, frame, FREE_POTENTIAL, system)
    potential_grid = potential(pin_frame(positions, frame))
    return _adopt(GridHamiltonian, subsystems, kinetic_grid, potential_grid)
