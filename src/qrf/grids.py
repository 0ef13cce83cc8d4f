"""Spectral wavefunctions on periodic tensor-product grids.

Discretization conventions (fixed throughout the library):

* ``Grid1D(n, length)`` samples positions x_j = (j - n/2) dx with dx = L/n and
  momenta p_k = (k - n/2) dp with dp = 2 pi / L, both in ascending order.
  n is a power of two, at least 8 (so n is divisible by 4, which makes the
  centered transform below phase-free).
* Representation changes use the symmetric ("1/sqrt(2 pi)") Fourier
  normalization, so position and momentum amplitudes share one norm formula:

      psi~(p_k) = dx / sqrt(2 pi) * sum_j exp(-i p_k x_j) psi(x_j),
      norm^2    = sum |amplitude|^2 * cell volume  (dx or dp per axis).

  On the centered grids this is an exact unitary (discrete Parseval), computed
  with one FFT and two alternating-sign vectors.
* States are expected to decay at the grid boundary in whichever
  representation they are examined; ``boundary_ratio`` measures this and the
  experiment runners treat a violation as a box-adequacy failure.

Wavefunctions are immutable values: every operation returns a new instance.
How a value holds its arrays is one rule for the whole library, stated at
``qrf.classical._hold``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .classical import FrameLabel, _adopt, _hold
from .errors import AxisClash, GridMismatch, UnknownAxis

POSITION = "position"
MOMENTUM = "momentum"

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Maximum boundary/peak amplitude ratio for a state to count as box-adequate.
BOUNDARY_DECAY_TOL = 1e-8


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid for one subsystem axis."""

    n: int
    length: float

    def __post_init__(self):
        if not isinstance(self.n, Integral) or self.n < 8 or self.n & (self.n - 1) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (0 < self.length < math.inf):  # NaN fails it
            raise ValueError(f"length must be positive and finite, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dp(self) -> float:
        return 2.0 * math.pi / self.length

    def positions(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    def momenta(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dp

    def samples(self, representation: str) -> np.ndarray:
        if representation == POSITION:
            return self.positions()
        if representation == MOMENTUM:
            return self.momenta()
        raise ValueError(f"unknown representation {representation!r}")

    def cell(self, representation: str) -> float:
        return self.dx if representation == POSITION else self.dp

    def refined(self) -> "Grid1D":
        """Same box with doubled sampling (dx/2, unchanged dp)."""
        return Grid1D(2 * self.n, self.length)


def _alternating(n: int) -> np.ndarray:
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def _along_axis(vec: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = vec.shape[0]
    return vec.reshape(shape)


@dataclass(frozen=True, eq=False, slots=True)
class WaveFunction:
    """Complex amplitudes over a tensor product of 1-d grids.

    Each axis carries a subsystem label, its grid, and a representation tag
    (position or momentum).  ``frame`` optionally records which particle's
    perspective the state describes.
    """

    subsystems: tuple[tuple[str, Grid1D], ...]
    amplitudes: np.ndarray
    representation: tuple[str, ...]
    frame: FrameLabel | None = None

    def __post_init__(self, adopt: bool = False):
        subsystems = tuple((str(label), grid) for label, grid in self.subsystems)
        labels = [label for label, _ in subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels {labels}")
        representation = self.representation
        if isinstance(representation, str):
            representation = (representation,) * len(subsystems)
        representation = tuple(representation)
        if len(representation) != len(subsystems):
            raise ValueError("one representation tag per axis required")
        for rep in representation:
            if rep not in (POSITION, MOMENTUM):
                raise ValueError(f"unknown representation {rep!r}")
        object.__setattr__(self, "subsystems", subsystems)
        object.__setattr__(self, "representation", representation)
        _hold(self, "amplitudes", dtype=complex, copy=not adopt)
        arr = self.amplitudes
        expected = tuple(grid.n for _, grid in subsystems)
        if arr.shape != expected:
            raise ValueError(f"amplitude shape {arr.shape} does not match grids {expected}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def ndim(self) -> int:
        return len(self.subsystems)

    def axis(self, label: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise UnknownAxis(f"no axis labelled {label!r} among {self.labels}")

    def grid(self, label: str) -> Grid1D:
        return self.subsystems[self.axis(label)][1]

    def rep(self, label: str) -> str:
        return self.representation[self.axis(label)]

    def cell_volume(self) -> float:
        volume = 1.0
        for (_, grid), rep in zip(self.subsystems, self.representation):
            volume *= grid.cell(rep)
        return volume

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.amplitudes) ** 2)) * self.cell_volume())

    def normalized(self) -> "WaveFunction":
        norm = self.norm()
        if norm == 0:
            raise ValueError("cannot normalize the zero state")
        return self._with(self.amplitudes / norm)

    def boundary_ratio(self) -> float:
        """max |amplitude| on the grid boundary over max |amplitude| overall."""
        magnitude = np.abs(self.amplitudes)
        peak = float(magnitude.max())
        if peak == 0:
            return 0.0
        edge = 0.0
        for axis in range(self.ndim):
            edge = max(edge, float(np.take(magnitude, 0, axis=axis).max()))
            edge = max(edge, float(np.take(magnitude, -1, axis=axis).max()))
        return edge / peak

    def _with(self, amplitudes, representation=None, subsystems=None, frame=None):
        """This state's metadata, except where given, over ``amplitudes``.

        The array is adopted without a copy (see ``classical._hold``).
        """
        return _adopt(
            WaveFunction,
            subsystems if subsystems is not None else self.subsystems,
            amplitudes,
            representation if representation is not None else self.representation,
            frame if frame is not None else self.frame,
        )

    def __repr__(self):
        axes = ", ".join(
            f"{label}:{grid.n}@{rep[:3]}"
            for (label, grid), rep in zip(self.subsystems, self.representation)
        )
        tag = f", frame={self.frame.name}" if self.frame is not None else ""
        return f"WaveFunction({axes}{tag})"


def change_representation(psi: WaveFunction, label: str, target: str) -> WaveFunction:
    """Fourier-transform one axis between position and momentum representations.

    Unitary on the centered grids: the norm and round trips are exact up to
    FFT rounding.
    """
    if target not in (POSITION, MOMENTUM):
        raise ValueError(f"unknown representation {target!r}")
    axis = psi.axis(label)
    if psi.representation[axis] == target:
        return psi
    grid = psi.subsystems[axis][1]
    if target == MOMENTUM:
        transform, scale = np.fft.fft, grid.dx / _SQRT_2PI
    else:
        transform, scale = np.fft.ifft, _SQRT_2PI / grid.dx
    # the DFT centered at n/2 on both sides (n % 4 == 0), in place on one fresh
    # array: 1-d ``fft(out=)`` only, since ``fft2(out=)`` is unreliable on numpy 2.4
    signs = _along_axis(_alternating(grid.n), psi.ndim, axis)
    arr = psi.amplitudes * signs
    transform(arr, axis=axis, out=arr)
    arr *= signs
    arr *= scale
    representation = list(psi.representation)
    representation[axis] = target
    return psi._with(arr, representation=tuple(representation))


def to_representation(psi: WaveFunction, target: str) -> WaveFunction:
    """Bring every axis into the same representation."""
    for label in psi.labels:
        psi = change_representation(psi, label, target)
    return psi


def to_matching(psi: WaveFunction, template: WaveFunction) -> WaveFunction:
    """Convert psi's axes into the template's representation tags."""
    for label, rep in zip(template.labels, template.representation):
        psi = change_representation(psi, label, rep)
    return psi


def _check_compatible(psi: WaveFunction, phi: WaveFunction) -> None:
    if psi.labels != phi.labels:
        raise GridMismatch(f"axis labels differ: {psi.labels} vs {phi.labels}")
    if psi.subsystems != phi.subsystems:
        raise GridMismatch("grids differ between states")
    if psi.representation != phi.representation:
        raise GridMismatch(
            f"representations differ: {psi.representation} vs {phi.representation}"
        )


def inner_product(psi: WaveFunction, phi: WaveFunction) -> complex:
    """<psi|phi>, conjugate-linear in the first argument."""
    _check_compatible(psi, phi)
    return complex(np.vdot(psi.amplitudes, phi.amplitudes) * psi.cell_volume())


def fidelity(psi: WaveFunction, phi: WaveFunction) -> float:
    """Phase-insensitive overlap |<psi|phi>|^2 of the normalized states."""
    psi = to_representation(psi, MOMENTUM)
    phi = to_representation(phi, MOMENTUM)
    if psi.labels != phi.labels:
        phi = with_axis_order(phi, psi.labels)
    overlap = abs(inner_product(psi, phi)) ** 2
    return overlap / (psi.norm() ** 2 * phi.norm() ** 2)


def apply_shear_phase(
    psi: WaveFunction, pos_axis: str, mom_axis: str, sign: int = 1
) -> WaveFunction:
    """Apply exp(sign * i q_pos p_mom), diagonal in the mixed representation.

    With pos_axis read in position and mom_axis in momentum this is a pure
    phase, hence exactly unitary; in full position representation it shifts
    the mom_axis argument by the pos_axis coordinate (modulo the box).
    The output keeps the input's representation tags.
    """
    if pos_axis == mom_axis:
        raise AxisClash(f"shear needs two distinct axes, got {pos_axis!r} twice")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    work = change_representation(psi, pos_axis, POSITION)
    work = change_representation(work, mom_axis, MOMENTUM)
    i = work.axis(pos_axis)
    j = work.axis(mom_axis)
    x = _along_axis(work.subsystems[i][1].positions(), work.ndim, i)
    p = _along_axis(work.subsystems[j][1].momenta(), work.ndim, j)
    return to_matching(work._with(work.amplitudes * np.exp(1j * sign * x * p)), psi)


def reflect_axis(psi: WaveFunction, label: str) -> WaveFunction:
    """Parity on one axis: amplitude at sample s moves to sample -s.

    The same index permutation implements the reflection in either
    representation (parity commutes with the Fourier transform).
    """
    axis = psi.axis(label)
    n = psi.subsystems[axis][1].n
    index = (-np.arange(n)) % n
    return psi._with(np.take(psi.amplitudes, index, axis=axis))


def with_axis_order(psi: WaveFunction, labels) -> WaveFunction:
    """Transpose the tensor axes into the requested label order."""
    labels = tuple(labels)
    if set(labels) != set(psi.labels):
        raise UnknownAxis(f"cannot reorder {psi.labels} as {labels}")
    perm = [psi.axis(label) for label in labels]
    subsystems = tuple(psi.subsystems[i] for i in perm)
    representation = tuple(psi.representation[i] for i in perm)
    return psi._with(np.transpose(psi.amplitudes, perm), representation, subsystems)


def relabel_axis(psi: WaveFunction, old: str, new: str, frame=None) -> WaveFunction:
    """Rename one subsystem label, optionally retagging the frame."""
    axis = psi.axis(old)
    subsystems = list(psi.subsystems)
    subsystems[axis] = (new, subsystems[axis][1])
    return psi._with(psi.amplitudes, subsystems=subsystems, frame=frame)


def _check_eigenstate(level: int, alpha: float) -> None:
    """The one oscillator-eigenstate rule: level 0 or 1, alpha positive and finite."""
    if level not in (0, 1):
        raise ValueError(f"only levels 0 and 1 are provided, got {level}")
    if not (0 < alpha < math.inf):  # written so that NaN fails it
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def gaussian_state(
    grid: Grid1D,
    label: str,
    alpha: float = 1.0,
    center: float = 0.0,
    momentum: float = 0.0,
    frame: FrameLabel | None = None,
) -> WaveFunction:
    """Normalized Gaussian exp(-alpha (x - c)^2 / 2 + i k x) on one axis."""
    _check_eigenstate(0, alpha)  # a displaced, kicked ground state: the same width rule
    x = grid.positions()
    amp = np.exp(-0.5 * alpha * (x - center) ** 2 + 1j * momentum * x)
    psi = _adopt(WaveFunction, [(label, grid)], amp, POSITION, frame)
    return psi.normalized()


def ho_eigenstate(grid: Grid1D, label: str, level: int, alpha: float = 1.0) -> WaveFunction:
    """Oscillator eigenstate of width parameter alpha (levels 0 and 1).

    psi0 = (alpha/pi)^(1/4) exp(-alpha x^2 / 2),
    psi1 = sqrt(2) (alpha^3/pi)^(1/4) x exp(-alpha x^2 / 2).
    """
    _check_eigenstate(level, alpha)
    x = grid.positions()
    envelope = np.exp(-0.5 * alpha * x**2)
    if level == 0:
        amp = (alpha / np.pi) ** 0.25 * envelope
    else:
        amp = math.sqrt(2.0) * (alpha**3 / np.pi) ** 0.25 * x * envelope
    return _adopt(WaveFunction, [(label, grid)], amp, POSITION, None).normalized()


def product_state(
    a: WaveFunction, b: WaveFunction, frame: FrameLabel | None = None
) -> WaveFunction:
    """Tensor product of two single-axis states."""
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("product_state expects single-axis factors")
    amplitudes = np.multiply.outer(a.amplitudes, b.amplitudes)
    return _adopt(
        WaveFunction,
        a.subsystems + b.subsystems,
        amplitudes,
        a.representation + b.representation,
        frame,
    )


def random_wavefunction(
    subsystems,
    rng: np.random.Generator,
    frame: FrameLabel | None = None,
) -> WaveFunction:
    """Seeded random superposition of four displaced Gaussians, normalized.

    Each term is a complex normal coefficient times, on every axis, a
    Gaussian exp(-alpha (x - c)^2 / 2 + i k x) with alpha in [0.8, 2.5) and
    c, k in [-1.5, 1.5).  The ranges are fixed, not scaled to the grid, so
    box adequacy is not guaranteed: on n = 64, L = 20 a draw's momentum
    edge/peak reaches 7.8e-7 and its A -> C switched image 2.2e-3, and no
    128^2 box keeps every switched image below ``BOUNDARY_DECAY_TOL``
    (``qrfbench/NOTES.md``; ROADMAP item 8).  Callers that need an adequate
    state check ``boundary_ratio``.

    Each axis's factor is a 1-d exponential, expanded to the full grid before
    the product, so the bytes match the same expression over a meshgrid.
    """
    subsystems = tuple((str(label), grid) for label, grid in subsystems)
    shape = tuple(grid.n for _, grid in subsystems)
    total = np.zeros(shape, dtype=complex)
    for _ in range(4):
        term = np.full(shape, rng.normal() + 1j * rng.normal())
        for axis, (_, grid) in enumerate(subsystems):
            alpha = rng.uniform(0.8, 2.5)
            center = rng.uniform(-1.5, 1.5)
            kick = rng.uniform(-1.5, 1.5)
            x = grid.positions()
            factor = np.exp(-0.5 * alpha * (x - center) ** 2 + 1j * kick * x)
            # Keep the form term * <fresh full-size factor>.  For arrays of
            # 256 KiB and more, numpy reuses the temporary factor as the
            # output and swaps the operands of the complex product, whose
            # rounding depends on their order; the meshgrid form did the same,
            # so this form keeps its bytes and a broadcast or in-place one
            # does not.
            term = term * np.broadcast_to(_along_axis(factor, len(shape), axis), shape).copy()
        total += term
    return _adopt(WaveFunction, subsystems, total, POSITION, frame).normalized()
