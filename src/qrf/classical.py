"""Translation-invariant N-particle phase space and its gauge-fixed reductions.

The extended phase space carries canonical pairs (q_i, p_i) for N particles on
a line.  Total momentum P = sum_i p_i generates rigid translations and is
constrained to vanish; fixing the residual freedom by pinning one particle to
the origin (q_frame = 0) yields a reduced phase space holding the positions and
momenta of the remaining particles *relative to the frame particle*.  Moving
between two such reductions is a translation along the gauge flow, built here
as embed -> flow -> project.  ``frame_map`` is that switch for every caller,
on plain arrays; embed/flow/project is its construction and test reference.

Units are dimensionless naturals with hbar = 1 and unit masses by default.
"""

from __future__ import annotations

import functools
import math
import string
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation, SameFrame

#: Absolute tolerance for membership in the constraint / gauge surfaces.
CONSTRAINT_TOL = 1e-9

#: Central-difference step for numerical Poisson brackets.
BRACKET_FD_STEP = 1e-5

#: Central-difference step for potentials given without an analytic gradient.
GRADIENT_FD_STEP = 1e-6


@dataclass(frozen=True)
class FrameLabel:
    """Identifies the particle whose perspective a reduced description uses."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"frame index must be non-negative, got {self.index}")

    @property
    def name(self) -> str:
        """Letter name A, B, C, ... for the first 26 particles."""
        if self.index < 26:
            return string.ascii_uppercase[self.index]
        return f"P{self.index}"


FRAME_A = FrameLabel(0)
FRAME_B = FrameLabel(1)
FRAME_C = FrameLabel(2)


def _hold(value, *names: str, dtype=float, copy: bool = True) -> None:
    """Turn the named fields of a frozen value into read-only ``dtype`` arrays.

    Every qrf value holds its arrays by this one rule.  A public constructor
    copies what its caller passes in, so the caller's array stays writable
    and a later write to it does not reach the value.  A result the library
    has just built, which no caller holds, is adopted in place through
    ``_adopt`` (``copy=False``), since copying a large grid can cost more
    than the rest of building the value.  Either way the held arrays are
    read-only, and the frozen dataclass lets no field be reassigned.
    """
    for name in names:
        given = getattr(value, name)
        arr = np.array(given, dtype=dtype) if copy else np.asarray(given, dtype=dtype)
        arr.setflags(write=False)
        if arr is not given:  # an adopted float array is already the field
            object.__setattr__(value, name, arr)


def _adopt(cls, *values):
    """A ``cls`` over arrays the library has just built, or views of a value's, uncopied.

    ``values`` are all of the dataclass's fields, in order: no value type
    declares a ``ClassVar`` or ``InitVar``, which ``__dataclass_fields__``
    would also list.  Its ``__post_init__(adopt=True)`` runs the checks such
    a result still needs.
    """
    value = object.__new__(cls)
    for name, field_value in zip(cls.__dataclass_fields__, values, strict=True):
        object.__setattr__(value, name, field_value)
    value.__post_init__(adopt=True)
    return value


@dataclass(frozen=True, eq=False)
class ParticleSystem:
    """Particle count and masses.  Unit masses unless configured otherwise."""

    n: int
    masses: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least two particles, got n={self.n}")
        if self.masses is None:
            object.__setattr__(self, "masses", np.ones(self.n))
        _hold(self, "masses")
        if self.masses.shape != (self.n,):
            raise ValueError(f"expected {self.n} masses, got shape {self.masses.shape}")
        if not np.all((0 < self.masses) & (self.masses < np.inf)):  # NaN fails it
            raise ValueError(f"all masses must be positive and finite, got {self.masses}")


def _check_frame(k: int, n: int) -> None:
    """The one frame-index rule: particle ``k`` must be one of the ``n``."""
    if k >= n:  # FrameLabel has already refused a negative k
        raise ValueError(f"frame index {k} out of range for {n} particles")


def _check_coordinates(q: np.ndarray, p: np.ndarray) -> None:
    """Positions and momenta must be finite 1-d lists of one length.

    The lists hold one entry per particle, so one ``math.isfinite`` pass over
    both costs less than the wrappers of two ``np.isfinite(...).all()`` calls.
    """
    if q.ndim != 1 or p.ndim != 1:
        raise ValueError(f"expected 1-d coordinate lists, got shapes {q.shape} and {p.shape}")
    if p.shape != q.shape:
        raise ValueError(f"expected {q.shape[0]} momenta, got {p.shape[0]}")
    if not all(map(math.isfinite, q.tolist() + p.tolist())):
        raise ValueError("coordinates must be finite")


@dataclass(frozen=True, eq=False)
class ExtendedPhasePoint:
    """A point (q_1..q_N, p_1..p_N) of the full translation-redundant phase space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self, adopt: bool = False):
        _hold(self, "q", "p", copy=not adopt)
        _check_coordinates(self.q, self.p)

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class ReducedPhasePoint:
    """Relative coordinates of the non-frame particles, in ascending label order."""

    frame: FrameLabel
    q_rel: np.ndarray
    p_rel: np.ndarray

    def __post_init__(self, adopt: bool = False):
        _hold(self, "q_rel", "p_rel", copy=not adopt)
        _check_coordinates(self.q_rel, self.p_rel)
        _check_frame(self.frame.index, self.q_rel.shape[0] + 1)

    @property
    def n(self) -> int:
        """Total particle count, including the frame particle."""
        return self.q_rel.shape[0] + 1

    @property
    def labels(self) -> tuple[int, ...]:
        """Original indices of the surviving particles."""
        return tuple(i for i in range(self.n) if i != self.frame.index)


def _central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    """Gradient of the scalar function f at x by central differences of step h."""
    grad = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        shifted = x.copy()
        shifted[i] = x[i] + h
        plus = f(shifted)
        shifted[i] = x[i] - h
        minus = f(shifted)
        grad[i] = (plus - minus) / (2 * h)
    return grad


@dataclass(frozen=True, eq=False, init=False)
class Potential:
    """Translation-invariant interaction energy V({q_i - q_j}).

    The energy callable receives positions particle-first, shape ``(N, ...)``,
    and must broadcast over the trailing axes, returning shape ``(...)``:
    written as ``q[i] - q[j]`` it does so unchanged.  The optional analytic
    gradient takes one ``(N,)`` position list; without it the gradient falls
    back to central finite differences with step ``GRADIENT_FD_STEP``.

    A quadratic potential may give its symmetric ``(n, n)`` stiffness K
    instead of a gradient, V = q K q / 2 over the first n particles: the
    gradient is then K @ q there and zero beyond, and ``integrate_reduced``
    steps it through its exact one-step propagator.
    """

    _energy: Callable
    _gradient: Callable | None
    stiffness: np.ndarray | None

    def __init__(self, energy, gradient=None, stiffness=None):
        object.__setattr__(self, "_energy", energy)
        object.__setattr__(self, "_gradient", gradient)
        object.__setattr__(self, "stiffness", stiffness)
        if stiffness is not None:
            _hold(self, "stiffness")

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        energy = np.asarray(self._energy(q), dtype=float)
        if energy.shape != q.shape[1:]:
            raise ValueError(f"energy of shape {energy.shape} does not broadcast over q {q.shape}")
        return energy[()]  # a scalar for one (N,) point

    def gradient(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.stiffness is not None:
            n = len(self.stiffness)
            grad = np.zeros(q.shape)
            grad[:n] = self.stiffness.dot(q[:n])
            return grad
        if self._gradient is not None:
            return np.asarray(self._gradient(q), dtype=float)
        return _central_difference(self._energy, q, GRADIENT_FD_STEP)


#: The non-interacting system.
FREE_POTENTIAL = Potential(lambda q: np.zeros(q.shape[1:]), gradient=lambda q: np.zeros_like(q))


def spring_potential(springs) -> Potential:
    """Pairwise springs V = sum over (i, j, k) of k/2 (q_i - q_j)^2, stiffness K."""
    springs = [(int(i), int(j), float(k)) for i, j, k in springs]
    if any(min(i, j) < 0 for i, j, _ in springs):
        raise ValueError(f"spring indices must be non-negative, got {springs}")
    n = 1 + max((max(i, j) for i, j, _ in springs), default=-1)
    stiffness = np.zeros((n, n))
    for i, j, k in springs:
        stiffness[[i, j], [i, j]] += k
        stiffness[[i, j], [j, i]] -= k

    def energy(q):
        return sum(0.5 * k * (q[i] - q[j]) ** 2 for i, j, k in springs)

    return Potential(energy, stiffness=stiffness)


def total_momentum(point: ExtendedPhasePoint) -> float:
    """Generator of rigid translations; |P| <= tol defines the constraint surface."""
    return float(point.p.sum())


def gauge_flow(point: ExtendedPhasePoint, s: float) -> ExtendedPhasePoint:
    """Translate every particle by the flow parameter s, momenta untouched."""
    return _adopt(ExtendedPhasePoint, point.q + s, point.p)


def pin_frame(values, frame: FrameLabel, fill=0.0) -> np.ndarray:
    """Insert the frame particle's slot, holding ``fill``: (N - 1, ...) -> (N, ...).

    A frame index of N or more raises ``ValueError``.
    """
    values = np.asarray(values, dtype=float)
    k = frame.index
    _check_frame(k, values.shape[0] + 1)
    out = np.empty((values.shape[0] + 1,) + values.shape[1:])
    out[:k] = values[:k]
    out[k] = fill
    out[k + 1 :] = values[k:]
    return out


@functools.lru_cache(maxsize=128)  # keys are (N, old, new); the rows are read-only
def _frame_rows(n: int, old: int, new: int):
    """Where ``frame_map`` reads each row of its output, for n particles.

    ``rows`` lists, per output row, the input row it gathers; the old frame's
    output row ``s`` gathers the new frame's input row ``r`` as a placeholder,
    since ``frame_map`` writes that row itself.  ``None`` for old == new.
    """
    _check_frame(max(old, new), n)
    if old == new:
        return None
    labels = [i for i in range(n) if i != new]  # the output rows' particles
    r = new if new < old else new - 1
    rows = np.array([r if i == old else i - (i > old) for i in labels], dtype=np.intp)
    rows.setflags(write=False)
    return rows, r, labels.index(old)


def frame_map(q_rel, p_rel, old: FrameLabel, new: FrameLabel):
    """Frame-``old`` relative coordinates seen from particle ``new``: (N - 1, ...) arrays.

    Embed -> flow -> project without objects or checks, as a gather of rows:
    each surviving particle's row minus the new frame's row r, the old
    frame's own row as ``0.0 - q_rel[r]`` and its momentum as ``-sum(p_rel)``.
    These are the construction's operations on its operands, so the result
    is bit-identical to it, signed zeros included (stacks: N <= 8).  q and p
    may stack different trailing shapes.  Linear, entries 0 and +-1:
    ``frame_map(eye, eye, old, new)`` gives its blocks.  A frame index of N
    or more raises ``ValueError``.
    """
    q_rel = np.asarray(q_rel, dtype=float)
    p_rel = np.asarray(p_rel, dtype=float)
    gather = _frame_rows(len(q_rel) + 1, old.index, new.index)
    if gather is None:  # the construction subtracts the pinned 0.0, which changes no bit
        return q_rel.copy(), p_rel.copy()
    rows, r, s = gather
    q = q_rel[rows]  # an index array gathers along the first axis, faster than take
    q -= q_rel[r]
    q[s] = 0.0 - q_rel[r]  # not -q_rel[r]: 0.0 - 0.0 is +0.0
    p = p_rel[rows]
    p[s] = -np.add.reduce(p_rel)  # np.sum over the first axis, without its wrapper
    return q, p


def embed_reduced(rp: ReducedPhasePoint) -> ExtendedPhasePoint:
    """Place a reduced point on the constraint surface with its frame at the origin.

    The frame particle gets q = 0 and absorbs minus the total momentum of the
    others, so the image satisfies P = 0 and q_frame = 0 exactly.
    """
    return _adopt(
        ExtendedPhasePoint,
        pin_frame(rp.q_rel, rp.frame),
        pin_frame(rp.p_rel, rp.frame, -rp.p_rel.sum()),
    )


def project_reduced(point: ExtendedPhasePoint, frame: FrameLabel) -> ReducedPhasePoint:
    """Drop the frame particle's coordinates from a gauge-fixed on-surface point."""
    _check_frame(frame.index, point.n)
    momentum = total_momentum(point)
    if abs(momentum) > CONSTRAINT_TOL:
        raise ConstraintViolation(
            f"total momentum {momentum:.3e} exceeds tolerance {CONSTRAINT_TOL:.1e}"
        )
    if abs(point.q[frame.index]) > CONSTRAINT_TOL:
        raise ConstraintViolation(
            f"gauge condition q_{frame.name} = {point.q[frame.index]:.3e} "
            f"exceeds tolerance {CONSTRAINT_TOL:.1e}"
        )
    others = [i for i in range(point.n) if i != frame.index]
    return _adopt(ReducedPhasePoint, frame, point.q[others], point.p[others])


def classical_frame_switch(rp: ReducedPhasePoint, new_frame: FrameLabel) -> ReducedPhasePoint:
    """Re-describe a reduced point from the perspective of another particle."""
    if new_frame.index == rp.frame.index:  # plain integers: this runs on every switched point
        raise SameFrame(f"already in frame {rp.frame.name}")
    q_rel, p_rel = frame_map(rp.q_rel, rp.p_rel, rp.frame, new_frame)  # checks new_frame's range
    return _adopt(ReducedPhasePoint, new_frame, q_rel, p_rel)


def _fd_gradients(f, point: ExtendedPhasePoint):
    """Central-difference gradients of f(q, p) with respect to q and p."""
    dq = _central_difference(lambda qs: f(qs, point.p), point.q, BRACKET_FD_STEP)
    dp = _central_difference(lambda ps: f(point.q, ps), point.p, BRACKET_FD_STEP)
    return dq, dp


def poisson_bracket(f, g, point: ExtendedPhasePoint) -> float:
    """{f, g} at a point, with gradients from central differences."""
    fq, fp = _fd_gradients(f, point)
    gq, gp = _fd_gradients(g, point)
    return float(fq @ gp - fp @ gq)


def dirac_bracket(f, g, point: ExtendedPhasePoint, frame: FrameLabel) -> float:
    """Bracket on the surface gauge-fixed by chi = q_frame.

    {f,g}_D = {f,g} - {f,P}{chi,g} + {f,chi}{P,g} with P the total momentum.
    P and chi are linear, so their brackets are exact in the gradients of f
    and g: {f,P} = sum_i df/dq_i, {chi,g} = dg/dp_frame, {f,chi} =
    -df/dp_frame and {P,g} = -sum_i dg/dq_i.  Phase-space functions are
    callables f(q, p) whose gradients are central differences, so expect
    noise of order BRACKET_FD_STEP^2 on smooth non-polynomial arguments.
    """
    fq, fp = _fd_gradients(f, point)
    gq, gp = _fd_gradients(g, point)
    k = frame.index
    return float(fq @ gp - fp @ gq - np.sum(fq) * gp[k] + fp[k] * np.sum(gq))


def lagrangian_momenta(velocities) -> np.ndarray:
    """Legendre map of the invariant Lagrangian: p_i = v_i - mean(v).

    The image always lies on the constraint surface (components sum to zero).
    """
    v = np.asarray(velocities, dtype=float)
    return v - np.mean(v)
