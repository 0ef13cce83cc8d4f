"""Hamiltonians and dynamics on the reduced phase spaces.

The reduced kinetic energy is a full quadratic form in the surviving momenta:
with frame particle F and masses m_i,

    T(p) = sum_{i != F} (1/m_i + 1/m_F) p_i^2 / 2  +  sum_{i<j, != F} p_i p_j / m_F,

which for unit masses is sum p_i^2 + sum_{i<j} p_i p_j.  The cross terms encode
the recoil of the frame particle.  T is momentum-only and the potential is
position-only, so a Strang-split (leapfrog) step integrates free flow exactly
and is symplectic; a fourth-order Yoshida composition of the same splitting is
available where tighter phase accuracy is needed.

Springs make the force linear, so one step of either splitting is a fixed
symplectic matrix (Hairer, Lubich & Wanner, Geometric Numerical Integration,
ch. V), and ``integrate_reduced`` fills a spring trajectory from that matrix's
powers, 64 steps per matrix-vector product, instead of stepping it in Python.
It agrees with the step-by-step loop, which every other potential takes, to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    FRAME_A,
    FRAME_C,
    FrameLabel,
    ParticleSystem,
    Potential,
    ReducedPhasePoint,
    ExtendedPhasePoint,
    _adopt,
    _hold,
    frame_map,
    pin_frame,
    spring_potential,
    total_momentum,
)
from .errors import InvalidStep, NumericalFailure


@dataclass(frozen=True)
class OscillatorParams:
    """Two springs tying particles A and B to particle C, plus initial data.

    Spring constants k_a (C--A) and k_b (C--B); amplitudes and phases fix the
    decoupled-oscillator solutions valid for m_c >> m_a, m_b.
    """

    m_a: float = 1.0
    m_b: float = 1.0
    m_c: float = 1e6
    k_a: float = 1.0
    k_b: float = 1.0
    a0: float = 1.0
    b0: float = 1.0
    phi_a: float = 0.0
    phi_b: float = 0.0

    def __post_init__(self):
        # written so that NaN fails both checks
        for name in ("m_a", "m_b", "m_c", "k_a", "k_b"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("a0", "b0", "phi_a", "phi_b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def omega_a(self) -> float:
        return float(np.sqrt(self.k_a / self.m_a))

    @property
    def omega_b(self) -> float:
        return float(np.sqrt(self.k_b / self.m_b))

    def system(self) -> ParticleSystem:
        return ParticleSystem(3, masses=[self.m_a, self.m_b, self.m_c])

    def potential(self) -> Potential:
        return spring_potential([(2, 0, self.k_a), (2, 1, self.k_b)])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled reduced-phase-space history at strictly increasing times."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    frame: FrameLabel

    def __post_init__(self, adopt: bool = False):
        _hold(self, "times", "q", "p", copy=not adopt)
        if self.q.shape != self.p.shape or self.q.shape[0] != self.times.shape[0]:
            raise ValueError("inconsistent trajectory shapes")
        if not np.all(np.diff(self.times) > 0):  # NaN fails it
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.shape[0]

    def point(self, i: int) -> ReducedPhasePoint:
        """Sample ``i``, holding read-only views of the trajectory's rows, not copies."""
        return _adopt(ReducedPhasePoint, self.frame, self.q[i], self.p[i])

    def energies(self, potential: Potential, system: ParticleSystem) -> np.ndarray:
        return reduced_energy(self.q.T, self.p.T, self.frame, potential, system)


def total_hamiltonian(
    point: ExtendedPhasePoint,
    potential: Potential,
    lam: float,
    system: ParticleSystem | None = None,
) -> float:
    """Kinetic + potential energy plus the multiplier term lam * P."""
    masses = system.masses if system is not None else np.ones(point.n)
    kinetic = 0.5 * float(np.sum(point.p**2 / masses))
    return kinetic + potential(point.q) + lam * total_momentum(point)


def kinetic_matrix(system: ParticleSystem, frame: FrameLabel) -> np.ndarray:
    """Symmetric matrix M with T(p) = p @ M @ p on the frame's reduction."""
    system.check_frame(frame)
    m = system.masses
    return 0.5 * (np.diag(1.0 / np.delete(m, frame.index)) + 1.0 / m[frame.index])


def reduced_energy(
    q_rel, p_rel, frame: FrameLabel, potential: Potential, system: ParticleSystem
):
    """T(p) + V(q), frame pinned at the origin, over particle-first (N - 1, ...) arrays."""
    kinetic = np.einsum("i...,ij,j...->...", p_rel, kinetic_matrix(system, frame), p_rel)
    return kinetic + potential(pin_frame(q_rel, frame))


def reduced_hamiltonian(
    rp: ReducedPhasePoint, potential: Potential, system: ParticleSystem
) -> float:
    """Energy on the reduced phase space, frame particle pinned at the origin."""
    return float(reduced_energy(rp.q_rel, rp.p_rel, rp.frame, potential, system))


# Yoshida composition weights: three Strang substeps of sizes (w1, w0, w1) * dt
# cancel the second-order error term.
_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA_W0 = 1.0 - 2.0 * _YOSHIDA_W1

#: Steps the spring propagator takes from one sample: z_{k+j} = z_k + D_j z_k
#: for j = 1 ... PROPAGATOR_BLOCK, where D_j = M^j - I.
PROPAGATOR_BLOCK = 64


def integrate_reduced(
    initial: ReducedPhasePoint,
    potential: Potential,
    system: ParticleSystem,
    t_final: float,
    dt: float,
    order: int = 2,
) -> Trajectory:
    """Integrate the reduced dynamics with a symplectic splitting.

    order=2 is the plain kick-drift-kick leapfrog; order=4 composes three
    leapfrog substeps with Yoshida weights.  Free flow (V = 0) is exact for
    both.  Samples are stored every step from t = 0 to t ~ t_final; a span
    of less than half a step gives the initial sample alone.

    A potential with a stiffness K (``spring_potential``) has a linear force,
    so one step is a fixed matrix M on z = (q, p), and the trajectory is
    filled through its powers without a Python loop per step; see
    ``_spring_propagator``.  Any other potential is stepped one substep at a
    time.  Both paths walk one schedule, for each substep size h: a half
    kick of h/2, a drift of h, a half kick of h/2.  Each substep evaluates
    the force once, its closing half kick and the next substep's opening
    one sharing it.

    Either path raises ``NumericalFailure`` if any sample is not finite,
    naming the first such step and its time; the steps run with numpy's
    floating-point warnings off, so that error is the only report.
    """
    # written so that NaN fails every comparison; t_final / dt must stay finite
    if not (0 < dt < math.inf and 0 <= t_final / dt < math.inf):
        raise InvalidStep(f"need finite dt > 0 and t_final >= 0, got dt={dt}, t_final={t_final}")
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    if initial.n != system.n:
        raise ValueError(f"initial point has {initial.n} particles, the system {system.n}")
    steps = int(round(t_final / dt))
    sizes = (dt,) if order == 2 else (_YOSHIDA_W1 * dt, _YOSHIDA_W0 * dt, _YOSHIDA_W1 * dt)
    others = np.array(initial.labels, dtype=int)
    drift = 2.0 * kinetic_matrix(system, initial.frame)  # dq/dt = dT/dp
    times = np.arange(steps + 1) * dt
    if potential.stiffness is not None:
        stiffness = _system_stiffness(potential.stiffness, system.n)
        z0 = np.concatenate([initial.q_rel, initial.p_rel])
        with np.errstate(all="ignore"):  # a blow-up is reported once, below
            z = _spring_propagator(z0, stiffness[np.ix_(others, others)], drift, sizes, steps)
        _check_finite(times, z)
        return _adopt(Trajectory, times, z[:, : len(others)], z[:, len(others) :], initial.frame)
    pinned = pin_frame(initial.q_rel, initial.frame)  # one buffer; frame slot stays 0

    def force(q):
        pinned[others] = q
        return potential.gradient(pinned)[others]

    qs = np.empty((steps + 1, len(others)))
    ps = np.empty_like(qs)
    qs[0] = initial.q_rel
    ps[0] = initial.p_rel
    q, p = qs[0].copy(), ps[0].copy()
    with np.errstate(all="ignore"):  # a blow-up is reported once, below
        f = force(q)
        for step in range(steps):
            for h in sizes:
                p -= 0.5 * h * f
                q += h * drift.dot(p)
                f = force(q)
                p -= 0.5 * h * f
            qs[step + 1] = q
            ps[step + 1] = p
    _check_finite(times, qs, ps)
    return _adopt(Trajectory, times, qs, ps, initial.frame)


def _check_finite(times, *samples) -> None:
    """Raise ``NumericalFailure`` at the first sample row holding a non-finite value."""
    finite = [np.isfinite(a) for a in samples]
    if all(f.all() for f in finite):
        return
    step = int(np.argmin(np.logical_and.reduce([f.all(axis=1) for f in finite])))
    raise NumericalFailure(
        f"the integrated trajectory is not finite from step {step} "
        f"(t = {times[step]:.6g}) on; a smaller dt may keep it bounded"
    )


def _system_stiffness(stiffness, n: int) -> np.ndarray:
    """The (n, n) stiffness of an n-particle system, zero-padded past the springs."""
    if len(stiffness) > n:
        pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(stiffness, 1))) if j >= n]
        raise ValueError(
            f"springs {pairs} name particle {len(stiffness) - 1}, "
            f"but the system has {n} particles"
        )
    padded = np.zeros((n, n))
    padded[: len(stiffness), : len(stiffness)] = stiffness
    return padded


def _spring_propagator(z0, stiffness, drift, sizes, steps: int) -> np.ndarray:
    """Samples z_0 ... z_steps of the splitting under the linear force -K q.

    z = (q, p), and one step is a fixed symplectic matrix M.  Its increment
    D_1 = M - I comes from walking the step-by-step loop's schedule (half
    kick, drift, half kick for each substep size) on the identity with only
    the increment stored, so entries of size dt keep their relative
    precision.  Then D_j = M^j - I = D_{j-1} + (D_1 + D_1 D_{j-1})
    for j <= PROPAGATOR_BLOCK, and each block of samples is
    z_{k+j} = z_k + D_j z_k: a block costs one matrix-vector product.  Both
    recurrences write into preallocated arrays, the samples straight into z.

    Against a long-double leapfrog over 2e4 steps this is about 1e-14 off.
    Plain powers M^j, which round M = I + D_1 at the identity's precision,
    were about 8e-13 off at order 2; summing D_1 + D_{j-1} first, rather
    than the two small terms, was 2 to 4 times further off.
    """
    m = len(drift)
    eye = np.eye(2 * m)
    dz = np.zeros((2 * m, 2 * m))  # rows q then p, columns the initial (q, p)
    for h in sizes:
        dz[m:] -= 0.5 * h * stiffness.dot(eye[:m] + dz[:m])
        dz[:m] += h * drift.dot(eye[m:] + dz[m:])
        dz[m:] -= 0.5 * h * stiffness.dot(eye[:m] + dz[:m])

    block = min(max(steps, 1), PROPAGATOR_BLOCK)
    increments = np.empty((block, 2 * m, 2 * m))
    increments[0] = dz
    step = np.empty_like(dz)
    for j in range(1, block):
        prev = increments[j - 1]
        np.dot(dz, prev, out=step)
        step += dz
        np.add(prev, step, out=increments[j])
    stacked = increments.reshape(block * 2 * m, 2 * m)
    z = np.empty((steps + 1, 2 * m))
    z[0] = z0
    for k in range(0, steps, block):
        j = min(block, steps - k)
        rows = z[k + 1 : k + 1 + j]
        np.dot(stacked[: j * 2 * m], z[k], out=rows.reshape(-1))
        rows += z[k]
    return z


def analytic_oscillator_frame_c(params: OscillatorParams, t):
    """Decoupled-oscillator positions (x_a, x_b) relative to the heavy particle C.

    Valid in the m_c >> m_a, m_b regime; not enforced.
    """
    t = np.asarray(t, dtype=float)
    x_a = params.a0 * np.cos(params.omega_a * t + params.phi_a)
    x_b = params.b0 * np.cos(params.omega_b * t + params.phi_b)
    return x_a, x_b


def analytic_oscillator_frame_a(params: OscillatorParams, t):
    """The C -> A frame map of the positions, which no momentum enters: (x_b - x_a, 0 - x_a)."""
    q_rel = np.array(analytic_oscillator_frame_c(params, t))
    return tuple(frame_map(q_rel, np.zeros(2), FRAME_C, FRAME_A)[0])

