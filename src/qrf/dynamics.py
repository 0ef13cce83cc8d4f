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
powers, built by doubling, instead of stepping it in Python.  It agrees with
the step-by-step loop, which every other potential takes, to rounding.
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
    _check_frame,
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
    """Sampled reduced-phase-space history at strictly increasing times.

    ``integrate_reduced`` stores each coordinate's history as one contiguous
    row of a particle-first (N - 1, samples) buffer, and ``q`` and ``p`` are
    transposed views of those buffers, so they are not C-contiguous.
    ``energies`` hands the rows, ``q.T`` and ``p.T``, to ``np.einsum``, which
    walks a strided last axis 2 to 4 times slower.
    """

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
        """Sample ``i``, holding read-only views of ``q[i]`` and ``p[i]``, not copies.

        On a trajectory from ``integrate_reduced`` these are strided columns of
        its particle-first buffers, which they keep alive.
        """
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
    _check_frame(frame.index, system.n)
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

#: Steps between the spring propagator's block heads z_k, k = 0, 64, ...; the
#: samples between are z_{k+j} = z_k + D_j z_k, where D_j = M^j - I.
PROPAGATOR_BLOCK = 64


def _step_count(t: float, dt: float) -> int:
    """round(t / dt) steps of size dt; ``InvalidStep`` unless dt > 0 and t >= 0 are finite."""
    # written so that NaN fails every comparison; t / dt must stay finite
    if not (0 < dt < math.inf and 0 <= t / dt < math.inf):
        raise InvalidStep(f"need finite dt > 0 and t >= 0, got dt={dt}, t={t}")
    return int(round(t / dt))


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
    steps = _step_count(t_final, dt)
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    if initial.n != system.n:
        raise ValueError(f"initial point has {initial.n} particles, the system {system.n}")
    sizes = (dt,) if order == 2 else (_YOSHIDA_W1 * dt, _YOSHIDA_W0 * dt, _YOSHIDA_W1 * dt)
    others = np.array(initial.labels, dtype=int)
    drift = 2.0 * kinetic_matrix(system, initial.frame)  # dq/dt = dT/dp
    times = np.arange(steps + 1) * dt
    if potential.stiffness is not None:
        stiffness = _system_stiffness(potential.stiffness, system.n)
        z0 = np.concatenate([initial.q_rel, initial.p_rel])
        with np.errstate(all="ignore"):  # a blow-up is reported once, below
            z = _spring_propagator(z0, stiffness[np.ix_(others, others)], drift, sizes, steps)
        _check_finite(times, z.T)
        return _adopt(Trajectory, times, z[: len(others)].T, z[len(others) :].T, initial.frame)
    pinned = pin_frame(initial.q_rel, initial.frame)  # one buffer; frame slot stays 0

    def force(q):
        pinned[others] = q
        return potential.gradient(pinned)[others]

    qs = np.empty((len(others), steps + 1))  # particle-first, like the propagator's
    ps = np.empty_like(qs)
    qs[:, 0] = initial.q_rel
    ps[:, 0] = initial.p_rel
    q, p = qs[:, 0].copy(), ps[:, 0].copy()
    with np.errstate(all="ignore"):  # a blow-up is reported once, below
        f = force(q)
        for step in range(steps):
            for h in sizes:
                p -= 0.5 * h * f
                q += h * drift.dot(p)
                f = force(q)
                p -= 0.5 * h * f
            qs[:, step + 1] = q
            ps[:, step + 1] = p
    _check_finite(times, qs.T, ps.T)
    return _adopt(Trajectory, times, qs.T, ps.T, initial.frame)


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
    precision.  D_j = M^j - I up to j = PROPAGATOR_BLOCK = 64 follow by
    doubling, D_{k+i} = D_k + (D_i + D_k D_i), in 6 batched rounds
    (``_increments``).  The block heads z_{64b} follow by the same doubling
    on vectors: with E_1 = D_64 and E_{2k} = E_k + (E_k + E_k E_k), where
    E_k = M^{64k} - I, a round adds z_{64(k+i)} = z_{64i} + E_k z_{64i} for
    every head z_{64i} so far.  Every sample is then
    z_{64b+j} = z_{64b} + D_j z_{64b}, j = 0 ... 63, from one batched product
    over all heads.  No Python loop runs per step or per block: the numpy
    calls grow with log(steps).  Plain powers M^j never form: a head or
    sample adds its base point to a small product, and each doubling sums
    its two small terms before the larger one.  Besides the samples, this
    holds the 65 matrices D_0 ... D_64 and one E at a time, so the extra
    memory is about 66 (2 (N - 1))^2 floats whatever the step count.

    The samples come back particle-first, shape (2 (N - 1), steps + 1), so
    each coordinate's history is one contiguous row: the trajectory's
    ``q.T`` and ``p.T`` read rows, not every 2 (N - 1)-th value.

    Against a long-double leapfrog over 2e4 steps, 8 seeded draws, this is
    at most 5.1e-15 off at order 2 and 2.6e-14 at order 4.  Plain powers
    M^j, which round M = I + D_1 at the identity's precision, were about
    8e-13 off at order 2.  Summing D_k + D_i first instead of the two small
    terms read 1.3e-14 and 1.6e-14.
    """
    m = len(drift)
    eye = np.eye(2 * m)
    dz = np.zeros((2 * m, 2 * m))  # rows q then p, columns the initial (q, p)
    for h in sizes:
        dz[m:] -= 0.5 * h * stiffness.dot(eye[:m] + dz[:m])
        dz[:m] += h * drift.dot(eye[m:] + dz[m:])
        dz[m:] -= 0.5 * h * stiffness.dot(eye[:m] + dz[:m])

    increments = _increments(dz, PROPAGATOR_BLOCK)
    blocks = steps // PROPAGATOR_BLOCK + 1  # heads z_0, z_64, ... up to z_steps
    heads = np.empty((blocks, 2 * m))
    heads[0] = z0
    e, k = increments[-1], 1  # E_k = M^{64k} - I
    while k < blocks:
        i = min(k, blocks - k)
        np.matmul(heads[:i], e.T, out=heads[k : k + i])
        heads[k : k + i] += heads[:i]
        k += i
        e = e + (e + np.matmul(e, e))  # E_{2k}
    z = np.matmul(heads, increments[:-1].transpose(1, 2, 0))  # [row, block, j]
    z += heads.T[:, :, None]
    z = z.reshape(2 * m, -1)
    z[:, 0] = z0  # z_0 + 0 would turn a -0.0 into +0.0
    return z[:, : steps + 1]  # the last block's samples past steps are dropped


def _increments(first, count: int) -> np.ndarray:
    """D_0 = 0, D_1 = ``first``, ... D_count by doubling: D_{k+i} = D_k + (D_i + D_k D_i).

    A round takes D_1 ... D_k to D_1 ... D_{2k} (the last one stops at
    ``count``) with one batched product; the two small terms D_i and
    D_k D_i are summed before D_k is added.
    """
    out = np.zeros((count + 1,) + first.shape)
    out[1:2] = first
    k = 1
    while k < count:
        i = min(k, count - k)
        new = out[k + 1 : k + 1 + i]
        np.matmul(out[k], out[1 : i + 1], out=new)
        new += out[1 : i + 1]
        new += out[k]
        k += i
    return out


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

