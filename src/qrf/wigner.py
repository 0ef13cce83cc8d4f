"""Phase-space representations and entanglement measures (hbar = 1).

The Wigner transform is discretized as a Fourier transform over the chord
variable,

    W(x, xi) = 1/pi * integral du exp(-2 i xi u) rho(x + u, x - u),

after band-limited refinement of the density matrix onto a doubled grid.  The
refinement makes half-step chords available, which is what lets both marginals
come out right: the x samples then have spacing dx/2 and the xi samples dp/2
over the full original momentum window.  For states that decay inside the box
the result matches the continuum transform to spectral accuracy.

Three facts keep the transform cheap.  The fine grid shares the coarse grid's
origin (n is a power of two), so the refinement needs no centring signs and
its even samples are the coarse ones; the odd samples are one uncentred FFT
pair with a half-step twiddle.  The two indices of a chord share their
parity, so only the even-even and odd-odd blocks of the refined kernel are
ever read.  And only every other chord frequency of the doubled box is
reported, so each chord row takes one FFT of the refined length, not of the
doubled box (the pruned-FFT argument of Markel, IEEE Trans. Audio
Electroacoust. 19, 305 (1971)).  Density matrices the library builds as
a a^dagger are positive semidefinite by construction and skip the
constructor's checks.

Closed forms for the oscillator eigenstate Wigner functions,

    f = 1/pi (a + b alpha x^2 + c xi^2 / alpha) exp(-alpha x^2) exp(-xi^2 / alpha),

with (a, b, c) = (1, 0, 0) at level 0 and (-1, 2, 2) at level 1, are golden
references, and the frame-switched two-particle Wigner function is the product

    f(q_B, q_C, pi_B, pi_C) = f_A(-q_C, -pi_B - pi_C) * f_B(q_B - q_C, pi_B),

whose marginals integrate out the discarded particle's pair by tensor
Gauss-Hermite quadrature (Golub & Welsch, Math. Comp. 23, 221 (1969)).  Along
each discarded variable the integrand is a Gaussian times a polynomial of
degree at most 4, so with nodes centred and scaled on that Gaussian the n-node
rule, exact to degree 2n - 1, is exact from n = 3.  A trapezoid rule on a
fixed window aliases instead, and its error integrates to zero, which no
normalization check can see (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
The tensor rule separates exactly.  Position arguments are linear in (x, u)
and momenta in (xi, v), the nodes of u are centred by x and those of v by xi,
and pi f = (a + b alpha q^2) e_q * e_p + e_q * (c p^2 / alpha) e_p per factor.
So the joint is four products C(x; u) R(xi; v), and each double node sum is
(sum_u w_u C)(x) (sum_v w_v R)(xi), from points * nodes evaluations per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import _adopt, _hold
from .errors import InvalidDensityMatrix
from .grids import (
    POSITION,
    Grid1D,
    WaveFunction,
    _alternating,
    _along_axis,
    to_representation,
)


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Real phase-space samples w(x, xi) on a rectangular grid."""

    x: np.ndarray
    xi: np.ndarray
    values: np.ndarray

    def __post_init__(self, adopt: bool = False):
        _hold(self, "x", "xi", "values", copy=not adopt)
        if self.values.shape != (self.x.shape[0], self.xi.shape[0]):
            raise ValueError("values shape does not match the sample axes")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dxi(self) -> float:
        return float(self.xi[1] - self.xi[0])

    def integral(self) -> float:
        return float(np.sum(self.values)) * self.dx * self.dxi

    def position_marginal(self) -> np.ndarray:
        return np.sum(self.values, axis=1) * self.dxi

    def momentum_marginal(self) -> np.ndarray:
        return np.sum(self.values, axis=0) * self.dx

    def value_at(self, x: float, xi: float) -> float:
        i = int(np.argmin(np.abs(self.x - x)))
        j = int(np.argmin(np.abs(self.xi - xi)))
        return float(self.values[i, j])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-normalized matrix over a 1-d position grid basis.

    Entry (a, b) approximates the kernel rho(x_a, x_b) dx, so the trace is a
    plain matrix trace.
    """

    matrix: np.ndarray
    grid: Grid1D

    def __post_init__(self, adopt: bool = False):
        _hold(self, "matrix", dtype=complex, copy=not adopt)
        if adopt:  # a a^dagger of a normalized state: see the module docstring
            return
        matrix, grid = self.matrix, self.grid
        if matrix.shape != (grid.n, grid.n):
            raise InvalidDensityMatrix(
                f"matrix shape {matrix.shape} does not match the grid size {grid.n}"
            )
        # each check is written so that NaN fails it
        hermiticity = float(np.max(np.abs(matrix - matrix.conj().T)))
        if not (hermiticity <= 1e-10):
            raise InvalidDensityMatrix(f"not Hermitian: max deviation {hermiticity:.3e}")
        trace = complex(np.trace(matrix))
        if not (abs(trace - 1.0) <= 1e-10):
            raise InvalidDensityMatrix(f"trace {trace:.12f} is not 1")
        eigenvalues = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
        if not (eigenvalues.min() >= -1e-8):
            raise InvalidDensityMatrix(f"negative eigenvalue {eigenvalues.min():.3e}")

    def purity(self) -> float:
        """tr rho^2, as the sum of |rho_ab|^2 (equal for Hermitian rho)."""
        return float(np.vdot(self.matrix, self.matrix).real)

    def entropy(self) -> float:
        """Von Neumann entropy in nats."""
        eigenvalues = np.linalg.eigvalsh(self.matrix)
        eigenvalues = eigenvalues[eigenvalues > 1e-15]
        return float(-np.sum(eigenvalues * np.log(eigenvalues)))


def _kept_first(psi: WaveFunction, ndim: int, keep: str | None = None):
    """An ``ndim``-axis state's normalized position amplitudes, axis ``keep`` first, and grids."""
    if psi.ndim != ndim:
        raise ValueError(f"expected a state with {ndim} axes, got {psi.ndim}")
    work = to_representation(psi, POSITION).normalized()
    grids = [grid for _, grid in work.subsystems]
    if keep is None or work.axis(keep) == 0:
        return work.amplitudes, grids
    return work.amplitudes.T, grids[::-1]


def density_matrix_from_pure(psi: WaveFunction) -> DensityMatrix:
    """Rank-one density matrix of a single-axis pure state."""
    amp, (grid,) = _kept_first(psi, 1)
    return _adopt(DensityMatrix, np.outer(amp, amp.conj()) * grid.dx, grid)


def partial_trace(psi: WaveFunction, keep: str) -> DensityMatrix:
    """Reduced density matrix of one axis of a normalized two-axis pure state."""
    amp, (grid, other_grid) = _kept_first(psi, 2, keep)
    matrix = (amp @ amp.conj().T) * other_grid.dx * grid.dx
    return _adopt(DensityMatrix, matrix, grid)


def _half_step(arr: np.ndarray, axis: int, adjoint: bool = False) -> np.ndarray:
    """Band-limited values half a coarse step further along one axis: S a or a S^dagger.

    S a = ifft(t fft(a)) with t_k = exp(i pi k / n) over the signed
    frequencies k in [-n/2, n/2), the coarse momentum window; along rows,
    a S^dagger = fft(conj(t) ifft(a)).  S is the odd-row half of the
    refinement R onto the doubled grid: the fine grid shares the coarse
    origin (x'_2j = x_j), so R's even rows copy the coarse samples.
    """
    n = arr.shape[axis]
    sign = -1.0 if adjoint else 1.0
    twiddle = np.exp((1j * sign * math.pi / n) * np.fft.fftfreq(n, 1.0 / n))
    forward, back = (np.fft.ifft, np.fft.fft) if adjoint else (np.fft.fft, np.fft.ifft)
    out = forward(arr, axis=axis)
    out *= _along_axis(twiddle, arr.ndim, axis)
    back(out, axis=axis, out=out)
    return out


def wigner_transform(rho: DensityMatrix) -> WignerGrid:
    """Discrete Wigner function of a density matrix.

    The kernel is band-limited onto the doubled grid (half-step chords, which
    is what makes both marginals exact) and the chord transform runs over the
    zero-padded kernel, as if in a doubled box of 2 n2 samples per axis: that
    exiles the periodic ghost image at distance L/2 from the state outside the
    reported window.  Output samples: x on the refined position grid (spacing
    dx/2) over the original box, xi spaced dp/2 across the full momentum
    window.

    The chord row at fine centre c holds K[c + o, c - o] for o = j - n2/2,
    j in [0, n2), zero where an index leaves the kernel K = R rho R^dagger.
    The two indices of a chord share their parity, so only the even-even
    block of K (rho itself) and the odd-odd block (S rho S^dagger, see
    ``_half_step``) are read.  Each is scattered into the zeroed chord table
    through one strided view: rho[a, b] lands at row a + b, column
    a - b + n2/2 (flat a (n2 + 1) + b (n2 - 1) + n2/2), and the odd-odd entry
    one row further down.  Only the even samples of each row's centred DFT
    over the doubled box are reported, and for a row nonzero only on its
    middle n2 entries those are the centred length-n2 DFT of the row,

        Y[2l] = (-1)^l sum_j (-1)^j row[j] exp(-2 pi i l j / n2),

    so each row takes one length-n2 FFT (Markel's pruning).  The input signs
    (-1)^j = (-1)^(a + b) ride on the scatter, and the output signs on the
    final real scale: 1/dx for the kernel times the chord step dx/2 over pi.
    """
    grid = rho.grid
    n = grid.n
    fine = grid.refined()
    n2 = fine.n
    signs = _alternating(n)
    checker = np.multiply.outer(signs, signs)
    chords = np.zeros((n2, n2), dtype=complex)
    flat = chords.reshape(-1)
    strides = ((n2 + 1) * chords.itemsize, (n2 - 1) * chords.itemsize)
    shifted = _half_step(_half_step(rho.matrix, 0), 1, adjoint=True)
    for start, block in ((n, rho.matrix), (n2 + n, shifted)):
        view = np.lib.stride_tricks.as_strided(flat[start:], shape=(n, n), strides=strides)
        np.multiply(block, checker, out=view)
    np.fft.fft(chords, axis=1, out=chords)
    values = np.real(chords) * (_alternating(n2) / (2.0 * math.pi))
    xi = (np.arange(n2) - n2 // 2) * (grid.dp / 2.0)
    return _adopt(WignerGrid, fine.positions(), xi, values)


def wigner_of_state(psi: WaveFunction) -> WignerGrid:
    """Wigner function of a single-axis pure state."""
    return wigner_transform(density_matrix_from_pure(psi))


_EIGENSTATE_POLYNOMIALS = {0: (1.0, 0.0, 0.0), 1: (-1.0, 2.0, 2.0)}


def eigenstate_wigner_values(level: int, alpha: float, x, xi) -> np.ndarray:
    """Closed-form oscillator Wigner function on a sample mesh (broadcasts)."""
    if level not in _EIGENSTATE_POLYNOMIALS:
        raise ValueError(f"only levels 0 and 1 are provided, got {level}")
    # written so that NaN fails it
    if not (0 < alpha < math.inf):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    a, b, c = _EIGENSTATE_POLYNOMIALS[level]
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    envelope = np.exp(-alpha * x**2) * np.exp(-(xi**2) / alpha)
    return (b * alpha * x**2 + c * xi**2 / alpha + a) * envelope / math.pi


def _separated_eigenstate(level: int, alpha: float, q, p):
    """pi times the closed form as two products: position terms (2, ...) and momentum terms."""
    a, b, c = _EIGENSTATE_POLYNOMIALS[level]
    e_q = np.exp(-alpha * q**2)
    e_p = np.exp(-(p**2) / alpha)
    return np.stack(((b * alpha * q**2 + a) * e_q, e_q)), np.stack((e_p, c * p**2 / alpha * e_p))


def closed_form_eigenstate_wigner(
    level: int, alpha: float, x=None, xi=None
) -> WignerGrid:
    """Sample the closed-form eigenstate Wigner function on a grid."""
    if x is None:
        half_width = 5.0 / math.sqrt(min(alpha, 1.0 / alpha))
        x = np.linspace(-half_width, half_width, 121)
    x = np.array(x, dtype=float)  # copies: x and xi may be the caller's
    xi = x * alpha if xi is None else np.array(xi, dtype=float)
    values = eigenstate_wigner_values(level, alpha, x[:, None], xi[None, :])
    return _adopt(WignerGrid, x, xi, values)


@dataclass(frozen=True)
class TransformedJointWigner:
    """Lazy 4-d Wigner function of a frame-switched two-oscillator product state.

    Arguments follow (q_B, q_C, pi_B, pi_C); the object is a callable that
    broadcasts over its inputs.
    """

    level_a: int
    level_b: int
    alpha_a: float
    alpha_b: float

    def __post_init__(self):
        for level in (self.level_a, self.level_b):
            if level not in _EIGENSTATE_POLYNOMIALS:
                raise ValueError("levels must be 0 or 1")
        # written so that NaN fails it
        if not (0 < self.alpha_a < math.inf and 0 < self.alpha_b < math.inf):
            raise ValueError("width parameters must be positive and finite")

    def __call__(self, q_b, q_c, pi_b, pi_c) -> np.ndarray:
        q_b, q_c, pi_b, pi_c = (np.asarray(v) for v in (q_b, q_c, pi_b, pi_c))
        f_a = eigenstate_wigner_values(self.level_a, self.alpha_a, -q_c, -(pi_b + pi_c))
        return f_a * eigenstate_wigner_values(self.level_b, self.alpha_b, q_b - q_c, pi_b)


def transformed_joint_wigner(
    level_a: int, level_b: int, alpha_a: float, alpha_b: float
) -> TransformedJointWigner:
    return TransformedJointWigner(level_a, level_b, alpha_a, alpha_b)


def marginal_wigner(
    joint: TransformedJointWigner,
    keep: str,
    x: np.ndarray,
    xi: np.ndarray,
    quad_points: int = 3,
) -> WignerGrid:
    """Integrate the joint Wigner function over the discarded particle's pair.

    ``keep`` selects particle "B" or "C".  At each output point, the
    ``quad_points`` Gauss-Hermite nodes per integrated axis are centred and
    scaled on the integrand's Gaussian in the discarded pair (u, v), whose
    precisions are s_u and s_v; the rule, exact from 3 nodes, separates per axis.
    """
    if keep not in ("B", "C"):
        raise ValueError(f"keep must be 'B' or 'C', got {keep!r}")
    if not isinstance(quad_points, (int, np.integer)) or quad_points < 1:
        raise ValueError(f"quad_points must be a positive integer, got {quad_points!r}")
    out_x = np.array(x, dtype=float)[:, None]  # copies: x and xi are the caller's
    out_xi = np.array(xi, dtype=float)[:, None]
    alpha_a, alpha_b = joint.alpha_a, joint.alpha_b
    # keep B: (u, v) = (q_C, pi_C); keep C: (u, v) = (q_B, pi_B)
    if keep == "B":
        s_u, s_v = alpha_a + alpha_b, 1.0 / alpha_a
        u_centre, v_centre = alpha_b * out_x / s_u, -out_xi
    else:
        s_u, s_v = alpha_b, 1.0 / alpha_a + 1.0 / alpha_b
        u_centre, v_centre = out_x, -(out_xi / alpha_a) / s_v
    nodes, weights = np.polynomial.hermite.hermgauss(quad_points)
    weights = weights * np.exp(nodes**2)
    # (points, nodes) tables: u and the position arguments along x, v and the momenta along xi
    u = u_centre + nodes / math.sqrt(s_u)
    v = v_centre + nodes / math.sqrt(s_v)
    q_b, q_c, pi_b, pi_c = (out_x, u, out_xi, v) if keep == "B" else (u, out_x, v, out_xi)
    pos_a, mom_a = _separated_eigenstate(joint.level_a, alpha_a, -q_c, -(pi_b + pi_c))
    pos_b, mom_b = _separated_eigenstate(joint.level_b, alpha_b, q_b - q_c, pi_b)
    pos = ((pos_a[:, None] * pos_b[None]) @ weights).reshape(4, -1)
    mom = ((mom_a[:, None] * mom_b[None]) @ weights).reshape(4, -1)
    values = (pos.T @ mom) / (math.pi**2 * math.sqrt(s_u * s_v))
    return _adopt(WignerGrid, out_x[:, 0], out_xi[:, 0], values)


def negativity_volume(w: WignerGrid) -> float:
    """Integrated magnitude of the negative part of a Wigner function."""
    return float(np.sum(np.maximum(-w.values, 0.0))) * w.dx * w.dxi


def entanglement_entropy(psi: WaveFunction, cut: str) -> float:
    """Von Neumann entropy (nats) across the cut of a two-axis pure state."""
    amp, (grid, other_grid) = _kept_first(psi, 2, cut)
    weights = math.sqrt(grid.dx * other_grid.dx)
    singular = np.linalg.svd(amp * weights, compute_uv=False)
    schmidt = singular**2
    schmidt = schmidt / np.sum(schmidt)
    schmidt = schmidt[schmidt > 1e-15]
    return float(-np.sum(schmidt * np.log(schmidt)))
