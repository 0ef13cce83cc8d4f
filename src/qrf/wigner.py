"""Phase-space representations and entanglement measures (hbar = 1).

The Wigner transform is discretized as a Fourier transform over the chord
variable,

    W(x, xi) = 1/pi * integral du exp(-2 i xi u) rho(x + u, x - u),

after band-limited refinement of the density matrix onto a doubled grid.  The
refinement makes half-step chords available, which is what lets both marginals
come out right: the x samples then have spacing dx/2 and the xi samples dp/2
over the full original momentum window.  For states that decay inside the box
the result matches the continuum transform to spectral accuracy.

Closed forms for the oscillator eigenstate Wigner functions,

    f0 = 1/pi exp(-a x^2) exp(-xi^2 / a),
    f1 = 1/pi (2 a x^2 + 2 xi^2 / a - 1) exp(-a x^2) exp(-xi^2 / a),

serve as golden references, and the frame-switched two-particle Wigner
function is the product

    f(q_B, q_C, pi_B, pi_C) = f_A(-q_C, -pi_B - pi_C) * f_B(q_B - q_C, pi_B),

whose marginals integrate out the discarded particle's pair by tensor
Gauss-Hermite quadrature (Golub & Welsch, Math. Comp. 23, 221 (1969)).  Along
each discarded variable the integrand is a Gaussian times a polynomial of
degree at most 4, so with nodes centred and scaled on that Gaussian the n-node
rule, exact to degree 2n - 1, is exact from n = 3.  A trapezoid rule on a
fixed window aliases instead, and its error integrates to zero, which no
normalization check can see (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDensityMatrix
from .grids import (
    POSITION,
    Grid1D,
    WaveFunction,
    _centered_fft,
    _centered_ifft,
    to_representation,
)


@dataclass(frozen=True)
class WignerGrid:
    """Real phase-space samples w(x, xi) on a rectangular grid."""

    x: np.ndarray
    xi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        xi = np.asarray(self.xi, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (x.shape[0], xi.shape[0]):
            raise ValueError("values shape does not match the sample axes")
        for arr in (x, xi, values):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "values", values)

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


class DensityMatrix:
    """Trace-normalized matrix over a 1-d position grid basis.

    Entry (a, b) approximates the kernel rho(x_a, x_b) dx, so the trace is a
    plain matrix trace.
    """

    def __init__(self, matrix, grid: Grid1D):
        matrix = np.asarray(matrix, dtype=complex)
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
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.matrix = matrix
        self.grid = grid

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def entropy(self) -> float:
        """Von Neumann entropy in nats."""
        eigenvalues = np.linalg.eigvalsh(self.matrix)
        eigenvalues = eigenvalues[eigenvalues > 1e-15]
        return float(-np.sum(eigenvalues * np.log(eigenvalues)))


def density_matrix_from_pure(psi: WaveFunction) -> DensityMatrix:
    """Rank-one density matrix of a single-axis pure state."""
    if psi.ndim != 1:
        raise ValueError("expected a single-axis state")
    work = to_representation(psi, POSITION).normalized()
    grid = work.subsystems[0][1]
    amp = work.amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()) * grid.dx, grid)


def partial_trace(psi: WaveFunction, keep: str) -> DensityMatrix:
    """Reduced density matrix of one axis of a normalized two-axis pure state."""
    if psi.ndim != 2:
        raise ValueError("partial trace expects a two-axis state")
    work = to_representation(psi, POSITION).normalized()
    axis = work.axis(keep)
    other_axis = 1 - axis
    grid = work.subsystems[axis][1]
    other_grid = work.subsystems[other_axis][1]
    amp = work.amplitudes if axis == 0 else work.amplitudes.T
    matrix = (amp @ amp.conj().T) * other_grid.dx * grid.dx
    return DensityMatrix(matrix, grid)


def _refine(arr: np.ndarray, axis: int) -> np.ndarray:
    """Band-limited interpolation onto the doubled grid along one axis.

    Zero-pads the centered momentum window from n to 2n samples; the two
    transform normalizations, dx / sqrt(2 pi) and 2n dp / sqrt(2 pi), combine
    to the factor 2.
    """
    n = arr.shape[axis]
    widths = [(n // 2, n // 2) if a == axis else (0, 0) for a in range(arr.ndim)]
    return 2.0 * _centered_ifft(np.pad(_centered_fft(arr, axis), widths), axis)


def refined_kernel(rho: DensityMatrix) -> np.ndarray:
    """Density kernel rho(x, x') band-limited onto the doubled grid on both axes.

    Equals R (rho / dx) R^dagger for the refinement matrix R.
    """
    return _refine(_refine(rho.matrix / rho.grid.dx, 0).conj(), 1).conj()


def wigner_transform(rho: DensityMatrix) -> WignerGrid:
    """Discrete Wigner function of a density matrix.

    The kernel is band-limited onto the doubled grid (half-step chords, which
    is what makes both marginals exact) and zero-padded into a doubled box of
    N = 2 n2 samples per axis before the chord transform, exiling the periodic
    ghost image at distance L/2 from the state outside the reported window.
    Output samples: x on the refined position grid (spacing dx/2) over the
    original box, xi spaced dp/2 across the full momentum window.

    The chord table chords[c, o] = padded[c' + o, c' - o] (c' = c + n2/2, o
    from -N/2) vanishes for |o| >= n2/2, where one index leaves the kernel
    block.  Its nonzero band is read from one strided view of ``padded``: row
    c, column j (o = j - n2/2) is flat element n2 + c (N + 1) + j (N - 1).
    """
    grid = rho.grid
    kernel = refined_kernel(rho)
    fine = grid.refined()
    n2 = fine.n
    n4 = 2 * n2
    padded = np.zeros((n4, n4), dtype=complex)
    padded[n2 // 2 : n2 // 2 + n2, n2 // 2 : n2 // 2 + n2] = kernel
    step = padded.itemsize
    band = np.lib.stride_tricks.as_strided(
        padded.reshape(-1)[n2:],
        shape=(n2, n2),
        strides=((n4 + 1) * step, (n4 - 1) * step),
        writeable=False,
    )
    chords = np.zeros((n2, n4), dtype=complex)  # original box only
    chords[:, n2 // 2 : n2 // 2 + n2] = band
    spectrum = _centered_fft(chords, 1)
    values = np.real(spectrum[:, ::2]) * (fine.dx / math.pi)
    xi = (np.arange(n2) - n2 // 2) * (grid.dp / 2.0)
    return WignerGrid(fine.positions(), xi, values)


def wigner_of_state(psi: WaveFunction) -> WignerGrid:
    """Wigner function of a single-axis pure state."""
    return wigner_transform(density_matrix_from_pure(psi))


def eigenstate_wigner_values(level: int, alpha: float, x, xi) -> np.ndarray:
    """Closed-form oscillator Wigner function on a sample mesh (broadcasts)."""
    if level not in (0, 1):
        raise ValueError(f"only levels 0 and 1 are provided, got {level}")
    # written so that NaN fails it
    if not (0 < alpha < math.inf):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    envelope = np.exp(-alpha * x**2) * np.exp(-(xi**2) / alpha)
    if level == 0:
        return envelope / math.pi
    return (2 * alpha * x**2 + 2 * xi**2 / alpha - 1.0) * envelope / math.pi


def closed_form_eigenstate_wigner(
    level: int, alpha: float, x=None, xi=None
) -> WignerGrid:
    """Sample the closed-form eigenstate Wigner function on a grid."""
    if x is None:
        half_width = 5.0 / math.sqrt(min(alpha, 1.0 / alpha))
        x = np.linspace(-half_width, half_width, 121)
    if xi is None:
        xi = np.asarray(x, dtype=float) * alpha
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    values = eigenstate_wigner_values(level, alpha, x[:, None], xi[None, :])
    return WignerGrid(x, xi, values)


class TransformedJointWigner:
    """Lazy 4-d Wigner function of a frame-switched two-oscillator product state.

    Arguments follow (q_B, q_C, pi_B, pi_C); the object is a callable that
    broadcasts over its inputs.
    """

    def __init__(self, level_a: int, level_b: int, alpha_a: float, alpha_b: float):
        for level in (level_a, level_b):
            if level not in (0, 1):
                raise ValueError("levels must be 0 or 1")
        # written so that NaN fails it
        if not (0 < alpha_a < math.inf and 0 < alpha_b < math.inf):
            raise ValueError("width parameters must be positive and finite")
        self.level_a = level_a
        self.level_b = level_b
        self.alpha_a = alpha_a
        self.alpha_b = alpha_b

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
    precisions are s_u and s_v; the rule is exact from 3 nodes.
    """
    if keep not in ("B", "C"):
        raise ValueError(f"keep must be 'B' or 'C', got {keep!r}")
    if not isinstance(quad_points, (int, np.integer)) or quad_points < 1:
        raise ValueError(f"quad_points must be a positive integer, got {quad_points!r}")
    out_x = np.asarray(x, dtype=float)[:, None]
    out_xi = np.asarray(xi, dtype=float)[None, :]
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
    # one (len(x), len(xi)) joint evaluation per node pair
    values = np.zeros((out_x.shape[0], out_xi.shape[1]))
    for (t_u, w_u), (t_v, w_v) in itertools.product(zip(nodes, weights), repeat=2):
        u = u_centre + t_u / math.sqrt(s_u)
        v = v_centre + t_v / math.sqrt(s_v)
        point = (out_x, u, out_xi, v) if keep == "B" else (u, out_x, v, out_xi)
        values += (w_u * w_v) * joint(*point)
    return WignerGrid(out_x[:, 0], out_xi[0], values / math.sqrt(s_u * s_v))


def negativity_volume(w: WignerGrid) -> float:
    """Integrated magnitude of the negative part of a Wigner function."""
    return float(np.sum(np.maximum(-w.values, 0.0))) * w.dx * w.dxi


def entanglement_entropy(psi: WaveFunction, cut: str) -> float:
    """Von Neumann entropy (nats) across the cut of a two-axis pure state."""
    if psi.ndim != 2:
        raise ValueError("entanglement entropy expects a two-axis state")
    work = to_representation(psi, POSITION).normalized()
    axis = work.axis(cut)
    amp = work.amplitudes if axis == 0 else work.amplitudes.T
    weights = math.sqrt(work.subsystems[0][1].dx * work.subsystems[1][1].dx)
    singular = np.linalg.svd(amp * weights, compute_uv=False)
    schmidt = singular**2
    schmidt = schmidt / np.sum(schmidt)
    schmidt = schmidt[schmidt > 1e-15]
    return float(-np.sum(schmidt * np.log(schmidt)))
