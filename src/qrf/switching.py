"""Unitary switches between quantum frame perspectives.

Two independent backends realize the same map from a frame-F1 reduction to a
frame-F2 reduction (F2 one of F1's axes, R the remaining particle):

* ``parity-shear``: apply the diagonal unitary exp(i q_F2 p_R), then the
  parity swap that sends the F2 axis to the F1 slot with a sign flip
  (momentum eigenstates |p>_F2 -> |-p>_F1).
* ``compositional``: the exact momentum-grid substitution used by
  :func:`qrf.physical.momentum_substitution`, i.e. re-expressing the state
  through its gauge-invariant description.

Their agreement on random states is the library's standing cross-validation
of the switch; observables transform by the linear dictionary that mirrors
the classical coordinate change, which Weyl ordering turns into plain symbol
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import FrameLabel, frame_map
from .dynamics import OscillatorParams
from .errors import UnsupportedObservable
from .grids import (
    WaveFunction,
    apply_shear_phase,
    change_representation,
    fidelity,
    reflect_axis,
    relabel_axis,
    with_axis_order,
)
from .observables import Observable
from .physical import (
    momentum_substitution,
    reduced_labels,
    reduced_quantum_hamiltonian,
    reduction_grid,
)

BACKENDS = ("parity-shear", "compositional")


@dataclass(frozen=True)
class FrameSwitch:
    """A directed frame change with a choice of implementation backend."""

    from_frame: FrameLabel
    to_frame: FrameLabel
    backend: str = "parity-shear"

    def __post_init__(self):
        if self.to_frame.name not in reduced_labels(self.from_frame):
            raise ValueError("from_frame and to_frame must be two different particles of three")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")

    @property
    def remaining(self) -> str:
        """Label of the particle that is neither the old nor the new frame."""
        (label,) = set(reduced_labels(self.from_frame)) - {self.to_frame.name}
        return label

    def reversed(self) -> "FrameSwitch":
        return FrameSwitch(self.to_frame, self.from_frame, self.backend)


def switch_frame(psi: WaveFunction, sw: FrameSwitch) -> WaveFunction:
    """Map a frame-`from` reduced state to the frame-`to` reduction."""
    reduction_grid(psi, sw.from_frame)
    if sw.backend == "compositional":
        out = momentum_substitution(psi, sw.to_frame)
        # restore the caller's representation tags on the relabeled axes
        out = change_representation(out, sw.from_frame.name, psi.rep(sw.to_frame.name))
        out = change_representation(out, sw.remaining, psi.rep(sw.remaining))
        return out
    sheared = apply_shear_phase(psi, pos_axis=sw.to_frame.name, mom_axis=sw.remaining, sign=1)
    swapped = reflect_axis(sheared, sw.to_frame.name)
    renamed = relabel_axis(swapped, sw.to_frame.name, sw.from_frame.name, frame=sw.to_frame)
    return with_axis_order(renamed, reduced_labels(sw.to_frame))


def switch_dictionary(sw: FrameSwitch) -> dict:
    """Substitutions sending old reduced symbols to new-frame symbols.

    Each old coordinate is a row of the reverse classical map's integer
    blocks, ``frame_map(eye, eye, F2, F1)``: with old frame F1, new frame F2
    and remaining particle R,

        q_F2 -> -q'_F1,          p_F2 -> -p'_F1 - p'_R,
        q_R  -> q'_R - q'_F1,    p_R  -> p'_R.
    """
    new = reduced_labels(sw.to_frame)
    blocks = frame_map(np.eye(2), np.eye(2), sw.to_frame, sw.from_frame)
    return {
        (old, kind): Observable({(((name, kind), 1),): c for name, c in zip(new, row)})
        for kind, block in zip("qp", blocks)
        for old, row in zip(reduced_labels(sw.from_frame), block)
    }


def conjugate_observable(obs: Observable, sw: FrameSwitch) -> Observable:
    """Transform a polynomial observable along the switch: S O S^dagger.

    Weyl ordering is covariant under the linear dictionary, so the operator
    transformation is the symbol substitution.
    """
    allowed = set(reduced_labels(sw.from_frame))
    used = obs.labels()
    if not used <= allowed:
        raise UnsupportedObservable(
            f"observable uses axes {sorted(used - allowed)} outside the "
            f"frame-{sw.from_frame.name} reduction"
        )
    return obs.substitute(switch_dictionary(sw))


@dataclass(frozen=True)
class CommutationReport:
    """Fidelity between evolve-then-switch and switch-then-evolve."""

    t: float
    dt: float
    fidelity: float
    evolve_first_norm: float
    switch_first_norm: float


def dynamics_frame_commutation(
    psi: WaveFunction,
    params: OscillatorParams,
    t: float,
    sw: FrameSwitch,
    dt: float = 1e-3,
) -> CommutationReport:
    """Check that time evolution commutes with the frame switch.

    The state is evolved under the old frame's oscillator Hamiltonian and then
    switched, versus switched and then evolved under the new frame's
    Hamiltonian for the same springs and masses.
    """
    if not t >= 0:  # NaN fails it
        raise ValueError(f"t must be non-negative, got {t}")
    system = params.system()
    potential = params.potential()
    h_old = reduced_quantum_hamiltonian(sw.from_frame, potential, system, psi.subsystems)
    evolved = h_old.evolve(psi, t, dt) if t > 0 else psi
    path_one = switch_frame(evolved, sw)
    switched = switch_frame(psi, sw)
    h_new = reduced_quantum_hamiltonian(sw.to_frame, potential, system, switched.subsystems)
    path_two = h_new.evolve(switched, t, dt) if t > 0 else switched
    return CommutationReport(
        t=t,
        dt=dt,
        fidelity=fidelity(path_one, path_two),
        evolve_first_norm=path_one.norm(),
        switch_first_norm=path_two.norm(),
    )
