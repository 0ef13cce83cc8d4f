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
of the switch.  The checks built on it, the operator dictionary that
conjugates an observable along a switch and the comparison of
evolve-then-switch with switch-then-evolve, live with the tests in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classical import FrameLabel
from .grids import (
    WaveFunction,
    _transform,
    apply_shear_phase,
    reflect_axis,
    relabel_axis,
    with_axis_order,
)
from .physical import momentum_substitution, reduced_labels, reduction_grid

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
        # the caller's tags: the old frame's axis takes those of the new frame's
        origin = {sw.from_frame.name: sw.to_frame.name}
        return _transform(out, tuple(psi.rep(origin.get(label, label)) for label in out.labels))
    sheared = apply_shear_phase(psi, pos_axis=sw.to_frame.name, mom_axis=sw.remaining, sign=1)
    swapped = reflect_axis(sheared, sw.to_frame.name)
    renamed = relabel_axis(swapped, sw.to_frame.name, sw.from_frame.name, frame=sw.to_frame)
    return with_axis_order(renamed, reduced_labels(sw.to_frame))

