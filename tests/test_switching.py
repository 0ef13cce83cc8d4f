import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrf.classical import (
    FRAME_A,
    FRAME_B,
    FRAME_C,
    FrameLabel,
    ReducedPhasePoint,
    classical_frame_switch,
)
from qrf.dynamics import OscillatorParams
from qrf.errors import FrameMismatch, GridMismatch
from qrf.grids import (
    MOMENTUM,
    POSITION,
    Grid1D,
    change_representation,
    fidelity,
    ho_eigenstate,
    product_state,
    random_wavefunction,
    to_representation,
)
from qrf.observables import Observable
from qrf.physical import physical_state, reduced_labels, reduced_quantum_hamiltonian, reexpress
from qrf.switching import BACKENDS, FrameSwitch, switch_frame
from qrf.wigner import entanglement_entropy

from oracles import commutation_paths, conjugate_observable

# grid-converged entropy of the switched equal-width product ground state
SWITCHED_GROUND_ENTROPY = 0.5533032997


FRAMES = (FRAME_A, FRAME_B, FRAME_C)
PAIRS = [(start, target) for start in FRAMES for target in FRAMES if start != target]
SEEDS = st.integers(0, 2**32 - 1)


def two_axis_state(grid, rng, frame=FRAME_A):
    return random_wavefunction([(l, grid) for l in reduced_labels(frame)], rng, frame=frame)


def compositional(start, target):
    return FrameSwitch(start, target, backend="compositional")


class TestFrameSwitch:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrameSwitch(FRAME_A, FRAME_A)
        with pytest.raises(ValueError):
            FrameSwitch(FRAME_A, FRAME_C, backend="magic")
        for start, target in ((FRAME_A, FrameLabel(3)), (FrameLabel(3), FRAME_A)):
            with pytest.raises(ValueError):
                FrameSwitch(start, target)
        assert FrameSwitch(FRAME_A, FRAME_C).remaining == "B"
        assert FrameSwitch(FRAME_B, FRAME_C).remaining == "A"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unitary(self, grid128, rng, backend):
        psi = two_axis_state(grid128, rng)
        out = switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C, backend=backend))
        assert abs(out.norm() - psi.norm()) <= 1e-10
        assert out.frame == FRAME_C
        assert out.labels == ("A", "B")

    def test_backends_agree(self, grid128, rng):
        for _ in range(10):
            psi = two_axis_state(grid128, rng)
            results = [
                switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C, backend=b)) for b in BACKENDS
            ]
            assert fidelity(*results) >= 1.0 - 1e-8

    def test_all_ordered_pairs(self, grid64, rng):
        for start, target in PAIRS:
            psi = two_axis_state(grid64, rng, frame=start)
            results = [switch_frame(psi, FrameSwitch(start, target, backend=b)) for b in BACKENDS]
            assert fidelity(*results) >= 1.0 - 1e-8
            assert results[0].labels == reduced_labels(target)

    def test_round_trip(self, grid128, rng):
        psi = two_axis_state(grid128, rng)
        sw = FrameSwitch(FRAME_A, FRAME_C)
        back = switch_frame(switch_frame(psi, sw), sw.reversed())
        assert fidelity(back, psi) >= 1.0 - 1e-8

    def test_frame_tag_enforced(self, grid128, rng):
        psi = two_axis_state(grid128, rng, frame=FRAME_A)
        untagged = random_wavefunction([("B", grid128), ("C", grid128)], rng)
        wrong_axes = random_wavefunction([("A", grid128), ("B", grid128)], rng, frame=FRAME_A)
        for backend in BACKENDS:
            with pytest.raises(FrameMismatch):
                switch_frame(psi, FrameSwitch(FRAME_C, FRAME_A, backend))
            for bad in (untagged, wrong_axes):
                with pytest.raises(FrameMismatch):
                    switch_frame(bad, FrameSwitch(FRAME_A, FRAME_C, backend))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_grids_rejected(self, grid64, rng, backend):
        # one reduction check runs before either backend, so both refuse
        # axes whose momentum steps differ
        psi = random_wavefunction([("B", grid64), ("C", Grid1D(64, 18.0))], rng, frame=FRAME_A)
        with pytest.raises(GridMismatch):
            switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C, backend))

    def test_matches_gauge_invariant_reexpression(self, grid128, rng):
        # the switch equals re-expressing the underlying physical state
        psi = two_axis_state(grid128, rng)
        switched = switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C))
        via_physical = reexpress(physical_state(psi, FRAME_A), FRAME_C)
        assert fidelity(switched, via_physical.canonical) >= 1.0 - 1e-8

    def test_representation_tags_preserved(self, grid64, rng):
        psi = to_representation(two_axis_state(grid64, rng), MOMENTUM)
        for backend in BACKENDS:
            out = switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C, backend=backend))
            assert out.representation == (MOMENTUM, MOMENTUM)


class TestGroupLaw:
    """On momentum input the compositional switch permutes grid points.

    A permutation composes exactly, so chained switches are compared byte for
    byte: switch(j -> k) after switch(i -> j) is switch(i -> k), and with
    k = i it is the identity.
    """

    @staticmethod
    def momentum_state(n, seed, frame):
        grid = Grid1D(n, 24.0)
        psi = two_axis_state(grid, np.random.default_rng(seed), frame=frame)
        return to_representation(psi, MOMENTUM)

    @pytest.mark.parametrize("n", [16, 64, 128])
    @given(seed=SEEDS)
    @settings(max_examples=4, deadline=None)
    def test_composition(self, n, seed):
        for start, middle in PAIRS:
            psi = self.momentum_state(n, seed, start)
            target = next(f for f in FRAMES if f not in (start, middle))
            chained = switch_frame(
                switch_frame(psi, compositional(start, middle)), compositional(middle, target)
            )
            direct = switch_frame(psi, compositional(start, target))
            assert chained.labels == direct.labels and chained.frame == direct.frame
            assert chained.amplitudes.tobytes() == direct.amplitudes.tobytes()

    @pytest.mark.parametrize("n", [16, 64, 128])
    @given(seed=SEEDS)
    @settings(max_examples=4, deadline=None)
    def test_round_trip(self, n, seed):
        for start, target in PAIRS:
            psi = self.momentum_state(n, seed, start)
            sw = compositional(start, target)
            back = switch_frame(switch_frame(psi, sw), sw.reversed())
            assert back.labels == psi.labels and back.frame == psi.frame
            assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()

    @pytest.mark.parametrize("n", [16, 64, 128])
    @given(seed=SEEDS, representation=st.sampled_from([POSITION, MOMENTUM, "mixed"]))
    @settings(max_examples=4, deadline=None)
    def test_parity_shear_is_the_permutation(self, n, seed, representation):
        # the shear phase exp(i x_j p_k) is a DFT kernel, so on the grid the
        # parity-shear backend is the same map up to rounding
        for start, target in PAIRS:
            psi = self.momentum_state(n, seed, start)
            if representation == "mixed":
                psi = change_representation(psi, reduced_labels(start)[0], POSITION)
            else:
                psi = to_representation(psi, representation)
            sheared = switch_frame(psi, FrameSwitch(start, target, backend="parity-shear"))
            permuted = switch_frame(psi, compositional(start, target))
            peak = np.max(np.abs(permuted.amplitudes))
            assert np.max(np.abs(sheared.amplitudes - permuted.amplitudes)) <= 1e-15 * peak


class TestObservableDictionary:
    def test_dictionary_lines(self):
        sw = FrameSwitch(FRAME_A, FRAME_C)
        q_a, q_b = Observable.position("A"), Observable.position("B")
        p_a, p_b = Observable.momentum("A"), Observable.momentum("B")
        assert conjugate_observable(Observable.position("B"), sw) == q_b - q_a
        assert conjugate_observable(Observable.position("C"), sw) == -1 * q_a
        assert conjugate_observable(Observable.momentum("B"), sw) == p_b
        assert conjugate_observable(Observable.momentum("C"), sw) == -1 * p_b - p_a

    def test_expectation_invariance(self, grid128, rng):
        sw = FrameSwitch(FRAME_A, FRAME_C)
        observables = [
            Observable.position("B"),
            Observable.position("C"),
            Observable.momentum("B"),
            Observable.momentum("C"),
            Observable.position("B") * Observable.momentum("B"),
        ]
        for _ in range(5):
            psi = two_axis_state(grid128, rng)
            switched = switch_frame(psi, sw)
            for obs in observables:
                before = obs.expectation(psi)
                after = conjugate_observable(obs, sw).expectation(switched)
                assert abs(before - after) <= 1e-8

    @pytest.mark.parametrize(
        "start,target", PAIRS, ids=[f"{s.name}-{t.name}" for s, t in PAIRS]
    )
    def test_matches_classical_coordinate_map(self, rng, start, target):
        # the operator dictionary is the classical switch read backwards:
        # conjugating each old coordinate and evaluating it at the switched
        # classical point reproduces the old point's coordinate
        sw = FrameSwitch(start, target)
        rp = ReducedPhasePoint(start, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        out = classical_frame_switch(rp, target)

        def coordinates(point):
            return {
                (label, kind): value
                for kind, values in (("q", point.q_rel), ("p", point.p_rel))
                for label, value in zip(reduced_labels(point.frame), values)
            }

        values = coordinates(out)

        def evaluate(obs):
            terms = obs.terms.items()
            return sum(c * math.prod(values[k] ** n for k, n in mono) for mono, c in terms)

        for key, value in coordinates(rp).items():
            image = conjugate_observable(Observable({((key, 1),): 1.0}), sw)
            assert evaluate(image) == pytest.approx(value, abs=1e-12)


class TestDynamicsCommutation:
    def test_no_evolution_is_exact(self, grid64, rng):
        params = OscillatorParams()
        psi = random_wavefunction([("A", grid64), ("B", grid64)], rng, frame=FRAME_C)
        paths = commutation_paths(psi, params, 0.0, sw=FrameSwitch(FRAME_C, FRAME_A))
        assert fidelity(*paths) == pytest.approx(1.0, abs=1e-14)

    def test_short_evolution(self, grid128):
        params = OscillatorParams()
        psi = product_state(
            ho_eigenstate(grid128, "A", 0), ho_eigenstate(grid128, "B", 0), frame=FRAME_C
        )
        evolve_first, switch_first = commutation_paths(
            psi, params, 0.25, dt=1e-3, sw=FrameSwitch(FRAME_C, FRAME_A)
        )
        assert fidelity(evolve_first, switch_first) >= 1.0 - 1e-6
        assert abs(evolve_first.norm() - 1.0) <= 1e-10

    def test_switched_eigenstate_keeps_energy(self, grid128):
        params = OscillatorParams()
        psi = product_state(
            ho_eigenstate(grid128, "A", 0), ho_eigenstate(grid128, "B", 0), frame=FRAME_C
        )
        sw = FrameSwitch(FRAME_C, FRAME_A)
        h_c = reduced_quantum_hamiltonian(
            FRAME_C, params.potential(), params.system(), psi.subsystems
        )
        energy = h_c.expectation(psi)
        switched = switch_frame(psi, sw)
        h_a = reduced_quantum_hamiltonian(
            FRAME_A, params.potential(), params.system(), switched.subsystems
        )
        expected = 0.5 * (params.omega_a + params.omega_b)
        assert abs(h_a.expectation(switched) - energy) / energy <= 1e-10
        assert abs(energy - expected) / expected <= 1e-6


class TestEntanglementGeneration:
    def test_product_ground_state_entangles(self, grid128):
        psi = product_state(
            ho_eigenstate(grid128, "A", 0), ho_eigenstate(grid128, "B", 0), frame=FRAME_C
        )
        assert entanglement_entropy(psi, "A") <= 1e-10
        switched = switch_frame(psi, FrameSwitch(FRAME_C, FRAME_A))
        entropy = entanglement_entropy(switched, "B")
        assert entropy > 0.1
        assert entropy == pytest.approx(SWITCHED_GROUND_ENTROPY, abs=1e-6)
