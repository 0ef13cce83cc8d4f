"""Reference frames as physical particles in 1D: classical reductions, quantum
frame switches, and phase-space analysis on spectral grids."""

__version__ = "0.7.2"

from .classical import (
    FRAME_A,
    FRAME_B,
    FRAME_C,
    ExtendedPhasePoint,
    FrameLabel,
    ParticleSystem,
    Potential,
    ReducedPhasePoint,
    classical_frame_switch,
    dirac_bracket,
    embed_reduced,
    frame_map,
    gauge_flow,
    lagrangian_momenta,
    pin_frame,
    poisson_bracket,
    project_reduced,
    spring_potential,
    total_momentum,
)
from .dynamics import (
    OscillatorParams,
    Trajectory,
    analytic_oscillator_frame_a,
    analytic_oscillator_frame_c,
    integrate_reduced,
    reduced_energy,
    reduced_hamiltonian,
    total_hamiltonian,
)
from .grids import (
    MOMENTUM,
    POSITION,
    Grid1D,
    WaveFunction,
    apply_shear_phase,
    change_representation,
    fidelity,
    gaussian_state,
    ho_eigenstate,
    inner_product,
    product_state,
    random_wavefunction,
    to_representation,
)
from .observables import Observable
from .physical import (
    GridHamiltonian,
    PhysicalState,
    momentum_substitution,
    physical_inner_product,
    physical_state,
    reduced_quantum_hamiltonian,
    reexpress,
)
from .switching import FrameSwitch, switch_frame
from .wigner import (
    DensityMatrix,
    WignerGrid,
    closed_form_eigenstate_wigner,
    entanglement_entropy,
    marginal_wigner,
    negativity_volume,
    partial_trace,
    transformed_joint_wigner,
    wigner_of_state,
    wigner_transform,
)
from .experiments import ExperimentConfig, emit_figure_data, load_config, run_experiment
