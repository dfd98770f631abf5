"""nmqubit: simulate and filter a qubit driven by Lorentzian colored noise.

The noise is produced inside the model by a bank of damped harmonic modes
directly coupled to the qubit, so the joint dynamics stay Markovian and a
continuous homodyne measurement of a probe channel supports a conditional
state filter; tracing out the modes returns the qubit's colored-noise
(memory-carrying) evolution.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config,
    preset,
    serialize_config,
    with_truncation,
)
from .filtering import (
    EnsembleError,
    EnsembleResult,
    Trajectory,
    UnsupportedModeError,
    conditional_qubit,
    ensemble_average,
    measurement_signal,
    replay_filter,
    simulate_trajectory,
    wiener_increments,
)
from .master import (
    GeneratorSpec,
    MasterResult,
    PositivityError,
    ancilla_moment_oracle,
    augmented_initial_state,
    generator_spec,
    integrate_master,
    lindblad_apply,
    markovian_baseline_spec,
    reduce_to_qubit,
)
from .operators import (
    DensityMatrix,
    HilbertLayout,
    LayoutMismatchError,
    Operator,
    commutator,
    embed,
    expectation,
    kron,
    make_standard_operator,
    partial_trace,
)
from .slh import (
    AncillaParams,
    SlhModel,
    build_ancilla_bank,
    build_augmented,
    build_probed,
    qubit_operator,
)
from .spectra import (
    FitResult,
    LorentzianComponent,
    SpectrumSamples,
    fit_lorentzian_mixture,
    kernel_psd_consistency,
    lorentzian_psd,
    memory_kernel,
    mixture_psd,
    nested_fits,
)

__version__ = "0.1.0"
