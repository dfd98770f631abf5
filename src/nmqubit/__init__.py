"""nmqubit: simulate and filter a qubit driven by Lorentzian colored noise.

The noise is produced inside the model by a bank of damped harmonic modes
directly coupled to the qubit, so the joint dynamics stay Markovian and a
continuous homodyne measurement of a probe channel supports a conditional
state filter; tracing out the modes returns the qubit's colored-noise
(memory-carrying) evolution.
"""

from .config import VERSION as __version__
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
    replay_filter,
    simulate_trajectory,
    wiener_increments,
)
from .master import (
    GeneratorSpec,
    MasterResult,
    PositivityError,
    augmented_initial_state,
    generator_spec,
    integrate_master,
    lindblad_apply,
    markovian_baseline_spec,
    reduce_to_qubit,
)
from .operators import DensityMatrix, HilbertLayout, LayoutMismatchError, Operator
from .slh import (
    AncillaParams,
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
    lorentzian_psd,
    mixture_psd,
    nested_fits,
)
