"""nmqubit: simulate and filter a qubit driven by Lorentzian colored noise.

The noise is produced inside the model by a bank of damped harmonic modes
directly coupled to the qubit, so the joint dynamics stay Markovian and a
continuous homodyne measurement of a probe channel supports a conditional
state filter; tracing out the modes returns the qubit's colored-noise
(memory-carrying) evolution.
"""

from .config import VERSION as __version__
