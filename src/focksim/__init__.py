"""focksim: exact sparse simulation of few-photon linear-optical circuits.

Core pieces: sparse Fock kets over labelled mode registers, unitary
creation-operator substitutions for passive elements, a cross-Kerr probe
with exact integer phase bookkeeping and X-homodyne conditioning, a
nondestructive twin-beam symmetry detector with its cascade analysis,
down-conversion source models, and the six-mode preparation / GHZ
extraction pipelines, all driven by a deterministic CSV experiment CLI.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .detector import (
    CascadeRun,
    CascadeStep,
    CoefficientPair,
    DetectorOutcome,
    a_matrix_power,
    apply_phase_correction,
    cascade_closed_form,
    cascade_simulate,
    decide_and_repair,
    detect,
    detector_probe_state,
    symmetric_success_probability,
    twin_beam_register,
    twin_beam_state,
)
from .elements import (
    ModeTransform,
    apply_circuit,
    bs_5050,
    bs_unbalanced,
    pbs,
    polarization_rotation,
)
from .fock import (
    CapacityError,
    FockKet,
    ModeRegister,
    expand_bilinear_power,
)
from .kerr import (
    HomodyneOutcome,
    ProbeTaggedState,
    apply_cross_kerr,
    apply_probe_phase,
    attach_probe,
    discrimination_error,
    homodyne_condition,
    homodyne_pdf,
    make_rng,
    midpoint_threshold,
    peak_center,
    repair_phase,
    sample_homodyne,
)
from .pdc import (
    SixPhotonMixtureWeights,
    SqueezedExpansion,
    psi_n,
    singlet_form,
    six_photon_mixture,
    squeezed_weights,
)
from .schemes import (
    DecodeInterval,
    GhzDecodeTable,
    GhzReadout,
    SchemeResult,
    build_psi_theta,
    decode_table,
    ghz_circuit,
    ghz_state,
    interval_probabilities,
    pattern_occupation,
    psi_theta_reference,
    sample_ghz_circuit,
    scheme_register,
    spin_flip,
    tagged_circuit_state,
    w_pair_state,
)

# every name imported above but the submodules, which stay reachable as attributes
__all__ = [name for name in dir() if not (name.startswith("_") or isinstance(globals()[name], _ModuleType))]
