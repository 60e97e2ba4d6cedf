"""Controllable depolarizing channels for polarization qubits.

Crystal-and-wave-plate depolarizer assemblies are simulated exactly on a
discrete time-bin lattice, their affine Stokes-space channel maps are
extracted, and the induced channels are characterized by simulated
quantum state and process tomography.
"""

from .polarization import (
    JONES_H,
    JONES_L,
    JONES_M,
    JONES_P,
    JONES_R,
    JONES_STATES,
    JONES_V,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SIGMAS,
    density_from_jones,
    density_from_stokes,
    dop,
    dop_from_determinant,
    jones_from_stokes,
    state_fidelity,
    stokes_from_density,
)
from .temporal import (
    OpticalElement,
    SchemeConfig,
    apply_crystal,
    apply_element,
    collapse,
    collapse_with_coherence,
    crystal,
    half_wave,
    initial_state,
    kraus_operators,
    quarter_wave,
    run_scheme,
)
from .channels import (
    ISOTROPIC_POINT_DEG,
    SCHEME_NAMES,
    StokesChannel,
    analytic_scheme2_dop,
    build_scheme,
    compose,
    extract_channel,
    extract_chi,
    isotropy_report,
    mutually_unbiased_triad,
    s1_projection_channel,
    scheme1_rotated_crystal,
)
from .measurement import (
    DEFAULT_SETTINGS,
    MeasurementRecord,
    probabilities,
    projector,
    sample_counts,
)
from .tomography import (
    CHI_BASIS,
    ChiMatrix,
    LinearEstimate,
    process_fidelity,
    qpt,
    qst_linear,
    qst_mle,
    trace_preservation_residual,
)

__version__ = "0.1.0"
