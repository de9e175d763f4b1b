"""Simulation and tomography toolkit for multi-time quantum processes.

Probe families built from sequential interactions with a single qubit ancilla
span the full multi-time operator space; this package constructs them,
simulates exact or finite-shot experiments against dilation-built process
matrices, and reconstructs the process by dual-frame linear inversion.
"""

from .choi_link import (
    CombDirection,
    choi_of_kraus,
    choi_of_unitary,
    link_product,
    validate_comb,
)
from .op_basis import (
    Normalization,
    clifford_design_qubit,
    haar_twirl2,
    kpq_operator,
    span_bound_reports,
    span_dimension,
    weyl_basis,
)
from .probe_factory import (
    AncillaProbeSetting,
    ProbeElement,
    ProbeFamily,
    Provenance,
    ancilla_superinstrument,
    block_unitary,
    operator_schmidt_rank,
    phase_filter,
    qubit16_family,
    measure_prepare_instrument,
    weyl_ancilla_family,
)
from .process_sim import (
    ExperimentRecord,
    ProcessMatrix,
    ProcessSpec,
    born_probability,
    build_process,
    interior_only,
    preset_process,
    sample_shots,
)
from .tensor_core import (
    LabeledOperator,
    Role,
    SpaceLabel,
    partial_trace,
    partial_transpose,
    permute_systems,
    rank_and_pinv,
    sqrt_psd,
    tensor,
)
from .tomography import (
    FrameBundle,
    ReconstructionReport,
    build_frame,
    dual_identity_check,
    estimate_functional,
    linear_inversion,
    reconstruction_metrics,
)

__version__ = "0.1.0"
