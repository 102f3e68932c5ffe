"""Desk-scale laboratory for a seven-experiment third-order interference
(Sorkin) test of squared-modulus outcome probabilities on a driven
three-level spin, including shot-noise Monte Carlo and pulse-level
rotating-wave validation."""

__version__ = "0.1.0"

from .born import ProbabilityRule, parse_rule, probability
from .detection import (
    DetectionParams,
    KappaEstimate,
    SensitivityRow,
    SensitivityScan,
    estimate_kappa,
    run_batches,
    run_protocol_batch,
    scaling_check,
    sensitivity_scan,
)
from .dynamics import (
    HamiltonianParams,
    PulseSchedule,
    PulseSegment,
    lab_frame_propagator,
    rwa_fidelity,
)
from .errors import (
    ConfigError,
    DegenerateProtocolError,
    InsufficientBatchesError,
    NormalizationError,
    QuantumRegimeError,
    SorkinLabError,
    StepResolutionError,
    UnitarityError,
    UnphysicalParameterError,
    UnreachableStateError,
)
from .protocol import (
    KAPPA_FLOOR,
    MEASUREMENT_M1,
    MEASUREMENT_M2,
    MeasurementSpec,
    SorkinReport,
    TargetAmplitudes,
    apply_schedule,
    kappa,
    measurement_ket,
    prepare_states,
    second_order_terms,
    solve_schedule,
    third_order_term,
)
from .qutrit import QutritState, Unitary3, inner_product
