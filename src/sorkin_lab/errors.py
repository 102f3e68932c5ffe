"""Typed errors shared across the package.

All domain errors derive from SorkinLabError so the CLI can map them to a
single exit code.
"""


class SorkinLabError(Exception):
    """Base class for all errors raised by this package."""


class NormalizationError(SorkinLabError):
    """A state vector's squared amplitudes do not sum to one."""


class UnitarityError(SorkinLabError):
    """A matrix fails the U^dag U = I check."""


class DegenerateProtocolError(SorkinLabError):
    """Target amplitudes make one of the seven states undefined."""


class UnreachableStateError(SorkinLabError):
    """The pulse-schedule conditions have no solution for these amplitudes."""


class QuantumRegimeError(SorkinLabError):
    """Second-order interference too small to normalize against."""


class UnphysicalParameterError(SorkinLabError):
    """A probability rule or noise model produced an invalid probability."""


class InsufficientBatchesError(SorkinLabError):
    """Too few batches for the requested statistic."""


class StepResolutionError(SorkinLabError):
    """A pulse spanning more drive periods than the propagator is trusted for."""


class ConfigError(SorkinLabError):
    """Configuration file violates the documented schema."""
