"""Exception hierarchy shared by all modules."""


class ProctomoError(Exception):
    """Base class for every error raised by this package."""


# ---- tensor kernel ----

class DuplicateLabel(ProctomoError):
    """Two tensor factors carry the same (lab, role) key."""


class UnknownLabel(ProctomoError):
    """A requested label is not present on the operator."""


class NotAPermutation(ProctomoError):
    """Requested factor order is not a permutation of the existing labels."""


class NotPSD(ProctomoError):
    """Matrix is not positive semi-definite within tolerance."""


# ---- Choi / link layer ----

class NotUnitary(ProctomoError):
    """Matrix fails the unitarity check."""


class ShapeMismatch(ProctomoError):
    """Kraus operators do not share a common shape."""


class TraceExceedsOne(ProctomoError):
    """Kraus set is not trace-nonincreasing."""


class DimMismatch(ProctomoError):
    """Operator dimensions or label signatures are incompatible."""


class DimMismatchOnSharedLabel(ProctomoError):
    """Two operators share a label key but disagree on its dimension."""


# ---- operator bases / spans ----

class IndexOutOfRange(ProctomoError):
    """Basis index outside the valid (traceless) range."""


class EmptyFamily(ProctomoError):
    """An operator family with no elements was supplied."""


class DesignSizeMismatch(ProctomoError):
    """A unitary design has the wrong number of elements."""


# ---- process simulation ----

class InvalidSpec(ProctomoError):
    """Process specification violates its invariants."""


class UnknownPreset(ProctomoError):
    """Unrecognised process preset name."""


class NegativeProbability(ProctomoError):
    """Born probability below the negativity tolerance."""


class NotNormalizedSetting(ProctomoError):
    """Outcome probabilities of a setting do not sum to one."""


# ---- probe construction ----

class SingularValueExceedsOne(ProctomoError):
    """Block K00 has a singular value above one."""


class NotNormalized(ProctomoError):
    """State vector is not normalised."""


class InvalidSetting(ProctomoError):
    """Ancilla probe setting violates its invariants."""


class MissingSample(ProctomoError):
    """A required phase sample is absent from the filter input."""


class OutOfBudget(ProctomoError):
    """Projected family size exceeds the configured cap."""


class BadCut(ProctomoError):
    """Bipartition is empty on one side or names unknown labs."""


# ---- tomography ----

class NotIC(ProctomoError):
    """Frame is rank deficient; family is not informationally complete."""


class MissingData(ProctomoError):
    """Experiment records do not cover every family element."""


class UnexpectedRecord(ProctomoError):
    """An experiment record names no element of the family."""


class OutsideSpan(ProctomoError):
    """Observable lies outside the span of the probe family."""


# ---- CLI / persistence ----

class ConfigError(ProctomoError):
    """Run configuration is invalid; message names the offending field."""


class ParseError(ProctomoError):
    """Persisted file could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line
