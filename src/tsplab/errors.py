"""Exception types shared across the laboratory."""


class TsplabError(Exception):
    """Base class for all errors raised by this package."""


class MissingField(TsplabError):
    """A required TSPLIB keyword (e.g. DIMENSION) is absent."""


class CountMismatch(TsplabError):
    """Coordinate or weight count disagrees with the declared dimension."""


class UnsupportedFormat(TsplabError):
    """Weight type / format outside the supported subset; named in the message."""


class NonSymmetric(TsplabError):
    """A distance matrix (EXPLICIT or given to a solver) asymmetric beyond tolerance."""


class NegativeDistance(TsplabError):
    """A distance entry is negative."""


class DimensionMismatch(TsplabError):
    """A matrix not square or not of the instance's dimension, or a tour not of the matrix's."""


class InvalidTour(TsplabError):
    """A solver returned a non-permutation or misreported its tour's cost."""


class NoCoordinates(TsplabError):
    """Operation requires coordinates but the instance has none."""


class DegenerateInput(TsplabError):
    """All points collinear (or coincident); carries the two extreme indices."""

    def __init__(self, message: str, extremes: tuple[int, int]):
        super().__init__(message)
        self.extremes = extremes


class EmptyInput(TsplabError):
    """An input vector, or a distance matrix with no city, is empty."""


class NonFiniteInput(TsplabError):
    """An input vector or distance matrix contains NaN or infinity."""


class NonNumericToken(TsplabError):
    """A coordinate or weight in a TSPLIB file is not a number; names the
    section, the line and the token."""


class UnknownAlgorithm(TsplabError):
    """Algorithm id not in the registry, or one without presets."""


class UnknownParameter(TsplabError, ValueError):
    """Parameter name that the algorithm's params dataclass does not have."""


class NoSuchColumn(TsplabError):
    """Preset column name not recognized."""


class BudgetTooSmall(TsplabError):
    """Race budget cannot cover one full evaluation round."""


class MissingPlaceholder(TsplabError):
    """Prompt template lacks a required placeholder; names which."""


class EmptyField(TsplabError):
    """A refinement request field is empty."""


class AttemptOutOfRange(TsplabError):
    """Attempt index outside [1, max_attempts]."""


class ZeroBaseline(TsplabError):
    """Gap undefined: the baseline cost is zero or negative."""
