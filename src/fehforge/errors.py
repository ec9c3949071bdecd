"""Exception hierarchy shared across the pipeline.

Every error family maps to a distinct CLI exit code (see `cli.EXIT_CODES`).
"""


class FehForgeError(Exception):
    """Base class for all pipeline errors."""


# --- configuration ---------------------------------------------------------

class InvalidConfig(FehForgeError, ValueError):
    """A configuration value outside its allowed range."""


# --- catalog ---------------------------------------------------------------

class MissingColumn(FehForgeError):
    def __init__(self, column, path=None):
        self.column = column
        self.path = path
        super().__init__(f"missing required column {column!r}"
                         + (f" in {path}" if path else ""))


class ParseError(FehForgeError):
    def __init__(self, row, field, value, path=None):
        self.row = row
        self.field = field
        self.value = value
        super().__init__(
            f"row {row}: cannot parse field {field!r} from {value!r}"
            + (f" in {path}" if path else ""))


class EmptyCatalog(FehForgeError):
    pass


class DegenerateSplit(FehForgeError):
    pass


class OrphanStar(FehForgeError):
    def __init__(self, source_ids):
        self.source_ids = list(source_ids)
        super().__init__(f"no photometry for source_id(s): {self.source_ids}")


class DuplicateEpoch(FehForgeError):
    def __init__(self, source_id, time):
        self.source_id = source_id
        self.time = time
        super().__init__(f"duplicate timestamp {time} for source {source_id}")


# --- preprocess ------------------------------------------------------------

class NonFinitePhase(FehForgeError):
    pass


class InsufficientPoints(FehForgeError):
    pass


class SingularFit(FehForgeError):
    pass


# --- weighting -------------------------------------------------------------

class DegenerateDistribution(FehForgeError):
    pass


class ZeroDensity(FehForgeError):
    pass


# --- neural nets -----------------------------------------------------------

class ShapeMismatch(FehForgeError):
    pass


class DegenerateBatch(FehForgeError):
    pass


class InvalidRate(FehForgeError):
    pass


class NonPositiveWeightSum(FehForgeError):
    pass


# --- evaluation ------------------------------------------------------------

class ZeroVariance(FehForgeError):
    pass


class TooFewSamples(FehForgeError):
    pass


class DivergedLoss(FehForgeError):
    def __init__(self, epoch, loss):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}")


# --- io / integrity --------------------------------------------------------

class MissingInput(FehForgeError):
    pass


class IntegrityError(FehForgeError):
    """Snapshot or container does not match the model spec it claims."""
