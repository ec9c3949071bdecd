"""Exception hierarchy shared across the pipeline.

Each class carries the CLI exit code of its family as `exit_code`: every
concrete error derives from one of the four family bases below.
"""


def _restore(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class FehForgeError(Exception):
    """Base class for all pipeline errors.

    An error pickles by its message and attributes, not by re-running an
    `__init__` whose signature differs from `Exception`'s, so it crosses
    from a cross-validation fold lane to the caller intact.
    """
    exit_code = 1

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


class MissingInput(FehForgeError):
    """An input file or path that does not exist."""
    exit_code = 2


class MalformedInput(FehForgeError):
    """Input that cannot be read as what it claims to be."""
    exit_code = 3


class DegenerateData(FehForgeError):
    """Well-formed input on which the computation is undefined."""
    exit_code = 4


class IntegrityError(FehForgeError):
    """Snapshot or container does not match the model spec or kind it claims."""
    exit_code = 5


# --- configuration ---------------------------------------------------------

class InvalidConfig(MalformedInput, ValueError):
    """A configuration value outside its allowed range."""


# --- catalog ---------------------------------------------------------------

class MissingColumn(MalformedInput):
    def __init__(self, column, path=None):
        self.column = column
        self.path = path
        super().__init__(f"missing required column {column!r}"
                         + (f" in {path}" if path else ""))


class ParseError(MalformedInput):
    def __init__(self, row, field, value, path=None):
        self.row = row
        self.field = field
        self.value = value
        super().__init__(
            f"row {row}: cannot parse field {field!r} from {value!r}"
            + (f" in {path}" if path else ""))


class EmptyCatalog(MalformedInput):
    pass


class DegenerateSplit(DegenerateData):
    pass


class OrphanStar(DegenerateData):
    def __init__(self, source_ids):
        self.source_ids = list(source_ids)
        super().__init__(f"no photometry for source_id(s): {self.source_ids}")


class DuplicateEpoch(DegenerateData):
    def __init__(self, source_id, time):
        self.source_id = source_id
        self.time = time
        super().__init__(f"duplicate timestamp {time} for source {source_id}")


# --- preprocess ------------------------------------------------------------

class NonFinitePhase(DegenerateData):
    pass


class InsufficientPoints(DegenerateData):
    pass


class SingularFit(DegenerateData):
    pass


# --- weighting -------------------------------------------------------------

class DegenerateDistribution(DegenerateData):
    pass


class ZeroDensity(DegenerateData):
    pass


# --- neural nets -----------------------------------------------------------

class ShapeMismatch(MalformedInput):
    pass


class DegenerateBatch(DegenerateData):
    pass


class InvalidRate(MalformedInput):
    pass


class NonPositiveWeightSum(DegenerateData):
    pass


# --- evaluation ------------------------------------------------------------

class ZeroVariance(DegenerateData):
    pass


class TooFewSamples(DegenerateData):
    pass


class DivergedLoss(DegenerateData):
    def __init__(self, epoch, loss):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}")
