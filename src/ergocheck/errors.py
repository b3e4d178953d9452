"""Exception hierarchy shared by all ergocheck modules."""


class ErgocheckError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ErgocheckError):
    """A problem with user-supplied input (files, flags, witness data)."""


class ParseError(InputError):
    """Malformed network text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class DuplicateSpecies(ParseError):
    """A species name was declared more than once."""


class NonPositiveRate(ParseError):
    """A rate constant was parsed as <= 0."""


class DimensionMismatch(ErgocheckError):
    """Matrix/vector dimensions in a feasibility problem are inconsistent."""


class IndexOutOfRange(ErgocheckError):
    """A reaction or species index is outside the valid range."""


class StateSpaceTooLarge(InputError):
    """An enumerated state set exceeds the configured bound."""


class OverlappingConservation(ErgocheckError):
    """Nonnegative left-null vectors exist but admit no disjoint-support
    decomposition; the analysis cannot proceed soundly."""


class UnsupportedReactionOrder(ErgocheckError):
    """A reaction consumes three or more molecules."""

    def __init__(self, reaction_index):
        self.reaction_index = reaction_index
        super().__init__(
            f"reaction {reaction_index + 1} consumes more than two molecules"
        )


class PropensityOverflow(ErgocheckError):
    """Total jump rate exceeded the numeric guard during simulation, or a
    rate constant or a species count lies beyond the float range."""


class WitnessRejected(InputError):
    """A user-supplied drift witness violates a certificate condition."""

    def __init__(self, constraint):
        self.constraint = constraint
        super().__init__(f"witness rejected: {constraint}")


class MissingTotals(InputError):
    """Conservation relations were detected but no totals were supplied."""


class InternalCheckFailed(ErgocheckError):
    """A computed result failed its own exact re-check (also under -O)."""
