"""Exception hierarchy shared across the package."""


class BandedError(Exception):
    """Base class for all package errors."""


class InputError(BandedError):
    """User-supplied data is malformed or violates a documented invariant."""


class ParseError(InputError):
    """A file could not be parsed; carries location information when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)


class DegenerateTriangleError(InputError):
    """A zero-area triangle was passed where a proper one is required."""


class AllPointsEqualError(InputError):
    """A polygon collapsed to a single point where shape information is needed."""


class MeshStructureError(InputError):
    """Vertex/face/band indices of a mesh are inconsistent."""


class SectionError(BandedError):
    """A plane section did not chain into a single simple closed polygon."""


class PreconditionError(BandedError):
    """An operation's documented precondition does not hold."""


class InternalConsistencyError(BandedError):
    """Two routines that must agree produced different answers; this is a bug."""

