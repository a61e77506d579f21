"""Exception hierarchy shared across the package."""


class PlcpError(Exception):
    """Base class for all errors raised by this package."""


class CircularPowerInput(PlcpError):
    """Circular input is a proper integer power of a shorter string."""


class NotAPower(PlcpError):
    """Shrink requested for an input whose exponent is 1."""


class TruncatedCode(PlcpError):
    """Gamma decode ran past the end of the bit stream."""


class NotIncreasing(PlcpError):
    """Differential encoding requires a strictly increasing sequence."""


class DiffBoundViolation(PlcpError):
    """Adjacent PLCP values may drop by at most one."""


class OutOfRange(PlcpError):
    """Index outside the valid domain of a structure."""


class LengthMismatch(PlcpError):
    """Paired streams have inconsistent lengths."""


class RateMismatch(PlcpError):
    """Sampled ISA length is inconsistent with the text length."""


class CountConflict(PlcpError):
    """A sparse kernel count came out negative."""


class StreamStateError(PlcpError):
    """A stream was read, rewound or sought while still being written."""


class WalkIncomplete(PlcpError):
    """A batched LF walk ended with cursors that had not retired."""


class UnknownStrategy(OutOfRange, ValueError):
    """Build strategy name outside internal, external and hybrid."""


class AlphabetTooLarge(PlcpError):
    """More than 256 distinct symbols in a byte-oriented artifact."""


class EmptyInput(PlcpError):
    """Empty input text."""


class FormatError(PlcpError):
    """Malformed artifact file."""


class HeaderMismatch(PlcpError):
    """Artifact headers disagree (length, flags, ...)."""


class VerificationFailed(PlcpError):
    """Decoded PLCP values differ from the recomputed reference."""

    def __init__(self, position, expected, actual):
        self.position = position
        self.expected = expected
        self.actual = actual
        super().__init__(
            "PLCP mismatch at position %d: expected %d, got %d"
            % (position, expected, actual)
        )
