"""Shared exception types."""


class PdesymError(Exception):
    """Base class for all package-specific errors.

    The class decides the CLI's exit code: a :class:`NumericError` exits 3,
    and any other ``PdesymError`` exits 2, as bad input does. The library
    raises a plain ``ValueError`` only for an argument it rejects, which
    the CLI reads as a bad flag value and exits 1; a check on file content
    raises :class:`MalformedFile`, which is both, and exits 2.
    """


class NumericError(PdesymError):
    """A computation on valid input failed numerically."""


class ParseError(PdesymError):
    """Malformed infix input; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownSymbol(ParseError):
    """Identifier outside the published grammar."""


class UnsupportedNode(PdesymError):
    """Expression node not representable in the requested dialect or operation."""


class DecodeError(PdesymError):
    """Token sequence cannot be decoded back into an equation."""


class MalformedFile(PdesymError, ValueError):
    """An equation record or a PDEGRID1 grid file is malformed; the message
    names the file. Also a ``ValueError``, as these checks raised before."""


class DivisionByZero(NumericError):
    """Exact constant folding hit a zero divisor."""


class CFLViolation(NumericError):
    """Requested time step exceeds the stability bound."""


class NonFiniteState(NumericError):
    """Numerical state contains NaN or infinity."""


class ZeroCoefficient(NumericError):
    """A relative initialization interval degenerates at zero."""


class AllWeightsDegenerate(NumericError):
    """Every particle simulation failed; no usable importance weights."""


class DegenerateReference(PdesymError):
    """A metric's reference quantity (norm or variance) vanishes."""


class NotSolvable(PdesymError):
    """Equation lies outside the conservation-law families the solver handles."""
