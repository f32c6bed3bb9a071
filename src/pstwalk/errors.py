"""Exception taxonomy for pstwalk.

Every error raised on purpose by this package derives from PstwalkError so
callers (and the CLI) can distinguish domain failures from genuine bugs.
"""

__all__ = [
    "PstwalkError",
    "InvalidSizeError",
    "InvalidArgumentError",
    "SelfLoopError",
    "UnsupportedGraphError",
    "GraphFormatError",
    "NotConnectedError",
    "DegenerateEigenvalueError",
    "AmbiguousDegeneracyError",
    "NumericFailureError",
    "NonCommutingError",
    "NotEquitableError",
    "ExprError",
]


class PstwalkError(Exception):
    """Base class for all pstwalk domain errors."""


class InvalidSizeError(PstwalkError):
    """A constructor was asked for an empty or otherwise impossible size."""


class InvalidArgumentError(PstwalkError):
    """Arguments are structurally wrong (mismatched lengths, bad ranges...)."""


class SelfLoopError(InvalidArgumentError):
    """A circulant connection set contained 0, which would create loops."""


class UnsupportedGraphError(PstwalkError):
    """Operation defined only for unweighted / loop-free graphs."""


class GraphFormatError(PstwalkError):
    """Malformed graph file (bad header, edge lines, conflicting duplicates)."""


class NotConnectedError(PstwalkError):
    """The operation needs a connected graph (or connected query pair)."""


class DegenerateEigenvalueError(PstwalkError):
    """The top eigenvalue is not numerically simple."""


class AmbiguousDegeneracyError(PstwalkError):
    """Eigenvalue clustering produced a group wider than the safety bound."""


class NumericFailureError(PstwalkError):
    """The eigensolver failed to meet its residual contract."""


class NonCommutingError(PstwalkError):
    """A connection matrix fails the required commutation relations."""


class NotEquitableError(PstwalkError):
    """A partition that must be equitable is not."""


class ExprError(PstwalkError):
    """Expression parse/evaluation error; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
