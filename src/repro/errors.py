"""Exception hierarchy for the vSensor reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch the whole family with one clause.  Compiler-side errors
carry a :class:`~repro.frontend.location.SourceLoc` when one is available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class _LocatedError(ReproError):
    """An error at a source line and column (picklable across processes)."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    def __reduce__(self):
        return type(self), (self.message, self.line, self.col)


class LexError(_LocatedError):
    """Raised when the lexer meets a character it cannot tokenize."""


class ParseError(_LocatedError):
    """Raised when the parser meets an unexpected token."""


class LoweringError(ReproError):
    """Raised when an AST construct cannot be lowered to IR."""


class AnalysisError(ReproError):
    """Raised when a static analysis is asked something ill-formed."""


class InstrumentError(ReproError):
    """Raised when instrumentation selection or rewriting fails."""


class SimulationError(ReproError):
    """Raised by the cluster simulator (deadlock, bad config, ...)."""


class RuntimeDetectionError(ReproError):
    """Raised by the online detection module."""


class InterpError(SimulationError):
    """Raised when the interpreter meets an invalid runtime operation."""
