"""Exception types shared across the package."""

from __future__ import annotations


class ContlogError(Exception):
    """Base class for errors raised by this package."""


class SpaceMismatch(ContlogError):
    """Points, sets or connectives were combined across incompatible spaces."""


class CapacityError(ContlogError):
    """An operation would enumerate more data than its hard cap allows."""


class ValidationError(ContlogError):
    """A declared property (Lipschitz bound, totality, range) failed to hold."""


class TypeCheckError(ContlogError):
    """A formula is not well-typed against its signature and connectives."""


class EvalError(ContlogError):
    """Evaluation failed: unbound variable, missing interpretation, bad input."""


class FormatError(ContlogError):
    """A JSON document does not match the expected file format."""


class ParseError(ContlogError):
    """Syntax or resolution error in formula text, with a source position."""

    def __init__(self, message: str, position: int, text: str):
        self.position = position
        self.text = text
        snippet = text[max(0, position - 12) : position + 12]
        super().__init__(f"{message} at position {position} (near {snippet!r})")
