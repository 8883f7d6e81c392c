"""Exception types raised by the toolkit."""

from __future__ import annotations

import copyreg


class LscdError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # Rebuild from the final message and the attributes, without calling
        # a subclass __init__ whose arguments differ from `args`, so that an
        # error raised in a worker process reaches the parent intact.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class EmptyCorpusError(LscdError):
    """A corpus file contained no non-empty sentences."""


class VocabularyError(LscdError):
    """A word was looked up that the vocabulary does not contain."""


class FormatError(LscdError):
    """A file did not match its expected format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class ZeroNormError(LscdError):
    """A vector that must be length-normalized has zero norm."""


class UnderdeterminedError(LscdError):
    """Too few shared words to fit an orthogonal rotation."""


class TrainingDivergedError(LscdError):
    """Non-finite values appeared during gradient training."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class DatasetError(LscdError):
    """The classification dataset violates a precondition (e.g. empty split)."""


class TargetMismatchError(LscdError):
    """Two rankings or a ranking and gold data cover different target sets."""

    def __init__(self, only_left: set[str], only_right: set[str]):
        parts = []
        if only_left:
            parts.append("only in first: " + ", ".join(sorted(only_left)))
        if only_right:
            parts.append("only in second: " + ", ".join(sorted(only_right)))
        super().__init__("target sets differ; " + "; ".join(parts))
        self.only_left = only_left
        self.only_right = only_right


class UndefinedCorrelationError(LscdError):
    """Rank correlation is undefined (fewer than two items or zero variance)."""


class StageError(LscdError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
