"""Exception types shared across the package.

The CLI maps ``ValidationError`` (and subclasses) to exit code 1 and any
other exception to exit code 2.
"""


class ValidationError(Exception):
    """Bad parameters, malformed input files, or inconsistent state."""


class ConfigError(ValidationError):
    """Invalid or incomplete run configuration."""


class EdgeListParseError(ValidationError):
    """A line of a tab-separated input file could not be parsed."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class EmptyGraphError(ValidationError):
    """The input produced a graph with no edges."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or non-finite weights."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch} (loss={loss!r})")
        self.epoch = epoch
        self.loss = loss
