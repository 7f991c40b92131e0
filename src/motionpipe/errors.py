"""Exception types shared across the pipeline."""


class DataFormatError(ValueError):
    """A file or byte stream does not conform to its declared format."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class WorkerError(RuntimeError):
    """A forked worker ended without sending back the outcome of its task, named ``task``."""

    def __init__(self, message: str, task):
        super().__init__(message)
        self.task = task


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name, fold index and, when given, the cause."""

    def __init__(self, stage: str, fold: int, message: str, cause: BaseException | None = None):
        super().__init__(f"fold {fold}, stage {stage}: {message}")
        self.stage = stage
        self.fold = fold
        self.message = message
        if cause is not None:
            self.__cause__ = cause

    def __reduce__(self):
        # pickling drops __cause__, and the CLI picks its exit code from the cause's type
        return StageError, (self.stage, self.fold, self.message, self.__cause__)
