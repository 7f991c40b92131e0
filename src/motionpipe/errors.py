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
    """A pipeline stage failed; carries the stage name and fold index."""

    def __init__(self, stage: str, fold: int, message: str):
        super().__init__(f"fold {fold}, stage {stage}: {message}")
        self.stage = stage
        self.fold = fold
        self.message = message

    def __reduce__(self):
        # Pickling drops __cause__, and the CLI picks its exit code from the
        # cause's type, so the type and arguments travel with the error.
        cause = self.__cause__
        if cause is None:
            return StageError, (self.stage, self.fold, self.message)
        return _unpickle_stage_error, (self.stage, self.fold, self.message,
                                       type(cause), cause.args)


def _unpickle_stage_error(stage, fold, message, cause_type, cause_args):
    error = StageError(stage, fold, message)
    # __new__ skips the cause type's __init__, whose signature may differ from args
    error.__cause__ = cause_type.__new__(cause_type, *cause_args)
    error.__cause__.args = cause_args
    return error
