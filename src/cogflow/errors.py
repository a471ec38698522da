"""Exception types shared across the package."""


class CogflowError(Exception):
    """Base class for all package errors."""


class ContractViolation(CogflowError, ValueError):
    """An argument violates a documented precondition (range, mode, shape)."""


class SpaceMismatchError(ContractViolation):
    """Score, anchor, or field dimensionality disagree."""


class BindingError(CogflowError, ValueError):
    """A prompt could not be resolved to a target distribution."""

    def __init__(self, prompt: str, reason: str):
        super().__init__(f"cannot bind prompt {prompt!r}: {reason}")
        self.prompt = prompt
        self.reason = reason


class DivergenceError(CogflowError, ArithmeticError):
    """Integration produced a non-finite state.

    last_max_abs is the largest |x| of the failing sample (the whole state
    when it is a single sample) at the last finite state, the start of the
    failing step, and last_time is that state's time.
    """

    def __init__(
        self,
        step_index: int,
        sample_index: int | None = None,
        last_max_abs: float | None = None,
        last_time: float | None = None,
    ):
        where = f"non-finite state at integration step {step_index}"
        if sample_index is not None:
            where += f" (sample {sample_index})"
        if last_max_abs is not None:
            where += f"; last finite state at t={last_time!r} had max |x| = {last_max_abs!r}"
        super().__init__(where)
        self.step_index = step_index
        self.sample_index = sample_index
        self.last_max_abs = last_max_abs
        self.last_time = last_time


class BackendError(CogflowError, RuntimeError):
    """A polarizer backend call failed; carries diagnostics and is retriable."""

    def __init__(self, message: str, *, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(CogflowError, ValueError):
    """Config file missing, unparseable, or containing invalid/unknown keys."""
