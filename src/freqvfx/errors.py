"""Exception types shared across the package.

Every error raised deliberately by this package derives from FreqVfxError so
callers can catch the whole family at once. Subclasses also inherit from the
closest builtin (ValueError, RuntimeError, ...) so generic handling keeps
working.
"""


class FreqVfxError(Exception):
    """Base class for all errors raised by freqvfx."""


class ShapeError(FreqVfxError, ValueError):
    """An array has the wrong rank, an impossible axis, or mismatched dims."""


class ParameterError(FreqVfxError, ValueError):
    """A configuration value is out of its legal range (sigma <= 0, tau <= 0, ...)."""


class DomainError(FreqVfxError, ValueError):
    """Input values violate a mathematical precondition (negative energies, NaN)."""


class TapeConsistencyError(FreqVfxError, RuntimeError):
    """The tape machinery broke an internal invariant: an unbalanced tape
    enter/exit corrupted the tape stack, a vjp returned a gradient whose shape
    differs from its input's, or a replay was asked for a span the active tape
    does not hold."""


class TrainingDivergedError(FreqVfxError, RuntimeError):
    """Stage-1 training hit a non-finite loss."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"training loss became non-finite at step {step}")


class AdaptationDivergedError(FreqVfxError, RuntimeError):
    """Test-time adaptation hit a non-finite loss."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"adaptation loss became non-finite at step {step}")


class SamplingDivergedError(FreqVfxError, RuntimeError):
    """A sampler step produced a non-finite latent."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"sampled latent became non-finite at sampler step {step}")


class ContainerError(FreqVfxError, ValueError):
    """Base class for tensor-container decode failures."""


class BadMagicError(ContainerError):
    """The byte stream does not start with the container magic."""


class ChecksumError(ContainerError):
    """The trailing CRC32 does not match the payload."""


class TruncatedError(ContainerError):
    """The byte stream ended before the declared content was complete."""


class ManifestConflictError(FreqVfxError, ValueError):
    """A checkpoint's recorded config contradicts the requested run config."""
