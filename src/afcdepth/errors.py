"""Exception types shared across the toolkit.

Plain ``ValueError`` is used for ordinary domain/precondition violations;
the classes below mark conditions that callers routinely need to branch on.
"""


class ToolkitError(Exception):
    """Base class for toolkit-specific failures."""


class LowSignalError(ToolkitError):
    """An echo fit did not converge or the amplitude is not significant."""


class DeconvolutionError(ToolkitError):
    """Fitted echo is not wider than the detector response."""


class InfeasibleBoundError(ToolkitError):
    """The requested (P1, P2) pair is unreachable within the state family."""


class ContrastInconsistencyError(ToolkitError):
    """Measured contrast exceeds what any state of N teeth can produce."""


class ConfigError(ToolkitError):
    """A configuration file could not be parsed or is missing required keys."""
