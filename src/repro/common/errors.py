"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SimulationError(ReproError):
    """A simulator reached an invalid state."""


class ProtocolError(ReproError):
    """The coherence protocol reached an illegal state transition."""
