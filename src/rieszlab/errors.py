"""Shared exception types.

Precondition violations in library calls raise plain ValueError.
The classes here mark failures the command line maps to exit codes:
ConfigError -> 2, NumericalError and subclasses and WriteError -> 3.
"""


class RieszlabError(Exception):
    pass


class ConfigError(RieszlabError):
    """Bad or inconsistent run configuration."""


class NumericalError(RieszlabError):
    """A solver failed at run time; `stage` names the failing component."""

    def __init__(self, message, stage=""):
        super().__init__(message)
        self.stage = stage


class WriteError(RieszlabError):
    """An output file could not be written once output.dir existed."""

    stage = "write"


class SupportEscapeError(NumericalError):
    """Vorticity reached the outer buffer; tail integrals assume containment."""


class CflViolationError(NumericalError):
    """Requested time step exceeds the advective stability bound."""


class EllipticError(NumericalError):
    """Mode solve failed (grid too coarse or boundary not resolved)."""
