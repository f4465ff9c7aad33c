"""Exception hierarchy for ttqmc."""


class TtqmcError(Exception):
    """Base class for all ttqmc errors."""


class DimensionMismatchError(TtqmcError):
    """Two objects that must share a site count (or shape) do not."""


class DenseCapError(TtqmcError):
    """A dense 2^d construction was requested above the configured cap."""

    def __init__(self, d, cap):
        super().__init__(f"dense construction refused: d={d} exceeds cap {cap}")
        self.d = d
        self.cap = cap


class RankZeroError(TtqmcError):
    """A sketch cross matrix was numerically rank zero at some cut."""

    def __init__(self, cut):
        super().__init__(f"sketch cross matrix numerically rank zero at cut {cut}")
        self.cut = cut


class ZeroOverlapError(TtqmcError):
    """A local-energy denominator <psi_tr, phi> vanished."""


class DeadEnsembleError(TtqmcError):
    """Every walker has been killed; the run cannot continue."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class LatticeError(TtqmcError, ValueError):
    """An unsupported lattice request; ``part`` is "kind", "dims" or "boundary"."""

    def __init__(self, part, message):
        super().__init__(message)
        self.part = part


class ConfigError(TtqmcError):
    """A run configuration value is missing, malformed, or inconsistent."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class PendingHalfStepError(TtqmcError):
    """An ensemble was observed while a half one-body step was still owed."""

    def __init__(self, observer, step):
        super().__init__(
            f"{observer} called after step {step} was taken with settle=False; "
            "take the next step with settle=True first"
        )
        self.observer = observer
        self.step = step
