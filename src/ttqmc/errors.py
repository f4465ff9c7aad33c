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


class ZeroOverlapError(TtqmcError):
    """A local-energy denominator <psi_tr, phi> vanished."""


class DeadEnsembleError(TtqmcError):
    """Every walker has been killed; the run cannot continue.

    ``diagnostics`` holds the step (and the kills of a re-anchor); the
    message ends with them.
    """

    def __init__(self, message, diagnostics):
        super().__init__(f"{message} (context: {diagnostics})")
        self.diagnostics = diagnostics


class WeightError(TtqmcError):
    """A walker weight is non-finite or negative, or an overlap non-finite.

    Raised by a step, a re-anchor, the comb and the mixed estimator.
    ``diagnostics`` holds the step and the first bad walker with its bad
    ``quantity`` ("weight" or "overlap"; walker None when every weight is
    finite but their sum overflows); the message already names all three.
    """

    def __init__(self, step, walker, value, user, quantity="weight"):
        if walker is None:
            msg = f"walker weights sum to {value!r} at step {step}"
        else:
            msg = f"walker {walker} has {quantity} {value!r} at step {step}"
        need = "finite overlaps" if quantity == "overlap" else "finite, non-negative weights"
        super().__init__(f"{msg}; {user} needs {need}")
        self.diagnostics = {"step": step, "walker": walker, quantity: value}


class NonFiniteResultError(TtqmcError):
    """A result to be reported is NaN or infinite.

    ``what`` names it (the mixed energy, or a ``summary.json`` field);
    ``step`` is the measured step, or None for a run summary.
    """

    def __init__(self, what, value, step=None):
        at = "" if step is None else f" at step {step}"
        super().__init__(f"{what} is {value!r}{at}; reported results must be finite")
        self.diagnostics = {"step": step, what: value}


class EigensolverError(TtqmcError):
    """An iterative eigensolver reached its iteration cap without converging."""

    def __init__(self, d, iterations, energy):
        super().__init__(
            f"Lanczos did not converge at d={d} in {iterations} iterations "
            f"(last lowest Ritz value {energy!r})"
        )
        self.d = d


class AnalyticCheckError(TtqmcError):
    """The free-fermion chain energy disagreed with exact diagonalization."""

    def __init__(self, d, formula, solver):
        super().__init__(
            f"analytic chain energy failed validation at d={d}: "
            f"formula {formula!r} vs eigensolver {solver!r}"
        )


class ConfigError(TtqmcError):
    """A run configuration value is missing, malformed, or inconsistent."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class OutputError(TtqmcError):
    """An output file could not be written; the message names its path."""

    def __init__(self, path, exc):
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")
        self.path = path


class PendingHalfStepError(TtqmcError):
    """An ensemble was observed while a half one-body step was still owed."""

    def __init__(self, observer, step):
        super().__init__(
            f"{observer} called after step {step} was taken with settle=False; "
            "take the next step with settle=True first"
        )
        self.observer = observer
        self.step = step


class SketchFitError(TtqmcError, ValueError):
    """The ensemble-to-TT fit met a bad walker, a non-finite input, a failed SVD
    or a rank-zero cross matrix (``RankZeroError``).

    ``cut`` names the cross matrix's cut, or is None for a bad walker.
    """

    def __init__(self, message, cut=None):
        super().__init__(message)
        self.cut = cut


class RankZeroError(SketchFitError):
    """A sketch cross matrix was numerically rank zero at some cut."""

    def __init__(self, cut):
        super().__init__(f"sketch cross matrix numerically rank zero at cut {cut}", cut)
