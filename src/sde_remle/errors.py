"""Exception types shared across the package."""


class SdeRemleError(Exception):
    """Base class for all errors raised by this package."""


class NotFound(SdeRemleError):
    """Requested a model name that is not registered."""


class SimulationDiverged(SdeRemleError):
    """Path state became non-finite during integration.

    Attributes
    ----------
    step : int
        Index of the grid step at which the state stopped being finite.
    subject_index : int or None
        Subject whose path diverged, when known.
    """

    def __init__(self, step, subject_index=None):
        self.step = step
        self.subject_index = subject_index
        where = f" (subject {subject_index})" if subject_index is not None else ""
        super().__init__(f"state became non-finite at step {step}{where}")


class DegenerateDiffusion(SdeRemleError):
    """The diffusion coefficient evaluated to a non-positive or vanishing value.

    Attributes
    ----------
    step : int or None
        Index of the grid step at which sigma was evaluated, when known.
    subject_index : int or None
        Subject whose path met sigma <= 0, when known.
    """

    def __init__(self, message, step=None, subject_index=None):
        self.step = step
        self.subject_index = subject_index
        if subject_index is not None:
            message = f"{message} (subject {subject_index})"
        super().__init__(message)


class EmptyEnsemble(SdeRemleError):
    """An ensemble reduction was asked for zero subjects."""


class InvalidStats(SdeRemleError):
    """Sufficient statistics handed to the estimator are not finite, or V < 0."""


class AllDegenerate(SdeRemleError):
    """Every subject has V = 0, so the profile mean is undefined."""


class NonFiniteObjective(SdeRemleError):
    """The log-likelihood is not finite: a subject with V = 0 and U != 0
    carries the infinite sentinel, or U or V is so large that the
    objective overflows."""


class EmptyExperiment(SdeRemleError):
    """An experiment was configured with zero replicates."""


class ExperimentFailed(SdeRemleError):
    """Too many replicates failed for the experiment report to be trusted."""


class _Located(SdeRemleError):
    """An error in an input file, at a line of it when known.

    Attributes
    ----------
    line : int or None
        1-based line number in the file, named in the message; None if unknown.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IngestError(_Located):
    """External path data violated the ingestion contract."""


class ConfigError(_Located):
    """Base class for configuration errors."""


class UnknownKey(ConfigError):
    pass


class MissingKey(ConfigError):
    pass


class ParseError(ConfigError):
    pass
