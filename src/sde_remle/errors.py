"""Exception types shared across the package, one per failure role.

The CLI exits 1 for bad input: ConfigError, IngestError and ValueError
(a value the package refuses, an unknown model name, zero subjects or
replicates). It exits 2 for every other SdeRemleError, a failure of the
run: SimulationDiverged, InvalidStats and ExperimentFailed.
"""


class SdeRemleError(Exception):
    """Base class for all errors raised by this package."""


class SimulationDiverged(SdeRemleError):
    """A path stopped being integrable: its state became non-finite, or
    sigma <= 0 or sigma^2 fell below the floor on it.

    Attributes
    ----------
    step : int or None
        Index of the grid step at which it happened, when known.
    subject_index : int or None
        Subject whose path it was, when known; named in the message.
    """

    def __init__(self, message, step=None, subject_index=None):
        self.step = step
        self.subject_index = subject_index
        if subject_index is not None:
            message = f"{message} (subject {subject_index})"
        super().__init__(message)


class InvalidStats(SdeRemleError):
    """Sufficient statistics handed to the estimator are not finite, V < 0,
    every V = 0, or the log-likelihood they give is not finite."""


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
    """A config file or command line that is malformed, names an unknown
    key, lacks a required one, or names an output location that cannot
    be written."""
