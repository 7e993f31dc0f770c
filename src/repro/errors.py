"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish parameter problems from scheduling or
simulation problems.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError):
    """Invalid or inconsistent CKKS / benchmark / machine parameters."""


class PrimeGenerationError(ReproError):
    """Could not find enough NTT-friendly primes with the requested shape."""


class EncodingError(ReproError):
    """A message cannot be encoded/decoded with the given parameters."""


class KeySwitchError(ReproError):
    """Inconsistent inputs to a key-switching operation."""


class ScheduleError(ReproError):
    """A dataflow scheduler produced or was asked for an invalid schedule."""


class MemoryModelError(ReproError):
    """On-chip memory bookkeeping violation (double free, overflow, ...)."""


class SimulationError(ReproError):
    """The RPU simulator detected an inconsistent task graph."""


class NoiseBudgetError(ReproError):
    """A tracked ciphertext's noise budget is exhausted (strict policy).

    Raised at decryption when the session's
    :class:`~repro.ckks.noise.NoiseModel` bound says the error term has
    reached ``Q_level / 2`` — the decode would be unreliable.  Bootstrap
    earlier, spend fewer levels, or relax the session's
    ``noise_policy`` to ``"warn"``.
    """


class NoiseBudgetWarning(UserWarning):
    """Same condition as :class:`NoiseBudgetError`, under the default
    ``"warn"`` policy: decryption proceeds, but the result is suspect."""


class AnalysisError(ReproError):
    """Static analysis found error-severity diagnostics.

    ``report`` carries the full :class:`~repro.analysis.AnalysisReport`
    so callers can render or filter the individual diagnostics.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
