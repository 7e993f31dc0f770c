"""Shared diagnostic types for the static-analysis framework.

Every analysis pass reports through the same vocabulary: a
:class:`Diagnostic` pins one finding to a severity, the pass that raised
it, a human-readable location inside the analyzed object (a phase index,
a program counter, a task index) and an optional fix hint.  A run of
``analyze()`` collects them into an :class:`AnalysisReport`, which is the
unit the serving layer attaches to admission failures and the CLI
renders.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from repro.errors import AnalysisError


class Severity(enum.IntEnum):
    """How bad a finding is; orderable (``ERROR`` sorts first)."""

    ERROR = 0
    WARNING = 1
    INFO = 2

    def __str__(self) -> str:  # "error" rather than "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    Attributes
    ----------
    severity:
        :class:`Severity` of the finding; only ``ERROR`` findings make
        :meth:`AnalysisReport.raise_if_errors` raise.
    pass_id:
        Dotted id of the pass that produced the finding
        (``"ir.level-monotonic"``, ``"graph.buffer-race"``, ...).
    location:
        Where inside the analyzed object: ``"phase[3] 'cts0'"``,
        ``"schedule ARK"``, ``"task[12]"`` — free-form but
        always present so findings are actionable.
    message:
        What is wrong.
    hint:
        Optional suggestion for fixing it.
    """

    severity: Severity
    pass_id: str
    location: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.severity}: [{self.pass_id}] {self.location}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


def error(pass_id: str, location: str, message: str, hint: str = "") -> Diagnostic:
    return Diagnostic(Severity.ERROR, pass_id, location, message, hint)


def warning(pass_id: str, location: str, message: str, hint: str = "") -> Diagnostic:
    return Diagnostic(Severity.WARNING, pass_id, location, message, hint)


def info(pass_id: str, location: str, message: str, hint: str = "") -> Diagnostic:
    return Diagnostic(Severity.INFO, pass_id, location, message, hint)


@dataclass(frozen=True)
class AnalysisReport:
    """All diagnostics one ``analyze()`` run produced for one object."""

    subject: str
    diagnostics: Tuple[Diagnostic, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    # -- views -------------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings/infos do not fail a verify)."""
        return not self.errors

    def by_pass(self, pass_id: str) -> List[Diagnostic]:
        """Findings of one pass (or of a ``"family."`` prefix)."""
        if pass_id.endswith("."):
            return [d for d in self.diagnostics if d.pass_id.startswith(pass_id)]
        return [d for d in self.diagnostics if d.pass_id == pass_id]

    def merged(self, other: "AnalysisReport") -> "AnalysisReport":
        return AnalysisReport(self.subject, self.diagnostics + other.diagnostics)

    # -- rendering / raising ------------------------------------------------------

    def summary(self) -> str:
        return (
            f"{self.subject}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info(s)"
        )

    def render(self) -> str:
        lines = [self.summary()]
        for diag in sorted(self.diagnostics, key=lambda d: d.severity):
            lines.append("  " + diag.render())
        return "\n".join(lines)

    def raise_if_errors(self) -> "AnalysisReport":
        """Raise :class:`~repro.errors.AnalysisError` on any ERROR finding."""
        if not self.ok:
            first = self.errors[0]
            raise AnalysisError(
                f"{self.subject} failed verification with "
                f"{len(self.errors)} error(s); first: {first.render()}",
                report=self,
            )
        return self

    def __repr__(self) -> str:
        return (
            f"AnalysisReport({self.subject!r}, errors={len(self.errors)}, "
            f"warnings={len(self.warnings)}, infos={len(self.infos)})"
        )


def collect(diags: Iterable[Diagnostic]) -> Tuple[Diagnostic, ...]:
    """Materialize a pass's diagnostic stream (tolerates generators)."""
    return tuple(diags)
