"""Structured pass/fail reporting for the suites and the CLI."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .errors import SchemaError

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class Report:
    """One check's outcome: the clause it instantiates, pass/fail/skipped,
    witnesses for failures, and the number of instances checked (1 for a
    single check). Every check is exact, so the JSON form names the regime
    "exhaustive"."""

    subject: str
    status: str
    witnesses: tuple[tuple[str, str, str], ...] = ()
    elapsed_ms: int = 0
    instances: int = 1

    def __post_init__(self) -> None:
        if self.status not in (PASS, FAIL, SKIPPED):
            raise SchemaError("status", f"unknown status {self.status!r}")
        if self.status == FAIL and not self.witnesses:
            raise SchemaError("witnesses", "fail reports must carry a witness")

    @classmethod
    def verdict(cls, subject: str, witness: tuple[str, str, str] | None) -> "Report":
        """One check's report: a pass when `witness` is None, else a fail."""
        return cls(subject, PASS if witness is None else FAIL, () if witness is None else (witness,))

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "status": self.status,
            "regime": "exhaustive",
            "witnesses": [list(w) for w in self.witnesses],
            "elapsed_ms": self.elapsed_ms,
            "instances": self.instances,
        }


class ReportCollector:
    """Accumulates failures per subject while a suite loops over instances,
    then freezes one Report per subject."""

    def __init__(self) -> None:
        self.failures: dict[str, list[tuple[str, str, str]]] = {}
        self.seen: dict[str, int] = {}

    def record(self, subject: str, ok: bool, witness: tuple[str, str, str] | None = None) -> None:
        self.seen[subject] = self.seen.get(subject, 0) + 1
        if not ok:
            self.failures.setdefault(subject, []).append(
                witness or ("unknown", "pass", "fail"))

    def reports(self, elapsed_ms: int) -> list[Report]:
        out = []
        for subject in sorted(self.seen):
            bad = tuple(self.failures.get(subject, ())[:8])
            out.append(Report(
                subject=subject,
                status=FAIL if bad else PASS,
                witnesses=bad,
                elapsed_ms=elapsed_ms,
                instances=self.seen[subject],
            ))
        return out


def emit_reports(reports: list[Report], stream=None, summary_stream=None) -> int:
    """One JSON object per line on stdout, a human summary on stderr;
    returns the process exit code (0 all pass, 1 otherwise)."""
    stream = stream or sys.stdout
    summary_stream = summary_stream or sys.stderr
    failed = 0
    for report in reports:
        stream.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
        if report.status == FAIL:
            failed += 1
            witness = report.witnesses[0]
            summary_stream.write(
                f"FAIL {report.subject} [exhaustive] at {witness[0]}: "
                f"expected {witness[1]}, got {witness[2]}\n")
        else:
            summary_stream.write(f"{report.status.upper()} {report.subject} [exhaustive]\n")
    summary_stream.write(f"{len(reports) - failed}/{len(reports)} subjects passed\n")
    return 0 if failed == 0 else 1
