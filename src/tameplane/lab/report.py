"""Structured pass/fail records shared by the verification suites.

Each check produces one :class:`CheckRecord`; a :class:`Report` is an
ordered list of them with a text rendering (one line per record) and a
JSONL rendering for machine diffing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def _plain(value):
    """JSON-safe copy of a parameter or result value."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class CheckRecord:
    check: str
    parameters: dict
    expected: object
    got: object
    passed: bool

    def line(self) -> str:
        params = " ".join("%s=%s" % (k, v) for k, v in self.parameters.items())
        head = self.check if not params else "%s %s" % (self.check, params)
        return "%s expected=%s got=%s %s" % (
            head, _plain(self.expected), _plain(self.got),
            "pass" if self.passed else "FAIL")

    def record(self) -> dict:
        return {
            "check": self.check,
            "parameters": {k: _plain(v) for k, v in self.parameters.items()},
            "expected": _plain(self.expected),
            "got": _plain(self.got),
            "pass": self.passed,
        }


@dataclass
class Report:
    records: list = field(default_factory=list)

    def add(self, check: str, expected, got, **parameters) -> bool:
        """Append a record; the check passes iff expected == got."""
        ok = expected == got
        self.records.append(CheckRecord(check, parameters, expected, got, ok))
        return ok

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list:
        return [r for r in self.records if not r.passed]

    def text_lines(self) -> list:
        return [r.line() for r in self.records]

    def jsonl(self) -> str:
        return "\n".join(json.dumps(r.record(), sort_keys=True) for r in self.records)
