"""Structured pass/fail records shared by the verification suites.

Each check produces one :class:`CheckRecord`, which renders itself as a
text line (``line``) or a JSON-safe dict (``record``); a :class:`Report`
is an ordered list of them.  ``tameplane.lab.suites`` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass


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


class Report:
    def __init__(self):
        self.records: list = []

    def add(self, check: str, expected, got, **parameters) -> bool:
        """Append a record; the check passes iff expected == got."""
        ok = expected == got
        self.records.append(CheckRecord(check, parameters, expected, got, ok))
        return ok

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)
