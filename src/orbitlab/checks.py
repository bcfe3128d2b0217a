"""The result of every verification check in the package.

A check reports its id, how many cases it compared, the first witnesses of
failure, what it covered and a free-text note.  Its verdict is derived, not
stored: a check passes exactly when it found no witness, so a report can
never say FAIL without a witness, or PASS with one.  Reports carry the JSON
form, one entry per check.  This module imports nothing from the package, so
every layer can return it.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    checked: int
    witnesses: list = field(default_factory=list)
    coverage: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def __bool__(self):
        return self.passed

    def to_json(self):
        return {
            "id": self.name,
            "pass": self.passed,
            "checked": self.checked,
            "witnesses": [repr(w) for w in self.witnesses[:5]],
            "coverage": self.coverage,
            "notes": self.notes,
        }
