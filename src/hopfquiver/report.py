"""Verification reports: deterministic, machine-readable lists of violations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    check: str
    witness: tuple
    detail: str = ""

    def to_json(self):
        return {
            "check": self.check,
            "witness": _jsonify(self.witness),
            "detail": self.detail,
        }


def _jsonify(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return repr(obj)


def _sort_key(obj):
    if isinstance(obj, (list, tuple)):
        return (1, tuple(_sort_key(x) for x in obj))
    if isinstance(obj, int):
        return (0, obj)
    if hasattr(obj, "sort_key"):
        return (2, obj.sort_key())
    return (3, repr(obj))


@dataclass
class VerificationReport:
    """Outcome of one or more exhaustive checks.

    `counts` records how many instances each named check examined, so an
    empty violation list is distinguishable from a check that never ran.
    """

    violations: list[Violation] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, witness: tuple, detail: str = ""):
        self.violations.append(Violation(check, witness, detail))

    def tally(self, check: str, n: int = 1):
        self.counts[check] = self.counts.get(check, 0) + n

    def merge(self, other: "VerificationReport", prefix: str = ""):
        for v in other.violations:
            self.violations.append(Violation(prefix + v.check, v.witness, v.detail))
        for k, n in other.counts.items():
            self.tally(prefix + k, n)
        return self

    def sorted(self) -> "VerificationReport":
        out = VerificationReport(counts=dict(sorted(self.counts.items())))
        out.violations = sorted(
            self.violations, key=lambda v: (v.check, _sort_key(v.witness))
        )
        return out

    def to_json(self):
        rep = self.sorted()
        return {
            "ok": rep.ok,
            "checked": rep.counts,
            "violations": [v.to_json() for v in rep.violations],
        }
