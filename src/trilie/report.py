"""Structured pass/fail reports for law checks.

Every verifier in this package returns a CheckReport rather than a bare bool:
the caller gets the number of instances checked, the number skipped because a
table entry was missing, and a capped list of concrete counterexamples. A
check whose status is None was not run (its precondition failed); the report
says why.

A report is computed once per checked object and shared from then on.
The checks decorated with `stored_on` keep their report in a field of
the object they check, and every later call on that object returns the
same report, so the flag check on load, the command line suites and
the flags written after a construction all reuse one verdict.  This is
sound because bundles, algebras and representations are never changed
after construction.  A report is never mutated after it is returned:
a caller that wants another name or more checks builds a new report
(`CheckReport.renamed`, or a new SuiteReport over `list(suite.checks)`).

Both report classes are plain classes rather than dataclasses, so that
importing the package does not import `dataclasses` (and with it
`inspect`), which every command would pay for at start-up.  Two reports
are equal when all their fields are.
"""

from __future__ import annotations

import functools

MAX_FAILURES = 5


class CheckReport:
    __slots__ = ("name", "passed", "checked", "skipped", "failures",
                 "failure_count", "detail")

    def __init__(self, name: str, passed: bool | None = True,
                 checked: int = 0, skipped: int = 0,
                 failures: list | None = None, failure_count: int = 0,
                 detail: str = ""):
        self.name = name
        self.passed = passed
        self.checked = checked
        self.skipped = skipped
        self.failures = [] if failures is None else failures
        self.failure_count = failure_count
        self.detail = detail

    def _fields(self) -> tuple:
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        body = ", ".join(f"{slot}={value!r}" for slot, value
                         in zip(self.__slots__, self._fields()))
        return f"CheckReport({body})"

    def renamed(self, name: str) -> "CheckReport":
        """A copy of this report under another name."""
        return CheckReport(name, self.passed, self.checked, self.skipped,
                           self.failures, self.failure_count, self.detail)

    def record(self, witness) -> None:
        """Record one failing instance. Keeps at most MAX_FAILURES witnesses."""
        self.passed = False
        self.failure_count += 1
        if len(self.failures) < MAX_FAILURES:
            self.failures.append(witness)

    def tick(self, n: int = 1) -> None:
        self.checked += n

    def skip(self, n: int = 1) -> None:
        self.skipped += n

    def block(self, reason: str) -> None:
        """Mark the check as not run (precondition failed)."""
        self.passed = None
        self.detail = reason

    @property
    def status(self) -> str:
        if self.passed is None:
            return "blocked"
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "status": self.status,
            "checked": self.checked,
            "skipped": self.skipped,
            "failures": self.failure_count,
        }
        if self.failures:
            d["witnesses"] = self.failures
        if self.detail:
            d["detail"] = self.detail
        return d

    def line(self) -> str:
        s = f"{self.name}: {self.status} ({self.checked} checked"
        if self.skipped:
            s += f", {self.skipped} skipped"
        if self.failure_count:
            s += f", {self.failure_count} failed"
        s += ")"
        if self.detail:
            s += f" [{self.detail}]"
        return s


class SuiteReport:
    __slots__ = ("name", "checks")

    def __init__(self, name: str, checks: list | None = None):
        self.name = name
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.checks) == (other.name, other.checks)

    def __repr__(self):
        return f"SuiteReport(name={self.name!r}, checks={self.checks!r})"

    def add(self, check: CheckReport) -> CheckReport:
        self.checks.append(check)
        return check

    def extend(self, other: "SuiteReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        """True when every check that ran passed. Blocked checks don't fail the suite."""
        return all(c.passed is not False for c in self.checks)

    def find(self, name: str) -> CheckReport:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [f"suite {self.name}: {'pass' if self.passed else 'FAIL'}"]
        lines.extend("  " + c.line() for c in self.checks)
        return "\n".join(lines)


def stored_on(slot: str, owner: int = 0):
    """Compute a check once per object: keep its report in `slot`.

    `slot` is a `__slots__` field of the check's argument at position
    `owner`; it is unset until the first call.  The report is stored
    with the other arguments and reused while they are the same
    objects, so a check of two objects (an algebra and a
    representation of it) is recomputed only for a new partner.
    """
    def decorate(check):
        @functools.wraps(check)
        def stored(*args):
            obj = args[owner]
            others = args[:owner] + args[owner + 1:]
            hit = getattr(obj, slot, None)
            if hit is not None and all(
                    a is b for a, b in zip(hit[0], others)):
                return hit[1]
            report = check(*args)
            setattr(obj, slot, (others, report))
            return report
        return stored
    return decorate
