"""Validation check bookkeeping shared by the validators, and the certificate error."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        head = "ok" if self.passed else "FAIL"
        out = [f"{self.subject}: {head}"]
        out.extend("  " + c.line() for c in self.checks)
        return out


class CertificateError(RuntimeError):
    """An internal identity of the exact computation does not hold.

    Raised explicitly rather than by `assert`, so the check still runs under
    `python -O`.  `cell` is the (p, q) spot and `page` the page index where
    the identity broke, when the failure has one.
    """

    def __init__(self, what: str, cell: tuple[int, int] | None = None,
                 page: int | None = None):
        self.cell = cell
        self.page = page
        where = []
        if page is not None:
            where.append(f"page E_{page}")
        if cell is not None:
            where.append(f"cell (p,q)=({cell[0]},{cell[1]})")
        super().__init__(what + (f" at {', '.join(where)}" if where else ""))
