"""Validation check bookkeeping shared by the validators, the certificate error,
`shown` for echoing input in a message, and the read-only base of the
package's value types.

The package's plain records, such as CheckResult, ValidationReport, a
spectral page and a library card, are named tuples: their fields are
read-only, their repr is Name(field=...), and they compare and hash as the
tuple of their fields (one that holds a dict does not hash).  A value type
that keeps state outside equality, or compares in its own way, is a
ReadOnly subclass with an explicit __init__, __eq__ and __repr__, and a
__hash__ where its compared fields hash.
"""

from __future__ import annotations

from collections import namedtuple


def shown(value) -> str:
    """repr(value) for an error message, cut to a few dozen characters."""
    text = repr(value)
    return text if len(text) <= 40 else text[:36] + " ..."


class ReadOnly:
    """Base of a value type whose attributes are set once, in its __init__.

    Assigning or deleting an attribute raises AttributeError.  __init__
    sets the attributes past this refusal: with object.__setattr__ where
    the subclass keeps them in __slots__, through vars(self) otherwise.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    """One named check: whether it passed, and a detail where it says why not."""

    __slots__ = ()

    def line(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


class ValidationReport(namedtuple("ValidationReport", "subject checks")):
    """The checks of one validator, in order, on its subject."""

    __slots__ = ()

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
