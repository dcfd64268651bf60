"""Exact linear algebra over the rationals.

Everything downstream (cochain complexes, filtrations, spectral pages) reduces
to row reduction, kernels and subspace lattice arithmetic done here.  All
coefficients are `fractions.Fraction`, so results are exact and deterministic.
A subspace is always stored by the reduced row echelon basis of its row space,
which makes subspace equality a plain structural comparison.

Conventions: vectors are coordinate tuples, a linear map is a Matrix acting on
column vectors, and a Subspace keeps its basis as matrix rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .reports import CertificateError

Q = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_q(value) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to Fraction; refuse floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected an exact rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True, slots=True)
class Matrix:
    """Immutable dense matrix over Fraction, row-major."""

    data: tuple[tuple[Fraction, ...], ...]
    cols: int

    @classmethod
    def of(cls, rows, cols: int | None = None) -> "Matrix":
        data = tuple(tuple(as_q(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, rows have {width}")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        return cls(data, cols)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(tuple(tuple([_ZERO] * cols) for _ in range(rows)), cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)),
            n,
        )

    @staticmethod
    def vstack(*mats: "Matrix") -> "Matrix":
        if not mats:
            raise ValueError("vstack of nothing")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column count mismatch in vstack")
        rows: list[tuple[Fraction, ...]] = []
        for m in mats:
            rows.extend(m.data)
        return Matrix(tuple(rows), cols)

    @staticmethod
    def hstack(*mats: "Matrix") -> "Matrix":
        if not mats:
            raise ValueError("hstack of nothing")
        nrows = mats[0].rows
        if any(m.rows != nrows for m in mats):
            raise ValueError("row count mismatch in hstack")
        data = tuple(
            tuple(x for m in mats for x in m.data[i]) for i in range(nrows)
        )
        return Matrix(data, sum(m.cols for m in mats))

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.data), self.cols)

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(
            tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)),
            self.rows,
        )

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-x for x in r) for r in self.data), self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.data, other.data)),
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def scaled(self, c) -> "Matrix":
        c = as_q(c)
        return Matrix(tuple(tuple(c * x for x in r) for r in self.data), self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        od = other.data
        out = []
        for r in self.data:
            acc = [_ZERO] * other.cols
            for k, a in enumerate(r):
                if a:
                    orow = od[k]
                    for j in range(other.cols):
                        b = orow[j]
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(tuple(out), other.cols)

    def apply(self, vec) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != {self.cols} columns")
        v = [as_q(x) for x in vec]
        return tuple(sum((a * b for a, b in zip(r, v) if a and b), _ZERO) for r in self.data)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        rows = [list(r) for r in self.data]
        nr, nc = len(rows), self.cols
        pivots: list[int] = []
        r = 0
        for c in range(nc):
            if r == nr:
                break
            pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            lead = rows[r][c]
            if lead != 1:
                rows[r] = [x / lead for x in rows[r]]
            prow = rows[r]
            for i in range(nr):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
            pivots.append(c)
            r += 1
        return Matrix(tuple(tuple(row) for row in rows), nc), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def __str__(self) -> str:
        if not self.data:
            return f"(0x{self.cols})"
        cells = [[str(x) for x in r] for r in self.data]
        width = max(len(s) for r in cells for s in r)
        return "\n".join("[ " + "  ".join(s.rjust(width) for s in r) + " ]" for r in cells)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    return m.rref()


def rank(m: Matrix) -> int:
    return m.rank()


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    red, pivots = Matrix.hstack(m, Matrix.identity(m.rows)).rref()
    if pivots != tuple(range(m.cols)):
        raise ValueError("matrix is singular")
    return Matrix.of([row[m.cols:] for row in red.data], cols=m.cols)


@dataclass(frozen=True, slots=True)
class Subspace:
    """Subspace of Q^ambient_dim, stored by its RREF row basis (canonical)."""

    ambient_dim: int
    basis: Matrix

    @classmethod
    def from_rows(cls, ambient_dim: int, rows) -> "Subspace":
        red, pivots = Matrix.of(rows, cols=ambient_dim).rref()
        return cls(ambient_dim, Matrix(red.data[: len(pivots)], ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix((), ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains_vector(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        v = [as_q(x) for x in vec]
        for row in self.basis.data:
            p = next(j for j, x in enumerate(row) if x)
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return not any(v)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(r) for r in other.basis.data)

    def annihilator(self) -> Matrix:
        """Rows spanning the orthogonal complement: x in self iff annihilator @ x = 0."""
        return kernel_basis(self.basis).basis


def kernel_basis(m: Matrix) -> Subspace:
    """Kernel of m as a subspace of the source Q^cols."""
    red, pivots = m.rref()
    pivset = set(pivots)
    rows = []
    for f in range(m.cols):
        if f in pivset:
            continue
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -red.data[i][f]
        rows.append(v)
    return Subspace.from_rows(m.cols, rows)


def image(m: Matrix, sub: Subspace | None = None) -> Subspace:
    """Column space of m, or the image m(sub) when a source subspace is given."""
    if sub is None:
        gens = [m.column(j) for j in range(m.cols)]
    else:
        if sub.ambient_dim != m.cols:
            raise ValueError("ambient dimension mismatch")
        gens = [m.apply(r) for r in sub.basis.data]
    return Subspace.from_rows(m.rows, gens)


def preimage(m: Matrix, sub: Subspace) -> Subspace:
    """{x : m @ x in sub} as a subspace of the source."""
    if sub.ambient_dim != m.rows:
        raise ValueError("ambient dimension mismatch")
    return kernel_basis(sub.annihilator() @ m)


def sum_and_intersect(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """(a + b, a cap b) in one Zassenhaus elimination."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = a.ambient_dim
    zero = [_ZERO] * d
    rows = [list(r) + list(r) for r in a.basis.data]
    rows += [list(r) + zero for r in b.basis.data]
    red, pivots = Matrix.of(rows, cols=2 * d).rref()
    sum_rows, int_rows = [], []
    for i, p in enumerate(pivots):
        if p < d:
            sum_rows.append(red.data[i][:d])
        else:
            int_rows.append(red.data[i][d:])
    return Subspace.from_rows(d, sum_rows), Subspace.from_rows(d, int_rows)


def quotient_map(v: Subspace, w: Subspace) -> tuple[Matrix, Matrix]:
    """Coset representatives and coordinate projection for v/w.

    Returns (reps, proj): reps has k = dim v - dim w rows which represent a
    basis of v/w, and proj is a k x ambient matrix such that for any x in v
    the quotient coordinates of [x] are proj @ x.  In particular
    proj @ x = 0 iff x in w, and proj @ reps[i] = e_i.
    """
    if v.ambient_dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not v.contains(w):
        raise ValueError("quotient undefined: denominator is not contained in numerator")
    d = v.ambient_dim
    rows = [list(r) for r in w.basis.data]
    reps: list[list[Fraction]] = []
    current = Subspace.from_rows(d, rows)
    for cand in v.basis.data:
        if not current.contains_vector(cand):
            reps.append(list(cand))
            rows.append(list(cand))
            current = Subspace.from_rows(d, rows)
    k = len(reps)
    if k == 0:
        return Matrix((), d), Matrix((), d)
    # rows = w-basis then reps: independent and spanning v.  Row-reduce with a
    # tracked transform E (R = E @ C) to read off coordinates along the pivot
    # columns of the reduced basis.
    c_mat = Matrix.of(rows, cols=d)
    red, pivots = Matrix.hstack(c_mat, Matrix.identity(c_mat.rows)).rref()
    if len(pivots) != c_mat.rows or any(p >= d for p in pivots):
        raise CertificateError("quotient_map: combined basis was not independent")
    nb = c_mat.rows
    proj_rows = []
    for i in range(nb - k, nb):
        rowv = [_ZERO] * d
        for l in range(nb):
            val = red.data[l][d + i]
            if val:
                rowv[pivots[l]] = val
        proj_rows.append(rowv)
    return Matrix.of(reps, cols=d), Matrix.of(proj_rows, cols=d)
