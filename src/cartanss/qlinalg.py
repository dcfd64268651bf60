"""Exact linear algebra over the rationals.

Everything downstream (cochain complexes, filtrations, spectral pages) reduces
to row reduction, kernels, images and quotients done here.  All
coefficients are `fractions.Fraction`, so results are exact and deterministic.
A subspace is always given by the reduced row echelon basis of its row space,
which makes subspace equality a plain structural comparison.

Conventions: vectors are coordinate tuples, a linear map is a Matrix acting on
column vectors, and a Subspace keeps its basis as matrix rows.

Spaces are sparse first.  A Subspace is made from its echelon, {pivot:
{column: value} past the pivot}, and its dense `basis` matrix is built only
when something reads it; a `Quotient` keeps its representatives by their
pivots and the projection as the class of each pivot, and builds the dense
`reps` and `proj` only when read.  Dense rows are built at the edges: the
dense-matrix API (`Matrix.rref`, `kernel_basis`, `image`), rendering and the
tests.

Row reduction has one core, `_echelon`, which works over the integers: each
nonzero row is scaled by the lcm of its denominators and kept as a sparse
{column: int} row, rows are combined fraction-free and made primitive (gcd
content removed), and `_reduced` divides each row by its pivot once, at the
end.  The reduced echelon form is unique, so `rref`, `rank`, `inverse`,
`Subspace.from_rows`, `image` and `quotient_map` give the same Fractions as
dense Gauss-Jordan elimination.  One row, or one column, skips the core.
There is one kernel routine, `sparse_kernel`, over sparse rows: it reduces
once, with the columns reversed, and the kernel vectors solved from that
form are already the reduced echelon basis of the kernel; `kernel_basis` is
its wrapper for a dense Matrix.

The matrices of the spectral sequence are mostly zero, so the hot paths skip
zeros: `apply_sparse` applies a map from the nonzero entries of its columns,
and elimination against an echelon visits only the rows whose pivots it
meets.  `quotient_map` builds v/w in one pass of a sparse echelon over w's
rows and then v's, with no row reduction per representative; given a
coordinate window it reads only the window's columns, which divides v also
by its part that vanishes there.  `Quotient.class_of` reads the class of a
sparse vector in one elimination through v's echelon, whose residual is also
the check that the vector lies in v.  `sparse_rank` counts the rank of
sparse vectors by the forward pass of the integer core alone.
`graded_cohomology` takes a zero map's kernel and image without any
elimination; `cohomology_dims` counts the same dimensions from ranks alone.
`Matrix.apply` and `Subspace.contains_vector` are the dense counterparts, for
vectors given as coordinate tuples.  Preimages, sums and intersections of
subspaces are not needed by the engine; `tests/oracles.py` keeps them, by
dense elimination, as the definitions the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

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


def nonzero_entries(vec) -> dict[int, Fraction]:
    """The nonzero coordinates of vec, as column -> value in increasing column order."""
    return {j: as_q(x) for j, x in enumerate(vec) if x}


SparseColumns = tuple[tuple[tuple[int, Fraction], ...], ...]


def apply_sparse(cols: SparseColumns, x: dict[int, Fraction]) -> dict[int, Fraction]:
    """m @ x for m given by its columns' nonzero entries and x by its own.

    Only the columns where x is nonzero are visited; the result keeps only
    its nonzero entries.
    """
    out: dict[int, Fraction] = {}
    for j, a in x.items():
        for i, c in cols[j]:
            y = out.get(i)
            out[i] = c * a if y is None else y + c * a
    return {i: y for i, y in out.items() if y}


def _primitive(x: dict[int, int]) -> dict[int, int]:
    """x divided by the gcd of its entries."""
    g = gcd(*x.values())
    return x if g == 1 else {j: v // g for j, v in x.items()}


def _integer_rows(rows) -> list[dict[int, int]]:
    """Each row of (column, Fraction) pairs as a primitive {column: int} multiple."""
    out = []
    for entries in rows:
        den = lcm(*[x.denominator for _, x in entries])
        if den == 1:
            out.append(_primitive({j: x.numerator for j, x in entries}))
        else:
            out.append(_primitive({j: x.numerator * (den // x.denominator) for j, x in entries}))
    return out


def _combine(x: dict[int, int], row: dict[int, int], col: int) -> dict[int, int]:
    """a x - c row, with a and c the entries at col over their gcd, so col cancels.

    x may be updated in place; row is only read.
    """
    a, c = row[col], x[col]
    g = gcd(a, c)
    if g != 1:
        a //= g
        c //= g
    if a != 1:
        x = {j: a * v for j, v in x.items()}
    for j, v in row.items():
        w = x.get(j, 0) - c * v
        if w:
            x[j] = w
        else:
            del x[j]
    return x


def _triangular(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form of integer rows, as {pivot: row}, not yet reduced.

    Rows enter one at a time.  While a row's leading column is another row's
    pivot, that entry is cancelled by an integer combination of the two, so
    no entry ever leaves Z; a row that survives is made primitive and keeps
    its leading column as its pivot.  The number of pivots is the rank.
    """
    echelon: dict[int, dict[int, int]] = {}
    for x in rows:
        pivot = min(x)
        while pivot in echelon:
            x = _combine(x, echelon[pivot], pivot)
            if not x:
                break
            pivot = min(x)
        else:
            echelon[pivot] = _primitive(x)
    return echelon


def _echelon(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free reduced echelon form of integer rows, as (pivot, row) by pivot.

    After `_triangular`, every entry at another row's pivot is cancelled the
    same way, later pivots first, which leaves each row a multiple of its
    row in the RREF: dividing by the entry at the pivot gives it.
    """
    echelon = _triangular(rows)
    pivots = sorted(echelon)
    for pivot in reversed(pivots):
        x = echelon[pivot]
        # a reduced row is zero at every other pivot, so cancelling one of
        # these entries brings in no new one
        targets = [j for j in x if j != pivot and j in echelon]
        if targets:
            for j in targets:
                x = _combine(x, echelon[j], j)
            echelon[pivot] = _primitive(x)
    return [(pivot, echelon[pivot]) for pivot in pivots]


def sparse_rank(vectors) -> int:
    """Rank of vectors given sparse, as {column: value}.

    One forward pass of the integer core, with no dense row and no back
    reduction; zero entries and zero vectors count for nothing.
    """
    rows = [entries for entries in ([(j, a) for j, a in x.items() if a] for x in vectors)
            if entries]
    return len(_triangular(_integer_rows(rows))) if rows else 0


def _nonzero_rows(data) -> list[list[tuple[int, Fraction]]]:
    """The nonzero rows of dense data, each as its (column, value) pairs in order."""
    rows = ([(j, x) for j, x in enumerate(row) if x] for row in data)
    return [entries for entries in rows if entries]


def _reduced(rows, cols: int) -> dict[int, dict[int, Fraction]]:
    """The RREF of nonzero sparse rows, as {pivot: {column: value} past the pivot}.

    rows are lists of (column, Fraction) pairs in increasing column order,
    zeros left out.  The first
    row, divided by its leading entry, is the whole answer when it is the
    only one or when there is one column.  Any other set of rows goes through
    the integer elimination `_echelon`, and each row is divided by its pivot
    once, at the end.
    """
    if not rows:
        return {}
    if len(rows) == 1 or cols == 1:
        (pivot, lead), *tail = rows[0]
        return {pivot: {j: x / lead for j, x in tail}}
    out = {}
    for pivot, row in _echelon(_integer_rows(rows)):
        lead = row.pop(pivot)
        if lead == 1:
            out[pivot] = {j: Fraction(v) for j, v in row.items()}
        elif lead == -1:
            out[pivot] = {j: Fraction(-v) for j, v in row.items()}
        else:
            out[pivot] = {j: Fraction(v, lead) for j, v in row.items()}
    return out


def _dense_rows(echelon: dict[int, dict[int, Fraction]], cols: int) -> list[tuple[Fraction, ...]]:
    """The rows {pivot: tail} of an echelon as dense tuples: 1 at the pivot, tail past it."""
    out = []
    for pivot, tail in echelon.items():
        row = [_ZERO] * cols
        row[pivot] = _ONE
        for j, a in tail.items():
            row[j] = a
        out.append(tuple(row))
    return out


def sparse_kernel(rows, cols: int) -> dict[int, dict[int, Fraction]]:
    """The kernel of a map Q^cols -> Q^k given by its rows, as its RREF echelon.

    rows are the map's rows as lists of (column, value) pairs of their
    nonzero entries; zero rows may be left out, and with no rows the kernel
    is the whole space, with no elimination.  The result is {free column:
    {column: value} past it}, as `Subspace.echelon` gives them.

    One elimination: the rows are reduced with their columns reversed, by
    the integer core `_echelon`.  Solving for the pivots of that form writes
    each kernel vector as 1 at its free column f plus entries at pivot
    columns to the right of f only, so the vectors by ascending f are
    already the reduced echelon basis of the kernel, and each entry is one
    integer ratio read off a reduced row.
    """
    last = cols - 1
    rows = [[(last - j, x) for j, x in row] for row in rows if row]
    echelon = _echelon(_integer_rows(rows)) if rows else []
    bound = {last - p for p, _ in echelon}
    kernel: dict[int, dict[int, Fraction]] = {f: {} for f in range(cols) if f not in bound}
    # later reversed pivots first: the original columns come in increasing order
    for p, row in reversed(echelon):
        lead = -row.pop(p)
        col = last - p
        for c, v in row.items():
            kernel[last - c][col] = Fraction(v, lead)
    return kernel


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

    @classmethod
    def from_columns(cls, columns, rows: int) -> "Matrix":
        """The rows x len(columns) matrix whose j-th column is columns[j], as {row: value}."""
        data = [[_ZERO] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, a in col.items():
                data[i][j] = a
        return cls(tuple(map(tuple, data)), len(columns))

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

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

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
        """Matrix times column vector; only the nonzero entries of vec are visited."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != {self.cols} columns")
        nz = nonzero_entries(vec).items()
        out = []
        for r in self.data:
            acc = _ZERO
            for j, x in nz:
                a = r[j]
                if a:
                    acc += a * x
            out.append(acc)
        return tuple(out)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices, by `_reduced`."""
        nc = self.cols
        echelon = _reduced(_nonzero_rows(self.data), nc)
        out = _dense_rows(echelon, nc)
        if len(out) < len(self.data):
            out.extend([(_ZERO,) * nc] * (len(self.data) - len(out)))
        return Matrix(tuple(out), nc), tuple(echelon)

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


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class Subspace:
    """Subspace of Q^ambient_dim, given by its RREF row basis (canonical).

    A Subspace is made from its RREF rows in sparse form (from_echelon: each
    row's pivot and its other nonzero entries) or dense (`Subspace(d,
    basis)`); the other form is built on first use and kept.  Equality, hash
    and repr are those of the pair (ambient_dim, basis), as for a dataclass
    of those two fields.
    """

    ambient_dim: int
    _basis: Matrix | None
    _echelon: dict | None

    def __init__(self, ambient_dim: int, basis: Matrix):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_echelon", None)

    @property
    def basis(self) -> Matrix:
        """The RREF basis rows as a dense matrix."""
        basis = self._basis
        if basis is None:
            basis = Matrix(tuple(_dense_rows(self._echelon, self.ambient_dim)), self.ambient_dim)
            object.__setattr__(self, "_basis", basis)
        return basis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self.basis) == (other.ambient_dim, other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"{type(self).__qualname__}(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"

    def echelon(self) -> dict[int, dict[int, Fraction]]:
        """{pivot: {column: value} past the pivot} for the basis rows, in order."""
        ech = self._echelon
        if ech is None:
            ech = {}
            for row in self._basis.data:
                entries = nonzero_entries(row)
                pivot = next(iter(entries))
                del entries[pivot]  # the leading entry of an RREF row is 1
                ech[pivot] = entries
            object.__setattr__(self, "_echelon", ech)
        return ech

    def sparse_row(self, pivot: int) -> dict[int, Fraction]:
        """The basis row with this pivot, as {column: value}."""
        return {pivot: _ONE, **self.echelon()[pivot]}

    @classmethod
    def from_echelon(cls, ambient_dim: int, echelon: dict[int, dict[int, Fraction]]) -> "Subspace":
        """The subspace whose RREF rows are given in sparse form, as echelon() returns them."""
        out = cls(ambient_dim, None)
        object.__setattr__(out, "_echelon", echelon)
        return out

    @classmethod
    def from_rows(cls, ambient_dim: int, rows) -> "Subspace":
        rows = _nonzero_rows(Matrix.of(rows, cols=ambient_dim).data)
        return cls.from_echelon(ambient_dim, _reduced(rows, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.from_echelon(ambient_dim, {})

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_echelon(ambient_dim, {i: {} for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        ech = self._echelon
        return self._basis.rows if ech is None else len(ech)

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains_vector(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        residual = nonzero_entries(vec)
        _eliminate(residual, self.echelon())
        return not any(residual.values())

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains_vector(r) for r in other.basis.data)


def kernel_basis(m: Matrix) -> Subspace:
    """Kernel of m as a subspace of the source Q^cols: `sparse_kernel` of its rows."""
    return Subspace.from_echelon(m.cols, sparse_kernel(_nonzero_rows(m.data), m.cols))


def image(m: Matrix, sub: Subspace | None = None) -> Subspace:
    """Column space of m, or the image m(sub) when a source subspace is given."""
    if sub is None:
        gens = [m.column(j) for j in range(m.cols)]
    else:
        if sub.ambient_dim != m.cols:
            raise ValueError("ambient dimension mismatch")
        gens = [m.apply(r) for r in sub.basis.data]
    return Subspace.from_rows(m.rows, gens)


def _eliminate(
    x: dict[int, Fraction], rows: dict[int, dict[int, Fraction]]
) -> list[tuple[int, Fraction]]:
    """Reduce x in place by echelon rows given as {pivot: tail}.

    Each row is 1 at its pivot, zero before it and `tail` past it, so a row
    changes x only past its pivot: taking the entries of x at pivots in
    increasing column order reduces x fully, and visits only the rows used.
    Returns (pivot, multiplier) for every row subtracted, in that order;
    entries of x that cancel are left behind as zeros.
    """
    heap = [j for j in x if j in rows]
    heapify(heap)
    used = []
    while heap:
        pivot = heappop(heap)
        c = x.pop(pivot)
        if c:
            for j, a in rows[pivot].items():
                y = x.get(j)
                if y is None:
                    x[j] = -c * a
                    if j in rows:
                        heappush(heap, j)
                else:
                    x[j] = y - c * a
            used.append((pivot, c))
    return used


@dataclass(frozen=True, slots=True)
class Quotient:
    """v/w as quotient_map presents it: representatives and a sparse projection.

    The representatives are k rows of v that represent a basis of v/w, kept
    by their pivots in v's echelon: pivots[i] is the pivot of the i-th.
    classes maps each pivot of v to the class of its basis row, {i: a} for
    the nonzero coordinates along the representatives.  Any x in v is the
    sum of x[pivot] times v's basis rows, so its class is those classes
    weighted by x at v's pivots: `class_of` reads it from x's nonzero
    entries.  The dense forms are built on first use: `reps`, the
    representatives as a k x ambient matrix, and `proj`, the same map as
    `class_of` as a k x ambient matrix.  Unpacking gives (reps, proj).
    """

    space: Subspace
    pivots: tuple[int, ...]
    classes: dict[int, dict[int, Fraction]]
    _reps: Matrix | None = field(default=None, init=False, repr=False, compare=False)
    _proj: Matrix | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def reps(self) -> Matrix:
        reps = self._reps
        if reps is None:
            ech = self.space.echelon()
            d = self.space.ambient_dim
            reps = Matrix(tuple(_dense_rows({p: ech[p] for p in self.pivots}, d)), d)
            object.__setattr__(self, "_reps", reps)
        return reps

    @property
    def proj(self) -> Matrix:
        proj = self._proj
        if proj is None:
            d = self.space.ambient_dim
            rows = [[_ZERO] * d for _ in range(self.dim)]
            for pivot, cls in self.classes.items():
                for i, a in cls.items():
                    rows[i][pivot] = a
            proj = Matrix(tuple(tuple(row) for row in rows), d)
            object.__setattr__(self, "_proj", proj)
        return proj

    def __iter__(self):
        return iter((self.reps, self.proj))

    def class_of(self, x: dict[int, Fraction]) -> dict[int, Fraction] | None:
        """The class of x, given as {column: value}, or None when x is not in v.

        One `_eliminate` pass through v's echelon: a nonzero residual means x
        is not in v, and otherwise the multipliers, which are x at v's
        pivots, weigh the classes of those pivots.  x is used up.
        """
        used = _eliminate(x, self.space.echelon())
        if any(x.values()):
            return None
        acc: dict[int, Fraction] = {}
        classes = self.classes
        for pivot, c in used:
            for i, a in classes[pivot].items():
                y = acc.get(i)
                acc[i] = c * a if y is None else y + c * a
        return {i: a for i, a in acc.items() if a}


def quotient_map(v: Subspace, w, window: tuple[int, int] | None = None) -> Quotient:
    """Coset representatives and coordinate projection for v/w.

    The result unpacks as (reps, proj): reps has k = dim v - dim w rows which
    represent a basis of v/w, and proj is a k x ambient matrix such that for
    any x in v the quotient coordinates of [x] are proj @ x.  In particular
    proj @ x = 0 iff x in w, and proj @ reps[i] = e_i.  The Quotient also
    keeps proj sparse, as the class of each of v's pivots, and reads the
    class of a sparse vector with `class_of`.

    One pass: w's rows, then v's basis rows in order, go into one sparse
    echelon whose rows carry their class modulo w as coordinates along the
    representatives.  A row of v that the echelon does not reduce to zero is
    the next representative (the first k rows of v independent modulo w);
    one that it does reduce has its class read off the multipliers.  The
    echelon also counts dim(v + w), which equals dim v exactly when w lies
    in v; that is the containment check, and a failing one raises ValueError.

    With window = (lo, hi), w is a list of vectors, each given by its
    nonzero entries as {column: value}, and the quotient is
    v / (span w + {x in v : x is zero on columns lo .. hi-1}).  The echelon
    then reads columns lo .. hi-1 only, and the containment check is that
    each vector of w, reduced by v's basis rows, leaves nothing.  The
    representatives are still rows of v, chosen by the same rule, so reps
    and proj are those of the quotient by the full divisor.
    """
    d = v.ambient_dim
    if window is None:
        if w.ambient_dim != d:
            raise ValueError("ambient dimension mismatch")
        rows = dict(w.echelon())
        lo, hi = 0, d
    else:
        lo, hi = window
        rows = {}
    tags: dict[int, dict[int, Fraction]] = {pivot: {} for pivot in rows}  # class of each row

    def insert(residual: dict[int, Fraction], tag: dict[int, Fraction]) -> None:
        pivot = min(residual)
        lead = residual.pop(pivot)
        if lead != 1:
            residual = {j: a / lead for j, a in residual.items()}
            tag = {i: a / lead for i, a in tag.items()}
        rows[pivot] = residual
        tags[pivot] = tag

    if window is not None:
        for y in w:
            if y and max(y) >= d:
                raise ValueError("ambient dimension mismatch")
            residual = dict(y)
            _eliminate(residual, v.echelon())
            if any(residual.values()):
                raise ValueError("quotient undefined: denominator is not contained in numerator")
            x = {j: a for j, a in y.items() if lo <= j < hi}
            _eliminate(x, rows)
            x = {j: a for j, a in x.items() if a}
            if x:
                insert(x, {})
    wdim = len(rows)
    pivots = []  # of the representatives
    classes = {}  # class of each basis row of v, by its pivot
    for vpivot, vtail in v.echelon().items():
        x = {j: a for j, a in ((vpivot, _ONE), *vtail.items()) if lo <= j < hi}
        acc: dict[int, Fraction] = {}
        for pivot, c in _eliminate(x, rows):
            for i, t in tags[pivot].items():
                acc[i] = acc.get(i, _ZERO) + c * t
        residual = {j: a for j, a in x.items() if a}
        if not residual:
            classes[vpivot] = {i: a for i, a in acc.items() if a}
            continue
        # residual = v's row - (rows subtracted), so its class is e_i - acc
        i = len(pivots)
        pivots.append(vpivot)
        classes[vpivot] = {i: _ONE}
        acc = {j: -a for j, a in acc.items()}
        acc[i] = _ONE
        insert(residual, acc)
    if window is None and len(pivots) != v.dim - wdim:
        raise ValueError("quotient undefined: denominator is not contained in numerator")
    return Quotient(v, tuple(pivots), classes)


def cohomology_at(
    here: Matrix | None, below: Matrix | None, cols: int
) -> tuple[Subspace, Subspace, Quotient]:
    """(ker d_q, im d_(q-1), ker / im) on Q^cols, with None for a zero map.

    A zero d_q has the whole space as kernel and a zero d_(q-1) the zero
    space as image, with no elimination.
    """
    ker = Subspace.full(cols) if here is None else kernel_basis(here)
    img = Subspace.zero(cols) if below is None else image(below)
    return ker, img, quotient_map(ker, img)


def graded_cohomology(maps):
    """Cohomology of a cochain complex given by its differentials d_0, d_1, ...

    Per degree q, in order, yields cohomology_at: (ker d_q, im d_{q-1},
    quotient_map(ker, im)), whose reps represent a basis of H^q.
    maps may be lazy: each d_q is read once, used as a kernel and kept as the
    next degree's image, and a consumer that stops early builds no more.
    Raises ValueError where im d_{q-1} is not inside ker d_q (d^2 != 0).
    """
    below = None  # d_{q-1} when it has a nonzero entry
    for m in maps:
        here = None if m.is_zero() else m
        yield cohomology_at(here, below, m.cols)
        below = here


def cohomology_dims(maps) -> tuple[int, ...]:
    """dim H^q = cols(d_q) - rank d_q - rank d_(q-1) per degree, by ranks alone.

    The dimension-only counterpart of graded_cohomology, with no kernels,
    images or representatives; each d_q is read once.  It trusts d^2 = 0.
    """
    dims = []
    below = 0  # rank d_(q-1)
    for m in maps:
        rk = m.rank()
        dims.append(m.cols - rk - below)
        below = rk
    return tuple(dims)
