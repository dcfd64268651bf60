"""Exact linear algebra over the rationals.

The cohomologies, invariants, E_2 frames and transgression downstream reduce
to the row reduction, kernels, cohomologies and solves done here; the spectral
sequence's own column reduction is specseq.persistence_pairing, which
shares only `_ratio` and `apply_sparse` with this module.  Every
coefficient is exact and results are deterministic.  The scalar rule: a
sparse value (echelon tails, classes, tags, sparse columns) is an `int`
where it is integral and a `fractions.Fraction` where it is not; `exact`
puts a value in that form, and `_ratio` is the one division, which keeps
an integral quotient an `int`.  Every entry of a dense `Matrix` is a
`Fraction`, converted with `as_q`.  An `int` and a `Fraction` of the same
value compare and hash alike, so the two forms never change an answer.  A
subspace is always given by the reduced row echelon basis of its row
space, which makes subspace equality a plain structural comparison.

Conventions: a dense vector is a coordinate tuple, a sparse one a {column:
value} dict, and a linear map acts on column vectors.  The engine gives each
map it reduces by its columns (SparseColumns), and `column_rows` gathers the
rows of one for elimination.

Spaces are sparse.  A Subspace keeps only its echelon, {pivot: {column:
value} past the pivot}, and a `Cohomology` keeps its cocycles as a
Subspace and its representatives by their pivots there, so the results
handed on stay sparse too; the renders write the transgression's rows from
its sparse columns.  `Matrix` is the one dense form: it is built from rows,
read by entry, and reduced by `Matrix.rref`, and no report builds one.  The
tests read spaces and cohomologies into it with the readers of
tests/oracles.py.

Row reduction has one core, a sparse echelon over Q: `_eliminate` reduces a
sparse row through echelon rows {pivot: tail}, each 1 at its pivot, visiting
only the rows whose pivots it meets, and `_insert` keeps a nonzero residual
as a new row, dividing it by its leading entry through `_ratio`.  Every
elimination here runs on it.  `_forward` is the forward pass over a list
of rows, and `sparse_rank` counts its rows; `_reduced` adds the back
substitution, from the last pivot down, and puts every value in the scalar
form with `exact`, once.  The reduced echelon form is unique, so
`Matrix.rref` and `sparse_kernel` give the same values as dense Gauss-Jordan
elimination.
There is one kernel routine, `sparse_kernel`, over sparse rows: it reduces
once, with the columns reversed, and the kernel vectors solved from that
form are already the reduced echelon basis of the kernel.

The matrices of the spectral sequence are mostly zero, so the hot paths skip
zeros: `apply_sparse` applies a map from the nonzero entries of its columns,
and elimination against an echelon visits only the rows whose pivots it
meets.  `solve_columns` solves A x = y for sparse columns of A through one
echelon of A's columns whose rows carry, as their tags, the combination of
columns each one is.  `sparse_rank` counts the rank of sparse vectors by
the forward pass alone.
`graded_cohomology` is the one cohomology of a graded complex with
representatives and `cohomology_dims` its dimensions from ranks alone; both
take each differential by its columns, and neither reduces a zero one.
The representatives are the cocycle rows whose pivots are not the lows,
the largest coordinates, of the coboundaries' echelon in the cocycles'
basis, so no quotient is built.
Products, inverses, images, preimages, sums and intersections of dense
matrices and subspaces are not needed by the engine; `tests/oracles.py`
keeps them, by dense elimination, as the definitions the tests check it
against.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .reports import ReadOnly

# sets an attribute of a ReadOnly value in its __init__
_set = object.__setattr__

# the zero and one of dense rows; sparse forms use the ints 0 and 1
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


def exact(value) -> int | Fraction:
    """as_q(value) in the engine's scalar form: an int when it is integral."""
    if type(value) is int:
        return value
    q = as_q(value)
    return q.numerator if q.denominator == 1 else q


def _ratio(a, b) -> int | Fraction:
    """a / b, exact: an int when b divides a, else a Fraction; the one division here."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


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


def _forward(rows) -> dict[int, dict[int, Fraction]]:
    """The echelon of sparse rows by the forward pass alone, as {pivot: tail}.

    rows are nonzero {column: value} dicts with no zero entry, which the
    pass uses up.  Each is reduced by `_eliminate` through the rows kept
    before it; a nonzero residual is kept by `_insert`, 1 at its pivot.  A
    kept row is zero at the pivots kept before it but not at those kept
    after, and a tail may hold an integral `Fraction`.
    """
    echelon: dict[int, dict[int, Fraction]] = {}
    for x in rows:
        if _eliminate(x, echelon):
            x = {j: a for j, a in x.items() if a}
        if x:
            _insert(echelon, x)
    return echelon


def sparse_rank(vectors) -> int:
    """Rank of vectors given sparse, as {column: value}.

    The number of rows `_forward` keeps, with no dense row and no back
    substitution; zero entries and zero vectors count for nothing, and one
    nonzero vector has rank 1 with no pass.
    """
    rows = [row for row in ({j: a for j, a in x.items() if a} for x in vectors) if row]
    return len(_forward(rows)) if len(rows) > 1 else len(rows)


def column_rows(columns) -> list[list[tuple[int, Fraction]]]:
    """The nonzero rows of a map given by its columns' nonzero entries.

    Rows come in increasing order, each as its (column, value) pairs in
    increasing column order, the form `sparse_kernel` and `_reduced` take.
    """
    rows: dict[int, list] = {}
    for j, col in enumerate(columns):
        for i, a in col:
            rows.setdefault(i, []).append((j, a))
    return [rows[i] for i in sorted(rows)]


def _reduced(rows) -> dict[int, dict[int, Fraction]]:
    """The RREF of nonzero sparse rows, as {pivot: {column: value} past the pivot}, by pivot.

    rows are lists of (column, value) pairs, zeros left out.  After
    `_forward`, each row is reduced by the rows below it, from the last
    pivot down, so the rows it meets are already reduced and bring in no
    new pivot entry.  Every value is then put in the scalar form by
    `exact`, the one place an integral `Fraction` left by the passes
    becomes an int.
    """
    echelon = _forward(map(dict, rows))
    pivots = sorted(echelon)
    for pivot in reversed(pivots):
        tail = echelon[pivot]
        if _eliminate(tail, echelon):
            tail = {j: a for j, a in tail.items() if a}
        echelon[pivot] = {j: exact(a) for j, a in tail.items()}
    return {pivot: echelon[pivot] for pivot in pivots}


def _dense_rows(echelon: dict[int, dict[int, Fraction]], cols: int) -> list[tuple[Fraction, ...]]:
    """The rows {pivot: tail} of an echelon as dense Fraction tuples: 1 at the pivot, tail after."""
    out = []
    for pivot, tail in echelon.items():
        row = [_ZERO] * cols
        row[pivot] = _ONE
        for j, a in tail.items():
            row[j] = as_q(a)
        out.append(tuple(row))
    return out


def sparse_kernel(rows, cols: int) -> dict[int, dict[int, Fraction]]:
    """The kernel of a map Q^cols -> Q^k given by its rows, as its RREF echelon.

    rows are the map's rows as lists of (column, value) pairs of their
    nonzero entries; zero rows may be left out, and with no rows the kernel
    is the whole space, with no elimination.  The result is {free column:
    {column: value} past it}, as `Subspace.echelon` gives them.

    One elimination: the rows are reduced with their columns reversed, by
    `_reduced`.  Solving for the pivots of that form writes each kernel
    vector as 1 at its free column f plus entries at pivot columns to the
    right of f only, so the vectors by ascending f are already the reduced
    echelon basis of the kernel, and each entry is minus one value of a
    reduced row.
    """
    last = cols - 1
    rows = [[(last - j, x) for j, x in row] for row in rows if row]
    echelon = _reduced(rows) if rows else {}
    kernel: dict[int, dict[int, Fraction]] = {
        f: {} for f in range(cols) if last - f not in echelon}
    # later reversed pivots first: the original columns come in increasing order
    for p in reversed(echelon):
        col = last - p
        for c, v in echelon[p].items():
            kernel[last - c][col] = -v
    return kernel


class Matrix(ReadOnly):
    """Immutable dense matrix over Fraction, row-major: data is the tuple of its rows.

    Equality, hash and repr read data and cols.  Not a named tuple: a matrix
    neither iterates as the pair (data, cols) nor equals one.
    """

    __slots__ = ("data", "cols")

    def __init__(self, data: tuple[tuple[Fraction, ...], ...], cols: int):
        _set(self, "data", data)
        _set(self, "cols", cols)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.data, self.cols) == (other.data, other.cols)

    def __hash__(self):
        return hash((self.data, self.cols))

    def __repr__(self):
        return f"{type(self).__qualname__}(data={self.data!r}, cols={self.cols!r})"

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return type(self), (self.data, self.cols)

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

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.data), self.cols)

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def sparse_columns(self) -> SparseColumns:
        """Each column's nonzero entries as (row, value) pairs, in increasing row order."""
        columns = zip(*self.data) if self.data else [()] * self.cols
        return tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in columns)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices, by `_reduced`."""
        nc = self.cols
        echelon = _reduced(column_rows(self.sparse_columns()))
        out = _dense_rows(echelon, nc)
        out.extend([(_ZERO,) * nc] * (len(self.data) - len(out)))
        return Matrix(tuple(out), nc), tuple(echelon)


class Subspace(ReadOnly):
    """Subspace of Q^ambient_dim, given by its RREF row basis (canonical).

    A Subspace keeps its RREF rows in sparse form, its echelon: each row's
    pivot and its other nonzero entries, as `Subspace(ambient_dim, echelon)`
    takes them.  Equality, hash and repr read ambient_dim and the echelon,
    which is canonical.
    """

    __slots__ = ("ambient_dim", "_echelon")

    def __init__(self, ambient_dim: int, _echelon: dict[int, dict[int, Fraction]]):
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "_echelon", _echelon)

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return type(self), (self.ambient_dim, self._echelon)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self._echelon) == (other.ambient_dim, other._echelon)

    def __hash__(self):
        # order-blind, like the dict equality of the echelons
        return hash((self.ambient_dim,
                     frozenset((p, frozenset(tail.items())) for p, tail in self._echelon.items())))

    def __repr__(self):
        return (f"{type(self).__qualname__}(ambient_dim={self.ambient_dim!r}, "
                f"echelon={self._echelon!r})")

    def echelon(self) -> dict[int, dict[int, Fraction]]:
        """{pivot: {column: value} past the pivot} for the basis rows, in order."""
        return self._echelon

    def sparse_row(self, pivot: int) -> dict[int, Fraction]:
        """The basis row with this pivot, as {column: value}."""
        return {pivot: 1, **self._echelon[pivot]}

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """The whole space, spanned by the unit vectors."""
        return cls(ambient_dim, {i: {} for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self._echelon)


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


def _weigh(used: list[tuple[int, Fraction]], tags: dict[int, dict[int, Fraction]]
           ) -> dict[int, Fraction]:
    """The sum of c times tags[pivot] over (pivot, c) in used, zeros left out."""
    acc: dict[int, Fraction] = {}
    for pivot, c in used:
        for i, a in tags[pivot].items():
            y = acc.get(i)
            acc[i] = c * a if y is None else y + c * a
    return {i: a for i, a in acc.items() if a}


def _insert(rows: dict[int, dict[int, Fraction]],
            residual: dict[int, Fraction]) -> tuple[int, Fraction]:
    """Add the reduced, nonzero residual to an echelon as a row with 1 at its pivot.

    The residual is divided by its leading entry; returns (pivot, leading
    entry), so a caller that tags its rows divides the tag alike.
    """
    pivot = min(residual)
    lead = residual.pop(pivot)
    if lead != 1:
        residual = {j: _ratio(a, lead) for j, a in residual.items()}
    rows[pivot] = residual
    return pivot, lead


def solve_columns(columns, targets) -> list[dict[int, Fraction]]:
    """x with sum_k x[k] columns[k] = y for each y of targets, as {k: value}.

    columns and targets are sparse vectors, {row: value}.  One tagged
    echelon of the columns, each row tagged with the combination of columns
    it is; each y is then one elimination through it, whose multipliers
    weigh the tags.  ValueError when the columns are dependent or a target
    is not in their span.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    tags: dict[int, dict[int, Fraction]] = {}
    for k, col in enumerate(columns):
        x = dict(col)
        tag = {i: -a for i, a in _weigh(_eliminate(x, rows), tags).items()}
        residual = {j: a for j, a in x.items() if a}
        if not residual:
            raise ValueError(f"column {k} depends on the columns before it")
        tag[k] = 1
        pivot, lead = _insert(rows, residual)
        tags[pivot] = tag if lead == 1 else {i: _ratio(a, lead) for i, a in tag.items()}
    out = []
    for y in targets:
        x = dict(y)
        coords = _weigh(_eliminate(x, rows), tags)
        if any(x.values()):
            raise ValueError("a target is not in the span of the columns")
        out.append(coords)
    return out


class Cohomology(namedtuple("Cohomology", "space pivots")):
    """H^q of a complex as graded_cohomology gives it: the cocycles and the
    pivots of the representatives.

    space is ker d_q, and its echelon rows at pivots represent a basis of
    H^q, the first rows of the echelon independent modulo the coboundaries.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.pivots)


def graded_cohomology(maps):
    """Cohomology of a cochain complex given by its differentials d_0, d_1, ...

    Each d_q is SparseColumns, one column per basis vector of C^q.  Per
    degree q, in order, yields the Cohomology of ker d_q / im d_(q-1), with
    no quotient built.  ker d_q is one `sparse_kernel` of d_q's rows, or
    all of C^q with no rows gathered where d_q is zero.  Each nonzero column
    y of d_(q-1) is reduced through the kernel's echelon, and a residual
    raises ValueError (d^2 != 0); the kernel is in RREF, so the multipliers
    are y's coordinates along its rows.  One `_forward` pass over those
    coordinates, the row of pivot k keyed as -k, has the largest coordinates
    of the image, its lows, as its pivots, and a kernel row is a
    representative unless its pivot is a low: e_k lies in the span of the
    image and the e_k' with k' < k exactly when k is the largest coordinate
    of an image vector.  A zero d_(q-1) reduces nothing.  maps may be lazy:
    each d_q is read once, used as a kernel and kept as the next degree's
    image, and a consumer that stops early builds no more.
    """
    below: list[dict[int, Fraction]] = []  # the nonzero columns of d_(q-1)
    for q, cols in enumerate(maps):
        size = len(cols)
        image = [dict(col) for col in cols if col]
        if image:
            ker = Subspace(size, sparse_kernel(column_rows(cols), size))
        else:
            ker = Subspace.full(size)
        echelon = ker.echelon()
        coords = []
        for y in below:
            used = _eliminate(y, echelon)
            if any(y.values()):
                raise ValueError(f"d^2 != 0: a column of d_{q - 1} is not in ker d_{q}")
            coords.append({-k: c for k, c in used})
        lows = _forward(coords)
        yield Cohomology(ker, tuple(k for k in echelon if -k not in lows))
        below = image


def cohomology_dims(maps) -> tuple[int, ...]:
    """dim H^q = dim C^q - rank d_q - rank d_(q-1) per degree, by ranks alone.

    The dimension-only counterpart of graded_cohomology, on the same
    columns, with no kernels, images or representatives: each rank is the
    `sparse_rank` of d_q's nonzero columns alone, and each d_q is read
    once, so a zero d_q ranks no column.  It trusts d^2 = 0.
    """
    dims = []
    below = 0  # rank d_(q-1)
    for cols in maps:
        rk = sparse_rank([dict(col) for col in cols if col])
        dims.append(len(cols) - rk - below)
        below = rk
    return tuple(dims)
