"""Exact linear algebra over the rationals.

Everything downstream (cochain complexes, filtrations, spectral pages) reduces
to row reduction, kernels, images and quotients done here.  Every
coefficient is exact and results are deterministic.  The scalar rule: a
sparse value (echelon tails, classes, tags, sparse columns) is an `int`
where it is integral and a `fractions.Fraction` where it is not; `exact`
puts a value in that form, and `_ratio` is the one division, which keeps
an integral quotient an `int`.  Every entry of a dense `Matrix` is a
`Fraction`: the dense edges convert with `as_q`.  An `int` and a `Fraction`
of the same value compare and hash alike, so the two forms never change an
answer.  A subspace is always given by the reduced row echelon basis of its
row space, which makes subspace equality a plain structural comparison.

Conventions: a dense vector is a coordinate tuple, a sparse one a {column:
value} dict, and a linear map acts on column vectors.  The engine gives each
map it reduces by its columns (SparseColumns), and `column_rows` gathers the
rows of one, or its rows past a cut, for elimination.

Spaces are sparse first.  A Subspace keeps only its echelon, {pivot:
{column: value} past the pivot}, and builds its dense `basis` matrix only
when something reads it; a `Quotient` keeps its representatives by their
pivots and the projection as the class of each pivot, and builds the dense
`reps` and `proj` only when read.  Neither keeps a dense form once built.
Every cohomology is a `Quotient` per degree, so the results handed on stay
sparse too.  A coordinate prefix [0, k), the span of the first k unit
vectors, is a recognised form of Subspace that keeps k (`prefix`): a
vector lies in it iff it has no nonzero entry at or past k, and its
coordinates are its own entries, so `quotient_map` and `class_of` on a
prefix eliminate only among the divisor's vectors, and a prefix quotient
that no divisor vector touches on the window is the window itself.  Dense
rows are built at the edges only: the public `basis`, `reps` and `proj`,
and the tests; the renders write the transgression's rows from its sparse
columns.  `Matrix` is that dense form: it is built from rows, read by
entry, and reduced by `Matrix.rref`, which no report calls.

Row reduction has one core, a sparse echelon over Q: `_eliminate` reduces a
sparse row through echelon rows {pivot: tail}, each 1 at its pivot, visiting
only the rows whose pivots it meets, and `_insert` keeps a nonzero residual
as a new row, dividing it by its leading entry through `_ratio`.  Every
elimination here runs on it.  `_forward` is the forward pass over a list
of rows, and `sparse_rank` counts its rows; `_reduced` adds the back
substitution, from the last pivot down, and puts every value in the scalar
form with `exact`, once.  The reduced echelon form is unique, so
`Matrix.rref` and `quotient_map` give the same values as dense Gauss-Jordan
elimination.
There is one kernel routine, `sparse_kernel`, over sparse rows: it reduces
once, with the columns reversed, and the kernel vectors solved from that
form are already the reduced echelon basis of the kernel.

The matrices of the spectral sequence are mostly zero, so the hot paths skip
zeros: `apply_sparse` applies a map from the nonzero entries of its columns,
and elimination against an echelon visits only the rows whose pivots it
meets.  `quotient_map` builds v / span w, w given as sparse vectors, in one
pass of a sparse echelon over w and then v's rows; given a coordinate window
it reads only the window's columns, which divides v also by its part that
vanishes there.  `Quotient.class_of` reads the class of a sparse vector in
one elimination through v's echelon, whose residual is also the check that
the vector lies in v.  `solve_columns` solves A x = y for sparse columns of
A the same way, through one echelon of A's columns whose rows carry, as
their tags, the combination of columns each one is.  `sparse_rank` counts
the rank of sparse vectors by the forward pass alone.
`graded_cohomology` is the one cohomology of a graded complex with
representatives and `cohomology_dims` its dimensions from ranks alone; both
take each differential by its columns, and neither reduces a zero one.
Products, inverses, images, preimages, sums and intersections of dense
matrices and subspaces are not needed by the engine; `tests/oracles.py`
keeps them, by dense elimination, as the definitions the tests check it
against.
"""

from __future__ import annotations

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
    tags: dict[int, dict[int, Fraction]] = {}  # unused: the rows name no combination
    for x in rows:
        if _eliminate(x, echelon):
            x = {j: a for j, a in x.items() if a}
        if x:
            _insert(echelon, tags, x, {})
    return echelon


def sparse_rank(vectors) -> int:
    """Rank of vectors given sparse, as {column: value}.

    The number of rows `_forward` keeps, with no dense row and no back
    substitution; zero entries and zero vectors count for nothing, and one
    nonzero vector has rank 1 with no pass.
    """
    rows = [row for row in ({j: a for j, a in x.items() if a} for x in vectors) if row]
    return len(_forward(rows)) if len(rows) > 1 else len(rows)


def column_rows(columns, start: int = 0) -> list[list[tuple[int, Fraction]]]:
    """The nonzero rows at or past start of a map given by its columns' nonzero entries.

    Rows come in increasing order, each as its (column, value) pairs in
    increasing column order, the form `sparse_kernel` and `_reduced` take.
    """
    rows: dict[int, list] = {}
    for j, col in enumerate(columns):
        for i, a in col:
            if i >= start:
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
    pivot and its other nonzero entries (from_echelon).  The dense `basis`
    matrix is built each time it is read.  Equality and hash compare
    ambient_dim and the echelon, which is canonical; repr names those two
    as Subspace(ambient_dim=..., basis=...), with the dense basis.

    A space whose rows are the first k unit vectors is the coordinate
    prefix [0, k), and keeps k as `prefix` (None for any other space).
    `prefix_space` and `full` build one and `from_echelon`
    recognises one; its echelon, equality, hash and repr are those of any
    other Subspace.  A prefix row is the unit vector at its pivot, so x is
    in the space iff x has no nonzero entry at or past k, and x at the
    pivots is x itself: `quotient_map` and `Quotient.class_of` read both
    off x with no elimination.
    """

    __slots__ = ("ambient_dim", "_echelon", "prefix")

    def __init__(self, ambient_dim: int, _echelon: dict[int, dict[int, Fraction]],
                 prefix: int | None = None):
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "_echelon", _echelon)
        _set(self, "prefix", prefix)

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return type(self), (self.ambient_dim, self._echelon, self.prefix)

    @property
    def basis(self) -> Matrix:
        """The RREF basis rows as a dense matrix."""
        return Matrix(tuple(_dense_rows(self._echelon, self.ambient_dim)), self.ambient_dim)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self._echelon) == (other.ambient_dim, other._echelon)

    def __hash__(self):
        # order-blind, like the dict equality of the echelons
        return hash((self.ambient_dim,
                     frozenset((p, frozenset(tail.items())) for p, tail in self._echelon.items())))

    def __repr__(self):
        return f"{type(self).__qualname__}(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"

    def echelon(self) -> dict[int, dict[int, Fraction]]:
        """{pivot: {column: value} past the pivot} for the basis rows, in order."""
        return self._echelon

    def sparse_row(self, pivot: int) -> dict[int, Fraction]:
        """The basis row with this pivot, as {column: value}."""
        return {pivot: 1, **self._echelon[pivot]}

    @classmethod
    def from_echelon(cls, ambient_dim: int, echelon: dict[int, dict[int, Fraction]]) -> "Subspace":
        """The subspace whose RREF rows are given in sparse form, as echelon() returns them.

        k rows with pivots below k and no tail are the prefix [0, k).
        """
        k = len(echelon)
        prefix = all(p < k and not tail for p, tail in echelon.items())
        return cls(ambient_dim, echelon, k if prefix else None)

    @classmethod
    def prefix_space(cls, ambient_dim: int, k: int) -> "Subspace":
        """The coordinate prefix [0, k): the span of the first k unit vectors."""
        return cls(ambient_dim, {i: {} for i in range(k)}, k)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.prefix_space(ambient_dim, ambient_dim)

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


def _insert(rows: dict[int, dict[int, Fraction]], tags: dict[int, dict[int, Fraction]],
            residual: dict[int, Fraction], tag: dict[int, Fraction]) -> None:
    """Add the reduced, nonzero residual to a tagged echelon as a row with 1 at its pivot.

    The residual and its tag are both divided by its leading entry, so each
    row stays the combination its tag names.
    """
    pivot = min(residual)
    lead = residual.pop(pivot)
    if lead != 1:
        residual = {j: _ratio(a, lead) for j, a in residual.items()}
        tag = {i: _ratio(a, lead) for i, a in tag.items()}
    rows[pivot] = residual
    tags[pivot] = tag


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
        _insert(rows, tags, residual, tag)
    out = []
    for y in targets:
        x = dict(y)
        coords = _weigh(_eliminate(x, rows), tags)
        if any(x.values()):
            raise ValueError("a target is not in the span of the columns")
        out.append(coords)
    return out


class Quotient(ReadOnly):
    """v/w as quotient_map presents it: representatives and a sparse projection.

    The representatives are k rows of v that represent a basis of v/w, kept
    by their pivots in v's echelon: pivots[i] is the pivot of the i-th.
    classes maps each pivot of v to the class of its basis row, {i: a} for
    the nonzero coordinates along the representatives.  Any x in v is the
    sum of x[pivot] times v's basis rows, so its class is those classes
    weighted by x at v's pivots: `class_of` reads it from x's nonzero
    entries.  The dense forms are built each time they are read: `reps`,
    the representatives as a k x ambient matrix, and `proj`, the same map
    as `class_of` as a k x ambient matrix.

    window is (lo, hi) when v is a coordinate prefix and the quotient is
    the coordinate window [lo, hi) itself: the representatives are the
    window's coordinates in order, and the class of x is x on the window.
    It takes no part in equality, which compares space, pivots and classes.
    A quotient is not hashable: classes is a dict.
    """

    __slots__ = ("space", "pivots", "classes", "window")

    def __init__(self, space: Subspace, pivots: tuple[int, ...],
                 classes: dict[int, dict[int, Fraction]],
                 window: tuple[int, int] | None = None):
        _set(self, "space", space)
        _set(self, "pivots", pivots)
        _set(self, "classes", classes)
        _set(self, "window", window)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.space, self.pivots, self.classes)
                == (other.space, other.pivots, other.classes))

    def __repr__(self):
        return (f"{type(self).__qualname__}(space={self.space!r}, pivots={self.pivots!r}, "
                f"classes={self.classes!r}, window={self.window!r})")

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return type(self), (self.space, self.pivots, self.classes, self.window)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def reps(self) -> Matrix:
        ech = self.space.echelon()
        d = self.space.ambient_dim
        return Matrix(tuple(_dense_rows({p: ech[p] for p in self.pivots}, d)), d)

    @property
    def proj(self) -> Matrix:
        d = self.space.ambient_dim
        rows = [[_ZERO] * d for _ in range(self.dim)]
        for pivot, cls in self.classes.items():
            for i, a in cls.items():
                rows[i][pivot] = as_q(a)
        return Matrix(tuple(tuple(row) for row in rows), d)

    def class_of(self, x: dict[int, Fraction]) -> dict[int, Fraction] | None:
        """The class of x, given as {column: value}, or None when x is not in v.

        One `_eliminate` pass through v's echelon: a nonzero residual means x
        is not in v, and otherwise the multipliers, which are x at v's
        pivots, weigh the classes of those pivots.  x is used up.  On a
        prefix [0, k) the residual is x past k and the multipliers are x
        itself, and on a window quotient the class is x on the window.
        """
        k = self.space.prefix
        if k is None:
            used = _eliminate(x, self.space.echelon())
            if any(x.values()):
                return None
            return _weigh(used, self.classes)
        used = sorted((j, a) for j, a in x.items() if a)
        if used and used[-1][0] >= k:
            return None
        if self.window is None:
            return _weigh(used, self.classes)
        lo, hi = self.window
        return {j - lo: a for j, a in used if lo <= j < hi}


def quotient_map(v: Subspace, w, window: tuple[int, int] | None = None) -> Quotient:
    """Coset representatives and coordinate projection for v / span w.

    w is a list of vectors of v, each given by its nonzero entries as
    {column: value}.  In the result, reps has k rows which represent a
    basis of v / span w, and proj is a k x ambient matrix such that for any
    x in v the quotient coordinates of [x] are proj @ x.
    In particular proj @ x = 0 iff x in span w, and proj @ reps[i] = e_i.
    The Quotient also keeps proj sparse, as the class of each of v's pivots,
    and reads the class of a sparse vector with `class_of`.

    One pass: the vectors of w, then v's basis rows in order, go into one
    sparse echelon whose rows carry their class modulo w as coordinates along
    the representatives.  A row of v that the echelon does not reduce to
    zero is the next representative (the first k rows of v independent
    modulo w), so the result is canonical however w is spanned; one that it
    does reduce has its class read off the multipliers.  Each vector of w,
    reduced by v's basis rows, must leave nothing: that is the containment
    check, and a failing one raises ValueError, as does a vector with an
    entry past the ambient dimension.

    With window = (lo, hi), the quotient is v / (span w + {x in v : x is
    zero on columns lo .. hi-1}): the echelon reads columns lo .. hi-1 only.
    The representatives are still rows of v, chosen by the same rule, so
    reps and proj are those of the quotient by the full divisor.  The
    default window is every column.

    When v is a coordinate prefix [0, k), each of its rows is a unit
    vector: the containment check is that a vector of w has no nonzero
    entry at or past k, a row outside the window has class zero with no
    elimination, and where no vector of w is left on the window the
    quotient is the window itself, built directly.  The result is the one
    the general pass gives.
    """
    d = v.ambient_dim
    lo, hi = (0, d) if window is None else window
    k = v.prefix
    rows: dict[int, dict[int, Fraction]] = {}
    tags: dict[int, dict[int, Fraction]] = {}  # class of each row
    for y in w:
        if y and max(y) >= d:
            raise ValueError("ambient dimension mismatch")
        if k is None:
            residual = dict(y)
            _eliminate(residual, v.echelon())
            escapes = any(residual.values())
        else:
            escapes = any(a for j, a in y.items() if j >= k)
        if escapes:
            raise ValueError("quotient undefined: denominator is not contained in numerator")
        x = {j: a for j, a in y.items() if lo <= j < hi}
        _eliminate(x, rows)
        x = {j: a for j, a in x.items() if a}
        if x:
            _insert(rows, tags, x, {})
    if k is not None and not rows:
        top = min(hi, k)
        classes = {j: {j - lo: 1} if lo <= j < hi else {} for j in range(k)}
        return Quotient(v, tuple(range(lo, top)), classes, (lo, top))
    pivots = []  # of the representatives
    classes = {}  # class of each basis row of v, by its pivot
    for vpivot, vtail in v.echelon().items():
        if k is not None and not lo <= vpivot < hi:
            classes[vpivot] = {}
            continue
        x = {j: a for j, a in ((vpivot, 1), *vtail.items()) if lo <= j < hi}
        acc = _weigh(_eliminate(x, rows), tags)
        residual = {j: a for j, a in x.items() if a}
        if not residual:
            classes[vpivot] = acc
            continue
        # residual = v's row - (rows subtracted), so its class is e_i - acc
        i = len(pivots)
        pivots.append(vpivot)
        classes[vpivot] = {i: 1}
        acc = {j: -a for j, a in acc.items()}
        acc[i] = 1
        _insert(rows, tags, residual, acc)
    return Quotient(v, tuple(pivots), classes)


def graded_cohomology(maps):
    """Cohomology of a cochain complex given by its differentials d_0, d_1, ...

    Each d_q is SparseColumns, one column per basis vector of C^q.  Per
    degree q, in order, yields the Quotient ker d_q / im d_(q-1), whose reps
    represent a basis of H^q: ker d_q is one `sparse_kernel` of d_q's rows,
    and d_(q-1)'s nonzero columns are the divisor of `quotient_map`, which
    raises ValueError where one is not in ker d_q (d^2 != 0).  A zero d_q
    has all of C^q as kernel, with no rows gathered, and a zero d_(q-1)
    leaves ker d_q as it is, with no elimination.  maps may be lazy: each
    d_q is read once, used as a kernel and kept as the next degree's image,
    and a consumer that stops early builds no more.
    """
    below: list[dict[int, Fraction]] = []  # the nonzero columns of d_(q-1)
    for cols in maps:
        size = len(cols)
        image = [dict(col) for col in cols if col]
        if image:
            ker = Subspace.from_echelon(size, sparse_kernel(column_rows(cols), size))
        else:
            ker = Subspace.full(size)
        if below:
            yield quotient_map(ker, below)
        else:
            ech = ker.echelon()
            yield Quotient(ker, tuple(ech), {pivot: {i: 1} for i, pivot in enumerate(ech)})
        below = image


def cohomology_dims(maps) -> tuple[int, ...]:
    """dim H^q = dim C^q - rank d_q - rank d_(q-1) per degree, by ranks alone.

    The dimension-only counterpart of graded_cohomology, on the same
    columns, with no kernels, images or representatives: each rank is the
    `sparse_rank` of d_q's columns, and each d_q is read once.  It trusts
    d^2 = 0.
    """
    dims = []
    below = 0  # rank d_(q-1)
    for cols in maps:
        rk = sparse_rank(map(dict, cols))
        dims.append(len(cols) - rk - below)
        below = rk
    return tuple(dims)
