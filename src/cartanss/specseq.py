"""Spectral sequence of a filtered cochain complex, every page, exactly.

For a decreasing filtration F^0 >= F^1 >= ... compatible with the degree +1
differential d, the pages are computed from the general-position spaces

    Z_r^{p,q} = { x in F^p C^{p+q} : d x in F^{p+r} C^{p+q+1} }
    E_r^{p,q} = Z_r^{p,q} / ( d Z_{r-1}^{p-r+1, q+r-2} + Z_{r-1}^{p+1, q-1} )

with F^p = C for p <= 0, so the formulas hold uniformly for all r >= 0.  The
differential d_r : E_r^{p,q} -> E_r^{p+r, q-r+1} is induced by d on
representatives; every quotient is realized by explicit coset representatives
plus a coordinate projection, so induced maps are honest matrices.

Every filtration level here is a coordinate prefix: F^p C^m is spanned by the
first k(p, m) basis vectors.  So Z_r is the kernel of the block of d with
rows k(p+r, m+1): and columns :k(p, m), padded with zeros, and no subspace
intersection is needed.

The pages are built on the associated graded.  E_0^{p,q} = F^p C^m / F^(p+1)
C^m is the coordinate window [k(p+1, m), k(p, m)), m = p + q; where it is
empty, the spot is zero on every page and no cell is built.  Since
Z_r^p meets F^(p+1) in exactly Z_(r-1)^(p+1), the divisor's second part is
what the projection pi onto the window forgets, and

    E_r^{p,q} = pi(Z_r^p) / pi(d Z_(r-1)^(p-r+1)),

one pass of qlinalg.quotient_map over the window columns.  That pass also
checks that d Z_(r-1)^(p-r+1) lies in Z_r^p, and its representatives are
rows of Z_r^p in C^m, the same ones the full quotient would choose.

The differentials are very sparse (for a torus acting on itself d is zero),
so each d^m is also kept by the nonzero entries of its columns: d Z_(r-1)
and d_r are applied through that form, and a block of d with no nonzero
entry has all of F^p as its kernel without an elimination.

The filtration of the invariant-forms model is by chi-count complement:
F^p C^m is spanned by monomials of horizontal degree >= p, which come first
in the monomial basis.  The window of spot (p, q) is then B^p (x) Lambda^q,
so only the spots with B^p != 0 and q <= n get cells, not the whole
triangle 0 <= p <= m up to the top degree.  Page r = 0 and r = 1 are
bookkeeping pages of the bigraded model; the geometric content starts at
r = 2.  `iter_pages` builds the pages one after another over one cache of Z
spaces, so a run builds each page once, and it decides where they stop: at
the first page r >= 2 whose d_r is zero and whose nonzero cells leave no room
for a later differential, which is E_infinity.  `verify.Analysis` reads the
stabilization index off that one pass: one past the last r >= 2 with a
nonzero d_r, or 2 when there is none.  `AbutmentReport` compares E_infinity
with total cohomology degree by degree; `verify.Analysis` fills it in.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .model import EquivariantModel, degree_basis, max_total_degree, total_matrix
from .qlinalg import (
    Matrix,
    SparseColumns,
    Subspace,
    apply_columns,
    apply_sparse,
    kernel_basis,
    quotient_map,
    sparse_columns,
)
from .reports import CertificateError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FilteredComplex:
    """Finite cochain complex over Q with a decreasing, exhaustive prefix filtration.

    dims[m] is the ambient dimension of C^m for 0 <= m <= max_degree;
    d[m] maps C^m to C^(m+1) (the top one has zero rows);
    prefix[m][p] = k(p, m) for 0 <= p <= m+1: F^p C^m is spanned by the
    first k(p, m) coordinates, with k(0, m) = dims[m] and k(m+1, m) = 0.
    labels[m] optionally names the coordinates of C^m.
    d_columns[m] is d[m] in column-sparse form, derived once at construction;
    the page engine applies d only through it.
    """

    dims: tuple[int, ...]
    d: tuple[Matrix, ...]
    prefix: tuple[tuple[int, ...], ...]
    labels: tuple[tuple, ...] = field(default=())
    d_columns: tuple[SparseColumns, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "d_columns", tuple(sparse_columns(m) for m in self.d))

    @property
    def max_degree(self) -> int:
        return len(self.dims) - 1

    def ambient(self, m: int) -> int:
        if 0 <= m <= self.max_degree:
            return self.dims[m]
        return 0

    def dmat(self, m: int) -> Matrix:
        if 0 <= m <= self.max_degree:
            return self.d[m]
        return Matrix.zero(self.ambient(m + 1), self.ambient(m))

    def apply_d(self, m: int, vec) -> tuple[Fraction, ...]:
        """d x for x in C^m, visiting only the nonzero entries of d and x."""
        if 0 <= m <= self.max_degree:
            return apply_columns(self.d_columns[m], self.ambient(m + 1), vec)
        return (_ZERO,) * self.ambient(m + 1)

    def cut(self, p: int, m: int) -> int:
        """k(p, m) = dim F^p C^m, with F^p = C for p <= 0 and F^p = 0 deep enough."""
        if m < 0 or m > self.max_degree:
            return 0
        if p <= 0:
            return self.dims[m]
        levels = self.prefix[m]
        return levels[p] if p < len(levels) else 0

    def filt(self, p: int, m: int) -> Subspace:
        """F^p C^m as a subspace: the first cut(p, m) coordinate vectors."""
        return Subspace.from_echelon(self.ambient(m), {i: {} for i in range(self.cut(p, m))})

    def check_structure(self) -> None:
        """Assert shapes, decreasing filtration, and d-compatibility (test hook)."""
        for m in range(self.max_degree + 1):
            if self.d[m].cols != self.dims[m]:
                raise AssertionError(f"d[{m}] column count mismatch")
            target = self.dims[m + 1] if m + 1 <= self.max_degree else 0
            if self.d[m].rows != target:
                raise AssertionError(f"d[{m}] row count mismatch")
            levels = self.prefix[m]
            if levels[0] != self.dims[m] or levels[-1] != 0:
                raise AssertionError(f"filtration of C^{m} must run from full to zero")
            for p in range(len(levels) - 1):
                if levels[p] < levels[p + 1]:
                    raise AssertionError(f"filtration not decreasing at F^{p + 1} C^{m}")
            for p in range(len(levels)):
                k = levels[p]
                if any(x for row in self.d[m].data[self.cut(p, m + 1):] for x in row[:k]):
                    raise AssertionError(f"d does not preserve F^{p} at degree {m}")


def cartan_filtration(model: EquivariantModel) -> FilteredComplex:
    """Filtration by horizontal degree of the invariant-forms model.

    Monomial bases are ordered by descending horizontal degree, so each F^p
    is a coordinate prefix.  The model must pass validate_model.
    """
    top = max_total_degree(model)
    dims = []
    dmats = []
    prefix = []
    labels = []
    for m in range(top + 1):
        basis, _ = degree_basis(model, m)
        degrees = [model.basic.degree_of(g) for g, _ in basis]
        dims.append(len(basis))
        labels.append(basis)
        dmats.append(total_matrix(model, m))
        prefix.append(tuple(sum(1 for deg in degrees if deg >= p) for p in range(m + 2)))
    return FilteredComplex(tuple(dims), tuple(dmats), tuple(prefix), tuple(labels))


@dataclass(frozen=True, slots=True)
class PageCell:
    """One spot E_r^{p,q} of the E_0 support: Z_r and the quotient presentation."""

    p: int
    q: int
    dim: int
    reps: Matrix      # dim rows; coset representatives in C^(p+q) coordinates
    proj: Matrix      # quotient coordinates of any vector of z_space
    z_space: Subspace


@dataclass(frozen=True)
class SpectralPage:
    r: int
    cells: dict[tuple[int, int], PageCell]
    dr: dict[tuple[int, int], Matrix]

    def dims(self) -> dict[tuple[int, int], int]:
        return {pq: c.dim for pq, c in self.cells.items() if c.dim}

    def dr_ranks(self) -> dict[tuple[int, int], int]:
        return {pq: m.rank() for pq, m in self.dr.items()}

    def dr_is_zero(self) -> bool:
        return all(m.is_zero() for m in self.dr.values())


def _z_space(fc: FilteredComplex, r: int, p: int, m: int, cache: dict) -> Subspace:
    """Z_r at filtration p, total degree m: F^p meeting d^{-1}(F^{p+r}).

    x lies in F^p exactly when it is zero past k(p, m), and d x lies in
    F^(p+r) exactly when the rows of d past k(p+r, m+1) kill it, so Z_r is
    the kernel of that block of d.  Zero columns appended to a reduced
    echelon basis leave it reduced, so the result is the canonical basis.
    """
    key = (r, p, m)
    hit = cache.get(key)
    if hit is not None:
        return hit
    k = fc.cut(p, m)
    start = fc.cut(p + r, m + 1)
    if 0 <= m <= fc.max_degree and any(
        i >= start for col in fc.d_columns[m][:k] for i, _ in col
    ):
        block = Matrix(tuple(row[:k] for row in fc.d[m].data[start:]), k)
        out = Subspace.from_echelon(fc.ambient(m), kernel_basis(block).echelon())
    else:
        out = fc.filt(p, m)  # the block is zero, so Z_r is all of F^p
    cache[key] = out
    return out


def _boundaries(fc: FilteredComplex, r: int, p: int, m: int, cache: dict) -> list[dict]:
    """d Z_(r-1)^(p-r+1) in C^m: the nonzero images of that space's basis rows.

    Each is kept by its nonzero entries, {coordinate: value}.
    """
    if not 1 <= m <= fc.max_degree:
        return []
    cols = fc.d_columns[m - 1]
    born = _z_space(fc, r - 1, p - r + 1, m - 1, cache).echelon()
    images = (apply_sparse(cols, {pivot: _ONE, **tail}) for pivot, tail in born.items())
    return [y for y in images if y]


def page(fc: FilteredComplex, r: int, _cache: dict | None = None) -> SpectralPage:
    """The r-th page with its differential, one cell per spot of the E_0 support.

    E_0^(p,q) is F^p C^m / F^(p+1) C^m, the coordinate window
    [k(p+1, m), k(p, m)) with m = p + q, so a spot whose window is empty is
    zero on every page and gets no cell.  Each other spot is
    E_r = pi(Z_r^p) / pi(d Z_(r-1)^(p-r+1)), pi the projection onto its
    window: Z_r^p meets F^(p+1) in Z_(r-1)^(p+1), which is the rest of the
    divisor, so quotient_map works on the window columns alone.  It still
    checks that d Z_(r-1)^(p-r+1) lies in Z_r^p, and the representatives
    are rows of Z_r^p in C^m.
    """
    if r < 0:
        raise ValueError("page index must be >= 0")
    cache: dict = {} if _cache is None else _cache
    cells: dict[tuple[int, int], PageCell] = {}
    top = fc.max_degree
    for m in range(top + 1):
        for p in range(m + 1):
            q = m - p
            lo, hi = fc.cut(p + 1, m), fc.cut(p, m)
            if lo == hi:
                continue
            z = _z_space(fc, r, p, m, cache)
            try:
                reps, proj = quotient_map(z, _boundaries(fc, r, p, m, cache), window=(lo, hi))
            except ValueError:
                raise CertificateError(f"divisor escapes Z_{r}", (p, q), r) from None
            cells[(p, q)] = PageCell(p, q, reps.rows, reps, proj, z)
    dr: dict[tuple[int, int], Matrix] = {}
    for (p, q), cell in cells.items():
        if cell.dim == 0:
            continue
        tgt = cells.get((p + r, q - r + 1))
        if tgt is None or tgt.dim == 0:
            dr[(p, q)] = Matrix.zero(0 if tgt is None else tgt.dim, cell.dim)
            continue
        cols = []
        for rep in cell.reps.data:
            y = fc.apply_d(p + q, rep)
            if not tgt.z_space.contains_vector(y):
                raise CertificateError("d of a representative escapes Z", (p, q), r)
            cols.append(tgt.proj.apply(y))
        data = [[cols[j][i] for j in range(len(cols))] for i in range(tgt.dim)]
        dr[(p, q)] = Matrix.of(data, cols=cell.dim)
    return SpectralPage(r, cells, dr)


def iter_pages(fc: FilteredComplex) -> Iterator[SpectralPage]:
    """Pages E_0, E_1, ..., each built once, ending with E_infinity.

    Page E_r, r >= 2, is E_infinity when d_r is zero and no two nonzero cells
    sit at (p, q) and (p+s, q-s+1) for any s > r: every later page is a
    subquotient of E_r, so no later d_s can be nonzero.  Past the largest gap
    in p between nonzero cells no such pair is left and d_r is zero, so the
    pages end by r = max_degree + 2.

    Page r needs Z_r and Z_(r-1), so one Z cache is shared along the way and
    the spaces of earlier pages are dropped as soon as no later page needs
    them.
    """
    cache: dict = {}
    r = 0
    while True:
        pg = page(fc, r, cache)
        yield pg
        if r >= 2 and pg.dr_is_zero():
            dims = pg.dims()
            if not any((p + s, q - s + 1) in dims
                       for p, q in dims for s in range(r + 1, q + 2)):
                return
        for key in [key for key in cache if key[0] < r]:
            del cache[key]
        r += 1


def homology_dims(pg: SpectralPage) -> dict[tuple[int, int], int]:
    """Dims of ker(d_r)/im(d_r) per cell: the next page computed the slow way."""
    out: dict[tuple[int, int], int] = {}
    for (p, q), cell in pg.cells.items():
        if cell.dim == 0:
            continue
        out_rank = pg.dr[(p, q)].rank()
        inc = pg.dr.get((p - pg.r, q + pg.r - 1))
        in_rank = inc.rank() if inc is not None else 0
        h = cell.dim - out_rank - in_rank
        if h:
            out[(p, q)] = h
    return out


@dataclass(frozen=True)
class AbutmentRow:
    """Degree k: the sum of dim E_infinity^(p,q) over p + q = k against dim H^k."""

    degree: int
    stable_total: int
    cohomology_dim: int

    @property
    def ok(self) -> bool:
        return self.stable_total == self.cohomology_dim


@dataclass(frozen=True)
class AbutmentReport:
    rows: tuple[AbutmentRow, ...]
    stabilization: int

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)
