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
so the complex keeps each d^m only by the nonzero entries of its columns,
read straight off the model's monomial images; no dense d is built.  Every
space is sparse first: Z_r is one qlinalg.sparse_kernel of the block's rows,
gathered from those columns, and is kept by its echelon; a block with no
nonzero entry has all of F^p as its kernel without an elimination.  d Z_(r-1)
and d_r are applied through the columns.  d_r applies d to each
representative's sparse echelon row and reads the class of the image in the
target cell by one elimination through the target's Z_r
(qlinalg.Quotient.class_of), which is also the check that it lies in Z_r;
no vector of C^m is built dense, and the rank of d_r comes from the same
sparse columns.  A Subspace's dense basis and a cell's dense reps and proj
are built only when read, which the page pass never does.

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

from .model import EquivariantModel, degree_basis, max_total_degree, total_columns
from .qlinalg import (
    Matrix,
    Quotient,
    SparseColumns,
    Subspace,
    apply_sparse,
    quotient_map,
    sparse_kernel,
    sparse_rank,
)
from .reports import CertificateError


@dataclass(frozen=True)
class FilteredComplex:
    """Finite cochain complex over Q with a decreasing, exhaustive prefix filtration.

    dims[m] is the ambient dimension of C^m for 0 <= m <= max_degree;
    d_columns[m] is d^m : C^m -> C^(m+1) column by column (the top one maps
    to zero): column j holds the (row, value) pairs of the nonzero entries of
    d e_j, in increasing row order;
    prefix[m][p] = k(p, m) for 0 <= p <= m+1: F^p C^m is spanned by the
    first k(p, m) coordinates, with k(0, m) = dims[m] and k(m+1, m) = 0.
    labels[m] optionally names the coordinates of C^m.
    """

    dims: tuple[int, ...]
    d_columns: tuple[SparseColumns, ...]
    prefix: tuple[tuple[int, ...], ...]
    labels: tuple[tuple, ...] = field(default=())

    @property
    def max_degree(self) -> int:
        return len(self.dims) - 1

    def ambient(self, m: int) -> int:
        if 0 <= m <= self.max_degree:
            return self.dims[m]
        return 0

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


def cartan_filtration(model: EquivariantModel) -> FilteredComplex:
    """Filtration by horizontal degree of the invariant-forms model.

    Monomial bases are ordered by descending horizontal degree, so each F^p
    is a coordinate prefix.  d is read column-sparse off the model's
    monomial images (model.total_columns).  The model must pass
    validate_model.
    """
    top = max_total_degree(model)
    dims = []
    columns = []
    prefix = []
    labels = []
    for m in range(top + 1):
        basis, _ = degree_basis(model, m)
        degrees = [model.basic.degree_of(g) for g, _ in basis]
        dims.append(len(basis))
        labels.append(basis)
        columns.append(total_columns(model, m))
        prefix.append(tuple(sum(1 for deg in degrees if deg >= p) for p in range(m + 2)))
    return FilteredComplex(tuple(dims), tuple(columns), tuple(prefix), tuple(labels))


@dataclass(frozen=True, slots=True)
class PageCell:
    """One spot E_r^{p,q} of the E_0 support: Z_r and the quotient presentation.

    reps are coset representatives in C^(p+q) coordinates and proj gives the
    quotient coordinates of any vector of z_space; proj is built on first
    use, and `quotient.class_of` reads the same coordinates from a sparse
    vector.
    """

    p: int
    q: int
    quotient: Quotient
    z_space: Subspace

    dim = property(lambda self: self.quotient.dim)
    reps = property(lambda self: self.quotient.reps)
    proj = property(lambda self: self.quotient.proj)


@dataclass(frozen=True)
class SpectralPage:
    """Page r: its cells, d_r per source cell, and the rank of each d_r.

    ranks[pq] is the rank of dr[pq]; `page` counts it from the sparse
    columns it builds dr from.
    """

    r: int
    cells: dict[tuple[int, int], PageCell]
    dr: dict[tuple[int, int], Matrix]
    ranks: dict[tuple[int, int], int] = field(compare=False)

    def dims(self) -> dict[tuple[int, int], int]:
        return {pq: c.dim for pq, c in self.cells.items() if c.dim}

    def dr_ranks(self) -> dict[tuple[int, int], int]:
        return dict(self.ranks)

    def dr_is_zero(self) -> bool:
        return not any(self.ranks.values())


def _z_space(fc: FilteredComplex, r: int, p: int, m: int, cache: dict) -> Subspace:
    """Z_r at filtration p, total degree m: F^p meeting d^{-1}(F^{p+r}).

    x lies in F^p exactly when it is zero past k(p, m), and d x lies in
    F^(p+r) exactly when the rows of d past k(p+r, m+1) kill it, so Z_r is
    the kernel of that block of d, one `sparse_kernel` of the block's rows
    read off d's columns.  Zero columns appended to a reduced echelon basis
    leave it reduced, so the result is the canonical basis.
    """
    key = (r, p, m)
    hit = cache.get(key)
    if hit is not None:
        return hit
    k = fc.cut(p, m)
    start = fc.cut(p + r, m + 1)
    rows: dict[int, list] = {}  # the block's nonzero rows, by row of d
    if 0 <= m <= fc.max_degree:
        for j, col in enumerate(fc.d_columns[m][:k]):
            for i, a in col:
                if i >= start:
                    rows.setdefault(i, []).append((j, a))
    # a zero block has no rows, and its kernel is all of F^p with no elimination
    out = Subspace.from_echelon(fc.ambient(m), sparse_kernel([rows[i] for i in sorted(rows)], k))
    cache[key] = out
    return out


def _boundaries(fc: FilteredComplex, r: int, p: int, m: int, cache: dict) -> list[dict]:
    """d Z_(r-1)^(p-r+1) in C^m: the nonzero images of that space's basis rows.

    Each is kept by its nonzero entries, {coordinate: value}.
    """
    if not 1 <= m <= fc.max_degree:
        return []
    cols = fc.d_columns[m - 1]
    born = _z_space(fc, r - 1, p - r + 1, m - 1, cache)
    images = (apply_sparse(cols, born.sparse_row(pivot)) for pivot in born.echelon())
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

    d_r of a representative is d applied to its sparse echelon row, and its
    class in the target cell is one class read: the elimination through the
    target's Z_r that checks containment also gives the coordinates.
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
                quot = quotient_map(z, _boundaries(fc, r, p, m, cache), window=(lo, hi))
            except ValueError:
                raise CertificateError(f"divisor escapes Z_{r}", (p, q), r) from None
            cells[(p, q)] = PageCell(p, q, quot, z)
    dr: dict[tuple[int, int], Matrix] = {}
    ranks: dict[tuple[int, int], int] = {}
    for (p, q), cell in cells.items():
        if cell.dim == 0:
            continue
        tgt = cells.get((p + r, q - r + 1))
        if tgt is None or tgt.dim == 0:
            dr[(p, q)] = Matrix.zero(0 if tgt is None else tgt.dim, cell.dim)
            ranks[(p, q)] = 0
            continue
        d_cols = fc.d_columns[p + q]
        cols = []
        for pivot in cell.quotient.pivots:
            y = tgt.quotient.class_of(apply_sparse(d_cols, cell.z_space.sparse_row(pivot)))
            if y is None:
                raise CertificateError("d of a representative escapes Z", (p, q), r)
            cols.append(y)
        dr[(p, q)] = Matrix.from_columns(cols, tgt.dim)
        ranks[(p, q)] = sparse_rank(cols)
    return SpectralPage(r, cells, dr, ranks)


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
        out_rank = pg.ranks[(p, q)]
        in_rank = pg.ranks.get((p - pg.r, q + pg.r - 1), 0)
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
